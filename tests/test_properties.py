"""Property tests: the library against its oracles on randomly drawn inputs."""

import numpy as np
import pytest

from oracle import truncated_covariance_direct
from rmtlab.ensemble import (
    KernelSpec,
    adjacency_stream,
    indicator_radius_from_z_alpha,
    sample_data_matrix,
    truncated_covariance,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# derandomized and without an example database, so every run draws the
# same cases
SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                               database=None)


@st.composite
def stream_cases(draw):
    p = draw(st.integers(1, 12))
    n = draw(st.integers(1, 70))
    block = draw(st.integers(1, n + 3))
    variant = draw(st.sampled_from(["constant", "indicator", "gaussian", "custom"]))
    if variant == "indicator":
        z_alpha = draw(st.floats(-1.5, 1.5))
        kw = {"radius": indicator_radius_from_z_alpha(z_alpha, 1.0, p)}
    elif variant == "gaussian":
        kw = {"tau": draw(st.floats(0.3, 3.0))}
    elif variant == "custom":
        kw = {"profile": lambda sq: 1.0 / (1.0 + sq / (2.0 * p))}
    else:
        kw = {}
    X = sample_data_matrix(p, n, seed=draw(st.integers(0, 2**32 - 1)))
    return X, KernelSpec(variant=variant, dimension=p, **kw), block


@SETTINGS
@hypothesis.given(stream_cases())
def test_tiled_stream_equals_pair_sum(case):
    X, K, block = case
    M1 = truncated_covariance_direct(X, K)
    M2 = truncated_covariance(X, K, block=block)
    assert np.linalg.norm(M1 - M2) <= 1e-10 * max(np.linalg.norm(M1), 1e-30)
    if K.variant == "indicator":
        A = K.gram(X.entries)
        np.fill_diagonal(A, 0.0)
        deg, _ = adjacency_stream(X, K, block=block)
        assert np.array_equal(deg, A.sum(axis=1))
