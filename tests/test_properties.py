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
from rmtlab.laws import MPLaw, solve_stieltjes_grid, zeta_indicator

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


@hypothesis.settings(SETTINGS, max_examples=200)
@hypothesis.given(c=st.floats(0.05, 10.0), sigma=st.floats(0.5, 2.0),
                  z_alpha=st.floats(-3.0, 3.0), log_v=st.floats(-4.0, -1.0))
def test_solver_residual_and_upper_half_plane(c, sigma, z_alpha, log_v):
    x = np.linspace(-0.1 * sigma**2, 2 * MPLaw(c, sigma**2).support[1], 100)
    sol = solve_stieltjes_grid(x + 1j * 10.0**log_v, c, sigma,
                               zeta_indicator(z_alpha))
    assert sol.max_residual <= 1e-10
    assert np.all(sol.values.imag > 0)
