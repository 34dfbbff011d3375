"""Property tests: the library against its oracles on randomly drawn inputs."""

import numpy as np
import pytest

from oracle import kernel_matrix, truncated_covariance_direct
from rmtlab.ensemble import (
    KernelSpec,
    covariance_and_stream,
    indicator_radius_from_z_alpha,
    sample_data_matrix,
    truncated_covariance,
)
from rmtlab.laws import GenMPLaw, MPLaw, SCLaw, law_grid, solve_stieltjes_grid, zeta_indicator
from rmtlab.spectra import esd, ks_distance

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
        A = kernel_matrix(K, X.entries)
        np.fill_diagonal(A, 0.0)
        deg, _ = covariance_and_stream(X, K, block=block)[1:]
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


@st.composite
def spectra_with_ties(draw):
    # distinct values, each repeated 1-3 times; 0 is a candidate so the
    # eigenvalues can sit on the MP atom at c > 1
    values = draw(st.lists(st.sampled_from([0.0]) | st.floats(-1.0, 6.0),
                           min_size=1, max_size=12, unique=True))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(values),
                           max_size=len(values)))
    return esd(np.repeat(values, counts))


@st.composite
def laws_with_atoms(draw):
    kind = draw(st.sampled_from(["mp", "sc", "genmp"]))
    if kind == "mp":
        return MPLaw(draw(st.floats(0.1, 4.0)), draw(st.floats(0.2, 3.0)))
    if kind == "sc":
        return SCLaw(draw(st.floats(0.2, 3.0)))
    # on the default grid rule with 250-400 points: a coarser grid can fail the
    # inversion's mass check (100 points: near c = 1 at z_alpha <= -0.5)
    c, sigma = draw(st.floats(0.1, 4.0)), draw(st.floats(0.5, 2.0))
    return GenMPLaw(c, sigma, zeta_indicator(draw(st.floats(-1.0, 1.5))),
                    law_grid(None, None, draw(st.integers(250, 400)), c, sigma**2))


@SETTINGS
@hypothesis.given(spec=spectra_with_ties(), law=laws_with_atoms())
def test_ks_equals_brute_force_sup(spec, law):
    lam = spec.eigenvalues
    ks = ks_distance(spec, law.cdf)
    # the step CDF is constant between eigenvalues, so the sup over x is
    # reached at an eigenvalue or at its left limit
    g, g_left = law.cdf(lam), law.cdf(np.nextafter(lam, -np.inf))
    brute = max(max(abs(np.mean(lam <= x) - gx), abs(np.mean(lam < x) - gl))
                for x, gx, gl in zip(lam, g, g_left))
    assert 0.0 <= ks <= 1.0
    assert ks == brute
    grid = np.linspace(lam[0] - 1.0, lam[-1] + 1.0, 501)
    assert np.all(np.abs(spec.cdf(grid) - law.cdf(grid)) <= ks + 1e-15)


@SETTINGS
@hypothesis.given(law=laws_with_atoms())
def test_law_cdf_monotone_in_unit_interval(law):
    # an atom at 0 is inside [lo, hi]
    lo, hi = min(0.0, law.support[0]), law.support[1]
    x = np.linspace(lo - 1.0, hi + 1.0, 2001)
    F = law.cdf(x)
    assert np.all(np.diff(F) >= 0.0)
    assert np.all((F >= 0.0) & (F <= 1.0))
    assert np.all(F[x < lo] == 0.0) and np.all(F[x >= hi] == 1.0)


@SETTINGS
@hypothesis.given(c=st.floats(0.1, 4.0), scale=st.floats(0.2, 3.0))
def test_mp_cdf_below_the_lower_edge_is_the_atom(c, scale):
    # the atom at 0 (none for c <= 1) holds all the mass below the lower edge
    law = MPLaw(c, scale)
    x = np.linspace(-1.0, law.support[1] + 1.0, 2001)
    gap = (x >= 0.0) & (x <= law.support[0])
    assert np.all(law.cdf(x[gap]) == law.atom_at_zero)
