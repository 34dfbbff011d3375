import numpy as np
import pytest

from rmtlab import laws
from rmtlab.spectra import (
    esd,
    histogram,
    hoffman_wielandt_bound,
    ks_distance,
    symmetric_eigenvalues,
    wasserstein2,
)


def _random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n))
    return S + S.T


# ---------------------------------------------------------------------------
# symmetric_eigenvalues
# ---------------------------------------------------------------------------

def test_identity_eigenvalues():
    assert np.array_equal(symmetric_eigenvalues(np.eye(5)), np.ones(5))


def test_diagonal_eigenvalues_sorted():
    assert np.allclose(symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])),
                       [1.0, 2.0, 3.0])


def test_trace_and_hs_identities():
    S = _random_symmetric(6, 0)
    ev = symmetric_eigenvalues(S)
    assert ev.sum() == pytest.approx(np.trace(S), rel=1e-9)
    assert np.sum(ev**2) == pytest.approx(np.linalg.norm(S) ** 2, rel=1e-9)


def test_rejects_nonsquare_and_asymmetric():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.ones((2, 3)))
    S = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        symmetric_eigenvalues(S)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_entries(bad):
    S = np.eye(3)
    S[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        symmetric_eigenvalues(S)


def test_tolerates_roundoff_asymmetry():
    S = _random_symmetric(4, 1)
    S[0, 1] += 1e-14
    symmetric_eigenvalues(S)  # should not raise


# ---------------------------------------------------------------------------
# esd
# ---------------------------------------------------------------------------

def test_esd_sorts_and_steps():
    spec = esd([2.0, 1.0])
    assert np.array_equal(spec.eigenvalues, [1.0, 2.0])
    assert spec.cdf(1.5) == 0.5
    assert spec.cdf(0.0) == 0.0
    assert spec.cdf(2.0) == 1.0


def test_esd_point_mass():
    spec = esd([3.0] * 7)
    assert spec.cdf(2.999) == 0.0
    assert spec.cdf(3.0) == 1.0


def test_esd_permutation_invariant():
    vals = np.random.default_rng(2).standard_normal(20)
    a = esd(vals)
    b = esd(vals[::-1])
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_esd_rejects_empty():
    with pytest.raises(ValueError):
        esd([])


def test_sample_covariance_spectrum_in_mp_support():
    from rmtlab.ensemble import sample_data_matrix
    X = sample_data_matrix(200, 500, seed=6)
    ev = symmetric_eigenvalues(X.entries @ X.entries.T / 500)
    a = (1 - np.sqrt(0.4)) ** 2
    b = (1 + np.sqrt(0.4)) ** 2
    assert ev.min() > a - 0.1
    assert ev.max() < b + 0.1


# ---------------------------------------------------------------------------
# ks_distance
# ---------------------------------------------------------------------------

def test_ks_self_is_zero():
    spec = esd(np.random.default_rng(3).standard_normal(50))
    assert ks_distance(spec, spec.cdf) == 0.0


def test_ks_disjoint_point_masses():
    spec = esd([0.0])
    point_at_one = lambda x: (np.asarray(x) >= 1.0).astype(float)
    assert ks_distance(spec, point_at_one) == 1.0


def test_ks_counts_tied_eigenvalues_together():
    spec = esd([1.0, 1.0, 2.0])
    assert ks_distance(spec, spec.cdf) == 0.0


def test_ks_exact_against_two_atom_law():
    two_atoms = lambda x: 0.5 * (np.asarray(x) >= 0.0) + 0.5 * (np.asarray(x) >= 1.0)
    assert ks_distance(esd([0.0, 0.0, 1.0, 1.0]), two_atoms) == 0.0


def test_ks_against_mp_sample():
    # inverse-transform sample from MP(0.4, 1), then compare to its own CDF
    law = laws.MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    grid = np.linspace(a, b, 2000)
    cdf_grid = laws.mp_cdf(law, grid)
    u = (np.arange(500) + 0.5) / 500
    sample = np.interp(u, cdf_grid, grid)
    d = ks_distance(esd(sample), lambda x: laws.mp_cdf(law, x))
    assert d <= 0.08


def test_ks_triangle_inequality():
    rng = np.random.default_rng(4)
    s1 = esd(rng.standard_normal(40))
    s2 = esd(rng.standard_normal(40))
    g = lambda x: laws.sc_cdf(laws.SCLaw(variance=1.0), x)
    assert ks_distance(s1, g) <= ks_distance(s1, s2.cdf) + ks_distance(s2, g) + 1e-12


# ---------------------------------------------------------------------------
# wasserstein2 and the Hoffman-Wielandt bound
# ---------------------------------------------------------------------------

def test_w2_identical_is_zero():
    spec = esd([1.0, 2.0, 3.0])
    assert wasserstein2(spec, spec) == 0.0


def test_w2_shifted_point_masses():
    assert wasserstein2(esd([0.0, 0.0]), esd([1.0, 1.0])) == 1.0


def test_w2_shift_covariance():
    S = _random_symmetric(10, 5)
    t = 0.37
    ev1 = symmetric_eigenvalues(S)
    ev2 = symmetric_eigenvalues(S + t * np.eye(10))
    assert wasserstein2(esd(ev1), esd(ev2)) == pytest.approx(t, abs=1e-10)


def test_w2_rejects_size_mismatch():
    with pytest.raises(ValueError):
        wasserstein2(esd([1.0]), esd([1.0, 2.0]))


def test_hw_bound_zero_and_tight():
    S = _random_symmetric(8, 6)
    assert hoffman_wielandt_bound(S, S) == 0.0
    t = 0.9
    bound = hoffman_wielandt_bound(S, S + t * np.eye(8))
    assert bound == pytest.approx(t, abs=1e-12)


def test_hw_bound_dominates_w2():
    for seed in range(20):
        S1 = _random_symmetric(12, 100 + seed)
        S2 = _random_symmetric(12, 200 + seed)
        w2 = wasserstein2(esd(symmetric_eigenvalues(S1)),
                          esd(symmetric_eigenvalues(S2)))
        assert w2 <= hoffman_wielandt_bound(S1, S2) + 1e-10


def test_hw_bound_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        hoffman_wielandt_bound(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def test_histogram_single_value():
    h = histogram(esd([2.0]), bins=1)
    width = h.bin_edges[1] - h.bin_edges[0]
    assert h.densities[0] == pytest.approx(1.0 / width)


def test_histogram_uniform_grid():
    h = histogram(esd(np.linspace(0.0, 1.0, 1001)), bins=10, range=(0.0, 1.0))
    assert np.allclose(h.densities, 1.0, atol=0.02)


def test_histogram_mass_is_one():
    vals = np.random.default_rng(7).standard_normal(500)
    h = histogram(esd(vals), bins=60)
    mass = np.sum(h.densities * np.diff(h.bin_edges))
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_histogram_rejects_zero_bins():
    with pytest.raises(ValueError):
        histogram(esd([1.0]), bins=0)
