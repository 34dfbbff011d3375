import tracemalloc

import numpy as np
import pytest

from rmtlab import ensemble as R
from oracle import truncated_covariance_direct
from rmtlab.ensemble import (
    KernelSpec,
    _kernel_moment_mc,
    adjacency_stream,
    pairwise_sqdist,
    sample_data_matrix,
    truncated_covariance,
)


# ---------------------------------------------------------------------------
# sample_data_matrix
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic():
    a = sample_data_matrix(2, 2, "gaussian", 1.0, seed=42)
    b = sample_data_matrix(2, 2, "gaussian", 1.0, seed=42)
    assert np.array_equal(a.entries, b.entries)


def test_distinct_seeds_give_distinct_streams():
    a = sample_data_matrix(10, 10, "gaussian", 1.0, seed=1)
    b = sample_data_matrix(10, 10, "gaussian", 1.0, seed=2)
    assert not np.array_equal(a.entries, b.entries)


def test_entries_are_centered():
    X = sample_data_matrix(200, 500, "gaussian", 1.0, seed=3)
    assert abs(X.entries.mean()) < 4.0 / np.sqrt(200 * 500)


def test_rademacher_variance():
    X = sample_data_matrix(1000, 1000, "rademacher", 1.0, seed=4)
    v = X.entries.var()
    assert 0.99 <= v <= 1.01


def test_uniform_centered_matches_sigma():
    X = sample_data_matrix(500, 500, "uniform_centered", 2.0, seed=5)
    assert abs(X.entries.mean()) < 0.05
    assert abs(X.entries.var() - 4.0) < 0.1


@pytest.mark.parametrize("kwargs", [
    dict(p=0, n=5), dict(p=5, n=0), dict(p=5, n=5, sigma=0.0),
    dict(p=5, n=5, entry_law="cauchy"),
])
def test_sampling_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        sample_data_matrix(**{"entry_law": "gaussian", "sigma": 1.0,
                              "seed": 0, **kwargs})


def test_derive_seed_reproducible_and_distinct():
    s = [R.derive_seed(7, t) for t in range(50)]
    assert s == [R.derive_seed(7, t) for t in range(50)]
    assert len(set(s)) == 50


# ---------------------------------------------------------------------------
# kernels and the adjacency stream
# ---------------------------------------------------------------------------

def test_constant_kernel_graph_n3():
    X = sample_data_matrix(4, 3, seed=0)
    deg, xaxt = adjacency_stream(X, KernelSpec(variant="constant", dimension=4))
    W = X.entries
    assert np.array_equal(deg, np.full(3, 2.0))
    assert np.allclose(xaxt, W @ (np.ones((3, 3)) - np.eye(3)) @ W.T)


def test_zero_radius_gives_empty_graph():
    X = sample_data_matrix(5, 6, seed=1)
    K = KernelSpec(variant="indicator", dimension=5, radius=0.0)
    deg, xaxt = adjacency_stream(X, K)
    assert not deg.any()
    assert not xaxt.any()
    assert not truncated_covariance(X, K).any()


def test_laplacian_identities():
    X = sample_data_matrix(6, 4, seed=2)
    K = KernelSpec(variant="gaussian", dimension=6, tau=1.0)
    deg, _ = adjacency_stream(X, K)
    A = K.gram(X.entries)
    np.fill_diagonal(A, 0.0)
    assert np.allclose(deg, A.sum(axis=1), rtol=1e-12, atol=1e-14)
    M = truncated_covariance(X, K)
    assert np.linalg.eigvalsh(M).min() >= -1e-10 * np.linalg.norm(M)


def test_graph_dimension_mismatch():
    X = sample_data_matrix(5, 6, seed=1)
    K = KernelSpec(variant="constant", dimension=4)
    with pytest.raises(ValueError):
        adjacency_stream(X, K)
    with pytest.raises(ValueError):
        truncated_covariance(X, K)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(variant="indicator", dimension=3)
    with pytest.raises(ValueError):
        KernelSpec(variant="gaussian", dimension=3, tau=0.0)
    with pytest.raises(ValueError):
        KernelSpec(variant="custom", dimension=3)
    with pytest.raises(ValueError):
        KernelSpec(variant="triangle", dimension=3)


def test_custom_profile_must_stay_in_unit_interval():
    K = KernelSpec(variant="custom", dimension=3, profile=lambda sq: 2.0 * sq)
    with pytest.raises(ValueError):
        K.eval_sqdist(np.array([1.0]))


def test_pairwise_sqdist_matches_loops():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 5))
    sq = pairwise_sqdist(X)
    for i in range(5):
        for j in range(5):
            assert sq[i, j] == pytest.approx(
                np.sum((X[:, i] - X[:, j]) ** 2), abs=1e-12)


def test_radius_parametrizations_are_inverse():
    for beta in (-0.1, 0.1, 0.3):
        r = R.indicator_radius_from_beta(beta, 1.0, 200)
        za = R.z_alpha_from_radius(r, 1.0, 200)
        assert za == pytest.approx(R.z_alpha_from_beta(beta, 200), abs=1e-10)
        assert R.indicator_radius_from_z_alpha(za, 1.0, 200) == pytest.approx(r)


# ---------------------------------------------------------------------------
# truncated covariance
# ---------------------------------------------------------------------------

def test_constant_kernel_is_centered_sample_covariance():
    X = sample_data_matrix(8, 30, seed=3)
    M = truncated_covariance(X, KernelSpec(variant="constant", dimension=8))
    W = X.entries
    centered = W - W.mean(axis=1, keepdims=True)
    S = centered @ centered.T / 30
    assert np.allclose(M, S, rtol=1e-12, atol=1e-14)


def test_single_sample_gives_zero():
    X = sample_data_matrix(4, 1, seed=0)
    M = truncated_covariance(X, KernelSpec(variant="constant", dimension=4))
    assert not M.any()


def test_direct_matches_brute_force_double_sum():
    X = sample_data_matrix(3, 4, seed=9)
    K = KernelSpec(variant="indicator", dimension=3, radius=2.0)
    W = X.entries
    M_ref = np.zeros((3, 3))
    for i in range(4):
        for j in range(4):
            diff = W[:, i] - W[:, j]
            k = 1.0 if np.sum(diff**2) <= 4.0 else 0.0
            M_ref += k * np.outer(diff, diff)
    M_ref /= 2.0 * 16
    M = truncated_covariance_direct(X, K)
    assert np.allclose(M, M_ref, rtol=1e-12, atol=1e-15)


KERNELS = {
    "constant": {},
    "indicator": {"radius": 9.0},
    "gaussian": {"tau": 0.8},
    "custom": {"profile": lambda sq: 1.0 / (1.0 + sq / 50.0)},
}


@pytest.mark.parametrize("variant", sorted(KERNELS))
@pytest.mark.parametrize("n,block", [
    (100, 2048),  # one block
    (100, 25),    # blocks that divide n
    (100, 64),    # a ragged last block
    (1, 2048),
])
def test_streamed_equals_pair_sum(variant, n, block):
    X = sample_data_matrix(50, n, seed=11)
    K = KernelSpec(variant=variant, dimension=50, **KERNELS[variant])
    M1 = truncated_covariance_direct(X, K)
    M2 = truncated_covariance(X, K, block=block)
    assert np.linalg.norm(M1 - M2) <= 1e-10 * max(np.linalg.norm(M1), 1e-30)


@pytest.mark.parametrize("block", [0, -1])
def test_stream_rejects_block_below_one(block):
    X = sample_data_matrix(5, 6, seed=1)
    K = KernelSpec(variant="constant", dimension=5)
    with pytest.raises(ValueError, match="block"):
        adjacency_stream(X, K, block=block)
    with pytest.raises(ValueError, match="block"):
        truncated_covariance(X, K, block=block)


def test_stream_memory_stays_below_one_column_block():
    # the tiles are block x block: the traced peak must stay below a single
    # n x block array, which any route over column blocks of A would need
    X = sample_data_matrix(20, 4000, seed=1)
    K = KernelSpec(variant="gaussian", dimension=20, tau=1.0)
    tracemalloc.start()
    try:
        truncated_covariance(X, K, block=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4000 * 256 * 8


def test_m_is_positive_semidefinite():
    X = sample_data_matrix(30, 80, seed=13)
    K = KernelSpec(variant="gaussian", dimension=30, tau=1.0)
    M = truncated_covariance(X, K)
    ev = np.linalg.eigvalsh(M)
    assert ev.min() >= -1e-8 * np.abs(ev).max()


def test_constant_kernel_scaling_covariance():
    X = sample_data_matrix(10, 25, seed=14)
    K = KernelSpec(variant="constant", dimension=10)
    ev1 = np.linalg.eigvalsh(truncated_covariance(X, K))
    from dataclasses import replace
    X3 = replace(X, entries=3.0 * X.entries)
    ev3 = np.linalg.eigvalsh(truncated_covariance(X3, K))
    assert np.allclose(ev3, 9.0 * ev1, rtol=1e-10, atol=1e-12)


def test_constant_kernel_rank_bound():
    X = sample_data_matrix(40, 10, seed=15)
    K = KernelSpec(variant="constant", dimension=40)
    ev = np.linalg.eigvalsh(truncated_covariance(X, K))
    # rank <= n - 1 because the column mean is projected out
    assert np.sum(ev > 1e-10 * ev.max()) <= 9


# ---------------------------------------------------------------------------
# kernel moments
# ---------------------------------------------------------------------------

def test_alpha_constant_kernel():
    assert R.alpha_p(KernelSpec(variant="constant", dimension=7)) == 1.0


def test_alpha_gaussian_closed_form():
    K = KernelSpec(variant="gaussian", dimension=200, tau=1.0)
    val = R.alpha_p(K, sigma=1.0)
    assert val == pytest.approx(1.0 - (1.0 + 2.0 / 200) ** (-100), abs=1e-12)
    mc, se = _kernel_moment_mc(K, "gaussian", 1.0, 1, 10**5, 0)
    assert abs(val - mc) <= 3.0 * se


def test_alpha_indicator_tends_to_half():
    p = 2000
    K = KernelSpec(variant="indicator", dimension=p,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, p))
    assert abs(R.alpha_p(K, sigma=1.0) - 0.5) < 0.02


def test_alpha_monte_carlo_path():
    K = KernelSpec(variant="indicator", dimension=30,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, 30))
    closed = R.alpha_p(K, sigma=1.0)
    mc, se = R.alpha_p(K, sigma=1.0, entry_law="uniform_centered",
                       mc_samples=4 * 10**4, seed=1, return_stderr=True)
    # different entry law, but the CLT distance distribution is close at p=30
    assert abs(mc - closed) < 0.05
    assert se > 0


def test_beta_sq_indicator_equals_alpha():
    K = KernelSpec(variant="indicator", dimension=50,
                   radius=R.indicator_radius_from_z_alpha(0.5, 1.0, 50))
    assert R.beta_p_sq(K) == R.alpha_p(K)


def test_beta_sq_constant():
    assert R.beta_p_sq(KernelSpec(variant="constant", dimension=3)) == 1.0


def test_beta_sq_gaussian_closed_form_vs_monte_carlo():
    K = KernelSpec(variant="gaussian", dimension=200, tau=1.0)
    closed = R.beta_p_sq(K, sigma=1.0)
    mc, se = _kernel_moment_mc(K, "gaussian", 1.0, 2, 3 * 10**5, 2)
    assert se < 1e-3
    assert abs(closed - mc) <= 3.0 * se
    assert 0.0 < closed < 1.0


def test_pair_moment_constant():
    assert R.pair_kernel_moment(KernelSpec(variant="constant", dimension=3)) == 1.0


def test_pair_moment_indicator_limit():
    from rmtlab import laws
    p = 1500
    K = KernelSpec(variant="indicator", dimension=p,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, p))
    val = R.pair_kernel_moment(K, sigma=1.0)
    assert abs(val - laws.zeta_indicator(0.0).moment(2)) < 0.01


def test_pair_moment_closed_forms_match_monte_carlo():
    for K in (KernelSpec(variant="indicator", dimension=40,
                         radius=R.indicator_radius_from_z_alpha(0.3, 1.0, 40)),
              KernelSpec(variant="gaussian", dimension=40, tau=0.9)):
        closed = R.pair_kernel_moment(K, sigma=1.0)
        prof = K.eval_sqdist
        K_mc = KernelSpec(variant="custom", dimension=40, profile=prof)
        mc = R.pair_kernel_moment(K_mc, sigma=1.0, mc_samples=2 * 10**5, seed=3)
        assert abs(closed - mc) < 0.01


def test_expected_mean_eigenvalue_closed_forms():
    n = 400
    assert R.expected_mean_eigenvalue(
        KernelSpec(variant="constant", dimension=30), 1.0, n=n) \
        == pytest.approx((n - 1) / n)
    K = KernelSpec(variant="indicator", dimension=60,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, 60))
    closed = R.expected_mean_eigenvalue(K, 1.0, n=n)
    K_mc = KernelSpec(variant="custom", dimension=60, profile=K.eval_sqdist)
    mc = R.expected_mean_eigenvalue(K_mc, 1.0, n=n, mc_samples=2 * 10**5, seed=4)
    assert closed == pytest.approx(mc, rel=0.02)


def test_expected_mean_eigenvalue_matches_simulation():
    p, n = 100, 300
    K = KernelSpec(variant="indicator", dimension=p,
                   radius=R.indicator_radius_from_beta(0.1, 1.0, p))
    predicted = R.expected_mean_eigenvalue(K, 1.0, n=n)
    means = []
    for seed in range(12):
        X = sample_data_matrix(p, n, seed=seed)
        means.append(np.trace(truncated_covariance(X, K)) / p)
    se = np.std(means, ddof=1) / np.sqrt(len(means))
    assert abs(np.mean(means) - predicted) <= 4.0 * se


@pytest.mark.parametrize("moment", [R.pair_kernel_moment,
                                    lambda K, **kw: R.expected_mean_eigenvalue(K, n=50, **kw)],
                         ids=["pair_kernel_moment", "expected_mean_eigenvalue"])
def test_monte_carlo_moments_reject_zero_samples(moment):
    K = KernelSpec(variant="custom", dimension=5, profile=lambda t: np.exp(-t / 10.0))
    with pytest.raises(ValueError, match="mc_samples"):
        moment(K, mc_samples=0)


# Seeded Monte Carlo fallbacks, recorded from the chunked loops they replaced:
# (entry_law, p, mc_samples) -> (alpha_p and its stderr, beta_p^2 and its
# stderr, pair moment, mean eigenvalue at n = 200), custom profile exp(-t/2p),
# seed 11. The p = 4000 case spans two chunks (2500 + 100 samples).
MC_PINS = {
    ("gaussian", 30, 5000): (
        0.38063599555712785, 0.0013127185284051563, 0.15349991078785685,
        0.0010336236799483684, 0.14578748418567516, 0.3546621544147169),
    ("rademacher", 30, 5000): (
        0.37407089196336185, 0.0009619263122262259, 0.14455554336503088,
        0.0007601862174390355, 0.1387340578227229, 0.35979954254149715),
    ("uniform_centered", 30, 5000): (
        0.3756738734295342, 0.0011205405344753203, 0.14740891462456085,
        0.0008786341536215472, 0.14210222792400629, 0.3574161107402823),
    ("gaussian", 4000, 2600): (
        0.3679383397983434, 0.00016042086781399554, 0.1354455325161197,
        0.0001181820552592868, 0.13543020891540497, 0.3659491833041309),
}


@pytest.mark.parametrize("entry_law, p, mc_samples", list(MC_PINS))
def test_monte_carlo_moments_are_pinned(entry_law, p, mc_samples):
    K = KernelSpec(variant="custom", dimension=p, profile=lambda t: np.exp(-t / (2.0 * p)))
    kw = dict(entry_law=entry_law, mc_samples=mc_samples, seed=11)
    got = (*R.alpha_p(K, 1.0, return_stderr=True, **kw),
           *R.beta_p_sq(K, 1.0, return_stderr=True, **kw),
           R.pair_kernel_moment(K, 1.0, **kw),
           R.expected_mean_eigenvalue(K, 1.0, n=200, **kw))
    assert all(type(v) is float for v in got)
    assert got == MC_PINS[(entry_law, p, mc_samples)]


# ---------------------------------------------------------------------------
# normalized matrix E and reduction diagnostics
# ---------------------------------------------------------------------------

def test_normalized_E_constant_kernel_formula():
    X = sample_data_matrix(20, 50, seed=16)
    K = KernelSpec(variant="constant", dimension=20)
    E = R.normalized_matrix_E(X, K, alpha=1.0, sigma=1.0)
    W = X.entries
    centered = W - W.mean(axis=1, keepdims=True)
    ref = np.sqrt(50 / 20) * (centered @ centered.T / 50 - np.eye(20))
    assert np.allclose(E, ref, rtol=1e-10, atol=1e-12)


def test_normalized_E_zero_when_M_equals_center():
    # with radius 0 the graph is empty, M = 0, so alpha = 0 recenters to zero
    X = sample_data_matrix(10, 30, seed=17)
    K = KernelSpec(variant="indicator", dimension=10, radius=0.0)
    E = R.normalized_matrix_E(X, K, alpha=0.0, sigma=1.0)
    assert not E.any()


def test_normalized_E_warns_outside_regime():
    X = sample_data_matrix(5, 50, seed=16)
    K = KernelSpec(variant="constant", dimension=5)
    with pytest.warns(UserWarning):
        R.normalized_matrix_E(X, K, alpha=1.0, sigma=1.0)


def test_xi_conditional_constant_kernel():
    X = sample_data_matrix(8, 12, seed=18)
    K = KernelSpec(variant="constant", dimension=8)
    xi = R.xi_conditional(X, K, mc_conditional=200, seed=0)
    assert np.array_equal(xi, np.ones(12))
    Mbar = R.xi_bar_matrix(X, xi)
    assert np.allclose(Mbar, X.entries @ X.entries.T / 12)
    deg, _ = R.adjacency_stream(X, K)
    assert np.allclose(R.xi_prime(deg, xi), 0.0, atol=1e-12)


def test_xi_conditional_rejects_tiny_sample():
    X = sample_data_matrix(4, 5, seed=0)
    with pytest.raises(ValueError):
        R.xi_conditional(X, KernelSpec(variant="constant", dimension=4),
                         mc_conditional=10)


def test_w2_gap_shrinks_with_size():
    from rmtlab import spectra
    gaps = []
    for p, n in ((50, 100), (200, 400)):
        vals = []
        for seed in range(8):
            K = KernelSpec(variant="indicator", dimension=p,
                           radius=R.indicator_radius_from_z_alpha(0.0, 1.0, p))
            X = sample_data_matrix(p, n, seed=seed)
            M = truncated_covariance(X, K)
            Mbar = R.xi_bar_matrix(X, R.xi_conditional(X, K, mc_conditional=1500,
                                                       seed=seed))
            vals.append(spectra.wasserstein2(
                spectra.esd(np.linalg.eigvalsh(M)),
                spectra.esd(np.linalg.eigvalsh(Mbar))))
        gaps.append(np.mean(vals))
    assert gaps[1] < gaps[0]


def test_xi_prime_scaling_in_n():
    p = 60
    K = KernelSpec(variant="indicator", dimension=p,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, p))
    maxima = []
    for n in (200, 800, 3200):
        X = sample_data_matrix(p, n, seed=20)
        deg, _ = R.adjacency_stream(X, K)
        xp = R.xi_prime(deg, R.xi_conditional(X, K, mc_conditional=4000, seed=20))
        maxima.append(np.max(np.abs(xp)) / n)
    # decreases roughly like sqrt(log n / n)
    assert maxima[2] < maxima[1] < maxima[0]
    assert maxima[2] < maxima[0] * np.sqrt(np.log(3200) / 3200
                                           / (np.log(200) / 200)) * 3.0
