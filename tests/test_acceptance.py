"""Acceptance suite: one test per numbered criterion, each printing a
single pass/fail line with the measured quantities."""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from oracle import truncated_covariance_direct
from rmtlab import ensemble, harness, laws, spectra
from rmtlab.harness import ExperimentConfig

SEED = 7


def _line(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_mp_baseline(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(p=200, n=500, kernel_variant="constant", trials=5,
                           master_seed=SEED, output_dir=str(tmp_path / "c1"))
    rep = harness.run_experiment(cfg, write_artifacts=False)
    ks = spectra.ks_distance(rep["pooled_spectrum"],
                             lambda x: laws.mp_cdf(laws.MPLaw(c=0.4, scale=1.0), x))
    runtime = time.perf_counter() - t0
    ok = ks <= 0.08 and runtime <= 60.0
    _line(capsys, 1, ok, f"ks={ks:.4f} (<=0.08), runtime={runtime:.1f}s (<=60)")
    assert ks <= 0.08
    assert runtime <= 60.0


def test_criterion_02_smooth_kernel_bandwidths(tmp_path, capsys):
    results = []
    for tau in (0.4, 1.0, 1.3):
        cfg = ExperimentConfig(p=200, n=500, kernel_variant="gaussian",
                               kernel_tau=tau, trials=5, master_seed=SEED,
                               output_dir=str(tmp_path / f"c2_{tau:g}"))
        rep = harness.run_experiment(cfg, write_artifacts=False)
        # each pair term K_ij (x_i - x_j)(x_i - x_j)^T is PSD and K_ij -> alpha
        # uniformly, so M is squeezed around alpha times the constant-kernel
        # matrix: the MP scale is linear in alpha = 1 - exp(-sigma^2 / tau^2)
        scale = 1.0 - math.exp(-1.0 / tau**2)
        law = laws.MPLaw(c=0.4, scale=scale)
        ks = spectra.ks_distance(rep["pooled_spectrum"],
                                 lambda x: laws.mp_cdf(law, x))
        results.append((tau, ks))
    ok = all(ks <= 0.08 for _, ks in results)
    detail = ", ".join(f"tau={t:g}: ks={k:.4f}" for t, k in results)
    _line(capsys, 2, ok, detail + " (each <=0.08)")
    for tau, ks in results:
        assert ks <= 0.08, f"tau={tau}: ks={ks:.4f}"


def test_criterion_03_indicator_kernel_betas(tmp_path, capsys):
    results = []
    for beta in (-0.1, 0.1, 0.3):
        cfg = ExperimentConfig(p=200, n=500, kernel_variant="indicator",
                               kernel_beta=beta, trials=5, master_seed=SEED,
                               output_dir=str(tmp_path / f"c3_{beta:g}"))
        rep = harness.run_experiment(cfg, write_artifacts=False)
        zeta = laws.zeta_indicator(cfg.indicator_z_alpha())
        rel = abs(rep["pooled_mean_eigenvalue"] - zeta.mean()) / zeta.mean()
        results.append((beta, rep["pooled_ks"], rel))
    ok = all(ks <= 0.10 and rel <= 0.05 for _, ks, rel in results)
    detail = ", ".join(f"beta={b:g}: ks={k:.4f}, mean-gap={r:.1%}"
                       for b, k, r in results)
    _line(capsys, 3, ok, detail + " (ks<=0.10, gap<=5%)")
    for beta, ks, rel in results:
        assert ks <= 0.10, f"beta={beta}: ks={ks:.4f}"
        assert rel <= 0.05, f"beta={beta}: mean gap {rel:.1%}"


def test_criterion_04_solver_against_closed_form(capsys):
    law = laws.MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    zeta = laws.ZetaDistribution.point_mass(1.0)
    z = np.linspace(a - 0.2, b + 0.2, 200) + 1e-2j
    sol = laws.solve_stieltjes_grid(z, 0.4, 1.0, zeta)
    gap = float(np.max(np.abs(sol.values - laws.mp_stieltjes(law, z))))
    rng = np.random.default_rng(0)
    z0 = 1.0 + 0.3j
    inits = [laws.solve_nonsmooth_stieltjes(z0, 0.4, 1.0, zeta,
                                            init=complex(rng.uniform(-2, 2),
                                                         rng.uniform(0.05, 2)))
             for _ in range(10)]
    spread = max(abs(s - inits[0]) for s in inits)
    ok = gap <= 1e-8 and sol.max_residual <= 1e-10 and spread <= 1e-10
    _line(capsys, 4, ok, f"closed-form gap={gap:.2e} (<=1e-8), "
          f"residual={sol.max_residual:.2e} (<=1e-10), "
          f"init spread={spread:.2e} (<=1e-10)")
    assert gap <= 1e-8
    assert sol.max_residual <= 1e-10
    assert spread <= 1e-10


def test_criterion_05_inversion_recovers_densities(capsys):
    sc = laws.SCLaw(variance=1.0)
    # interior grids inset by 5% of the support width on each side
    x_sc = np.linspace(-0.9 * sc.radius, 0.9 * sc.radius, 400)
    f_sc = laws.stieltjes_invert(lambda z: laws.sc_stieltjes(z, 1.0), x_sc, 1e-3)
    err_sc = float(np.max(np.abs(f_sc - laws.sc_density(sc, x_sc))))
    mp = laws.MPLaw(c=0.4, scale=1.0)
    a, b = mp.support
    inset = 0.05 * (b - a)
    x_mp = np.linspace(a + inset, b - inset, 400)
    f_mp = laws.stieltjes_invert(lambda z: laws.mp_stieltjes(mp, z), x_mp, 1e-3)
    err_mp = float(np.max(np.abs(f_mp - laws.mp_density(mp, x_mp))))
    ok = err_sc <= 5e-3 and err_mp <= 5e-3
    _line(capsys, 5, ok,
          f"sc sup-err={err_sc:.2e}, mp sup-err={err_mp:.2e} (each <=5e-3)")
    assert err_sc <= 5e-3
    assert err_mp <= 5e-3


def test_criterion_06_semicircle_regime(tmp_path, capsys):
    p, n, sigma = 400, 20000, 1.0
    t0 = time.perf_counter()
    rep = harness.semicircle_experiment(p=p, n=n, kernel_variant="indicator",
                                        kernel_z_alpha=0.0, sigma=sigma, trials=3,
                                        seed=SEED, out_dir=str(tmp_path / "c6"))
    t = p  # r^2 / (2 sigma^2) with r^2 = 2 p sigma^2 at z_alpha = 0
    # Variance sigma^4 E[xi^2]: at z_alpha = 0 the conditional kernel mean is
    # xi(x) -> Phi(-Z / sqrt(3)), Z the standardized ||x||^2, so E[xi^2] is
    # the chance that two standard normals with correlation 1/4 are both <= 0.
    variance = sigma**4 * (0.25 + math.asin(0.25) / (2.0 * math.pi))
    # E = sqrt(n/p) (M - alpha sigma^2 I) with alpha = F_p(t); its exact mean
    # uses E tr M / p = (n-1)/n sigma^2 F_{p+2}(t), an offset of order sqrt(n)/p.
    alpha = chi2.cdf(t, p)
    shift = math.sqrt(n / p) * sigma**2 * ((n - 1) / n * chi2.cdf(t, p + 2) - alpha)
    law = laws.SCLaw(variance=variance)
    ks = spectra.ks_distance(rep["pooled_spectrum"],
                             lambda x: laws.sc_cdf(law, np.asarray(x) - shift))
    runtime = time.perf_counter() - t0
    ok = ks <= 0.08 and runtime <= 600.0
    _line(capsys, 6, ok, f"ks={ks:.4f} (<=0.08), runtime={runtime:.1f}s (<=600)")
    assert runtime <= 600.0
    assert ks <= 0.08


def test_criterion_07_d_moments(capsys):
    mom = laws.d_moments("squared_difference", "gaussian", sigma=1.0)
    exact = (mom.m1, mom.m2, mom.m2_1, mom.m2_2) == (2.0, 8.0, 2.0, 6.0)
    mc, se = laws.d_moments(lambda x, y: (x - y) ** 2, "gaussian", sigma=1.0,
                            mc_samples=10**6, seed=0, return_stderr=True)
    m1_ok = abs(mc.m1 - 2.0) <= 3 * se["m1"]
    m2_ok = abs(mc.m2 - 8.0) <= 3 * se["m2"]
    ok = exact and m1_ok and m2_ok
    _line(capsys, 7, ok, f"closed form exact={exact}, "
          f"mc m1 gap={abs(mc.m1 - 2.0):.2e} (<=3se={3 * se['m1']:.2e}), "
          f"mc m2 gap={abs(mc.m2 - 8.0):.2e} (<=3se={3 * se['m2']:.2e})")
    assert exact
    assert m1_ok
    assert m2_ok


def test_criterion_08_identity_suite(capsys):
    rng = np.random.default_rng(100)
    worst_m = 0.0
    for _ in range(50):
        p = int(rng.integers(3, 12))
        n = int(rng.integers(3, 20))
        variant = rng.choice(["constant", "indicator", "gaussian"])
        K = ensemble.KernelSpec(
            variant=variant, dimension=p,
            radius=float(rng.uniform(0.5, 2.0)) * np.sqrt(p)
            if variant == "indicator" else None,
            tau=float(rng.uniform(0.3, 2.0)) if variant == "gaussian" else None)
        X = ensemble.sample_data_matrix(p, n, seed=int(rng.integers(10**6)))
        M1 = truncated_covariance_direct(X, K)
        M2 = ensemble.truncated_covariance(X, K)
        denom = max(np.linalg.norm(M1), 1e-30)
        worst_m = max(worst_m, np.linalg.norm(M1 - M2) / denom)
    worst_tr = 0.0
    for seed in range(20):
        S = np.random.default_rng(seed).standard_normal((10, 10))
        S = S + S.T
        ev = spectra.symmetric_eigenvalues(S)
        worst_tr = max(
            worst_tr,
            abs(ev.sum() - np.trace(S)) / max(abs(np.trace(S)), 1.0),
            abs(np.sum(ev**2) - np.linalg.norm(S) ** 2) / np.linalg.norm(S) ** 2)
    hw_ok = True
    for seed in range(20):
        g = np.random.default_rng(1000 + seed)
        S1 = g.standard_normal((12, 12))
        S1 = S1 + S1.T
        S2 = g.standard_normal((12, 12))
        S2 = S2 + S2.T
        w2 = spectra.wasserstein2(
            spectra.esd(spectra.symmetric_eigenvalues(S1)),
            spectra.esd(spectra.symmetric_eigenvalues(S2)))
        hw_ok = hw_ok and w2 <= spectra.hoffman_wielandt_bound(S1, S2) + 1e-12
    ok = worst_m <= 1e-10 and worst_tr <= 1e-9 and hw_ok
    _line(capsys, 8, ok, f"direct-vs-streamed={worst_m:.2e} (<=1e-10), "
          f"trace/HS={worst_tr:.2e} (<=1e-9), w2<=HW bound={hw_ok}")
    assert worst_m <= 1e-10
    assert worst_tr <= 1e-9
    assert hw_ok


def test_criterion_09_reduction_diagnostics(tmp_path, capsys):
    result = harness.diagnostics_reductions(
        p_list=(100, 200, 400), n_list=(250, 500, 1000),
        kernel_variant="indicator", kernel_z_alpha=0.0, seeds=range(10),
        out_dir=str(tmp_path / "c9"))
    medians = result["median_w2"]
    decreasing = result["decreasing"]
    hits = [r["max_xi_prime_over_n"] <= math.sqrt(6 * math.log(r["n"]) / r["n"])
            for r in result["rows"]]
    rate = sum(hits) / len(hits)
    ok = decreasing and rate >= 0.95
    _line(capsys, 9, ok, f"median w2={[f'{m:.4f}' for m in medians]} "
          f"decreasing={decreasing}, bound rate={rate:.0%} (>=95%)")
    assert decreasing
    assert rate >= 0.95


def test_criterion_10_thread_determinism(tmp_path, capsys):
    out = tmp_path / "c10"
    cfg = ExperimentConfig(p=100, n=250, kernel_variant="indicator",
                           kernel_z_alpha=0.0, trials=4, master_seed=SEED,
                           output_dir=str(out))

    blas = ensemble._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
    get, put = blas

    def snapshot(threads):
        put(threads)  # OpenBLAS threads of this process
        harness.run_experiment(cfg)
        return {name: (out / name).read_bytes()
                for name in ("histogram.csv", "law.csv", "report.json")}

    before = get()
    try:
        one = snapshot(1)
        two = snapshot(2)
    finally:
        put(before)
    csv_ok = all(one[name] == two[name]
                 for name in ("histogram.csv", "law.csv"))

    def stable_json(raw):
        payload = json.loads(raw)
        payload.pop("runtime_seconds", None)
        return json.dumps(payload, sort_keys=True)

    json_ok = stable_json(one["report.json"]) == stable_json(two["report.json"])
    ok = csv_ok and json_ok
    _line(capsys, 10, ok, f"csv byte-identical={csv_ok}, "
          f"report identical (runtime field excluded)={json_ok}")
    assert csv_ok
    assert json_ok
