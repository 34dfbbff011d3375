import json
import math

import numpy as np
import pytest

from rmtlab import cli, ensemble, harness, laws
from rmtlab.harness import ExperimentConfig


def _cfg(tmp_path, **kw):
    kw.setdefault("output_dir", str(tmp_path / "out"))
    return ExperimentConfig(**kw)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_validate_rejects_bad_fields(tmp_path):
    with pytest.raises(ValueError):
        _cfg(tmp_path, regime="weird").validate()
    with pytest.raises(ValueError):
        _cfg(tmp_path, trials=0).validate()
    with pytest.raises(ValueError):
        _cfg(tmp_path, p=1).validate()
    with pytest.raises(ValueError):
        _cfg(tmp_path, sigma=0.0).validate()
    with pytest.raises(ValueError):
        _cfg(tmp_path, regime="semi_high_dim", p=10, n=500).validate()


def test_indicator_kernel_needs_exactly_one_radius_parameter(tmp_path):
    with pytest.raises(ValueError):
        _cfg(tmp_path, kernel_variant="indicator").validate()
    with pytest.raises(ValueError):
        _cfg(tmp_path, kernel_variant="indicator", kernel_beta=0.1,
             kernel_z_alpha=0.0).validate()
    cfg = _cfg(tmp_path, kernel_variant="indicator", kernel_beta=0.1).validate()
    r = cfg.indicator_radius()
    assert r == pytest.approx(np.sqrt(2.1 * 200))
    assert cfg.indicator_z_alpha() == pytest.approx(0.1 * np.sqrt(200) / (2 * np.sqrt(2)))


def test_config_file_round_trip(tmp_path):
    cfg = _cfg(tmp_path, regime="proportional", p=120, n=300,
               kernel_variant="indicator", kernel_z_alpha=0.25, trials=4,
               master_seed=11, histogram_bins=40)
    path = tmp_path / "exp.cfg"
    cfg.to_file(path)
    assert ExperimentConfig.from_file(path) == cfg
    for bad in ("runs/#3", "runs/a\nb"):
        with pytest.raises(ValueError, match="cannot hold"):
            ExperimentConfig(output_dir=bad).to_file(tmp_path / "bad.cfg")


def test_config_file_parsing_details(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(
        "# a comment\n"
        "\n"
        "p = 100\n"
        "n = 400\n"
        "kernel.variant = gaussian\n"
        "kernel.tau = 0.7   # bandwidth\n")
    cfg = ExperimentConfig.from_file(path)
    assert (cfg.p, cfg.n, cfg.kernel_variant, cfg.kernel_tau) \
        == (100, 400, "gaussian", 0.7)


def test_config_file_rejects_unknown_key_and_bad_line(tmp_path):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("pp = 100\n")
    with pytest.raises(ValueError, match="unknown config key"):
        ExperimentConfig.from_file(bad_key)
    bad_line = tmp_path / "bad2.cfg"
    bad_line.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        ExperimentConfig.from_file(bad_line)


# ---------------------------------------------------------------------------
# prediction selection
# ---------------------------------------------------------------------------

def test_prediction_constant_kernel(tmp_path):
    law, params = harness.select_prediction(_cfg(tmp_path))
    assert params["kind"] == "mp"
    assert params["scale"] == 1.0
    assert law.cdf(10.0) == 1.0


def test_prediction_gaussian_kernel_scale(tmp_path):
    cfg = _cfg(tmp_path, kernel_variant="gaussian", kernel_tau=0.7)
    law, params = harness.select_prediction(cfg)
    alpha = 1.0 - math.exp(-1.0 / 0.7**2)
    assert params["scale"] == pytest.approx(alpha)


def test_prediction_indicator_kernel(tmp_path):
    cfg = _cfg(tmp_path, kernel_variant="indicator", kernel_z_alpha=0.0)
    law, params = harness.select_prediction(cfg)
    assert params["kind"] == "genmp"
    assert law.solution.max_residual <= 1e-10
    assert params["mass_correction"] == pytest.approx(1.0, abs=0.05)
    x = np.linspace(0.0, 4.0, 50)
    vals = law.cdf(x)
    assert np.all(np.diff(vals) >= -1e-12)


def test_prediction_custom_kernel(tmp_path):
    cfg = _cfg(tmp_path)
    K_known = ensemble.KernelSpec(variant="custom", dimension=200,
                                  profile=lambda t: np.full_like(t, 0.3),
                                  alpha_limit=0.3)
    law, params = harness.select_prediction(cfg, kernel=K_known)
    assert params["kind"] == "mp"
    assert params["scale"] == pytest.approx(0.3)
    K_unknown = ensemble.KernelSpec(variant="custom", dimension=200,
                                    profile=lambda t: np.exp(-t))
    law2, params2 = harness.select_prediction(cfg, kernel=K_unknown)
    assert params2["kind"] == "none"
    assert law2 is None


def test_prediction_semicircle_variances(tmp_path):
    cfg_const = _cfg(tmp_path, regime="semi_high_dim", p=100, n=2000,
                     kernel_variant="constant")
    law, params = harness.select_prediction(cfg_const)
    assert params["kind"] == "sc"
    assert params["variance"] == pytest.approx(1.0)
    cfg_ind = _cfg(tmp_path, regime="semi_high_dim", p=400, n=20000,
                   kernel_variant="indicator", kernel_z_alpha=0.0)
    law2, params2 = harness.select_prediction(cfg_ind)
    # the pair moment sits well below alpha ~ 1/2 at this radius
    assert 0.25 < params2["pair_moment"] < 0.35
    assert params2["variance"] == pytest.approx(params2["pair_moment"])


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_run_experiment_smoke(tmp_path):
    cfg = _cfg(tmp_path, p=80, n=200, trials=3, master_seed=0)
    rep = harness.run_experiment(cfg)
    assert len(rep["per_trial_ks"]) == 3
    assert len(rep["w2_pairs"]) == 2
    assert 0.0 <= rep["pooled_ks"] <= 0.15
    assert rep["pooled_mean_eigenvalue"] == pytest.approx(199 / 200, rel=0.1)
    out = tmp_path / "out"
    hist_lines = (out / "histogram.csv").read_text().strip().splitlines()
    assert hist_lines[0] == "bin_left,bin_right,density"
    mass = sum((float(r.split(",")[1]) - float(r.split(",")[0]))
               * float(r.split(",")[2]) for r in hist_lines[1:])
    assert mass == pytest.approx(1.0, abs=0.03)
    law_lines = (out / "law.csv").read_text().strip().splitlines()
    assert law_lines[0] == "x,density,cdf"
    assert len(law_lines) == 401
    payload = json.loads((out / "report.json").read_text())
    assert payload["pooled_ks"] == rep["pooled_ks"]
    assert "runtime_seconds" in payload


def test_run_experiment_deterministic_and_thread_invariant(tmp_path):
    cfg1 = _cfg(tmp_path, p=60, n=150, trials=4,
                output_dir=str(tmp_path / "r1"))
    cfg2 = _cfg(tmp_path, p=60, n=150, trials=4,
                output_dir=str(tmp_path / "r2"))
    harness.run_experiment(cfg1, threads=1)
    harness.run_experiment(cfg2, threads=4)
    for name in ("histogram.csv", "law.csv"):
        assert (tmp_path / "r1" / name).read_bytes() \
            == (tmp_path / "r2" / name).read_bytes()


def test_semi_high_dim_multi_tile_thread_invariant(tmp_path):
    # n above the default block of 2048, so each trial walks a 2 x 2 tile grid
    cfg = _cfg(tmp_path, regime="semi_high_dim", p=50, n=2100,
               kernel_variant="indicator", kernel_z_alpha=0.0, trials=2)

    def snapshot(threads):
        harness.run_experiment(cfg, threads=threads)
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        report.pop("runtime_seconds")
        return ((out / "histogram.csv").read_bytes(), (out / "law.csv").read_bytes(),
                json.dumps(report, sort_keys=True))

    assert snapshot(1) == snapshot(2)


def test_run_experiment_check_breach_flag(tmp_path, monkeypatch):
    monkeypatch.setitem(harness.CHECK_THRESHOLDS, "mp", 1e-9)
    cfg = _cfg(tmp_path, p=60, n=150, trials=1)
    rep = harness.run_experiment(cfg, check=True)
    assert rep["check"]["breach"] is True


def test_run_experiment_custom_kernel_override(tmp_path):
    # a constant custom profile must reproduce the constant-kernel run
    cfg = _cfg(tmp_path, p=60, n=150, trials=2)
    K = ensemble.KernelSpec(variant="custom", dimension=60,
                            profile=lambda t: np.ones_like(t), alpha_limit=1.0)
    rep = harness.run_experiment(cfg, kernel=K, write_artifacts=False)
    ref = harness.run_experiment(cfg, write_artifacts=False)
    assert rep["pooled_ks"] == pytest.approx(ref["pooled_ks"], abs=1e-12)


def test_run_experiment_rejects_kernel_contradicting_config(tmp_path):
    # a Gaussian kernel under a constant-kernel config has no prediction of
    # its own; scoring it against MP(c, sigma^2) would be silently wrong
    cfg = _cfg(tmp_path, p=60, n=150, trials=1)
    K = ensemble.KernelSpec(variant="gaussian", dimension=60, tau=1.3)
    with pytest.raises(ValueError, match="contradicts"):
        harness.run_experiment(cfg, kernel=K, write_artifacts=False)
    # the config's own kernel, passed explicitly, is accepted
    rep = harness.run_experiment(cfg, kernel=cfg.kernel(), write_artifacts=False)
    assert rep["pooled_ks"] == harness.run_experiment(
        cfg, write_artifacts=False)["pooled_ks"]


def test_run_experiment_validates_config_with_kernel(tmp_path):
    cfg = _cfg(tmp_path, p=60, n=150, trials=0)
    K = ensemble.KernelSpec(variant="custom", dimension=60,
                            profile=lambda t: np.ones_like(t), alpha_limit=1.0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        harness.run_experiment(cfg, kernel=K, write_artifacts=False)


def test_run_experiment_wide_matrix_scores_zero_eigenvalues_on_atom(tmp_path):
    # p > n: M has p - n + 1 zero eigenvalues, which the eigensolver returns
    # as +-1e-15; MP(2, 1) puts its atom of mass 1/2 at 0
    cfg = _cfg(tmp_path, p=200, n=100, trials=1, master_seed=7)
    rep = harness.run_experiment(cfg, write_artifacts=False)
    assert rep["pooled_ks"] <= 0.05


def test_run_experiment_wide_indicator_uses_exact_atom(tmp_path):
    # p > n: the genMP law has the atom 1 - 1/c = 0.6 at 0, the rank deficit
    cfg = _cfg(tmp_path, p=250, n=100, kernel_variant="indicator",
               kernel_beta=0.1, trials=1)
    rep = harness.run_experiment(cfg, write_artifacts=False)
    assert rep["law_params"]["atom_at_zero"] == pytest.approx(0.6, abs=1e-12)
    assert rep["law_params"]["mass_correction"] == pytest.approx(1.0, abs=0.03)
    assert rep["pooled_ks"] <= 0.06
    assert rep["solver"]["max_residual"] <= 1e-10
    assert set(rep["solver"]) == {"max_residual", "iterations", "fallback_points"}


# ---------------------------------------------------------------------------
# named experiments
# ---------------------------------------------------------------------------

def test_figure1_infinite_beta_matches_constant_kernel(tmp_path):
    reports = harness.figure1(p=60, n=150, betas=(math.inf,), seed=3, trials=2,
                              out_dir=str(tmp_path / "f1"))
    ref = harness.run_experiment(
        _cfg(tmp_path, p=60, n=150, trials=2, master_seed=3,
             output_dir=str(tmp_path / "ref")))
    assert reports["inf"]["pooled_ks"] == ref["pooled_ks"]
    assert (tmp_path / "f1" / "beta_inf" / "law_mp.csv").exists()


def test_figure1_mean_eigenvalue_increases_with_beta(tmp_path):
    reports = harness.figure1(p=100, n=250, betas=(-0.1, 0.3), seed=0,
                              trials=1, out_dir=str(tmp_path / "f1"))
    assert reports["-0.1"]["pooled_mean_eigenvalue"] \
        < reports["0.3"]["pooled_mean_eigenvalue"]


def test_figure2_narrow_bandwidth_tracks_prediction(tmp_path):
    reports = harness.figure2(p=200, n=500, taus=(0.05,), seed=0, trials=1,
                              out_dir=str(tmp_path / "f2"))
    rep = reports["0.05"]
    assert rep["pooled_ks"] <= 0.08
    assert (tmp_path / "f2" / "tau_0.05" / "law_mp_raw.csv").exists()


def test_semicircle_experiment_constant_kernel(tmp_path):
    rep = harness.semicircle_experiment(
        p=150, n=3000, kernel_variant="constant", trials=1, seed=0,
        out_dir=str(tmp_path / "sc"))
    assert rep["pooled_ks"] <= 0.08
    assert rep["sc_transform_residual"] <= 1e-10
    payload = json.loads((tmp_path / "sc" / "report.json").read_text())
    assert "pooled_ks_shifted" in payload
    assert "predicted_mean_shift" in payload


def test_diagnostics_reductions_small(tmp_path):
    result = harness.diagnostics_reductions(
        p_list=(40, 80), n_list=(100, 200), seeds=range(3),
        mc_conditional=500, out_dir=str(tmp_path / "diag"))
    assert len(result["rows"]) == 6
    assert len(result["median_w2"]) == 2
    csv = (tmp_path / "diag" / "reduction_gaps.csv").read_text().splitlines()
    assert csv[0] == "p,n,seed,w2_m_mbar,max_xi_prime_over_n,hs_xaxt_over_sqrt_p"
    assert len(csv) == 7
    summary = json.loads((tmp_path / "diag" / "summary.json").read_text())
    assert summary["median_w2"] == result["median_w2"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_small_config(tmp_path, out_name="cli_out"):
    path = tmp_path / "small.cfg"
    path.write_text(
        "p = 60\nn = 150\ntrials = 1\nmaster_seed = 0\n"
        f"output_dir = {tmp_path / out_name}\n")
    return path


def test_cli_simulate_success(tmp_path, capsys):
    path = _write_small_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    assert (tmp_path / "cli_out" / "report.json").exists()
    assert "pooled_ks" in capsys.readouterr().out


def test_cli_simulate_missing_config(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_simulate_invalid_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("frobnicate = 1\n")
    assert cli.main(["simulate", "--config", str(path)]) == 2


def test_cli_check_breach_exit_code(tmp_path, monkeypatch):
    monkeypatch.setitem(harness.CHECK_THRESHOLDS, "mp", 1e-9)
    path = _write_small_config(tmp_path, "cli_breach")
    assert cli.main(["--check", "simulate", "--config", str(path)]) == 4


def test_cli_solver_failure_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise laws.SolverError("forced")
    monkeypatch.setattr(laws, "solve_stieltjes_grid", boom)
    out = tmp_path / "law.csv"
    assert cli.main(["law", "--type", "genmp", "--out", str(out)]) == 3


def test_cli_linalg_failure_exit_code(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")
    monkeypatch.setattr(harness, "figure1", boom)
    assert cli.main(["figure1"]) == 3


def test_cli_law_outputs(tmp_path):
    mp_out = tmp_path / "mp.csv"
    assert cli.main(["law", "--type", "mp", "--c", "0.4", "--out",
                     str(mp_out)]) == 0
    lines = mp_out.read_text().strip().splitlines()
    assert lines[0] == "x,density,cdf"
    assert float(lines[-1].split(",")[2]) == pytest.approx(1.0, abs=1e-6)
    sc_out = tmp_path / "sc.csv"
    assert cli.main(["law", "--type", "sc", "--variance", "2.0", "--out",
                     str(sc_out)]) == 0
    genmp_out = tmp_path / "genmp.csv"
    assert cli.main(["law", "--type", "genmp", "--z-alpha", "0.0",
                     "--points", "200", "--out", str(genmp_out)]) == 0
    glines = genmp_out.read_text().strip().splitlines()
    assert len(glines) == 201


def test_cli_genmp_law_matches_run_experiment(tmp_path):
    cli_out = tmp_path / "genmp.csv"
    assert cli.main(["law", "--type", "genmp", "--c", "0.4", "--z-alpha", "0.3",
                     "--out", str(cli_out)]) == 0
    cfg = _cfg(tmp_path, p=80, n=200, kernel_variant="indicator",
               kernel_z_alpha=0.3, trials=1, output_dir=str(tmp_path / "run"))
    harness.run_experiment(cfg)
    assert cli_out.read_bytes() == (tmp_path / "run" / "law.csv").read_bytes()


def test_cli_genmp_law_wide_matrix(tmp_path):
    out = tmp_path / "genmp.csv"
    assert cli.main(["law", "--type", "genmp", "--c", "2.5", "--out", str(out)]) == 0
    x, f, F = np.loadtxt(out, delimiter=",", skiprows=1).T
    mass = np.trapezoid(f, x) + (1.0 - 1.0 / 2.5)
    assert 0.97 <= mass <= 1.03
    assert F[-1] == 1.0


def test_cli_mp_law_matches_figure1_overlay(tmp_path):
    cli_out = tmp_path / "mp.csv"
    assert cli.main(["law", "--type", "mp", "--c", "0.4", "--out",
                     str(cli_out)]) == 0
    harness.figure1(p=80, n=200, betas=(math.inf,), out_dir=str(tmp_path / "f1"))
    assert cli_out.read_bytes() \
        == (tmp_path / "f1" / "beta_inf" / "law_mp.csv").read_bytes()


def test_cli_figure2_runs(tmp_path, capsys):
    code = cli.main(["figure2", "--p", "100", "--n", "250", "--taus", "0.05",
                     "--trials", "1", "--out", str(tmp_path / "f2")])
    assert code == 0
    assert "pooled KS" in capsys.readouterr().out


def test_cli_semicircle_names_gating_ks(tmp_path, capsys):
    out = tmp_path / "sc"
    cli.main(["--check", "semicircle", "--p", "40", "--n", "400", "--trials",
              "1", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == (f"--check gates on pooled_ks_shifted = "
                    f"{report['pooled_ks_shifted']:.4f} (threshold 0.08)")


def test_cli_parser_requires_command():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([])
