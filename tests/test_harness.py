import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

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
    # caught before the trials run, not when the histogram is formed
    with pytest.raises(ValueError, match="histogram.bins"):
        _cfg(tmp_path, histogram_bins=0).validate()
    # caught before the prediction is built, not at the first draw
    with pytest.raises(ValueError, match="entry_law"):
        _cfg(tmp_path, entry_law="cauchy").validate()


@pytest.mark.parametrize("variant,extra", [("indicator", {"kernel_z_alpha": 0.0}),
                                           ("constant", {})])
def test_validate_rejects_tau_on_a_non_gaussian_kernel(tmp_path, variant, extra):
    with pytest.raises(ValueError, match="kernel.tau"):
        _cfg(tmp_path, kernel_variant=variant, kernel_tau=1.0, **extra).validate()


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
    for bad in ("runs/#3", "runs/a\nb", "runs/a ", " runs/a", "runs/a\t"):
        with pytest.raises(ValueError, match="cannot hold"):
            ExperimentConfig(output_dir=bad).to_file(tmp_path / "bad.cfg")


# together these set every field of ExperimentConfig to a value other than
# its default, including an infinite float
SCHEMA_CONFIGS = [
    dict(regime="semi_high_dim", p=120, n=300, entry_law="rademacher", sigma=1.5,
         kernel_variant="gaussian", kernel_tau=0.7, trials=3, master_seed=9,
         histogram_bins=33, stieltjes_x_lo=-0.25, stieltjes_x_hi=3.5,
         stieltjes_points=150),
    dict(kernel_variant="indicator", kernel_radius=19.5),
    dict(kernel_variant="indicator", kernel_beta=math.inf),
    dict(kernel_variant="indicator", kernel_z_alpha=-0.5),
]


def test_config_file_schema_is_the_readme_key_list(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("recognized keys include", 1)[1].split("The genMP", 1)[0]
    readme_keys = set(listed.split("`")[1::2])
    assert len(readme_keys) == len(dataclasses.fields(ExperimentConfig)) == 17
    written = set()
    for i, kw in enumerate(SCHEMA_CONFIGS):
        cfg = _cfg(tmp_path, **kw)
        path = tmp_path / f"{i}.cfg"
        cfg.to_file(path)
        assert ExperimentConfig.from_file(path) == cfg
        written |= {line.split(" = ")[0] for line in path.read_text().splitlines()}
    assert written == readme_keys


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
    # the inversion height is a constant, no longer a config key
    old_key = tmp_path / "bad3.cfg"
    old_key.write_text("stieltjes.v_schedule = 0.001\n")
    with pytest.raises(ValueError, match="unknown config key"):
        ExperimentConfig.from_file(old_key)
    assert cli.main(["simulate", "--config", str(old_key)]) == 2
    # a value that does not parse names its file, line and key, as these do
    for text, message in (("p = 1e3", "p = '1e3' is not an integer"),
                          ("sigma = abc", "sigma = 'abc' is not a number")):
        bad_value = tmp_path / "bad4.cfg"
        bad_value.write_text(f"n = 400\n{text}\n")
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_file(bad_value)
        assert str(err.value) == f"{bad_value}:2: {message}"
        assert cli.main(["simulate", "--config", str(bad_value)]) == 2


def test_config_file_rejects_a_repeated_key(tmp_path):
    # the last line used to win without a word
    path = tmp_path / "twice.cfg"
    path.write_text("p = 100\nn = 400\np = 50\n")
    with pytest.raises(ValueError, match=r"'p' repeats line 1") as err:
        ExperimentConfig.from_file(path)
    assert ":3:" in str(err.value)
    assert cli.main(["simulate", "--config", str(path)]) == 2


# one grid point, a descending grid, and an x_lo above the default upper end
# (1.15 x the MP edge, 3.07 at c = 0.4) used to fail only in the solver, exit 3;
# an infinite end gave a grid of NaN that failed the mass check after the trials
@pytest.mark.parametrize("grid", [
    "stieltjes.points = 1", "stieltjes.x_lo = 3\nstieltjes.x_hi = 0.5",
    "stieltjes.x_lo = 4", "stieltjes.x_hi = inf", "stieltjes.x_lo = -inf"])
def test_config_with_bad_grid_is_invalid(tmp_path, grid):
    path = tmp_path / "grid.cfg"
    path.write_text("p = 60\nn = 150\ntrials = 1\nkernel.variant = indicator\n"
                    f"kernel.z_alpha = 0.0\noutput_dir = {tmp_path / 'out'}\n"
                    f"{grid}\n")
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


# parameters that give no kernel used to pass validate() and fail in the run,
# under messages that did not name them, and a NaN radius with exit 3
@pytest.mark.parametrize("kernel, name", [
    ("kernel.variant = indicator\nkernel.beta = -3", "beta"),
    ("kernel.variant = indicator\nkernel.z_alpha = nan", "z_alpha"),
    ("kernel.variant = indicator\nkernel.radius = nan", "radius"),
    ("kernel.variant = gaussian\nkernel.tau = nan", "tau"),
    ("kernel.variant = gaussian\nkernel.tau = inf", "tau"),
    ("sigma = nan", "sigma"),
    ("sigma = inf", "sigma"),
    ("kernel.variant = gaussian\nkernel.tau = 1\nkernel.radius = 3", "radius"),
    ("kernel.variant = constant\nkernel.z_alpha = 0.5", "z_alpha"),
    ("kernel.variant = constant\nkernel.beta = 0.1", "beta"),
    ("kernel.variant = custom", "custom"),
], ids=["beta", "z_alpha", "radius", "tau_nan", "tau_inf", "sigma", "sigma_inf",
        "radius_on_gaussian", "z_alpha_on_constant", "beta_on_constant", "custom"])
def test_cli_simulate_rejects_bad_kernel_parameters_before_writing(
        tmp_path, capsys, kernel, name):
    path = tmp_path / "bad.cfg"
    path.write_text(f"p = 20\nn = 50\ntrials = 1\noutput_dir = {tmp_path / 'out'}\n"
                    f"{kernel}\n")
    assert cli.main(["simulate", "--config", str(path)]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# prediction selection
# ---------------------------------------------------------------------------

# an indicator of infinite radius, however given, is 1 everywhere like the
# constant kernel (`ensemble._is_one`), so its prediction is the constant's
INFINITE_RADIUS = [{"kernel_radius": math.inf}, {"kernel_beta": math.inf},
                   {"kernel_z_alpha": math.inf}]


def test_prediction_constant_kernel(tmp_path):
    law, params = harness.select_prediction(_cfg(tmp_path))
    assert params == {"kind": "mp", "c": 0.4, "scale": 1.0, "alpha": 1.0}
    assert law.cdf(10.0) == 1.0
    for kw in INFINITE_RADIUS:
        cfg = _cfg(tmp_path, kernel_variant="indicator", **kw)
        assert harness.select_prediction(cfg)[1] == params


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
    for kw in INFINITE_RADIUS:  # no chi quadrature: 1 exactly
        cfg = _cfg(tmp_path, regime="semi_high_dim", p=100, n=2000,
                   kernel_variant="indicator", **kw)
        assert harness.select_prediction(cfg)[1]["pair_moment"] == 1.0
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


def _at_blas_threads(counts, run):
    """[run(count) for count in counts], each with OpenBLAS set to `count`
    threads; the thread count is restored afterwards."""
    get, put = _openblas_or_skip()
    before, out = get(), []
    try:
        for count in counts:
            put(count)
            out.append(run(count))
    finally:
        put(before)
    return out


def test_run_experiment_deterministic_and_thread_invariant(tmp_path):
    cfg1 = _cfg(tmp_path, p=60, n=150, trials=4,
                output_dir=str(tmp_path / "r1"))
    cfg2 = _cfg(tmp_path, p=60, n=150, trials=4,
                output_dir=str(tmp_path / "r2"))
    _at_blas_threads((1, 4), lambda count: harness.run_experiment(
        cfg1 if count == 1 else cfg2))
    for name in ("histogram.csv", "law.csv"):
        assert (tmp_path / "r1" / name).read_bytes() \
            == (tmp_path / "r2" / name).read_bytes()


def test_semi_high_dim_multi_tile_thread_invariant(tmp_path):
    # n above twice the default block of 1024, so each trial walks a 5 x 5
    # grid of 512-wide tiles, with a ragged last one, on the workers
    cfg = _cfg(tmp_path, regime="semi_high_dim", p=50, n=2100,
               kernel_variant="indicator", kernel_z_alpha=0.0, trials=2)

    def snapshot(_):
        harness.run_experiment(cfg)
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        report.pop("runtime_seconds")
        return ((out / "histogram.csv").read_bytes(), (out / "law.csv").read_bytes(),
                json.dumps(report, sort_keys=True))

    one, two = _at_blas_threads((1, 2), snapshot)
    assert one == two


def test_multi_tile_trials_write_the_same_bytes_at_any_trial_threads(tmp_path):
    # the eigensolve of a 400 x 400 matrix sums differently on 1 and 2 BLAS
    # threads: a trial that ran it on one thread only while its stream's
    # pool held BLAS on one thread would give bytes that depend on timing
    cfg = _cfg(tmp_path, regime="semi_high_dim", p=400, n=1100,
               kernel_variant="indicator", kernel_z_alpha=0.0, trials=4)

    def snapshot(_):
        harness.run_experiment(cfg)
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        report.pop("runtime_seconds")
        return (out / "histogram.csv").read_bytes(), json.dumps(report, sort_keys=True)

    one, two, again = _at_blas_threads((1, 2, 2), snapshot)
    assert one == two == again


def test_same_seed_gives_the_same_bytes_at_any_blas_and_trial_threads(tmp_path):
    # the determinism contract: every trial of run_experiment runs on one
    # BLAS thread, so a 200x500 indicator run gives the same bytes from two
    # processes, under 1 and 2 BLAS threads
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    digests = set()
    for blas in ("1", "2"):
        side = tmp_path / f"blas{blas}"
        side.mkdir()
        (side / "exp.cfg").write_text(
            "p = 200\nn = 500\ntrials = 5\nmaster_seed = 3\n"
            "kernel.variant = indicator\nkernel.beta = 0.1\noutput_dir = run\n")
        subprocess.run([sys.executable, "-m", "rmtlab.cli", "simulate", "--config",
                        "exp.cfg"], cwd=side, env={**env, "OPENBLAS_NUM_THREADS": blas},
                       check=True, capture_output=True)
        out = side / "run"
        report = json.loads((out / "report.json").read_text())
        report.pop("runtime_seconds")
        digests.add(hashlib.sha256(
            (out / "histogram.csv").read_bytes() + (out / "law.csv").read_bytes()
            + json.dumps(report, sort_keys=True).encode()).hexdigest())
    assert len(digests) == 1


def test_small_trials_run_on_pinned_workers_at_any_trial_threads(tmp_path):
    # n <= BLOCK: every trial is a task of the pinned pool with BLAS on one
    # thread: on the calling thread when BLAS had one thread, on the workers
    # when it had two or four (with a short switch interval); the pooled
    # eigenvalues are the same and the thread count is restored
    get, put = _openblas_or_skip()
    before, switch, seen = get(), sys.getswitchinterval(), []

    def profile(sq):
        seen.append((threading.current_thread(), get()))
        return np.exp(-sq / 80.0)

    K = ensemble.KernelSpec(variant="custom", dimension=20, profile=profile,
                            alpha_limit=1.0)
    cfg = _cfg(tmp_path, p=20, n=60, trials=6)

    def eigenvalues(count):
        put(count)
        report = harness.run_experiment(cfg, kernel=K, write_artifacts=False)
        return report["pooled_spectrum"].eigenvalues.tobytes()

    try:
        one = eigenvalues(1)
        on_one, seen = seen, []
        sys.setswitchinterval(1e-5)
        more = [eigenvalues(count) for count in (2, 4)]
        after = get()
    finally:
        put(before)
        sys.setswitchinterval(switch)
    assert more == [one, one] and after == 4
    assert on_one and set(on_one) == {(threading.current_thread(), 1)}
    assert seen and all(t is not threading.current_thread() and count == 1
                        for t, count in seen)


def test_error_in_one_pooled_trial_reaches_the_caller_and_restores_blas(
        tmp_path, monkeypatch):
    get, put = _openblas_or_skip()
    before = get()
    cfg = _cfg(tmp_path, p=60, n=150, trials=4)
    failing_seed = ensemble.derive_seed(cfg.master_seed, 2)
    truncated_covariance = ensemble.truncated_covariance

    def failing(X, *args):
        if X.seed == failing_seed:
            raise FloatingPointError("trial 2 failed")
        return truncated_covariance(X, *args)

    monkeypatch.setattr(ensemble, "truncated_covariance", failing)
    try:
        put(2)
        with pytest.raises(FloatingPointError, match="trial 2"):
            harness.run_experiment(cfg)
        after = get()
    finally:
        put(before)
    assert after == 2
    assert not (tmp_path / "out").exists()


def test_error_in_one_multi_tile_trial_reaches_the_caller_and_restores_blas(
        tmp_path, monkeypatch):
    # n > BLOCK: the trials run one at a time on the calling thread, each
    # streaming on as many workers as BLAS had threads; one that fails fails
    # the run, at one BLAS thread and at two
    cfg = _cfg(tmp_path, p=20, n=1100, trials=3)
    failing_seed = ensemble.derive_seed(cfg.master_seed, 1)
    truncated_covariance = ensemble.truncated_covariance
    get, _ = _openblas_or_skip()

    def failing(X, *args):
        if X.seed == failing_seed:
            raise FloatingPointError("trial 1 failed")
        return truncated_covariance(X, *args)

    def run(_):
        with pytest.raises(FloatingPointError, match="trial 1"):
            harness.run_experiment(cfg)
        return get()

    monkeypatch.setattr(ensemble, "truncated_covariance", failing)
    assert _at_blas_threads((1, 2), run) == [1, 2]
    assert not (tmp_path / "out").exists()


def _count_trials_in_flight(monkeypatch):
    """Replace ensemble.truncated_covariance by one that waits 50 ms and
    counts the calls in flight; returns {"now", "peak"}."""
    lock, state = threading.Lock(), {"now": 0, "peak": 0}
    truncated_covariance = ensemble.truncated_covariance

    def counted(X, *args):
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])
        try:
            threading.Event().wait(0.05)
            return truncated_covariance(X, *args)
        finally:
            with lock:
                state["now"] -= 1

    monkeypatch.setattr(ensemble, "truncated_covariance", counted)
    return state


@pytest.mark.parametrize("fit, most", [(2, 2), (0, 1)], ids=["two_fit", "none_fit"])
def test_pooled_trials_in_flight_fit_the_byte_budget(tmp_path, monkeypatch, fit, most):
    # four BLAS threads, but only `fit` trials fit in _TRIALS_BYTES: no more
    # than `most` trials run at once, and the bytes are those of one worker
    get, put = _openblas_or_skip()
    before, state = get(), _count_trials_in_flight(monkeypatch)
    cfg = _cfg(tmp_path, p=30, n=80, trials=6)
    try:
        put(1)
        one = harness.run_experiment(cfg, write_artifacts=False)
        monkeypatch.setattr(harness, "_TRIALS_BYTES", fit * harness._trial_bytes(30, 80))
        put(4)
        state["peak"] = 0
        capped = harness.run_experiment(cfg, write_artifacts=False)
        after = get()
    finally:
        put(before)
    assert (state["peak"], after) == (most, 4)
    assert capped["pooled_spectrum"].eigenvalues.tobytes() \
        == one["pooled_spectrum"].eigenvalues.tobytes()


def test_trials_above_one_block_run_one_at_a_time_at_any_blas_threads(
        tmp_path, monkeypatch):
    # n > BLOCK: even on four BLAS threads the three trials never overlap,
    # each streaming on the pinned workers instead, and the bytes are those
    # of one BLAS thread
    state = _count_trials_in_flight(monkeypatch)
    cfg = _cfg(tmp_path, p=20, n=1100, trials=3)

    def run(_):
        state["peak"] = 0
        report = harness.run_experiment(cfg, write_artifacts=False)
        return state["peak"], report["pooled_spectrum"].eigenvalues.tobytes()

    (peak1, one), (peak4, four) = _at_blas_threads((1, 4), run)
    assert (peak1, peak4) == (1, 1)
    assert four == one


def test_run_experiment_takes_and_ignores_the_threads_keyword(tmp_path):
    # perfbench's workloads still pass threads=1
    cfg = _cfg(tmp_path, p=60, n=150, trials=2)
    runs = [harness.run_experiment(cfg, write_artifacts=False, **kw)
            for kw in ({}, {"threads": 1})]
    assert runs[0]["pooled_spectrum"].eigenvalues.tobytes() \
        == runs[1]["pooled_spectrum"].eigenvalues.tobytes()


def test_sweep_trials_share_one_pool_and_give_the_same_bytes_at_any_blas_threads(
        tmp_path):
    # figure2's four one-trial runs are tasks of one pinned pool: the same
    # bytes on one BLAS thread and on two
    get, put = _openblas_or_skip()
    before = get()

    def snapshot(threads):
        out = tmp_path / f"blas{threads}"
        put(threads)
        harness.figure2(trials=1, out_dir=str(out))
        return {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*.csv"))}

    try:
        one, two = snapshot(1), snapshot(2)
    finally:
        put(before)
    assert len(one) == 12 and one == two


def test_sweep_law_failure_leaves_no_file(tmp_path, monkeypatch):
    # every law of a sweep is built before its first file is written, so a
    # genMP solve that fails after the constant kernel's run leaves nothing
    def boom(*args, **kwargs):
        raise laws.SolverError("forced")

    monkeypatch.setattr(laws, "solve_stieltjes_grid", boom)
    with pytest.raises(laws.SolverError):
        harness.figure1(p=20, n=50, betas=(math.inf, 0.1), out_dir=str(tmp_path / "f1"))
    assert not (tmp_path / "f1").exists()


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


@pytest.mark.parametrize("kernel", [
    ensemble.KernelSpec(variant="gaussian", dimension=60, tau=1.3),
    ensemble.KernelSpec(variant="custom", dimension=59, profile=lambda t: np.ones_like(t)),
], ids=["contradicts", "custom_dimension"])
def test_run_experiment_checks_its_kernel_before_any_trial(tmp_path, monkeypatch, kernel):
    # the kernel used to be checked while the trials ran, by the proportional
    # run's law, or by the first trial's stream
    state = _count_trials_in_flight(monkeypatch)
    cfg = _cfg(tmp_path, p=60, n=150, trials=6)
    with pytest.raises(ValueError, match="contradicts|dimension 59"):
        harness.run_experiment(cfg, kernel=kernel)
    assert state["peak"] == 0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha_limit, listed", [(1.0, True), (None, False)],
                         ids=["law", "no_prediction"])
def test_report_lists_law_csv_only_when_written(tmp_path, alpha_limit, listed):
    # a stale law.csv of an earlier run in the same directory is overwritten
    # or removed, and listed only when written
    cfg = _cfg(tmp_path, p=30, n=80, trials=1)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "law.csv").write_text("stale\n")
    K = ensemble.KernelSpec(variant="custom", dimension=30,
                            profile=lambda t: np.ones_like(t), alpha_limit=alpha_limit)
    artifacts = harness.run_experiment(cfg, kernel=K)["artifacts"]
    assert ("law" in artifacts) is listed
    assert set(artifacts) - {"law"} == {"histogram", "report"}
    assert all(Path(path).exists() for path in artifacts.values())
    law_csv = tmp_path / "out" / "law.csv"
    assert law_csv.exists() is listed
    assert not listed or law_csv.read_text() != "stale\n"


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


@pytest.mark.parametrize("kw", [{"kernel_variant": "indicator", "kernel_z_alpha": 0.0},
                                {"kernel_variant": "constant"}],
                         ids=["indicator", "constant"])
def test_semi_high_dim_wide_matrix_null_eigenvalues_sit_on_the_floor(tmp_path, kw):
    # p > n is valid while p^2 > n: the p - n + 1 null eigenvalues of M map
    # to the floor -sqrt(n/p) alpha_p sigma^2 of the centred spectrum and none
    # lies below it; centring M before its eigensolve put 11 of 21 below it
    cfg = _cfg(tmp_path, regime="semi_high_dim", p=60, n=40, trials=1,
               master_seed=3, **kw)
    rep = harness.run_experiment(cfg, write_artifacts=False)
    floor = math.sqrt(40 / 60) * (0.0 - rep["law_params"]["alpha_p"] * cfg.sigma**2)
    lam = rep["pooled_spectrum"].eigenvalues
    assert np.all(lam[:60 - 40 + 1] == floor)
    assert lam.min() >= floor


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
    for kw in INFINITE_RADIUS:  # the same M and the same law, not genMP's
        rep = harness.run_experiment(
            _cfg(tmp_path, p=60, n=150, trials=2, master_seed=3,
                 kernel_variant="indicator", output_dir=str(tmp_path / "inf"), **kw))
        assert rep["law_params"] == ref["law_params"]
        assert rep["pooled_ks"] == ref["pooled_ks"]


def test_figure1_mean_eigenvalue_increases_with_beta(tmp_path):
    reports = harness.figure1(p=100, n=250, betas=(-0.1, 0.3), seed=0,
                              trials=1, out_dir=str(tmp_path / "f1"))
    assert reports["-0.1"]["pooled_mean_eigenvalue"] \
        < reports["0.3"]["pooled_mean_eigenvalue"]


@pytest.mark.parametrize("figure, kw, match", [
    (harness.figure1, {"betas": (0.1, -3.0)}, "beta"),
    # only +inf is the constant kernel; -inf ran it under the tag inf
    (harness.figure1, {"betas": (0.1, -math.inf)}, "beta"),
    (harness.figure2, {"taus": (0.5, -1.0)}, "tau"),
    (harness.figure1, {"betas": (0.1, 0.1000001)}, "beta_0.1"),
    (harness.figure2, {"taus": (1, 1.0)}, "tau_1"),
], ids=["beta", "minus_inf_beta", "tau", "beta_tags_alike", "tau_tags_alike"])
def test_figure_sweep_checks_every_run_before_writing(tmp_path, figure, kw, match):
    # an invalid last run used to leave the earlier runs' files behind, and
    # two values with one printed tag one directory, the second run's files
    # over the first's
    with pytest.raises(ValueError, match=match):
        figure(p=20, n=50, trials=1, out_dir=str(tmp_path / "fig"), **kw)
    assert not (tmp_path / "fig").exists()


def test_artifact_digest_of_figure1_is_the_same_in_any_directory(tmp_path):
    # each report.json echoes its absolute output_dir; DIR given absolute,
    # or relative from two working directories, masks it all the same
    tool = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
    for name in ("a", "somewhere_else"):
        harness.figure1(p=20, n=50, betas=(0.1, math.inf), trials=2,
                        out_dir=str(tmp_path / name))
    digests = [subprocess.run([sys.executable, str(tool), arg], cwd=cwd, check=True,
                              capture_output=True, text=True).stdout.splitlines()
               for arg, cwd in ((str(tmp_path / "a"), tmp_path),
                                (str(tmp_path / "somewhere_else"), tmp_path),
                                ("a", tmp_path),
                                ("../somewhere_else", tmp_path / "a"))]
    assert len(digests[0]) == 8
    assert all(d == digests[0] for d in digests)


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
    payload = json.loads((tmp_path / "sc" / "report.json").read_text())
    assert "pooled_ks_shifted" in payload
    assert "predicted_mean_shift" in payload


def test_semicircle_experiment_report_is_run_experiments(tmp_path):
    out = tmp_path / "sc"
    for given, config in [
            ({"kernel_variant": "indicator", "kernel_z_alpha": 0.0},
             {"kernel_variant": "indicator", "kernel_z_alpha": 0.0}),
            # the library call sets tau's default itself, not only the CLI
            ({"kernel_variant": "gaussian"},
             {"kernel_variant": "gaussian", "kernel_tau": 1.0})]:
        harness.semicircle_experiment(p=60, n=1000, trials=1, seed=2,
                                      out_dir=str(out), **given)
        sc = json.loads((out / "report.json").read_text())
        cfg = ExperimentConfig(regime="semi_high_dim", p=60, n=1000, trials=1,
                               master_seed=2, output_dir=str(out), **config)
        harness.run_experiment(cfg)
        run = json.loads((out / "report.json").read_text())
        sc.pop("runtime_seconds")
        run.pop("runtime_seconds")
        assert sc == run
    assert {"predicted_mean_shift", "pooled_ks_shifted"} <= set(run)


def test_semicircle_report_holds_only_values_the_run_varies(tmp_path):
    out = tmp_path / "sc"
    harness.semicircle_experiment(p=40, n=500, trials=1, seed=3, out_dir=str(out))
    report = json.loads((out / "report.json").read_text())
    assert set(report["law_params"]) == {"kind", "c", "alpha_p", "pair_moment",
                                         "variance"}
    assert "sc_transform_residual" not in report


def test_diagnostics_reductions_rejects_no_seeds(tmp_path):
    with pytest.raises(ValueError, match="at least one seed"):
        harness.diagnostics_reductions(p_list=(40,), n_list=(100,), seeds=[],
                                       out_dir=str(tmp_path / "diag"))
    assert not (tmp_path / "diag").exists()


@pytest.mark.parametrize("p_list, n_list",
                         [([10, 20], [40]), ([10], [40, 80]), ([], [])])
def test_diagnostics_reductions_rejects_unpaired_sizes(tmp_path, p_list, n_list):
    # zip would drop the unpaired sizes, and no sizes at all would write an
    # empty CSV reporting a decreasing median
    with pytest.raises(ValueError, match="equally many p and n"):
        harness.diagnostics_reductions(p_list=p_list, n_list=n_list, seeds=[0],
                                       out_dir=str(tmp_path / "diag"))
    assert not (tmp_path / "diag").exists()


@pytest.mark.parametrize("variant", ["gaussian", "custom", "cauchy"])
def test_diagnostics_reductions_rejects_unbuildable_kernels(tmp_path, variant):
    # it takes no tau or profile, so only the indicator and constant kernels
    # can be built
    with pytest.raises(ValueError, match="indicator or constant"):
        harness.diagnostics_reductions(p_list=(40,), n_list=(100,), seeds=[0],
                                       kernel_variant=variant,
                                       out_dir=str(tmp_path / "diag"))
    assert not (tmp_path / "diag").exists()


@pytest.mark.parametrize("kw, match", [
    ({"p_list": (0,), "n_list": (40,)}, "p >= 1"),
    # with one sample M = 0, yet a W2 gap was reported
    ({"p_list": (5,), "n_list": (1,)}, "n >= 2"),
    ({"sigma": -1.0}, "sigma"),
    ({"mc_conditional": 50}, "mc_conditional"),
    ({"sigma": math.inf}, "sigma"),
    # a repeated size or seed wrote its rows twice and its median once
    ({"p_list": (10, 20, 10), "n_list": (40, 50, 40)}, "each p:n size once"),
    ({"seeds": [0, 1, 0]}, "each seed once"),
], ids=["p", "n", "sigma", "mc_conditional", "sigma_inf", "size_twice", "seed_twice"])
def test_diagnostics_reductions_checks_inputs_before_making_its_directory(
        tmp_path, kw, match):
    # checked before any case runs on the pool, and before out_dir is made
    kw = {"p_list": (10,), "n_list": (40,), "seeds": [0], **kw}
    with pytest.raises(ValueError, match=match):
        harness.diagnostics_reductions(out_dir=str(tmp_path / "diag"), **kw)
    assert not (tmp_path / "diag").exists()


def _openblas_or_skip():
    blas = ensemble._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
    return blas


def test_diagnostics_rows_come_in_input_order_when_a_later_case_finishes_first(
        tmp_path, monkeypatch):
    # input order (p 20, 30, 10) is submitted largest first (30, 20, 10) on
    # two workers; case 30 waits until case 10 is done, so the cases finish
    # as 20, 10, 30: the rows must follow none of the other two orders
    get, put = _openblas_or_skip()
    before, released, finished = get(), threading.Event(), []
    xi_conditional = ensemble.xi_conditional

    def held(X, *args):
        if X.p == 30:
            assert released.wait(10)
        xi = xi_conditional(X, *args)
        finished.append(X.p)
        if X.p == 10:
            released.set()
        return xi

    monkeypatch.setattr(ensemble, "xi_conditional", held)
    try:
        put(2)
        result = harness.diagnostics_reductions(
            p_list=(20, 30, 10), n_list=(60, 60, 60), seeds=[0],
            mc_conditional=100, out_dir=str(tmp_path / "diag"))
    finally:
        put(before)
    assert finished == [20, 10, 30]
    assert [r["p"] for r in result["rows"]] == [20, 30, 10]
    csv = (tmp_path / "diag" / "reduction_gaps.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in csv[1:]] == ["20", "30", "10"]


def test_diagnostics_error_in_one_case_reaches_the_caller_and_restores_blas(
        tmp_path, monkeypatch):
    get, _ = _openblas_or_skip()
    before = get()
    xi_conditional = ensemble.xi_conditional

    def failing(X, *args):
        if X.p == 20:
            raise FloatingPointError("case p=20 failed")
        return xi_conditional(X, *args)

    monkeypatch.setattr(ensemble, "xi_conditional", failing)
    with pytest.raises(FloatingPointError, match="p=20"):
        harness.diagnostics_reductions(p_list=(10, 20, 30), n_list=(40, 40, 40),
                                       seeds=[0, 1], mc_conditional=100,
                                       out_dir=str(tmp_path / "diag"))
    assert get() == before
    assert not (tmp_path / "diag").exists()


def test_diagnostics_on_more_workers_than_cores_keep_their_rows(tmp_path):
    # four cases at once, each with n > 1024 opening its own stream pool of
    # four workers under the diagnostics' pin, with a short switch interval:
    # the rows are those of one case at a time and the pin is restored
    get, put = _openblas_or_skip()
    before, switch = get(), sys.getswitchinterval()

    def rows(threads):
        put(threads)
        return harness.diagnostics_reductions(
            p_list=(12, 8), n_list=(1100, 1030), seeds=range(3), mc_conditional=100,
            out_dir=str(tmp_path / f"diag{threads}"))["rows"]

    try:
        one = rows(1)
        sys.setswitchinterval(1e-5)
        four = rows(4)
        after = get()
    finally:
        put(before)
        sys.setswitchinterval(switch)
    assert after == 4
    assert four == one


def test_diagnostics_are_the_same_bytes_at_any_blas_thread_count(tmp_path):
    # every case runs on the pool with BLAS on one thread, its 400 x 400
    # eigensolves and a two-tile stream (n = 700, 1000) included
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "rmtlab.cli", "diagnostics", "--sizes",
                        "100:250,200:700,400:1000", "--seeds", "3", "--out", str(out)],
                       env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True,
                       capture_output=True)
        runs.append((out / "reduction_gaps.csv").read_bytes())
    assert runs[0] == runs[1]


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
    # a directory used to exit 1 with an IsADirectoryError traceback
    assert cli.main(["simulate", "--config", str(tmp_path)]) == 2


@pytest.mark.parametrize("args", [
    ["law", "--type", "mp", "--out", "FILE/x.csv"],
    ["semicircle", "--p", "20", "--n", "100", "--trials", "1", "--out", "FILE"],
    ["diagnostics", "--sizes", "10:30", "--seeds", "1", "--out", "FILE"],
], ids=["law", "semicircle", "diagnostics"])
def test_cli_output_under_a_file_is_invalid(tmp_path, monkeypatch, capsys, args):
    # each used to exit 1 with a FileExistsError traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "FILE").write_text("kept\n")
    assert cli.main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert (tmp_path / "FILE").read_text() == "kept\n"


def test_cli_simulate_invalid_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("frobnicate = 1\n")
    assert cli.main(["simulate", "--config", str(path)]) == 2


def test_cli_check_breach_exit_code(tmp_path, monkeypatch):
    monkeypatch.setitem(harness.CHECK_THRESHOLDS, "mp", 1e-9)
    path = _write_small_config(tmp_path, "cli_breach")
    assert cli.main(["--check", "simulate", "--config", str(path)]) == 4


def _semi_high_dim_gating_args(tmp_path):
    # raw KS 0.2007 against the semicircle, 0.1064 after the predicted
    # finite-size mean shift of -0.253
    path = tmp_path / "shd.cfg"
    path.write_text("regime = semi_high_dim\np = 100\nn = 2000\ntrials = 1\n"
                    "master_seed = 0\nkernel.variant = indicator\n"
                    f"kernel.z_alpha = 0.0\noutput_dir = {tmp_path / 'sim'}\n")
    return (["--check", "simulate", "--config", str(path)],
            ["--check", "semicircle", "--p", "100", "--n", "2000", "--trials",
             "1", "--seed", "0", "--z-alpha", "0.0", "--out", str(tmp_path / "sc")])


def test_cli_simulate_and_semicircle_gate_on_the_same_ks(tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.setitem(harness.CHECK_THRESHOLDS, "sc", 0.15)
    simulate, semicircle = _semi_high_dim_gating_args(tmp_path)
    assert cli.main(simulate) == 0
    sim_line = capsys.readouterr().out.splitlines()[-1]
    assert cli.main(semicircle) == 0
    sc_line = capsys.readouterr().out.splitlines()[-1]
    assert sim_line == sc_line == ("--check gates on pooled_ks_shifted = "
                                   "0.1064 (threshold 0.15)")
    report = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert report["check"] == {"ks": "pooled_ks_shifted", "threshold": 0.15,
                               "breach": False}
    monkeypatch.setitem(harness.CHECK_THRESHOLDS, "sc", 0.1)
    assert cli.main(simulate) == cli.main(semicircle) == 4


def test_cli_figure_sweep_gates_each_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(harness.CHECK_THRESHOLDS, "mp", 1e-9)
    assert cli.main(["--check", "figure2", "--p", "60", "--n", "150", "--taus",
                     "0.7", "--out", str(tmp_path / "f2")]) == 4
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("0.7: --check gates on pooled_ks = ")
    monkeypatch.setitem(harness.CHECK_THRESHOLDS, "mp", 1.0)
    assert cli.main(["--check", "figure2", "--p", "60", "--n", "150", "--taus",
                     "0.7", "--out", str(tmp_path / "f2")]) == 0


def test_cli_solver_failure_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise laws.SolverError("forced")
    monkeypatch.setattr(laws, "solve_stieltjes_grid", boom)
    out = tmp_path / "law.csv"
    assert cli.main(["law", "--type", "genmp", "--out", str(out)]) == 3


def test_cli_law_failure_while_trials_run_exits_3_and_restores_blas(
        tmp_path, monkeypatch, capsys):
    # the genMP solve fails on the calling thread once a trial has started
    # on the pool: exit 3, nothing printed or written, BLAS as before
    get, put = _openblas_or_skip()
    before, started = get(), threading.Event()
    truncated_covariance = ensemble.truncated_covariance

    def traced(X, *args):
        started.set()
        return truncated_covariance(X, *args)

    def boom(*args, **kwargs):
        assert started.wait(10)
        raise laws.SolverError("forced")

    monkeypatch.setattr(ensemble, "truncated_covariance", traced)
    monkeypatch.setattr(laws, "solve_stieltjes_grid", boom)
    path = tmp_path / "ind.cfg"
    path.write_text("p = 60\nn = 150\ntrials = 4\nkernel.variant = indicator\n"
                    f"kernel.z_alpha = 0.0\noutput_dir = {tmp_path / 'cli_out'}\n")
    try:
        put(2)
        code = cli.main(["simulate", "--config", str(path)])
        after = get()
    finally:
        put(before)
    assert (code, after) == (3, 2)
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "cli_out").exists()


@pytest.mark.parametrize("args", [
    ["figure2", "--taus", "1e-200"], ["figure2", "--taus", "1e200"],
    ["figure1", "--sigma", "1e200", "--betas", "0.1"],
], ids=["tau_sq_underflows", "tau_sq_overflows", "sigma_sq_overflows"])
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_cli_figure_with_a_square_out_of_range_is_invalid(tmp_path, capsys, args):
    # each used to exit 1 with a ZeroDivisionError or OverflowError traceback
    out = tmp_path / "fig"
    assert cli.main([*args, "--p", "20", "--n", "50", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_linalg_failure_exit_code(monkeypatch):
    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")
    monkeypatch.setattr(harness, "figure1", boom)
    assert cli.main(["figure1"]) == 3


@pytest.mark.parametrize("args", [
    ["--type", "mp", "--scale", "inf"], ["--type", "mp", "--c", "nan"],
    ["--type", "sc", "--variance", "inf"], ["--type", "sc", "--variance", "nan"],
    ["--type", "genmp", "--z-alpha", "nan"], ["--type", "genmp", "--c", "inf"],
    ["--type", "genmp", "--sigma", "inf"], ["--type", "genmp", "--sigma", "1e200"],
    ["--type", "mp", "--variance", "2"], ["--type", "mp", "--z-alpha", "3"],
    ["--type", "sc", "--scale", "5"], ["--type", "sc", "--c", "0.3"],
    ["--type", "genmp", "--variance", "9", "--scale", "3"],
], ids=["mp_scale_inf", "mp_c_nan", "sc_variance_inf", "sc_variance_nan",
        "genmp_z_alpha_nan", "genmp_c_inf", "genmp_sigma_inf", "genmp_sigma_sq_overflows",
        "mp_variance", "mp_z_alpha", "sc_scale", "sc_c", "genmp_variance_scale"])
def test_cli_law_rejects_non_finite_parameters_before_writing(tmp_path, args):
    # these used to exit 0 with nan rows, or 3 after a failed inversion, and
    # a sigma whose square overflows exited 1 with a traceback; the last five,
    # flags the law type does not read, exited 0 ignoring the flag
    out = tmp_path / "laws" / "law.csv"
    assert cli.main(["law", *args, "--out", str(out)]) == 2
    assert not (tmp_path / "laws").exists()


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


@pytest.mark.parametrize("kernel, flag", [("indicator", "--tau"), ("gaussian", "--z-alpha"),
                                          ("constant", "--tau"), ("constant", "--z-alpha")],
                         ids=["indicator_tau", "gaussian_z_alpha", "constant_tau",
                              "constant_z_alpha"])
def test_cli_semicircle_rejects_a_flag_its_kernel_does_not_read(tmp_path, capsys, kernel,
                                                                 flag):
    # each used to exit 0, with the flag's value echoed as null
    out = tmp_path / "sc"
    assert cli.main(["semicircle", "--p", "30", "--n", "500", "--trials", "1", "--kernel",
                     kernel, flag, "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "applies only to" in err and f"{flag} applies" in err
    assert "kernel." not in err
    assert not out.exists()


def test_cli_keeps_the_defaults_of_the_flags_a_run_reads(tmp_path):
    runs = [["--type", "mp"], ["--type", "mp", "--c", "0.4", "--scale", "1"],
            ["--type", "genmp", "--points", "50"],
            ["--type", "genmp", "--points", "50", "--c", "0.4", "--sigma", "1",
             "--z-alpha", "0"]]
    for k, args in enumerate(runs):
        assert cli.main(["law", *args, "--out", str(tmp_path / f"{k}.csv")]) == 0
    assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
    assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "3.csv").read_bytes()
    assert cli.main(["semicircle", "--p", "30", "--n", "500", "--trials", "1",
                     "--kernel", "gaussian", "--out", str(tmp_path / "sc")]) == 0
    config = json.loads((tmp_path / "sc" / "report.json").read_text())["config"]
    assert (config["kernel_tau"], config["kernel_z_alpha"]) == (1.0, None)


@pytest.mark.parametrize("law_type", ["mp", "sc", "genmp"])
@pytest.mark.parametrize("grid", [["--x-lo", "3", "--x-hi", "0.5"],
                                  ["--points", "1"], ["--x-hi", "inf"], ["--x-lo=-inf"]])
def test_cli_law_rejects_bad_grid(tmp_path, law_type, grid):
    out = tmp_path / "law.csv"
    assert cli.main(["law", "--type", law_type, *grid, "--out", str(out)]) == 2
    assert not out.exists()


def _exit_code(argv):
    """cli.main's exit code, also when argparse exits on a usage error."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args", [["--sizes", "100"],
                                  ["--sizes", "40:100", "--seeds", "0"],
                                  ["--sizes", "40:100", "--seeds", "-2"],
                                  ["--sizes", "100:,200:500"],
                                  ["--sizes", "20:50,20:50", "--seeds", "2"]])
def test_cli_diagnostics_rejects_bad_input(tmp_path, args):
    out = tmp_path / "diag"
    assert _exit_code(["diagnostics", *args, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [["figure1", "--betas", "0.1,0.1000001"],
                                  ["figure2", "--taus", "1,1.0"]],
                         ids=["betas", "taus"])
def test_cli_figure_rejects_values_that_print_alike(tmp_path, capsys, argv):
    out = tmp_path / "fig"
    assert _exit_code([*argv, "--p", "20", "--n", "50", "--out", str(out)]) == 2
    assert "print alike" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sizes, code", [("20:50,40:100", 0), ("40:100,20:50", 4)])
def test_cli_check_diagnostics_gates_on_the_medians_falling(tmp_path, sizes, code):
    # no KS: --check exits 4 unless the median W2 gap falls strictly along
    # --sizes in the order given (medians about 0.147 at 20:50 and 0.064 at
    # 40:100 over 3 seeds)
    out = tmp_path / "diag"
    assert _exit_code(["--check", "diagnostics", "--sizes", sizes, "--seeds", "3",
                       "--out", str(out)]) == code
    assert json.loads((out / "summary.json").read_text())["decreasing"] is (code == 0)


@pytest.mark.parametrize("argv, message", [
    (["figure1", "--betas", "0.1,,0.3"],
     "argument --betas: entry 2 of '0.1,,0.3' is not a number: ''"),
    (["figure2", "--taus", "0.1,,0.3"],
     "argument --taus: entry 2 of '0.1,,0.3' is not a number: ''"),
    (["diagnostics", "--sizes", "100:,200:500"],
     "argument --sizes: entry 1 of '100:,200:500' is not a p:n pair of "
     "integers: '100:'"),
], ids=["betas", "taus", "sizes"])
def test_cli_names_a_bad_list_entry(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert _exit_code([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_semicircle_echoes_the_config_of_simulate(tmp_path):
    # rmt semicircle passes its --tau default only to a gaussian kernel
    path = tmp_path / "shd.cfg"
    path.write_text("regime = semi_high_dim\np = 40\nn = 400\ntrials = 1\n"
                    "master_seed = 0\nkernel.variant = indicator\n"
                    f"kernel.z_alpha = 0.0\noutput_dir = {tmp_path / 'sim'}\n")
    assert cli.main(["simulate", "--config", str(path)]) == 0
    assert cli.main(["semicircle", "--p", "40", "--n", "400", "--trials", "1",
                     "--out", str(tmp_path / "sc")]) == 0
    configs = [json.loads((tmp_path / run / "report.json").read_text())["config"]
               for run in ("sim", "sc")]
    for config in configs:
        config.pop("output_dir")
    assert configs[0] == configs[1]
    assert configs[0]["kernel_tau"] is None


def test_importing_the_cli_loads_neither_scipy_stats_nor_integrate():
    # together they are most of the start-up time of every rmt command
    code = ("import sys, rmtlab.cli; print(sorted(m for m in sys.modules "
            "if m in ('scipy.stats', 'scipy.integrate')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_semi_high_dim_run_does_not_load_scipy_stats():
    # the indicator's pair moment is a fixed rule over the chi density it
    # evaluates itself: no scipy.stats density, no adaptive quadrature
    code = ("import sys; from rmtlab import harness; harness.run_experiment("
            "harness.ExperimentConfig(regime='semi_high_dim', p=20, n=100, trials=1, "
            "kernel_variant='indicator', kernel_z_alpha=0.0), write_artifacts=False); "
            "print(sorted(m for m in sys.modules if m in ('scipy.stats', 'scipy.integrate')))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_parser_requires_command():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([])
