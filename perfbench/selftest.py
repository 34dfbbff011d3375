"""Self-test of the benchmark's checks: each passes on rmtlab's real output
and fails on a deliberately wrong one.

    python3 perfbench/selftest.py

Runs every workload once at a reduced size (about half a minute in all),
confirms that all its checks pass, then applies one mutation per check (a
perturbed spectrum, an MP law with the wrong scale, a stretched density,
...) and confirms that the targeted check fails. Exits 1 if any expectation
does not hold.
"""

import copy
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _mutate(fn):
    """Mutation of the first experiment's outputs, applied to a copy."""
    def apply(outputs):
        out = copy.deepcopy(outputs)
        fn(out[0])
        return out
    return apply


def _set(field, value):
    return lambda o: o.__setitem__(field, value)


def _scale(field, factor):
    return lambda o: o.__setitem__(field, np.asarray(o[field]) * factor)


def _add(field, delta):
    return lambda o: o.__setitem__(field, o[field] + delta)


def _mp_wrong_scale(o):
    # spectrum of an MP law with 1.3 times the scale, with its honest KS
    o["eigenvalues"] = np.asarray(o["eigenvalues"]) * 1.3
    o["pooled_ks"] = checks.ks(o["eigenvalues"], lambda x: checks.mp_cdf(x, 0.4, 1.0))


def _law_scale(o):
    o["law_params"] = dict(o["law_params"], scale=o["law_params"]["scale"] * 1.1)


def _sc_variance(o):
    o["law_params"] = dict(o["law_params"], variance=o["law_params"]["variance"] * 1.01)


def _below_psd(o):
    lam = np.array(o["eigenvalues"])
    lam[0] = -100.0
    o["eigenvalues"] = lam


def _row(field, fn):
    return lambda o: o["rows"][0].__setitem__(field, fn(o["rows"][0][field]))


CASES = {
    "mp_ks": (workloads.MpKs(p=100, n=250, trials=1), {
        "constant.eigenvalues_match_dense": _mutate(_scale("eigenvalues", 1 + 1e-6)),
        "constant.law_scale": _mutate(_law_scale),
        "constant.ks_match_scipy": _mutate(_add("pooled_ks", 1e-4)),
        "constant.ks_bound": _mutate(_mp_wrong_scale),
        "constant.law_csv_cdf": _mutate(_add("law_cdf", 1e-6)),
    }),
    "genmp_solve": (workloads.GenmpSolve(p=100, n=250, trials=1, betas=(0.1,)), {
        "beta_0.1.solver_residual": _mutate(lambda o: o.__setitem__(
            "solver", dict(o["solver"], max_residual=1e-9))),
        "beta_0.1.density_mass": _mutate(_scale("law_density", 1.05)),
        "beta_0.1.first_moment": _mutate(_add("law_x", 0.02)),
        "beta_0.1.ks_match_scipy": _mutate(_add("pooled_ks", 1e-6)),
        "beta_0.1.ks_bound": _mutate(_set("pooled_ks", 0.11)),
    }),
    "semicircle_stream": (workloads.SemicircleStream(p=300, n=8000), {
        "psd_bound": _mutate(_below_psd),
        "pooled_mean": _mutate(_add("pooled_mean", 0.5)),
        "sc_variance": _mutate(_sc_variance),
        "ks_shifted_match_scipy": _mutate(_add("pooled_ks_shifted", 1e-3)),
        "ks_shifted_bound": _mutate(_set("pooled_ks_shifted", 0.09)),
        "law_csv_cdf": _mutate(_add("law_cdf", 1e-6)),
    }),
    "diagnostics_dense": (workloads.DiagnosticsDense(sizes=((100, 250),), seeds_per_pass=1), {
        f"p100_n250_s{SEED}.w2_le_hoffman_wielandt": _mutate(_row("w2_m_mbar", lambda v: 10.0)),
        f"p100_n250_s{SEED}.w2_match_dense": _mutate(_row("w2_m_mbar", lambda v: v * (1 + 1e-6))),
        f"p100_n250_s{SEED}.xi_prime_bound": _mutate(_row("max_xi_prime_over_n", lambda v: 1.0)),
    }),
}


def _verdict(found, name):
    match = [c for c in found if c.name == name]
    if len(match) != 1:
        raise KeyError(f"check {name!r} not produced")
    return match[0]


def main():
    problems = []

    def expect(label, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            problems.append(label)

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for wl_name, (workload, mutations) in CASES.items():
            seed = SEED
            out_dir = Path(tmp) / wl_name
            wall, results, failures = run.run_pass(workload.experiments(seed, out_dir))
            expect(f"{wl_name}: pass ran without failures ({wall:.1f} s)", not failures)
            outputs = workload.outputs(results)
            clean = workload.check(seed, outputs)
            expect(f"{wl_name}: all {len(clean)} checks pass on the library's output",
                   all(c.ok for c in clean))
            for name, mutation in mutations.items():
                expect(f"{wl_name}: {name} fails on a wrong input",
                       not _verdict(workload.check(seed, mutation(outputs)), name).ok)
            if wl_name == "semicircle_stream":
                def perturbed(X, tau):
                    return workloads._library_blocked_covariance(X, tau) * (1 + 1e-8)
                expect(f"{wl_name}: blocked_covariance_dense fails on a perturbed M",
                       not _verdict(workload.check(seed, outputs, covariance=perturbed),
                                    "blocked_covariance_dense").ok)

        # the benchmark's own closed forms against quadrature of their densities
        from scipy import integrate
        for c, scale in ((0.4, 1.0), (0.4, 0.6321)):
            a, b = scale * (1 - c**0.5) ** 2, scale * (1 + c**0.5) ** 2
            xs = np.linspace(a - 0.1, b + 0.1, 41)
            quad = [integrate.quad(lambda u: checks.mp_density(u, c, scale), a,
                                   min(max(x, a), b), epsabs=1e-12, limit=200)[0]
                    for x in xs]
            expect(f"closed-form MP CDF (c={c}, scale={scale}) matches quadrature",
                   np.max(np.abs(checks.mp_cdf(xs, c, scale) - quad)) <= 1e-9)
        var = 0.3
        xs = np.linspace(-1.5, 1.5, 41)
        quad = [integrate.quad(lambda u: np.sqrt(max(4 * var - u * u, 0.0)) / (2 * np.pi * var),
                               -2 * var**0.5, min(max(x, -2 * var**0.5), 2 * var**0.5))[0]
                for x in xs]
        expect("closed-form SC CDF matches quadrature",
               np.max(np.abs(checks.sc_cdf(xs, var) - quad)) <= 1e-9)

        # run-level checks: exact counts and repeated artifacts
        record = {"src_sha256": "abc", "numpy": "2", "scipy": "1", "blas": "b"}
        earlier = Path(tmp) / "run_seed1_trace1.json"
        earlier.write_text(json.dumps({"record": record,
                                       "counts": {"laws.solve_iterations": 10}}))
        expect("counts from an earlier run of the same source are compared",
               run._earlier_counts(earlier, record) == [{"laws.solve_iterations": 10}])
        expect("counts from an earlier run of other source are not compared",
               run._earlier_counts(earlier, dict(record, src_sha256="abd")) == [])
        expect("artifact bytes are not an exact count",
               run._exact({"bytes": 10, "spectra.eig_calls": 6}) == {"spectra.eig_calls": 6})
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        for d, runtime, hist in ((a, 1.0, "1,2"), (b, 2.0, "1,2")):
            d.mkdir()
            (d / "report.json").write_text(json.dumps({"runtime_seconds": runtime, "ks": 0.1}))
            (d / "histogram.csv").write_text(hist)
        expect("artifact digest ignores runtime_seconds",
               run.artifact_digest(a) == run.artifact_digest(b))
        (b / "histogram.csv").write_text("1,3")
        expect("artifact digest sees a changed artifact",
               run.artifact_digest(a) != run.artifact_digest(b))

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
