# Command-line front end. Exit codes: 0 success, 2 invalid config,
# 3 solver failure, 4 acceptance-threshold breach in --check mode.

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness, laws
from .harness import ExperimentConfig
from .laws import InversionQualityError, SolverError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rmt",
        description="Simulate kernel-truncated covariance spectra and compare "
                    "them with their predicted limiting laws.")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel trial workers (default 1)")
    parser.add_argument("--check", action="store_true",
                        help="apply acceptance thresholds; exit 4 on breach")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment from a config file")
    sim.add_argument("--config", required=True)

    fig1 = sub.add_parser("figure1", help="indicator-kernel spectra over r(beta)")
    _common_experiment_args(fig1)
    fig1.add_argument("--betas", default="-0.1,0.1,0.3,inf",
                      help="comma-separated beta values ('inf' for the "
                           "constant kernel)")

    fig2 = sub.add_parser("figure2", help="gaussian-kernel spectra over tau")
    _common_experiment_args(fig2)
    fig2.add_argument("--taus", default="0.4,0.7,1.0,1.3")

    sc = sub.add_parser("semicircle", help="semi-high-dimensional regime run")
    sc.add_argument("--p", type=int, default=400)
    sc.add_argument("--n", type=int, default=20000)
    sc.add_argument("--sigma", type=float, default=1.0)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--trials", type=int, default=3)
    sc.add_argument("--kernel", default="indicator",
                    choices=("indicator", "constant", "gaussian"))
    sc.add_argument("--z-alpha", type=float, default=0.0)
    sc.add_argument("--tau", type=float, default=1.0)
    sc.add_argument("--out", default="sc_out")

    diag = sub.add_parser("diagnostics", help="reduction-gap diagnostics")
    diag.add_argument("--sizes", default="100:250,200:500,400:1000",
                      help="comma-separated p:n pairs")
    diag.add_argument("--z-alpha", type=float, default=0.0)
    diag.add_argument("--sigma", type=float, default=1.0)
    diag.add_argument("--seeds", type=int, default=10)
    diag.add_argument("--out", default="diag_out")

    law = sub.add_parser("law", help="emit density/CDF grids without simulation")
    law.add_argument("--type", required=True, choices=("mp", "sc", "genmp"))
    law.add_argument("--c", type=float, default=0.4)
    law.add_argument("--scale", type=float, default=1.0,
                     help="MP variance scale")
    law.add_argument("--variance", type=float, default=1.0,
                     help="SC variance parameter")
    law.add_argument("--sigma", type=float, default=1.0)
    law.add_argument("--z-alpha", type=float, default=0.0,
                     help="genmp indicator-kernel parameter")
    law.add_argument("--x-lo", type=float, default=None)
    law.add_argument("--x-hi", type=float, default=None)
    law.add_argument("--points", type=int, default=400)
    law.add_argument("--out", required=True)
    return parser


def _common_experiment_args(p):
    p.add_argument("--p", type=int, default=200)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", default=None)


def _cmd_simulate(args):
    config = ExperimentConfig.from_file(args.config)
    report = harness.run_experiment(config, threads=args.threads,
                                    check=args.check)
    _print_report(report)
    if args.check and report.get("check", {}).get("breach"):
        return 4
    return 0


def _cmd_figure1(args):
    betas = tuple(math.inf if tok.strip() == "inf" else float(tok)
                  for tok in args.betas.split(","))
    reports = harness.figure1(p=args.p, n=args.n, sigma=args.sigma,
                              betas=betas, seed=args.seed, trials=args.trials,
                              out_dir=args.out or "fig1_out",
                              threads=args.threads)
    return _check_reports(reports, args.check)


def _cmd_figure2(args):
    taus = tuple(float(tok) for tok in args.taus.split(","))
    reports = harness.figure2(p=args.p, n=args.n, sigma=args.sigma, taus=taus,
                              seed=args.seed, trials=args.trials,
                              out_dir=args.out or "fig2_out",
                              threads=args.threads)
    return _check_reports(reports, args.check)


def _check_reports(reports, check):
    for tag, rep in reports.items():
        ks = rep["pooled_ks"]
        print(f"{tag}: pooled KS = {ks:.4f}" if ks is not None
              else f"{tag}: no prediction")
    if check:
        for rep in reports.values():
            kind = rep["law_params"].get("kind")
            threshold = harness.CHECK_THRESHOLDS.get(kind)
            if threshold is not None and rep["pooled_ks"] > threshold:
                return 4
    return 0


def _cmd_semicircle(args):
    report = harness.semicircle_experiment(
        p=args.p, n=args.n, kernel_variant=args.kernel,
        kernel_z_alpha=args.z_alpha, kernel_tau=args.tau, sigma=args.sigma,
        trials=args.trials, seed=args.seed, out_dir=args.out,
        threads=args.threads)
    _print_report(report)
    # desk-scale runs carry a known finite-size mean offset, so the check is
    # against the shift-corrected KS
    ks = report.get("pooled_ks_shifted", report["pooled_ks"])
    if args.check and ks > harness.CHECK_THRESHOLDS["sc"]:
        return 4
    return 0


def _cmd_diagnostics(args):
    sizes = [tuple(int(x) for x in pair.split(":"))
             for pair in args.sizes.split(",")]
    result = harness.diagnostics_reductions(
        p_list=[s[0] for s in sizes], n_list=[s[1] for s in sizes],
        kernel_z_alpha=args.z_alpha, sigma=args.sigma,
        seeds=range(args.seeds), out_dir=args.out)
    print(f"median W2 gaps: {[f'{m:.4f}' for m in result['median_w2']]}, "
          f"decreasing: {result['decreasing']}")
    if args.check and not result["decreasing"]:
        return 4
    return 0


def _cmd_law(args):
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.type == "mp":
        law = laws.MPLaw(c=args.c, scale=args.scale)
        lo, hi = 0.0, 1.15 * law.support[1]
    elif args.type == "sc":
        law = laws.SCLaw(variance=args.variance)
        lo, hi = -1.1 * law.radius, 1.1 * law.radius
    else:
        # the harness's default genMP grid: up to 1.15 x the MP(c, sigma^2) edge
        lo, hi = 0.0, 1.15 * laws.MPLaw(c=args.c, scale=args.sigma**2).support[1]
    x = np.linspace(args.x_lo if args.x_lo is not None else lo,
                    args.x_hi if args.x_hi is not None else hi, args.points)
    if args.type == "genmp":
        law = laws.GenMPLaw(args.c, args.sigma, laws.zeta_indicator(args.z_alpha),
                            x, 1e-3)
    harness.write_law_csv(out, law, x)
    print(f"wrote {out}")
    return 0


def _print_report(report):
    shown = {k: v for k, v in report.items()
             if k in ("pooled_ks", "pooled_ks_shifted", "predicted_mean_shift",
                      "sc_transform_residual", "per_trial_ks", "law_params",
                      "solver", "runtime_seconds", "pooled_mean_eigenvalue",
                      "check")}
    print(json.dumps(shown, indent=2, sort_keys=True,
                     default=harness._json_default))


_COMMANDS = {
    "simulate": _cmd_simulate,
    "figure1": _cmd_figure1,
    "figure2": _cmd_figure2,
    "semicircle": _cmd_semicircle,
    "diagnostics": _cmd_diagnostics,
    "law": _cmd_law,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SolverError, InversionQualityError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
