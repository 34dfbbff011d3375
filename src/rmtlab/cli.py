# Command-line front end. Exit codes: 0 success, 2 invalid config,
# 3 solver failure, 4 acceptance-threshold breach in --check mode.

import argparse
import json
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
    parser.add_argument("--check", action="store_true",
                        help="apply acceptance thresholds; exit 4 on breach")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment from a config file")
    sim.add_argument("--config", required=True)

    fig1 = sub.add_parser("figure1", help="indicator-kernel spectra over r(beta)")
    _common_experiment_args(fig1)
    fig1.add_argument("--betas", default="-0.1,0.1,0.3,inf",
                      type=_entries(float, "a number"),
                      help="comma-separated beta values ('inf' for the "
                           "constant kernel)")

    fig2 = sub.add_parser("figure2", help="gaussian-kernel spectra over tau")
    _common_experiment_args(fig2)
    fig2.add_argument("--taus", default="0.4,0.7,1.0,1.3",
                      type=_entries(float, "a number"))

    sc = sub.add_parser("semicircle", help="semi-high-dimensional regime run")
    sc.add_argument("--p", type=int, default=400)
    sc.add_argument("--n", type=int, default=20000)
    sc.add_argument("--sigma", type=float, default=1.0)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--trials", type=int, default=3)
    sc.add_argument("--kernel", default="indicator",
                    choices=("indicator", "constant", "gaussian"))
    sc.add_argument("--z-alpha", type=float,
                    help="indicator kernel parameter (default 0)")
    sc.add_argument("--tau", type=float, help="gaussian kernel bandwidth (default 1)")
    sc.add_argument("--out", default="sc_out")

    diag = sub.add_parser("diagnostics", help="reduction-gap diagnostics")
    diag.add_argument("--sizes", default="100:250,200:500,400:1000",
                      type=_entries(_size, "a p:n pair of integers"),
                      help="comma-separated p:n pairs")
    diag.add_argument("--z-alpha", type=float, default=0.0)
    diag.add_argument("--sigma", type=float, default=1.0)
    diag.add_argument("--seeds", type=int, default=10)
    diag.add_argument("--out", default="diag_out")

    law = sub.add_parser("law", help="emit density/CDF grids without simulation")
    law.add_argument("--type", required=True, choices=("mp", "sc", "genmp"))
    law.add_argument("--c", type=float, help="mp and genmp aspect ratio p/n (default 0.4)")
    law.add_argument("--scale", type=float, help="mp variance scale (default 1)")
    law.add_argument("--variance", type=float, help="sc variance parameter (default 1)")
    law.add_argument("--sigma", type=float, help="genmp entry sd (default 1)")
    law.add_argument("--z-alpha", type=float,
                     help="genmp indicator-kernel parameter (default 0)")
    law.add_argument("--x-lo", type=float, default=None)
    law.add_argument("--x-hi", type=float, default=None)
    law.add_argument("--points", type=int, default=400)
    law.add_argument("--out", required=True)
    return parser


def _entries(read, what):
    """An argparse type: the comma-separated entries of a flag, each read by
    `read`; a bad entry is a usage error that names it and its position."""
    def parse(text):
        out = []
        for k, tok in enumerate(text.split(","), 1):
            try:
                out.append(read(tok))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"entry {k} of {text!r} is not {what}: {tok!r}") from None
        return tuple(out)
    return parse


def _size(tok):
    p, n = tok.split(":")  # ValueError unless one colon
    return int(p), int(n)


def _common_experiment_args(p):
    p.add_argument("--p", type=int, default=200)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", default=None)


def _cmd_simulate(args):
    config = ExperimentConfig.from_file(args.config)
    report = harness.run_experiment(config, check=args.check)
    _print_report(report)
    return _gate(report)


def _cmd_figure(args):
    """figure1 over --betas or figure2 over --taus (float reads 'inf')."""
    name = "betas" if args.command == "figure1" else "taus"
    sweep = {name: getattr(args, name)}
    if args.out:
        sweep["out_dir"] = args.out
    reports = getattr(harness, args.command)(
        p=args.p, n=args.n, sigma=args.sigma, seed=args.seed, trials=args.trials,
        check=args.check, **sweep)
    for tag, rep in reports.items():
        ks = rep["pooled_ks"]
        print(f"{tag}: pooled KS = {ks:.4f}" if ks is not None
              else f"{tag}: no prediction")
    return max(_gate(rep, f"{tag}: ") for tag, rep in reports.items())


def _gate(report, prefix=""):
    """Print the KS that a report's --check verdict gated on; 4 on breach."""
    check = report.get("check")
    if check:
        print(f"{prefix}--check gates on {check['ks']} = "
              f"{report[check['ks']]:.4f} (threshold {check['threshold']})")
    return 4 if check and check["breach"] else 0


def _cmd_semicircle(args):
    try:
        report = harness.semicircle_experiment(
            p=args.p, n=args.n, kernel_variant=args.kernel,
            kernel_z_alpha=args.z_alpha, kernel_tau=args.tau, sigma=args.sigma,
            trials=args.trials, seed=args.seed, out_dir=args.out, check=args.check)
    except ValueError as exc:  # name the flag of a kernel.<key> the config rejects
        key, _, rest = str(exc).partition(" ")
        if not key.startswith("kernel."):
            raise
        raise ValueError(f"--{key[len('kernel.'):].replace('_', '-')} {rest}") from None
    _print_report(report)
    return _gate(report)


def _cmd_diagnostics(args):
    result = harness.diagnostics_reductions(
        p_list=[s[0] for s in args.sizes], n_list=[s[1] for s in args.sizes],
        kernel_z_alpha=args.z_alpha, sigma=args.sigma,
        seeds=range(args.seeds), out_dir=args.out)
    print(f"median W2 gaps: {[f'{m:.4f}' for m in result['median_w2']]}, "
          f"decreasing: {result['decreasing']}")
    if args.check and not result["decreasing"]:
        return 4
    return 0


# the parameter flags each `rmt law --type` reads, with their defaults
_LAW_FLAGS = {"mp": {"c": 0.4, "scale": 1.0}, "sc": {"variance": 1.0},
              "genmp": {"c": 0.4, "sigma": 1.0, "z_alpha": 0.0}}


def _cmd_law(args):
    reads = _LAW_FLAGS[args.type]
    for name in ("c", "scale", "variance", "sigma", "z_alpha"):
        if getattr(args, name) is None:
            setattr(args, name, reads.get(name))
        elif name not in reads:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to "
                             f"--type {args.type}")
    if args.type == "sc":
        law = laws.SCLaw(variance=args.variance)
        lo, hi = law.support
        x = laws.law_grid(1.1 * lo if args.x_lo is None else args.x_lo,
                          1.1 * hi if args.x_hi is None else args.x_hi, args.points)
    else:
        # genmp takes the harness's default grid, that of MP(c, sigma^2)
        scale = args.scale if args.type == "mp" else args.sigma**2
        x = laws.law_grid(args.x_lo, args.x_hi, args.points, args.c, scale)
        law = laws.MPLaw(c=args.c, scale=scale) if args.type == "mp" else \
            laws.GenMPLaw(args.c, args.sigma, laws.zeta_indicator(args.z_alpha), x)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    harness.write_law_csv(out, law, x)
    print(f"wrote {out}")
    return 0


def _print_report(report):
    shown = {k: v for k, v in report.items() if k not in
             ("config", "w2_pairs", "pooled_spectrum", "law", "artifacts")}
    print(json.dumps(shown, indent=2, sort_keys=True,
                     default=harness._json_default))


_COMMANDS = {
    "simulate": _cmd_simulate,
    "figure1": _cmd_figure,
    "figure2": _cmd_figure,
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
