"""Traced passes: spans around rmtlab's public functions, and the per-layer table.

The tracer replaces each public function of ensemble, spectra, laws and
harness by a wrapper on its module attribute, so calls made through the
module (including calls between functions of one module, which look up the
module globals) open a span. Spans are (name, bucket, start, end, parent,
experiment) records kept in memory; they are written out when the run ends.
"""

import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from rmtlab import ensemble, harness, laws, spectra

MODULES = {"ensemble": ensemble, "spectra": spectra, "laws": laws, "harness": harness}

# Function -> per-layer bucket. None hands the function's self time to the
# nearest traced caller (helpers shared by several layers).
BUCKETS = {
    "ensemble": {
        "truncated_covariance": "ensemble.covariance",
        "normalized_matrix_E": "ensemble.covariance",
        "truncated_covariance_direct": "ensemble.covariance",
        "build_graph_matrices": "ensemble.graph",
        "truncated_covariance_rayleigh": "ensemble.graph",
        "xi_conditional": "ensemble.xi",
        "xi_bar_matrix": "ensemble.xi",
        "xi_prime": "ensemble.xi",
        "sample_data_matrix": "ensemble.sample",
        "rng_from_seed": "ensemble.sample",
        "derive_seed": "ensemble.sample",
        "alpha_p": "ensemble.moments",
        "beta_p_sq": "ensemble.moments",
        "gaussian_kernel_beta_sq_closed_form": "ensemble.moments",
        "pair_kernel_moment": "ensemble.moments",
        "expected_mean_eigenvalue": "ensemble.moments",
        "indicator_radius_from_beta": "ensemble.moments",
        "indicator_radius_from_z_alpha": "ensemble.moments",
        "z_alpha_from_beta": "ensemble.moments",
        "z_alpha_from_radius": "ensemble.moments",
        "pairwise_sqdist": None,
    },
    "spectra": {
        "symmetric_eigenvalues": "spectra.eig",
        "ks_distance": "spectra.ks",
        "histogram": "spectra.histogram",
        "esd": "spectra.other",
        "wasserstein2": "spectra.other",
        "hoffman_wielandt_bound": "spectra.other",
    },
    "laws": {
        "mp_cdf": "laws.mp_cdf",
        "sc_cdf": "laws.sc_cdf",
        "solve_stieltjes_grid": "laws.solve",
        "solve_nonsmooth_stieltjes": "laws.solve",
        "stieltjes_invert": "laws.invert",
        "stieltjes_invert_refined": "laws.invert",
        "estimate_atom_at_zero": "laws.invert",
        "generalized_mp_cdf": "laws.invert",
    },
    "harness": {
        "select_prediction": "harness.prediction",
        "write_histogram_csv": "harness.artifacts",
        "write_law_csv": "harness.artifacts",
        "write_report_json": "harness.artifacts",
    },
}
# Public functions of a module missing from its table go to "<module>.other"
# (laws: densities, transforms, zeta) or, for harness, to its orchestration
# self time "harness.self".
DEFAULT_BUCKET = {"ensemble": "ensemble.other", "spectra": "spectra.other",
                  "laws": "laws.other", "harness": "harness.self"}
# Called once per quadrature node inside mp_cdf; a span per call would cost
# more than the call, so its time stays in mp_cdf.
UNWRAPPED = {("laws", "mp_density")}

TIME_BUCKETS = ("ensemble.graph", "ensemble.xi", "ensemble.sample", "ensemble.moments",
                "ensemble.other",
                "spectra.eig", "spectra.ks", "spectra.histogram", "spectra.other",
                "laws.mp_cdf", "laws.sc_cdf", "laws.solve", "laws.invert", "laws.other",
                "harness.prediction", "harness.artifacts", "harness.self")
COUNTS = ("ensemble.covariance_calls", "spectra.eig_calls", "spectra.ks_cdf_points",
          "laws.mp_cdf_points", "laws.solve_iterations", "laws.solve_grid_points")


def public_functions(module):
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []
        self._pass = None
        self._experiments = 0
        self.counts = Counter()
        self.flops = 0.0
        self.artifact_bytes = 0

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for mod_name, module in MODULES.items():
            for name, fn in public_functions(module).items():
                if (mod_name, name) in UNWRAPPED:
                    continue
                bucket = BUCKETS[mod_name].get(name, DEFAULT_BUCKET[mod_name])
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{mod_name}.{name}", bucket, fn))
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()
        return False

    def begin_pass(self, index):
        """Start traced pass `index`: reset the counts; returns its first span index."""
        self._pass = index
        self._experiments = 0
        self.counts = Counter()
        self.flops = 0.0
        self.artifact_bytes = 0
        return len(self.spans)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, qualname, bucket, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if parent is None:
                tracer._experiments += 1
            exp = f"{tracer._pass}.{tracer._experiments}" if parent is None \
                else tracer.spans[parent][5]
            if qualname == "spectra.ks_distance":
                args, kwargs = tracer._count_cdf_points(args, kwargs)
            span = [qualname, bucket, time.perf_counter(), None, parent, exp]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            tracer._count(qualname, args, kwargs, out)
            return out

        return wrapper

    def _count_cdf_points(self, args, kwargs):
        law_cdf = _arg(args, kwargs, 1, "law_cdf")

        def counted(x):
            self.counts["spectra.ks_cdf_points"] += int(np.size(x))
            return law_cdf(x)

        spec = _arg(args, kwargs, 0, "spec")
        return (spec, counted), {}

    def _count(self, qualname, args, kwargs, out):
        if qualname == "ensemble.truncated_covariance":
            X = _arg(args, kwargs, 0, "X")
            self.counts["ensemble.covariance_calls"] += 1
            self.flops += 4.0 * X.p * X.n**2
        elif qualname == "spectra.symmetric_eigenvalues":
            self.counts["spectra.eig_calls"] += 1
        elif qualname == "laws.mp_cdf":
            self.counts["laws.mp_cdf_points"] += int(np.size(_arg(args, kwargs, 1, "x")))
        elif qualname == "laws.solve_stieltjes_grid":
            self.counts["laws.solve_iterations"] += out.iterations
            self.counts["laws.solve_grid_points"] += int(np.size(_arg(args, kwargs, 0, "z_grid")))
        elif qualname.startswith("harness.write_"):
            self.artifact_bytes += Path(_arg(args, kwargs, 0, "path")).stat().st_size

    def write(self, path):
        with open(path, "w") as fh:
            for name, bucket, start, end, parent, exp in self.spans:
                fh.write(json.dumps({"name": name, "bucket": bucket, "start": start,
                                     "end": end, "parent": parent, "experiment": exp}) + "\n")


def layer_table(spans, first, wall):
    """Per-layer metrics of the spans[first:] of one traced pass of `wall` seconds."""
    sl = spans[first:]
    child_time = [0.0] * len(sl)
    for name, bucket, start, end, parent, exp in sl:
        if parent is not None:
            child_time[parent - first] += end - start
    buckets = [None] * len(sl)
    totals = Counter({b: 0.0 for b in TIME_BUCKETS + ("ensemble.covariance",)})
    covariance_incl = 0.0
    covered = 0.0
    for i, (name, bucket, start, end, parent, exp) in enumerate(sl):
        up = buckets[parent - first] if parent is not None else "harness.self"
        buckets[i] = bucket if bucket is not None else up
        totals[buckets[i]] += (end - start) - child_time[i]
        if bucket == "ensemble.covariance" and up != "ensemble.covariance":
            covariance_incl += end - start
        if parent is None:
            covered += end - start
    table = {f"{b}_s": totals[b] for b in TIME_BUCKETS}
    table["ensemble.covariance_s"] = covariance_incl
    table["trace.coverage"] = covered / wall
    return table
