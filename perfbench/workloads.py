"""The benchmark workloads: validated configs, one pass through rmtlab's
public entry points, the outputs a pass leaves, and the checks on them.

A pass is a list of experiments, each a zero-argument call into rmtlab. The
same seed gives the same experiments, so every pass of a run repeats the
same work and writes the same artifacts.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rmtlab import ensemble, harness
from rmtlab.harness import ExperimentConfig

import checks

SIGMA = 1.0


def read_law_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[col]) for r in rows])
            for key, col in (("law_x", "x"), ("law_density", "density"), ("law_cdf", "cdf"))}


def _experiment_outputs(report):
    out = {"eigenvalues": report["pooled_spectrum"].eigenvalues,
           "pooled_ks": report["pooled_ks"], "law_params": report["law_params"],
           "solver": report["solver"],
           "pooled_mean": report["pooled_mean_eigenvalue"],
           "pooled_ks_shifted": report.get("pooled_ks_shifted")}
    out.update(read_law_csv(report["artifacts"]["law"]))
    return out


@dataclass(frozen=True)
class MpKs:
    """Proportional regime, constant kernel and Gaussian kernel at tau."""

    p: int = 200
    n: int = 500
    trials: int = 2
    tau: float = 1.0

    def configs(self, seed, out):
        return [ExperimentConfig(p=self.p, n=self.n, sigma=SIGMA, kernel_variant=variant,
                                 kernel_tau=tau, trials=self.trials, master_seed=seed,
                                 output_dir=str(Path(out) / variant)).validate()
                for variant, tau in (("constant", None), ("gaussian", self.tau))]

    def experiments(self, seed, out):
        return [lambda cfg=cfg: harness.run_experiment(cfg, threads=1)
                for cfg in self.configs(seed, out)]

    def outputs(self, results):
        return [_experiment_outputs(r) for r in results]

    def check(self, seed, outputs):
        found = []
        for out, (kernel, tau) in zip(outputs, (("constant", None), ("gaussian", self.tau))):
            found += checks.check_mp_experiment(kernel, out, seed, self.p, self.n,
                                                self.trials, kernel, tau, SIGMA)
        return found


@dataclass(frozen=True)
class GenmpSolve:
    """Proportional regime, indicator kernel over r(beta)."""

    p: int = 200
    n: int = 500
    trials: int = 2
    betas: tuple = (-0.1, 0.1, 0.3)

    def configs(self, seed, out):
        return [ExperimentConfig(p=self.p, n=self.n, sigma=SIGMA, kernel_variant="indicator",
                                 kernel_beta=beta, trials=self.trials, master_seed=seed,
                                 output_dir=str(Path(out) / f"beta_{beta:g}")).validate()
                for beta in self.betas]

    def experiments(self, seed, out):
        return [lambda cfg=cfg: harness.run_experiment(cfg, threads=1)
                for cfg in self.configs(seed, out)]

    def outputs(self, results):
        return [_experiment_outputs(r) for r in results]

    def check(self, seed, outputs):
        found = []
        for out, beta in zip(outputs, self.betas):
            found += checks.check_genmp_experiment(f"beta_{beta:g}", out, self.p, self.n,
                                                   beta, SIGMA)
        return found


@dataclass(frozen=True)
class SemicircleStream:
    """Semi-high-dimensional regime through the blocked truncated_covariance."""

    p: int = 400
    n: int = 20000
    trials: int = 1
    z_alpha: float = 0.0

    def configs(self, seed, out):
        # the config semicircle_experiment builds for these arguments
        return [ExperimentConfig(regime="semi_high_dim", p=self.p, n=self.n, sigma=SIGMA,
                                 trials=self.trials, master_seed=seed,
                                 kernel_variant="indicator", kernel_z_alpha=self.z_alpha,
                                 output_dir=str(out)).validate()]

    def experiments(self, seed, out):
        self.configs(seed, out)  # validate before the first pass
        return [lambda: harness.semicircle_experiment(
            p=self.p, n=self.n, kernel_variant="indicator", kernel_z_alpha=self.z_alpha,
            sigma=SIGMA, trials=self.trials, seed=seed, out_dir=str(out), threads=1)]

    def outputs(self, results):
        return [_experiment_outputs(r) for r in results]

    def check(self, seed, outputs, covariance=None):
        found = checks.check_semicircle(outputs[0], self.p, self.n, self.trials,
                                         self.z_alpha, SIGMA)
        if covariance is None:
            covariance = _library_blocked_covariance
        return found + checks.check_blocked_covariance(seed, covariance)


def _library_blocked_covariance(X, tau):
    p, n = X.shape
    data = ensemble.DataMatrix(entries=X, p=p, n=n, entry_law="gaussian", sigma=SIGMA, seed=0)
    return ensemble.truncated_covariance(
        data, ensemble.KernelSpec(variant="gaussian", dimension=p, tau=tau))


@dataclass(frozen=True)
class DiagnosticsDense:
    """Reduction diagnostics: dense graph matrices, Rayleigh route, xi, two eigensolves."""

    sizes: tuple = ((100, 250), (200, 500), (400, 1000))
    seeds_per_pass: int = 3
    z_alpha: float = 0.0
    mc_conditional: int = 2000

    def seeds(self, seed):
        return range(seed * self.seeds_per_pass, (seed + 1) * self.seeds_per_pass)

    def configs(self, seed, out):
        # what diagnostics_reductions builds per size: the kernel of each p
        return [ensemble.KernelSpec(variant="indicator", dimension=p,
                                    radius=ensemble.indicator_radius_from_z_alpha(
                                        self.z_alpha, SIGMA, p))
                for p, _ in self.sizes]

    def experiments(self, seed, out):
        self.configs(seed, out)  # validate before the first pass
        return [lambda: harness.diagnostics_reductions(
            p_list=[p for p, _ in self.sizes], n_list=[n for _, n in self.sizes],
            kernel_variant="indicator", kernel_z_alpha=self.z_alpha, sigma=SIGMA,
            seeds=self.seeds(seed), mc_conditional=self.mc_conditional, out_dir=str(out))]

    def outputs(self, results):
        return [{"rows": results[0]["rows"]}]

    def check(self, seed, outputs):
        return checks.check_diagnostics(outputs[0]["rows"], self.z_alpha,
                                        self.mc_conditional, SIGMA)


WORKLOADS = {
    "mp_ks": MpKs(),
    "genmp_solve": GenmpSolve(),
    "semicircle_stream": SemicircleStream(),
    "diagnostics_dense": DiagnosticsDense(),
}
