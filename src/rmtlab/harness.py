# Experiment runner: seeded Monte-Carlo trials over the matrix ensembles,
# comparison of pooled spectra with the predicted limiting laws, and flat-file
# artifacts (histogram CSV, law CSV, report JSON).

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import ensemble, laws, spectra

REGIMES = ("proportional", "semi_high_dim")

# pooled-KS thresholds applied in --check mode
CHECK_THRESHOLDS = {"mp": 0.08, "sc": 0.08, "genmp": 0.10}


@dataclass(frozen=True)
class ExperimentConfig:
    regime: str = "proportional"
    p: int = 200
    n: int = 500
    entry_law: str = "gaussian"
    sigma: float = 1.0
    kernel_variant: str = "constant"
    kernel_radius: float | None = None
    kernel_tau: float | None = None
    kernel_beta: float | None = None
    kernel_z_alpha: float | None = None
    trials: int = 5
    master_seed: int = 0
    histogram_bins: int = 60
    stieltjes_x_lo: float | None = None
    stieltjes_x_hi: float | None = None
    stieltjes_points: int = 400
    stieltjes_v_schedule: tuple = (1e-1, 1e-2, 1e-3)
    output_dir: str = "rmt_out"

    def validate(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.p < 2 or self.n < 2:
            raise ValueError("p and n must be >= 2")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.regime == "semi_high_dim" and self.p**2 <= self.n:
            raise ValueError(
                f"semi_high_dim regime requires p^2 > n (got p={self.p}, n={self.n})")
        self.kernel()  # raises on inconsistent kernel parameters
        return self

    def kernel(self) -> ensemble.KernelSpec:
        v = self.kernel_variant
        if v == "constant":
            return ensemble.KernelSpec(variant="constant", dimension=self.p)
        if v == "gaussian":
            return ensemble.KernelSpec(variant="gaussian", dimension=self.p,
                                       tau=self.kernel_tau)
        if v == "indicator":
            return ensemble.KernelSpec(variant="indicator", dimension=self.p,
                                       radius=self.indicator_radius())
        raise ValueError(f"unsupported kernel variant {v!r} in config")

    def indicator_radius(self):
        given = [x is not None for x in
                 (self.kernel_radius, self.kernel_beta, self.kernel_z_alpha)]
        if sum(given) != 1:
            raise ValueError(
                "indicator kernel needs exactly one of kernel.radius, "
                "kernel.beta, kernel.z_alpha")
        if self.kernel_radius is not None:
            return float(self.kernel_radius)
        if self.kernel_beta is not None:
            return ensemble.indicator_radius_from_beta(
                self.kernel_beta, self.sigma, self.p)
        return ensemble.indicator_radius_from_z_alpha(
            self.kernel_z_alpha, self.sigma, self.p)

    def indicator_z_alpha(self):
        if self.kernel_z_alpha is not None:
            return float(self.kernel_z_alpha)
        if self.kernel_beta is not None:
            return ensemble.z_alpha_from_beta(self.kernel_beta, self.p)
        return ensemble.z_alpha_from_radius(self.kernel_radius, self.sigma, self.p)

    # -- flat key = value config file ---------------------------------------

    _KEYMAP = {
        "regime": "regime", "p": "p", "n": "n", "entry_law": "entry_law",
        "sigma": "sigma", "kernel.variant": "kernel_variant",
        "kernel.radius": "kernel_radius", "kernel.tau": "kernel_tau",
        "kernel.beta": "kernel_beta", "kernel.z_alpha": "kernel_z_alpha",
        "trials": "trials", "master_seed": "master_seed",
        "histogram.bins": "histogram_bins", "stieltjes.x_lo": "stieltjes_x_lo",
        "stieltjes.x_hi": "stieltjes_x_hi", "stieltjes.points": "stieltjes_points",
        "stieltjes.v_schedule": "stieltjes_v_schedule",
        "output_dir": "output_dir",
    }

    @classmethod
    def from_file(cls, path):
        fields = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in cls._KEYMAP:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            fields[cls._KEYMAP[key]] = value
        return cls(**{k: _parse_value(k, v) for k, v in fields.items()}).validate()

    def to_file(self, path):
        inv = {v: k for k, v in self._KEYMAP.items()}
        lines = []
        for field_name, value in asdict(self).items():
            if value is None:
                continue
            if field_name == "stieltjes_v_schedule":
                value = ",".join(repr(float(v)) for v in value)
            text = str(value)
            # from_file would cut the value at '#' or at a line break
            if "#" in text or "".join(text.splitlines()) != text:
                raise ValueError(f"{inv[field_name]} = {text!r}: a config value "
                                 "cannot hold '#' or a line break")
            lines.append(f"{inv[field_name]} = {text}")
        Path(path).write_text("\n".join(lines) + "\n")


def _parse_value(field_name, text):
    if field_name in ("regime", "entry_law", "kernel_variant", "output_dir"):
        return text
    if field_name in ("p", "n", "trials", "master_seed", "histogram_bins",
                      "stieltjes_points"):
        return int(text)
    if field_name == "stieltjes_v_schedule":
        return tuple(float(tok) for tok in text.split(","))
    if text == "inf":
        return math.inf
    return float(text)


# ---------------------------------------------------------------------------
# Law prediction selection
# ---------------------------------------------------------------------------

def select_prediction(config: ExperimentConfig, kernel=None):
    """Map a kernel/regime to its predicted limiting law.

    Returns (law, law_params): law is an MPLaw, SCLaw or GenMPLaw with
    density(x) and cdf(x), or None without a prediction; law_params echoes
    its parameters, with kind 'mp' | 'sc' | 'genmp' | 'none'. A custom
    KernelSpec may be passed directly; without closed-form metadata it maps
    to no prediction. Any other kernel passed must equal config.kernel().
    """
    c = config.p / config.n
    sigma = config.sigma
    if kernel is not None and kernel.variant != "custom" \
            and kernel != config.kernel():
        raise ValueError(f"kernel {kernel} contradicts the config's kernel "
                         f"{config.kernel()}")
    K = kernel if kernel is not None else config.kernel()
    if K.variant == "custom" and config.regime == "proportional":
        if K.alpha_limit is None:
            return None, {"kind": "none"}
        law = laws.MPLaw(c=c, scale=K.alpha_limit * sigma**2)
        return law, {"kind": "mp", "c": c, "scale": law.scale,
                     "alpha": K.alpha_limit}
    if config.regime == "semi_high_dim":
        # The centered spectrum is driven by the conditional-mean weights
        # xi_i = E[K(X_i, V) | X_i]; each weight appears twice per pairing in
        # the moment expansion, so the semicircle variance is
        # sigma^4 E[xi^2] = sigma^4 E[K(X1,X2) K(X1,X3)], not sigma^4 E[K^2].
        # For smooth kernels E[xi^2] -> alpha^2, matching the rescaled sample
        # covariance picture.
        pair_sq = ensemble.pair_kernel_moment(
            K, sigma, config.entry_law,
            seed=ensemble.derive_seed(config.master_seed, 10**6))
        alpha = ensemble.alpha_p(K, sigma, config.entry_law,
                                 seed=ensemble.derive_seed(config.master_seed, 10**6 + 1))
        beta_sq = ensemble.beta_p_sq(K, sigma, config.entry_law,
                                     seed=ensemble.derive_seed(config.master_seed, 10**6 + 2))
        law = laws.SCLaw(variance=pair_sq * sigma**4)
        return law, {"kind": "sc", "c": c, "alpha_p": alpha, "beta_p_sq": beta_sq,
                     "pair_moment": pair_sq, "variance": law.variance}

    if K.variant == "constant":
        law = laws.MPLaw(c=c, scale=sigma**2)
        return law, {"kind": "mp", "c": c, "scale": law.scale, "alpha": 1.0}
    if K.variant == "gaussian":
        # Smooth-kernel limit: M behaves like (alpha/n) X X^T, whose MP scale
        # is alpha * sigma^2 (consistent with the fixed-point equation in the
        # constant-limit case and with the trace of M).
        alpha = 1.0 - math.exp(-sigma**2 / config.kernel_tau**2)
        law = laws.MPLaw(c=c, scale=alpha * sigma**2)
        return law, {"kind": "mp", "c": c, "scale": law.scale, "alpha": alpha,
                     "tau": config.kernel_tau}
    # indicator: generalized MP on [0, 1.15 x the MP(c, sigma^2) edge] unless
    # the config sets the grid; inverted at the smallest v of the schedule
    z_alpha = config.indicator_z_alpha()
    zeta = laws.zeta_indicator(z_alpha, n_atoms=64)
    x_lo = config.stieltjes_x_lo if config.stieltjes_x_lo is not None else 0.0
    x_hi = config.stieltjes_x_hi if config.stieltjes_x_hi is not None \
        else 1.15 * laws.MPLaw(c=c, scale=sigma**2).support[1]
    law = laws.GenMPLaw(c, sigma, zeta,
                        np.linspace(x_lo, x_hi, config.stieltjes_points),
                        min(config.stieltjes_v_schedule))
    return law, {"kind": "genmp", "c": c, "sigma_sq": sigma**2, "z_alpha": z_alpha,
                 "zeta_mean": zeta.mean(), "atom_at_zero": law.atom_at_zero,
                 "mass_correction": law.mass_correction}


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

def _trial_eigenvalues(config: ExperimentConfig, K, alpha, t):
    seed = ensemble.derive_seed(config.master_seed, t)
    X = ensemble.sample_data_matrix(config.p, config.n, config.entry_law,
                                    config.sigma, seed)
    if config.regime == "semi_high_dim":
        return spectra.symmetric_eigenvalues(
            ensemble.normalized_matrix_E(X, K, alpha, config.sigma))
    lam = spectra.symmetric_eigenvalues(ensemble.truncated_covariance(X, K))
    # M is PSD with rank <= n - 1: snap its round-off zeros (p > n) onto the
    # law's atom at 0; eigenvalues further below 0 stay visible
    lam[np.abs(lam) <= config.p * np.finfo(float).eps * np.abs(lam).max()] = 0.0
    return lam


def run_experiment(config: ExperimentConfig, threads=1, check=False,
                   write_artifacts=True, kernel=None):
    """Run the configured seeded trials, compare the pooled ESD with the
    predicted law, and (optionally) write histogram/law CSVs and report JSON.

    `kernel` overrides the config-derived KernelSpec (custom kernels); any
    other kernel must equal config.kernel(). The returned report also holds
    the pooled spectrum and the predicted law object."""
    config.validate()
    t0 = time.perf_counter()
    K = kernel if kernel is not None else config.kernel()
    law, law_params = select_prediction(config, kernel=K)
    alpha = law_params.get("alpha_p")

    indices = list(range(config.trials))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            eigs = list(pool.map(
                lambda t: _trial_eigenvalues(config, K, alpha, t), indices))
    else:
        eigs = [_trial_eigenvalues(config, K, alpha, t) for t in indices]

    trial_specs = [spectra.esd(e, meta={"trial": t}) for t, e in zip(indices, eigs)]
    pooled = spectra.esd(np.concatenate(eigs),
                         meta={"p": config.p, "n": config.n,
                               "kernel": config.kernel_variant,
                               "master_seed": config.master_seed})

    per_trial_ks = [spectra.ks_distance(s, law.cdf) for s in trial_specs] \
        if law is not None else []
    pooled_ks = spectra.ks_distance(pooled, law.cdf) if law is not None else None
    w2_pairs = [spectra.wasserstein2(trial_specs[i], trial_specs[i + 1])
                for i in range(len(trial_specs) - 1)]

    runtime = time.perf_counter() - t0
    solver = {"max_residual": law.solution.max_residual,
              "iterations": law.solution.iterations,
              "fallback_points": law.solution.fallback_points} \
        if isinstance(law, laws.GenMPLaw) else None
    report = {
        "config": _config_echo(config),
        "per_trial_ks": per_trial_ks,
        "pooled_ks": pooled_ks,
        "w2_pairs": w2_pairs,
        "law_params": law_params,
        "solver": solver,
        "runtime_seconds": runtime,
        "pooled_mean_eigenvalue": float(np.mean(pooled.eigenvalues)),
    }
    if check and pooled_ks is not None:
        threshold = CHECK_THRESHOLDS.get(law_params["kind"])
        report["check"] = {"threshold": threshold,
                           "breach": bool(threshold is not None
                                          and pooled_ks > threshold)}
    if write_artifacts:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        hist = spectra.histogram(pooled, config.histogram_bins)
        write_histogram_csv(out / "histogram.csv", hist)
        if law is not None:
            write_law_csv(out / "law.csv", law, _law_grid(law, pooled))
        write_report_json(out / "report.json", report)
        report["artifacts"] = {
            "histogram": str(out / "histogram.csv"),
            "law": str(out / "law.csv"),
            "report": str(out / "report.json"),
        }
    report["pooled_spectrum"] = pooled
    report["law"] = law
    return report


def _law_grid(law, pooled, points=400):
    if isinstance(law, laws.GenMPLaw):
        return law.grid
    lo = min(0.0, float(pooled.eigenvalues[0]))
    hi = float(pooled.eigenvalues[-1]) * 1.1 + 1e-6
    if isinstance(law, laws.SCLaw):
        lo, hi = min(lo, -1.05 * law.radius), max(hi, 1.05 * law.radius)
    return np.linspace(lo, hi, points)


def _config_echo(config):
    echo = asdict(config)
    echo["stieltjes_v_schedule"] = list(config.stieltjes_v_schedule)
    return echo


# ---------------------------------------------------------------------------
# Artifact writers (deterministic formatting)
# ---------------------------------------------------------------------------

def _fmt(x):
    return f"{float(x):.17g}"


def write_histogram_csv(path, hist: spectra.Histogram):
    lines = ["bin_left,bin_right,density"]
    for left, right, dens in zip(hist.bin_edges[:-1], hist.bin_edges[1:],
                                 hist.densities):
        lines.append(f"{_fmt(left)},{_fmt(right)},{_fmt(dens)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_law_csv(path, law, x):
    """Tabulate law.density and law.cdf on the grid x."""
    lines = ["x,density,cdf"]
    for xi, fi, ci in zip(x, law.density(x), law.cdf(x)):
        lines.append(f"{_fmt(xi)},{_fmt(fi)},{_fmt(ci)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_json(path, report):
    payload = {k: v for k, v in report.items()
               if k not in ("pooled_spectrum", "law", "artifacts")}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                     default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# Named experiments
# ---------------------------------------------------------------------------

def figure1(p=200, n=500, sigma=1.0, betas=(-0.1, 0.1, 0.3, math.inf),
            seed=0, trials=1, out_dir="fig1_out", threads=1):
    """Indicator-kernel spectra across radius parameters r(beta), with the
    plain MP overlay and, for finite beta, the generalized-MP overlay."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = {}
    for beta in betas:
        tag = "inf" if math.isinf(beta) else f"{beta:g}"
        if math.isinf(beta):
            cfg = ExperimentConfig(p=p, n=n, sigma=sigma, trials=trials,
                                   master_seed=seed, kernel_variant="constant",
                                   output_dir=str(out / f"beta_{tag}"))
        else:
            cfg = ExperimentConfig(p=p, n=n, sigma=sigma, trials=trials,
                                   master_seed=seed, kernel_variant="indicator",
                                   kernel_beta=beta,
                                   output_dir=str(out / f"beta_{tag}"))
        rep = run_experiment(cfg, threads=threads)
        # plain MP(c, sigma^2) overlay next to every histogram
        _write_mp_overlay(out / f"beta_{tag}" / "law_mp.csv", p / n, sigma)
        reports[tag] = rep
    return reports


def figure2(p=200, n=500, sigma=1.0, taus=(0.4, 0.7, 1.0, 1.3), seed=0,
            trials=1, out_dir="fig2_out", threads=1):
    """Gaussian-kernel spectra across bandwidths tau with two MP overlays:
    the predicted MP(c, alpha sigma^2) in each run's law.csv, and the plain
    MP(c, sigma^2) written beside it as law_mp_raw.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = {}
    for tau in taus:
        cfg = ExperimentConfig(p=p, n=n, sigma=sigma, trials=trials,
                               master_seed=seed, kernel_variant="gaussian",
                               kernel_tau=tau, output_dir=str(out / f"tau_{tau:g}"))
        rep = run_experiment(cfg, threads=threads)
        _write_mp_overlay(out / f"tau_{tau:g}" / "law_mp_raw.csv", p / n, sigma)
        reports[f"{tau:g}"] = rep
    return reports


def _write_mp_overlay(path, c, sigma):
    """MP(c, sigma^2) on [0, 1.15 x its right edge], 400 points."""
    mp = laws.MPLaw(c=c, scale=sigma**2)
    write_law_csv(path, mp, np.linspace(0.0, 1.15 * mp.support[1], 400))


def semicircle_experiment(p=400, n=20000, kernel_variant="indicator",
                          kernel_z_alpha=0.0, kernel_tau=None, sigma=1.0,
                          trials=3, seed=0, out_dir="sc_out", threads=1):
    """Semi-high-dimensional run comparing the centered, rescaled spectrum with
    the predicted semicircle law; includes the closed-form transform residual."""
    cfg = ExperimentConfig(regime="semi_high_dim", p=p, n=n, sigma=sigma,
                           trials=trials, master_seed=seed,
                           kernel_variant=kernel_variant,
                           kernel_z_alpha=kernel_z_alpha
                           if kernel_variant == "indicator" else None,
                           kernel_tau=kernel_tau, output_dir=out_dir)
    rep = run_experiment(cfg, threads=threads)
    law = rep["law"]
    var = law.variance
    zs = np.linspace(-2.5, 2.5, 101) * max(math.sqrt(var), 1.0) + 1e-2j
    s = laws.sc_stieltjes(zs, var)
    rep["sc_transform_residual"] = float(np.max(np.abs(var * s**2 + zs * s + 1)))

    # Finite-size diagnostic: the spectrum carries a mean offset of order
    # sqrt(n)/p coming from the exact trace of M; it vanishes only deep in the
    # regime, so report the predicted shift and the KS against the shifted law.
    alpha = rep["law_params"]["alpha_p"]
    mean_eig = ensemble.expected_mean_eigenvalue(cfg.kernel(), sigma, p=p, n=n)
    shift = math.sqrt(n / p) * (mean_eig - alpha * sigma**2)
    rep["predicted_mean_shift"] = shift
    rep["pooled_ks_shifted"] = spectra.ks_distance(
        rep["pooled_spectrum"],
        lambda x: law.cdf(np.asarray(x, dtype=float) - shift))
    write_report_json(Path(cfg.output_dir) / "report.json", rep)
    return rep


def diagnostics_reductions(p_list=(100, 200, 400), n_list=(250, 500, 1000),
                           kernel_variant="indicator", kernel_z_alpha=0.0,
                           sigma=1.0, seeds=range(10), mc_conditional=2000,
                           out_dir="diag_out"):
    """Empirical check of the reduction steps: the W2 gap between the spectra
    of M and the decoupled matrix, the scaled centered-degree maximum, and the
    Hilbert-Schmidt size of the adjacency part.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for p, n in zip(p_list, n_list):
        for seed in seeds:
            K = ensemble.KernelSpec(
                variant=kernel_variant, dimension=p,
                radius=ensemble.indicator_radius_from_z_alpha(kernel_z_alpha, sigma, p)
                if kernel_variant == "indicator" else None)
            X = ensemble.sample_data_matrix(p, n, "gaussian", sigma,
                                            ensemble.derive_seed(seed, p))
            deg, xaxt = ensemble.adjacency_stream(X, K)
            M = ((X.entries * deg) @ X.entries.T - xaxt) / n**2
            xaxt /= n**2
            xi = ensemble.xi_conditional(X, K, mc_conditional, seed)
            w2 = spectra.wasserstein2(
                spectra.esd(spectra.symmetric_eigenvalues(M)),
                spectra.esd(spectra.symmetric_eigenvalues(ensemble.xi_bar_matrix(X, xi))))
            xi_pr = ensemble.xi_prime(deg, xi)
            rows.append({
                "p": p, "n": n, "seed": int(seed), "w2_m_mbar": w2,
                "max_xi_prime_over_n": float(np.max(np.abs(xi_pr)) / n),
                "hs_xaxt_over_sqrt_p": float(np.linalg.norm(xaxt) / math.sqrt(p)),
            })
    lines = ["p,n,seed,w2_m_mbar,max_xi_prime_over_n,hs_xaxt_over_sqrt_p"]
    for r in rows:
        lines.append(f"{r['p']},{r['n']},{r['seed']},{_fmt(r['w2_m_mbar'])},"
                     f"{_fmt(r['max_xi_prime_over_n'])},"
                     f"{_fmt(r['hs_xaxt_over_sqrt_p'])}")
    (out / "reduction_gaps.csv").write_text("\n".join(lines) + "\n")
    medians = []
    for p, n in zip(p_list, n_list):
        vals = [r["w2_m_mbar"] for r in rows if r["p"] == p and r["n"] == n]
        medians.append(float(np.median(vals)))
    verdict = all(b < a for a, b in zip(medians, medians[1:]))
    summary = {"sizes": [[p, n] for p, n in zip(p_list, n_list)],
               "median_w2": medians, "decreasing": verdict}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True)
                                      + "\n")
    return {"rows": rows, "median_w2": medians, "decreasing": verdict}
