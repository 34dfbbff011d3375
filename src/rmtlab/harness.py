# Experiment runner: seeded Monte-Carlo trials over the matrix ensembles,
# comparison of pooled spectra with the predicted limiting laws, and flat-file
# artifacts (histogram CSV, law CSV, report JSON).

import json
import math
import time
from dataclasses import dataclass, asdict, fields
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
    output_dir: str = "rmt_out"

    def validate(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.entry_law not in ensemble.ENTRY_LAWS:
            raise ValueError(f"unknown entry_law {self.entry_law!r}; "
                             f"choose from {ensemble.ENTRY_LAWS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.p < 2 or self.n < 2:
            raise ValueError("p and n must be >= 2")
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.histogram_bins < 1:
            raise ValueError("histogram.bins must be >= 1")
        laws.law_grid(self.stieltjes_x_lo, self.stieltjes_x_hi,
                      self.stieltjes_points, self.p / self.n, self.sigma**2)
        if self.regime == "semi_high_dim" and self.p**2 <= self.n:
            raise ValueError(
                f"semi_high_dim regime requires p^2 > n (got p={self.p}, n={self.n})")
        for key, variant in (("tau", "gaussian"), ("radius", "indicator"),
                             ("beta", "indicator"), ("z_alpha", "indicator")):
            if self.kernel_variant != variant and getattr(self, f"kernel_{key}") is not None:
                raise ValueError(f"kernel.{key} applies only to the {variant} kernel, "
                                 f"not to {self.kernel_variant!r}")
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

    @classmethod
    def from_file(cls, path):
        """Read a config file; a value is parsed by its field's type (str,
        int, else float) and the config is validated. A key given twice is
        an error, not the last one winning."""
        types = {f.name: f.type for f in fields(cls)}
        names = {_file_key(name): name for name in types}
        values, seen = {}, {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in names:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in seen:
                raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line "
                                 f"{seen[key]}")
            seen[key] = lineno
            values[names[key]] = value
        return cls(**{k: types[k](v) if types[k] in (str, int) else float(v)
                      for k, v in values.items()}).validate()

    def to_file(self, path):
        lines = []
        for field_name, value in asdict(self).items():
            if value is None:
                continue
            text = str(value)
            # from_file would cut the value at '#' or at a line break and
            # strip its leading and trailing blanks
            if ("#" in text or "".join(text.splitlines()) != text
                    or text.strip() != text):
                raise ValueError(f"{_file_key(field_name)} = {text!r}: a config value "
                                 "cannot hold '#', a line break or edge blanks")
            lines.append(f"{_file_key(field_name)} = {text}")
        Path(path).write_text("\n".join(lines) + "\n")


def _file_key(field_name):
    """A field's config file key: kernel_tau is kernel.tau, and likewise in
    the histogram and stieltjes sections; any other name is its own key."""
    section, _, rest = field_name.partition("_")
    return f"{section}.{rest}" if section in ("kernel", "histogram", "stieltjes") \
        else field_name


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
        law = laws.SCLaw(variance=pair_sq * sigma**4)
        return law, {"kind": "sc", "c": c, "alpha_p": alpha, "pair_moment": pair_sq,
                     "variance": law.variance}

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
    # indicator: generalized MP on the default grid of MP(c, sigma^2) unless
    # the config sets the grid
    z_alpha = config.indicator_z_alpha()
    zeta = laws.zeta_indicator(z_alpha)
    law = laws.GenMPLaw(c, sigma, zeta, laws.law_grid(
        config.stieltjes_x_lo, config.stieltjes_x_hi, config.stieltjes_points,
        c, sigma**2))
    return law, {"kind": "genmp", "c": c, "sigma_sq": sigma**2, "z_alpha": z_alpha,
                 "zeta_mean": zeta.mean(), "atom_at_zero": law.atom_at_zero,
                 "mass_correction": law.mass_correction}


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

# the peak bytes one trial adds, about: its X, its M and the eigensolve's
# three p x p copies, and its tile buffers (within 35% of the peak RSS one
# trial added alone, from 200x500 to 3000x1000)
def _trial_bytes(p, n):
    return 8 * (p * n + 4 * p * p) + 2**23


# the pooled trials (n <= BLOCK) in flight at once hold at most about this
# many bytes, or run one at a time
_TRIALS_BYTES = 2**28


def _trial_eigenvalues(config: ExperimentConfig, K, alpha, t):
    # a task of `_simulate`'s pool, so the whole trial, its eigensolve too,
    # runs on one BLAS thread whatever other trials do
    seed = ensemble.derive_seed(config.master_seed, t)
    X = ensemble.sample_data_matrix(config.p, config.n, config.entry_law,
                                    config.sigma, seed)
    if config.regime == "semi_high_dim":
        # the semi-high-dimensional centering E = sqrt(n/p) (M - alpha sigma^2 I)
        return spectra.symmetric_eigenvalues(
            np.sqrt(config.n / config.p) * (ensemble.truncated_covariance(X, K)
                                            - alpha * config.sigma**2 * np.eye(config.p)))
    lam = spectra.symmetric_eigenvalues(ensemble.truncated_covariance(X, K))
    # M is PSD with rank <= n - 1: snap its round-off zeros (p > n) onto the
    # law's atom at 0; eigenvalues further below 0 stay visible
    lam[np.abs(lam) <= config.p * np.finfo(float).eps * np.abs(lam).max()] = 0.0
    return lam


def _simulate(runs):
    """The prediction (law, law_params) and the per-trial eigenvalues of
    each (config, kernel) of `runs`, in run order.

    The trials of all runs are the tasks of one `ensemble._pool()`, each on
    one BLAS thread, so no byte depends on how many run at once: with every
    n <= ensemble.BLOCK as many as OpenBLAS had threads, but no more than
    _TRIALS_BYTES holds by _trial_bytes; with a larger n one at a time, on
    the calling thread, each streaming on every worker. The calling thread
    builds the laws meanwhile, or first when the pool has one worker; a
    semi_high_dim run's comes first, since its trials centre by alpha_p."""
    first = [select_prediction(c, kernel=K) if c.regime == "semi_high_dim" else None
             for c, K in runs]
    tasks = [(c, K, pred and pred[1]["alpha_p"], t)
             for (c, K), pred in zip(runs, first) for t in range(c.trials)]
    most = _TRIALS_BYTES // max(_trial_bytes(c.p, c.n) for c, _ in runs) \
        if max(c.n for c, _ in runs) <= ensemble.BLOCK else 1
    with ensemble._pool(most) as workers:
        eigs = workers(lambda _, task: _trial_eigenvalues(*task), lambda: None, tasks)
        predictions = [pred or select_prediction(c, kernel=K)
                       for pred, (c, K) in zip(first, runs)]
        eigs = list(eigs)
    done = iter(eigs)
    return [(pred, [next(done) for _ in range(c.trials)])
            for pred, (c, _) in zip(predictions, runs)]


def run_experiment(config: ExperimentConfig, threads=None, check=False,
                   write_artifacts=True, kernel=None):
    """Run the configured seeded trials, compare the pooled ESD with the
    predicted law, and (optionally) write histogram/law CSVs and report JSON.

    A semi_high_dim report adds the predicted finite-size mean shift and the
    KS against the shifted semicircle; with check=True a report holds the
    verdict of check_verdict.

    Every trial runs with OpenBLAS on one thread, on the pinned pool of
    `_simulate`, and no byte depends on the BLAS thread count. `threads` is
    read by nothing: it is kept for callers that still pass it, such as
    perfbench's workloads.

    `kernel` overrides the config-derived KernelSpec (custom kernels); any
    other kernel must equal config.kernel(). The returned report also holds
    the pooled spectrum and the predicted law object."""
    config.validate()
    t0 = time.perf_counter()
    K = kernel if kernel is not None else config.kernel()
    [(prediction, eigs)] = _simulate([(config, K)])
    return _score(config, K, prediction, eigs, t0, check, write_artifacts)


def _score(config, K, prediction, eigs, t0, check, write_artifacts):
    """run_experiment's report of a config's trial eigenvalues `eigs`
    against its prediction, with runtime_seconds counted from t0."""
    law, law_params = prediction
    trial_specs = [spectra.esd(e) for e in eigs]
    pooled = spectra.esd(np.concatenate(eigs))

    per_trial_ks = [spectra.ks_distance(s, law.cdf) for s in trial_specs] \
        if law is not None else []
    pooled_ks = spectra.ks_distance(pooled, law.cdf) if law is not None else None
    w2_pairs = [spectra.wasserstein2(trial_specs[i], trial_specs[i + 1])
                for i in range(len(trial_specs) - 1)]

    solver = {"max_residual": law.solution.max_residual,
              "iterations": law.solution.iterations,
              "fallback_points": law.solution.fallback_points} \
        if isinstance(law, laws.GenMPLaw) else None
    report = {
        "config": asdict(config),
        "per_trial_ks": per_trial_ks,
        "pooled_ks": pooled_ks,
        "w2_pairs": w2_pairs,
        "law_params": law_params,
        "solver": solver,
        "pooled_mean_eigenvalue": float(np.mean(pooled.eigenvalues)),
    }
    if config.regime == "semi_high_dim":
        # at desk sizes the spectrum carries a mean offset of order sqrt(n)/p,
        # from the exact trace of M: score the law shifted by it as well
        mean_eig = ensemble.expected_mean_eigenvalue(
            K, config.sigma, n=config.n, entry_law=config.entry_law)
        shift = math.sqrt(config.n / config.p) \
            * (mean_eig - law_params["alpha_p"] * config.sigma**2)
        report["predicted_mean_shift"] = shift
        report["pooled_ks_shifted"] = spectra.ks_distance(
            pooled, lambda x: law.cdf(np.asarray(x, dtype=float) - shift))
    report["runtime_seconds"] = time.perf_counter() - t0
    if check and pooled_ks is not None:
        report["check"] = check_verdict(report)
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


def check_verdict(report):
    """The --check verdict of a scored report: pooled_ks_shifted when the
    report has it, else pooled_ks, against its law kind's threshold."""
    name = "pooled_ks_shifted" if "pooled_ks_shifted" in report else "pooled_ks"
    threshold = CHECK_THRESHOLDS[report["law_params"]["kind"]]
    return {"ks": name, "threshold": threshold,
            "breach": bool(report[name] > threshold)}


def _law_grid(law, pooled):
    if isinstance(law, laws.GenMPLaw):
        return law.grid
    lo = min(0.0, float(pooled.eigenvalues[0]))
    hi = float(pooled.eigenvalues[-1]) * 1.1 + 1e-6
    if isinstance(law, laws.SCLaw):
        lo, hi = min(lo, -1.05 * law.radius), max(hi, 1.05 * law.radius)
    return np.linspace(lo, hi, 400)


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
            seed=0, trials=1, out_dir="fig1_out", check=False):
    """Indicator-kernel spectra across radius parameters r(beta), with the
    plain MP overlay law_mp.csv and, for finite beta, the generalized-MP
    overlay; beta = inf is the constant kernel."""
    runs = [("inf", {"kernel_variant": "constant"}) if math.isinf(beta) else
            (f"{beta:g}", {"kernel_variant": "indicator", "kernel_beta": beta})
            for beta in betas]
    return _sweep(runs, out_dir, "beta_", "law_mp.csv", check,
                  p=p, n=n, sigma=sigma, trials=trials, master_seed=seed)


def figure2(p=200, n=500, sigma=1.0, taus=(0.4, 0.7, 1.0, 1.3), seed=0,
            trials=1, out_dir="fig2_out", check=False):
    """Gaussian-kernel spectra across bandwidths tau with two MP overlays:
    the predicted MP(c, alpha sigma^2) in each run's law.csv, and the plain
    MP(c, sigma^2) written beside it as law_mp_raw.csv."""
    runs = [(f"{tau:g}", {"kernel_variant": "gaussian", "kernel_tau": tau})
            for tau in taus]
    return _sweep(runs, out_dir, "tau_", "law_mp_raw.csv", check,
                  p=p, n=n, sigma=sigma, trials=trials, master_seed=seed)


def _sweep(runs, out_dir, prefix, overlay, check, **common):
    """Run each (tag, kernel settings) of `runs` into out_dir/<prefix><tag>,
    with the plain MP(c, sigma^2) on its default grid beside its law.csv.
    The trials of all runs share one `_simulate`, and every config is
    validated and every law built before the first file is written, so an
    invalid config, two runs whose tags print alike (one directory) or a law
    that fails leaves no file. A report's runtime_seconds counts from the
    start of the sweep."""
    out = Path(out_dir)
    tags = [tag for tag, _ in runs]
    for k, tag in enumerate(tags):
        if tag in tags[:k]:
            raise ValueError(f"two runs would write {out / f'{prefix}{tag}'}: "
                             "their values print alike")
    configs = [(tag, ExperimentConfig(output_dir=str(out / f"{prefix}{tag}"),
                                      **common, **settings).validate())
               for tag, settings in runs]
    t0 = time.perf_counter()
    simulated = _simulate([(cfg, cfg.kernel()) for _, cfg in configs])
    reports = {}
    for (tag, cfg), (prediction, eigs) in zip(configs, simulated):
        reports[tag] = _score(cfg, cfg.kernel(), prediction, eigs, t0, check, True)
        c, scale = cfg.p / cfg.n, cfg.sigma**2
        write_law_csv(Path(cfg.output_dir) / overlay, laws.MPLaw(c=c, scale=scale),
                      laws.law_grid(None, None, 400, c, scale))
    return reports


def semicircle_experiment(p=400, n=20000, kernel_variant="indicator",
                          kernel_z_alpha=0.0, kernel_tau=None, sigma=1.0,
                          trials=3, seed=0, out_dir="sc_out", threads=None,
                          check=False):
    """Semi-high-dimensional run comparing the centered, rescaled spectrum with
    the predicted semicircle law: run_experiment on the semi_high_dim config
    of these arguments. `threads` is read by nothing, as in run_experiment."""
    cfg = ExperimentConfig(regime="semi_high_dim", p=p, n=n, sigma=sigma,
                           trials=trials, master_seed=seed,
                           kernel_variant=kernel_variant,
                           kernel_z_alpha=kernel_z_alpha
                           if kernel_variant == "indicator" else None,
                           kernel_tau=kernel_tau
                           if kernel_variant == "gaussian" else None,
                           output_dir=out_dir)
    return run_experiment(cfg, check=check)


def diagnostics_reductions(p_list=(100, 200, 400), n_list=(250, 500, 1000),
                           kernel_variant="indicator", kernel_z_alpha=0.0,
                           sigma=1.0, seeds=range(10), mc_conditional=2000,
                           out_dir="diag_out"):
    """Empirical check of the reduction steps: the W2 gap between the spectra
    of M and the decoupled matrix, the scaled centered-degree maximum, and the
    Hilbert-Schmidt size of the adjacency part.

    Each (p, n, seed) case runs whole, sampling to both eigensolves, as one
    task of `ensemble._pool()`, with BLAS on one thread, so the rows are the
    same at any BLAS thread count. The cases go in largest p n first and
    the rows come back in input order.
    """
    if not (seeds := list(seeds)):
        raise ValueError("diagnostics_reductions needs at least one seed")
    p_list, n_list = list(p_list), list(n_list)
    if not p_list or len(p_list) != len(n_list):
        raise ValueError("diagnostics_reductions needs equally many p and n values, "
                         f"at least one, got p_list={p_list}, n_list={n_list}")
    for name, values in (("p:n size", list(zip(p_list, n_list))), ("seed", seeds)):
        if len(set(values)) < len(values):
            raise ValueError(f"diagnostics_reductions takes each {name} once, "
                             f"got {values}")
    if kernel_variant not in ("indicator", "constant"):
        raise ValueError("diagnostics_reductions takes the indicator or constant "
                         f"kernel, got {kernel_variant!r}")
    if min(p_list) < 1 or min(n_list) < 2:
        raise ValueError("diagnostics_reductions needs p >= 1 and n >= 2, "
                         f"got p_list={p_list}, n_list={n_list}")
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if mc_conditional < 100:
        raise ValueError(f"mc_conditional must be >= 100, got {mc_conditional}")

    def run_case(_, case):
        p, n, seed = case
        K = ensemble.KernelSpec(
            variant=kernel_variant, dimension=p,
            radius=ensemble.indicator_radius_from_z_alpha(kernel_z_alpha, sigma, p)
            if kernel_variant == "indicator" else None)
        X = ensemble.sample_data_matrix(p, n, "gaussian", sigma,
                                        ensemble.derive_seed(seed, p))
        M, deg, xaxt = ensemble.covariance_and_stream(X, K)
        xaxt /= n**2
        xi = ensemble.xi_conditional(X, K, mc_conditional, seed)
        w2 = spectra.wasserstein2(
            spectra.esd(spectra.symmetric_eigenvalues(M)),
            spectra.esd(spectra.symmetric_eigenvalues(ensemble.xi_bar_matrix(X, xi))))
        xi_pr = ensemble.xi_prime(deg, xi)
        return {
            "p": p, "n": n, "seed": int(seed), "w2_m_mbar": w2,
            "max_xi_prime_over_n": float(np.max(np.abs(xi_pr)) / n),
            "hs_xaxt_over_sqrt_p": float(np.linalg.norm(xaxt) / math.sqrt(p)),
        }

    cases = [(p, n, seed) for p, n in zip(p_list, n_list) for seed in seeds]
    # largest first (Graham's LPT rule): a large case that started last
    # would leave the other workers idle while it ran
    order = sorted(range(len(cases)), key=lambda i: -cases[i][0] * cases[i][1])
    rows = [None] * len(cases)
    with ensemble._pool() as workers:
        done = workers(run_case, lambda: None, [cases[i] for i in order])
        for i, row in zip(order, done):
            rows[i] = row
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
