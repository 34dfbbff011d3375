# Seeded construction of the random objects under study: data matrices,
# kernel adjacency degrees, and the truncated covariance matrices whose
# spectra the rest of the library analyses.

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.stats import chi2, ncx2

ENTRY_LAWS = ("gaussian", "rademacher", "uniform_centered")

KERNEL_VARIANTS = ("constant", "indicator", "gaussian", "custom")


def rng_from_seed(seed, stream=()):
    """Deterministic generator; `stream` derives independent substreams."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.default_rng(ss)


def derive_seed(master_seed, index):
    """64-bit child seed for trial `index`, reproducible and collision-free."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class DataMatrix:
    """p x n matrix of i.i.d. centered entries with variance sigma^2."""

    entries: np.ndarray
    p: int
    n: int
    entry_law: str
    sigma: float
    seed: int

    def __post_init__(self):
        if self.entries.shape != (self.p, self.n):
            raise ValueError("entries shape does not match (p, n)")


def draw_entries(rng, entry_law, sigma, shape):
    """I.i.d. centered entries with variance sigma^2, drawn from `rng`."""
    if entry_law == "gaussian":
        return sigma * rng.standard_normal(shape)
    if entry_law == "rademacher":
        return sigma * (2.0 * rng.integers(0, 2, size=shape) - 1.0)
    if entry_law == "uniform_centered":  # on [-sqrt(3) sigma, sqrt(3) sigma]
        half = np.sqrt(3.0) * sigma
        return rng.uniform(-half, half, shape)
    raise ValueError(f"unknown entry_law {entry_law!r}; choose from {ENTRY_LAWS}")


def sample_data_matrix(p, n, entry_law="gaussian", sigma=1.0, seed=0):
    """Draw a p x n matrix of i.i.d. centered entries with variance sigma^2.

    Same (p, n, entry_law, sigma, seed) reproduces the matrix bit-for-bit.
    """
    if p < 1 or n < 1:
        raise ValueError(f"p and n must be positive, got p={p}, n={n}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    W = draw_entries(rng_from_seed(seed), entry_law, sigma, (p, n))
    return DataMatrix(entries=W, p=p, n=n, entry_law=entry_law,
                      sigma=float(sigma), seed=int(seed))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Symmetric kernel with values in [0, 1], evaluated on squared distances.

    variant:
      constant      K(x, y) = 1
      indicator     K(x, y) = 1(||x - y|| <= radius)
      gaussian      K(x, y) = 1 - exp(-||x - y||^2 / (2 p tau^2))
      custom        profile(||x - y||^2) with profile mapping into [0, 1]
    """

    variant: str
    dimension: int
    radius: float | None = None
    tau: float | None = None
    profile: object = None
    # optional closed-form limit of alpha_p for custom kernels
    alpha_limit: float | None = None

    def __post_init__(self):
        if self.variant not in KERNEL_VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == "indicator":
            if self.radius is None or self.radius < 0:
                raise ValueError("indicator kernel needs radius >= 0")
        if self.variant == "gaussian":
            if self.tau is None or self.tau <= 0:
                raise ValueError("gaussian kernel needs tau > 0")
        if self.variant == "custom" and self.profile is None:
            raise ValueError("custom kernel needs a profile callable")

    def eval_sqdist(self, sq):
        """Kernel value as a function of squared distance (elementwise)."""
        sq = np.asarray(sq, dtype=float)
        if self.variant == "constant":
            return np.ones_like(sq)
        if self.variant == "indicator":
            return (sq <= self.radius**2).astype(float)
        if self.variant == "gaussian":
            return 1.0 - np.exp(-sq / (2.0 * self.dimension * self.tau**2))
        vals = np.asarray(self.profile(sq), dtype=float)
        if vals.size and (vals.min() < -1e-12 or vals.max() > 1 + 1e-12):
            raise ValueError("custom kernel profile left [0, 1]")
        return np.clip(vals, 0.0, 1.0)

    def gram(self, X, Y=None):
        """Kernel matrix K(X_i, Y_j) for columns of X (and Y, default X)."""
        return self.eval_sqdist(pairwise_sqdist(X, Y))


def pairwise_sqdist(X, Y=None):
    """Squared Euclidean distances between columns of X and Y (p x *)."""
    if Y is None:
        Y = X
    g = X.T @ Y
    nx = np.einsum("ij,ij->j", X, X)
    ny = np.einsum("ij,ij->j", Y, Y)
    sq = nx[:, None] + ny[None, :] - 2.0 * g
    np.maximum(sq, 0.0, out=sq)
    return sq


def indicator_radius_from_beta(beta, sigma, p):
    """Figure-style radius r(beta) = sqrt((2 + beta) sigma^2 p)."""
    return float(np.sqrt((2.0 + beta) * sigma**2 * p))


def z_alpha_from_beta(beta, p):
    """Convert the r(beta) parametrization to the z_alpha one."""
    return float(beta * np.sqrt(p) / (2.0 * np.sqrt(2.0)))


def z_alpha_from_radius(radius, sigma, p):
    """Invert r^2 = (2p + 2 sqrt(2p) z_alpha) sigma^2 for z_alpha."""
    return float((radius**2 / sigma**2 - 2.0 * p) / (2.0 * np.sqrt(2.0 * p)))


def indicator_radius_from_z_alpha(z_alpha, sigma, p):
    r2 = (2.0 * p + 2.0 * np.sqrt(2.0 * p) * z_alpha) * sigma**2
    if r2 < 0:
        return 0.0
    return float(np.sqrt(r2))


# ---------------------------------------------------------------------------
# Kernel adjacency stream and truncated covariance
# ---------------------------------------------------------------------------

def adjacency_stream(X: DataMatrix, K: KernelSpec, block=2048):
    """Degrees deg = A 1 and W A W^T of the adjacency A_ij = K(X_i, X_j)
    (zero diagonal) without materialising A.

    Streams column blocks of A, so memory stays O(n * block).
    """
    if K.dimension != X.p:
        raise ValueError(f"kernel dimension {K.dimension} != data dimension {X.p}")
    W, p, n = X.entries, X.p, X.n
    sqn = np.einsum("ij,ij->j", W, W)
    deg = np.zeros(n)
    XA = np.zeros((p, n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        sq = sqn[:, None] + sqn[None, lo:hi] - 2.0 * (W.T @ W[:, lo:hi])
        np.maximum(sq, 0.0, out=sq)
        Ablk = K.eval_sqdist(sq)
        # zero the diagonal entries that fall inside this block
        Ablk[np.arange(lo, hi), np.arange(hi - lo)] = 0.0
        deg[lo:hi] = Ablk.sum(axis=0)
        XA[:, lo:hi] = W @ Ablk
    return deg, XA @ W.T


def truncated_covariance(X: DataMatrix, K: KernelSpec, block=2048):
    """M = X L X^T / n^2 = ((W deg) W^T - W A W^T) / n^2 with L = diag(deg) - A,
    equal to the pair sum (1 / 2n^2) sum_{i,j} K(X_i, X_j) (X_i - X_j)(X_i - X_j)^T.
    """
    deg, xaxt = adjacency_stream(X, K, block)
    W = X.entries
    M = ((W * deg) @ W.T - xaxt) / X.n**2
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# Kernel moments alpha_p = E K(X1, X2) and beta_p^2 = E K(X1, X2)^2
# ---------------------------------------------------------------------------

def _mc_sums(f, draws, rng, entry_law, sigma, p, mc_samples):
    """Sums of f and f^2 over mc_samples Monte Carlo samples.

    Each chunk of m samples draws `draws` fresh p x m entry blocks from `rng`,
    in order, and passes them to f, which returns the m sample values.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    total = total_sq = 0.0
    chunk = max(1, min(mc_samples, 10**7 // max(p, 1)))
    for done in range(0, mc_samples, chunk):
        m = min(chunk, mc_samples - done)
        vals = f(*[draw_entries(rng, entry_law, sigma, (p, m)) for _ in range(draws)])
        total += vals.sum()
        total_sq += (vals**2).sum()
    return total, total_sq


def _sqnorm_diff(a, b):
    """Squared Euclidean norms of the columns of a - b."""
    d = a - b
    return np.einsum("ij,ij->j", d, d)


def _kernel_moment_mc(K, entry_law, sigma, power, mc_samples, seed):
    """Monte-Carlo mean and standard error of K(X1, X2)^power."""
    total, total_sq = _mc_sums(
        lambda x1, x2: K.eval_sqdist(_sqnorm_diff(x1, x2)) ** power, 2,
        rng_from_seed(seed), entry_law, sigma, K.dimension, mc_samples)
    mean = total / mc_samples
    var = max(total_sq / mc_samples - mean**2, 0.0)
    se = np.sqrt(var / mc_samples)
    return float(mean), float(se)


def alpha_p(K: KernelSpec, sigma=1.0, entry_law="gaussian",
            mc_samples=10**5, seed=0, return_stderr=False):
    """E K(X1, X2): closed form where available, else Monte Carlo.

    Closed forms (Gaussian entries): gaussian kernel via the chi-square MGF,
    indicator kernel via the chi-square CDF of ||X1 - X2||^2 / (2 sigma^2).
    """
    val, se = None, 0.0
    if K.variant == "constant":
        val = 1.0
    elif K.variant == "indicator" and entry_law == "gaussian":
        val = float(chi2.cdf(K.radius**2 / (2.0 * sigma**2), K.dimension))
    elif K.variant == "gaussian" and entry_law == "gaussian":
        p = K.dimension
        val = 1.0 - (1.0 + 2.0 * sigma**2 / (p * K.tau**2)) ** (-p / 2.0)
    else:
        val, se = _kernel_moment_mc(K, entry_law, sigma, 1, mc_samples, seed)
    return (val, se) if return_stderr else val


def beta_p_sq(K: KernelSpec, sigma=1.0, entry_law="gaussian",
              mc_samples=10**5, seed=0, return_stderr=False):
    """E K(X1, X2)^2. For the indicator kernel this equals alpha_p (K^2 = K)."""
    val, se = None, 0.0
    if K.variant == "constant":
        val = 1.0
    elif K.variant == "indicator":
        out = alpha_p(K, sigma, entry_law, mc_samples, seed, return_stderr=True)
        val, se = out
    elif K.variant == "gaussian" and entry_law == "gaussian":
        # expand the square; E e^{-t ||X1-X2||^2} = (1 + 4 sigma^2 t)^{-p/2}
        p, tau = K.dimension, K.tau
        a = (1.0 + 2.0 * sigma**2 / (p * tau**2)) ** (-p / 2.0)
        b = (1.0 + 4.0 * sigma**2 / (p * tau**2)) ** (-p / 2.0)
        val = float(1.0 - 2.0 * a + b)
    else:
        val, se = _kernel_moment_mc(K, entry_law, sigma, 2, mc_samples, seed)
    return (val, se) if return_stderr else val


def pair_kernel_moment(K: KernelSpec, sigma=1.0, entry_law="gaussian",
                       mc_samples=10**5, seed=0):
    """E K(X1, X2) K(X1, X3) = E xi^2, the second moment of the conditional
    mean xi = E[K(X1, V) | X1].

    For Gaussian entries the indicator case is a one-dimensional quadrature
    over ||X1||^2 (the conditional law of ||X1 - V||^2 / sigma^2 is noncentral
    chi-square) and the gaussian-kernel case is closed form via exponential
    moments. Other combinations fall back to Monte Carlo.
    """
    p = K.dimension
    if K.variant == "constant":
        return 1.0
    if K.variant == "indicator" and entry_law == "gaussian":
        t = K.radius**2 / sigma**2

        def f(q):
            return ncx2.cdf(t, p, q) ** 2 * chi2.pdf(q, p)

        half_width = 10.0 * np.sqrt(2.0 * p)
        lo, hi = max(0.0, p - half_width), p + half_width
        val, _ = integrate.quad(f, lo, hi, limit=200)
        return float(val)
    if K.variant == "gaussian" and entry_law == "gaussian":
        t = 1.0 / (2.0 * p * K.tau**2)
        a = (1.0 + 2.0 * t * sigma**2) ** (-p / 2.0)
        u = t / (1.0 + 2.0 * t * sigma**2)
        e1 = (1.0 + 2.0 * u * sigma**2) ** (-p / 2.0)
        e2 = (1.0 + 4.0 * u * sigma**2) ** (-p / 2.0)
        return float(1.0 - 2.0 * a * e1 + a**2 * e2)
    def kernel_product(x1, v, v2):
        return K.eval_sqdist(_sqnorm_diff(x1, v)) * K.eval_sqdist(_sqnorm_diff(x1, v2))

    total, _ = _mc_sums(kernel_product, 3, rng_from_seed(seed, stream=(0x9A12,)),
                        entry_law, sigma, p, mc_samples)
    return float(total / mc_samples)


def expected_mean_eigenvalue(K: KernelSpec, sigma=1.0, p=None, n=None,
                             entry_law="gaussian", mc_samples=10**5, seed=0):
    """Exact mean eigenvalue of M: E tr M / p = ((n-1)/(2 n p)) E[K(X1,X2) d12]
    with d12 = ||X1 - X2||^2.

    For Gaussian entries d12 = 2 sigma^2 Q with Q ~ chi-square(p), which gives
    closed forms for the built-in kernels; other combinations use Monte Carlo.
    """
    p = K.dimension if p is None else p
    if n is None or n < 2:
        raise ValueError("expected_mean_eigenvalue needs the sample size n >= 2")
    pref = (n - 1.0) / n
    if K.variant == "constant":
        return float(pref * sigma**2)
    if K.variant == "indicator" and entry_law == "gaussian":
        t = K.radius**2 / (2.0 * sigma**2)
        return float(pref * sigma**2 * chi2.cdf(t, p + 2))
    if K.variant == "gaussian" and entry_law == "gaussian":
        return float(pref * sigma**2
                     * (1.0 - (1.0 + 2.0 * sigma**2 / (p * K.tau**2))
                        ** (-p / 2.0 - 1.0)))
    def kernel_times_sqdist(x1, x2):
        sq = _sqnorm_diff(x1, x2)
        return K.eval_sqdist(sq) * sq

    total, _ = _mc_sums(kernel_times_sqdist, 2, rng_from_seed(seed, stream=(0x7ACE,)),
                        entry_law, sigma, p, mc_samples)
    return float(pref * total / (2.0 * p * mc_samples))


# ---------------------------------------------------------------------------
# Semi-high-dimensional normalisation and reduction diagnostics
# ---------------------------------------------------------------------------

def normalized_matrix_E(X: DataMatrix, K: KernelSpec, alpha, sigma, block=2048):
    """E = sqrt(n/p) (M - alpha sigma^2 I), the semi-high-dimensional centering."""
    if K.dimension != X.p:
        raise ValueError(f"kernel dimension {K.dimension} != data dimension {X.p}")
    if X.p**2 <= X.n:
        warnings.warn(
            f"normalized_matrix_E: p^2 = {X.p**2} <= n = {X.n}; outside the "
            "semi-high-dimensional regime", stacklevel=2)
    M = truncated_covariance(X, K, block=block)
    E = np.sqrt(X.n / X.p) * (M - alpha * sigma**2 * np.eye(X.p))
    return 0.5 * (E + E.T)


def xi_conditional(X: DataMatrix, K: KernelSpec, mc_conditional=2000, seed=0):
    """xi_i = E[K(X_i, V) | X_i] estimated with fresh draws of V."""
    if mc_conditional < 100:
        raise ValueError("mc_conditional must be >= 100")
    rng = rng_from_seed(seed, stream=(0xD1A6,))
    V = draw_entries(rng, X.entry_law, X.sigma, (X.p, mc_conditional))
    return K.gram(X.entries, V).mean(axis=1)


def xi_bar_matrix(X: DataMatrix, xi):
    """Mbar = (1/n) sum_i xi_i X_i X_i^T, the reduced matrix of the diagnostics."""
    W = X.entries
    Mbar = (W * xi) @ W.T / X.n
    return 0.5 * (Mbar + Mbar.T)


def xi_prime(deg, xi):
    """xi'_i = sum_{j != i} (K(X_i, X_j) - xi_i) = deg_i - (n - 1) xi_i,
    from the degrees of `adjacency_stream` and the means of `xi_conditional`."""
    return deg - (len(deg) - 1) * xi
