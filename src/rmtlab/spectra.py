# Eigenvalues, empirical spectral distributions, and distances between
# spectra and limiting laws.

from dataclasses import dataclass

import numpy as np

from . import ensemble


def symmetric_eigenvalues(S):
    """All eigenvalues of a real symmetric matrix, ascending.

    Rejects matrices that are non-square, hold a non-finite entry, or are
    asymmetric beyond 1e-10 relative; symmetrizes (S + S^T)/2 before the
    solve, which runs with OpenBLAS on one thread (`ensemble._pool`), so its
    bits are the same at any BLAS thread count.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise ValueError("matrix has non-finite entries")
    scale = np.linalg.norm(S)
    if scale > 0 and np.linalg.norm(S - S.T) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    with ensemble._pool(1):
        return np.linalg.eigvalsh(0.5 * (S + S.T))


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted eigenvalues and the induced step CDF."""

    eigenvalues: np.ndarray

    @property
    def dim(self):
        return len(self.eigenvalues)

    def cdf(self, x):
        """F(x) = #{lambda_i <= x} / dim, right-continuous."""
        idx = np.searchsorted(self.eigenvalues, np.asarray(x, dtype=float),
                              side="right")
        return idx / self.dim


def esd(eigenvalues) -> EmpiricalSpectrum:
    """Empirical spectral distribution of an eigenvalue list."""
    vals = np.sort(np.asarray(eigenvalues, dtype=float).ravel())
    if vals.size == 0:
        raise ValueError("esd needs at least one eigenvalue")
    return EmpiricalSpectrum(eigenvalues=vals)


def ks_distance(spec: EmpiricalSpectrum, law_cdf):
    """sup_x |F_emp(x) - G(x)| for a monotone law CDF G.

    Exact for step-vs-monotone: the sup is attained at a jump point of the
    empirical CDF, approached from one of the two sides. Tied eigenvalues
    share one jump, so both sides count every copy.
    """
    lam = spec.eigenvalues
    n = lam.size
    g = np.asarray(law_cdf(lam), dtype=float)
    # left limits handle law CDFs that jump at the eigenvalues themselves
    # (atoms, or another empirical CDF)
    g_left = np.asarray(law_cdf(np.nextafter(lam, -np.inf)), dtype=float)
    upper = np.searchsorted(lam, lam, side="right") / n
    lower = np.searchsorted(lam, lam, side="left") / n
    d = max(np.abs(upper - g).max(), np.abs(lower - g_left).max())
    return float(min(max(d, 0.0), 1.0))


def wasserstein2(spec1: EmpiricalSpectrum, spec2: EmpiricalSpectrum):
    """W2 distance between equal-size empirical spectra (sorted coupling)."""
    if spec1.dim != spec2.dim:
        raise ValueError(
            f"spectra have different sizes: {spec1.dim} vs {spec2.dim}")
    diff = spec1.eigenvalues - spec2.eigenvalues
    return float(np.sqrt(np.mean(diff**2)))


def hoffman_wielandt_bound(S1, S2):
    """||S1 - S2||_HS / sqrt(n), an upper bound for W2 of the two ESDs."""
    S1 = np.asarray(S1, dtype=float)
    S2 = np.asarray(S2, dtype=float)
    if S1.shape != S2.shape:
        raise ValueError(f"shape mismatch: {S1.shape} vs {S2.shape}")
    return float(np.linalg.norm(S1 - S2) / np.sqrt(S1.shape[0]))


@dataclass(frozen=True)
class Histogram:
    """Density-normalized histogram (bin masses sum to 1)."""

    bin_edges: np.ndarray
    densities: np.ndarray


def histogram(spec: EmpiricalSpectrum, bins, range=None) -> Histogram:
    """Normalized density histogram of a spectrum.

    Default range pads the eigenvalue span by 1% of the spread on each side.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lam = spec.eigenvalues
    if range is None:
        spread = lam[-1] - lam[0]
        delta = 0.01 * spread if spread > 0 else max(abs(lam[0]), 1.0) * 0.01
        range = (lam[0] - delta, lam[-1] + delta)
    densities, edges = np.histogram(lam, bins=bins, range=range, density=True)
    # np.histogram normalizes by the in-range count; renormalize to total mass 1
    widths = np.diff(edges)
    mass = float(np.sum(densities * widths))
    if mass > 0:
        densities = densities / mass
    return Histogram(bin_edges=edges, densities=densities)
