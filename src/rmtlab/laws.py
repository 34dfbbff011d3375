# Closed-form limiting laws (Marchenko-Pastur, semicircle), the limit
# distribution of the conditional kernel mean, the fixed-point solver for the
# generalized Marchenko-Pastur Stieltjes transform, and inversion to densities.

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .ensemble import draw_entries, rng_from_seed


class SolverError(RuntimeError):
    """The fixed-point solve failed to reach the requested residual."""


class InversionQualityError(RuntimeError):
    """Numerically inverted density carries too little or too much mass."""


# ---------------------------------------------------------------------------
# Marchenko-Pastur
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MPLaw:
    """Marchenko-Pastur law with aspect ratio c and variance scale."""

    c: float
    scale: float = 1.0
    solution = None  # a closed form has no solve statistics

    def __post_init__(self):
        if not (0 < self.c < np.inf and 0 < self.scale < np.inf):
            raise ValueError(f"MPLaw needs finite c > 0 and scale > 0, got c={self.c}, "
                             f"scale={self.scale}")

    @property
    def support(self):
        sc = np.sqrt(self.c)
        return (self.scale * (1 - sc) ** 2, self.scale * (1 + sc) ** 2)

    @property
    def atom_at_zero(self):
        return max(0.0, 1.0 - 1.0 / self.c)

    def density(self, x):
        """Continuous MP density; its mass is 1 for c <= 1 and 1/c for c > 1."""
        x = np.asarray(x, dtype=float)
        a, b = self.support
        inside = (x > a) & (x < b)
        out = np.zeros_like(x)
        xs = x[inside]
        out[inside] = np.sqrt((b - xs) * (xs - a)) / (2 * np.pi * self.scale * self.c * xs)
        return out if out.ndim else float(out)

    def cdf(self, x):
        return mp_cdf(self, x)

    def stieltjes(self, z):
        """Root of c*scale*z*s^2 + (c*scale + z - scale)*s + 1 = 0 with Im s > 0."""
        z = _upper_half_plane(z)
        c, sc = self.c, self.scale
        disc = _sqrt_upper((z - sc * (1 + c)) ** 2 - 4 * c * sc**2)
        s1 = (sc * (1 - c) - z + disc) / (2 * c * sc * z)
        s2 = (sc * (1 - c) - z - disc) / (2 * c * sc * z)
        s = np.where(s1.imag > 0, s1, s2)
        return complex(s) if s.ndim == 0 else s

    def moments(self, k):
        c = self.c
        return self.scale**k * {1: 1.0, 2: 1 + c, 3: 1 + 3 * c + c * c}[k]

    def table_grid(self, lo, hi):
        """A run's law.csv grid, given its spectrum's range [lo, hi]: that range."""
        return np.linspace(lo, hi, 400)


def mp_cdf(law: MPLaw, x):
    """Closed-form MP CDF: the arcsine antiderivative of the density, in
    arctan2 form so it stays accurate to round-off at both edges, plus the
    atom at 0 (c > 1)."""
    c, b = law.c, law.support[1]
    x = np.asarray(x, dtype=float)
    ua, ub = (1 - np.sqrt(c)) ** 2, (1 + np.sqrt(c)) ** 2
    m, d = 1 + c, abs(1 - c)
    u = np.clip(x / law.scale, ua, ub)
    sr = np.sqrt((ub - u) * (u - ua))
    cont = (sr + m * (np.arctan2(u - m, sr) + np.pi / 2)
            - d * (np.arctan2(m * u - (1 - c) ** 2, d * sr) + np.pi / 2)) \
        / (2 * np.pi * c)
    out = np.where(x >= b, 1.0,
                   np.clip(cont + np.where(x >= 0, law.atom_at_zero, 0.0), 0.0, 1.0))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Semicircle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SCLaw:
    """Semicircle law with variance parameter (support [-2 sqrt(var), 2 sqrt(var)])."""

    variance: float
    solution = None  # a closed form has no solve statistics

    def __post_init__(self):
        if not 0 < self.variance < np.inf:
            raise ValueError(f"SCLaw needs finite variance > 0, got {self.variance}")

    @property
    def radius(self):
        return 2.0 * np.sqrt(self.variance)

    @property
    def support(self):
        return (-self.radius, self.radius)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        v = self.variance
        inside = np.abs(x) < self.radius
        out = np.zeros_like(x)
        out[inside] = np.sqrt(4 * v - x[inside] ** 2) / (2 * np.pi * v)
        return out if out.ndim else float(out)

    def cdf(self, x):
        return sc_cdf(self, x)

    def stieltjes(self, z):
        """s(z) = (-z + sqrt(z^2 - 4 var)) / (2 var), root of var*s^2 + z*s + 1 = 0."""
        z = _upper_half_plane(z)
        s = (-z + _sqrt_upper(z**2 - 4.0 * self.variance)) / (2.0 * self.variance)
        return complex(s) if s.ndim == 0 else s

    def moments(self, k):
        return {1: 0.0, 2: self.variance, 3: 0.0}[k]

    def table_grid(self, lo, hi):
        """A run's law.csv grid: [lo, hi] widened to 1.05 x the support."""
        r = 1.05 * self.radius
        return np.linspace(min(lo, -r), max(hi, r), 400)


def sc_cdf(law: SCLaw, x):
    """Closed-form semicircle CDF (arcsine antiderivative)."""
    x = np.asarray(x, dtype=float)
    v = law.variance
    r = law.radius
    xc = np.clip(x, -r, r)
    out = 0.5 + xc * np.sqrt(np.maximum(4 * v - xc**2, 0.0)) / (4 * np.pi * v) \
        + np.arcsin(xc / r) / np.pi
    out = np.where(x <= -r, 0.0, np.where(x >= r, 1.0, out))
    return out if out.ndim else float(out)


def _sqrt_upper(z):
    """Square root with branch chosen in the closed upper half-plane."""
    r = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(r.imag < 0, -r, r)


def _upper_half_plane(z):
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("a Stieltjes transform is taken at Im z > 0 only")
    return z


# ---------------------------------------------------------------------------
# The limit distribution of the conditional kernel mean
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaDistribution:
    """Discrete representation of the limit variable as weighted atoms in [0, 1]."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.shape != w.shape:
            raise ValueError("values and weights must have the same shape")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if v.size and (v.min() < -1e-12 or v.max() > 1 + 1e-12):
            raise ValueError("atom values must lie in [0, 1]")

    def mean(self):
        return float(np.dot(self.weights, self.values))

    def moment(self, k):
        return float(np.dot(self.weights, self.values**k))

    @staticmethod
    def point_mass(value):
        return ZetaDistribution(values=np.array([float(value)]),
                                weights=np.array([1.0]))


@functools.cache
def gauss_hermite_prob(n):
    """Nodes and weights for E f(Z), Z ~ N(0, 1) (probabilists' Hermite),
    computed once per n and returned read-only."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    weights = weights / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def zeta_indicator(z_alpha) -> ZetaDistribution:
    """Limit of the conditional indicator-kernel mean for Gaussian entries:
    Phi(Z / sqrt(3) + 2 z_alpha / sqrt(3)) with Z ~ N(0, 1), discretized on
    64 Gauss-Hermite nodes.
    """
    if np.isnan(z_alpha):
        raise ValueError("z_alpha must be a number, got nan")
    nodes, weights = gauss_hermite_prob(64)
    values = special.ndtr((nodes + 2.0 * z_alpha) / np.sqrt(3.0))
    return ZetaDistribution(values=values, weights=weights)


@dataclass(frozen=True)
class DMoments:
    """Moments of the symmetric pair function d(w, w'): mean, variance, and its
    law-of-total-variance split."""

    m1: float
    m2: float
    m2_1: float
    m2_2: float

    def __post_init__(self):
        if self.m2 <= 0:
            raise ValueError("m2 must be positive")
        if self.m2_1 < 0 or self.m2_2 < 0:
            raise ValueError("m2_1 and m2_2 must be nonnegative")
        if abs(self.m2_1 + self.m2_2 - self.m2) > 1e-8 * self.m2:
            raise ValueError("m2_1 + m2_2 must equal m2")


def d_moments(d="squared_difference", entry_law="gaussian", sigma=1.0,
              mc_samples=10**6, seed=0):
    """Moments of d(w, w') for i.i.d. entries w, w'.

    Closed form for d(x, y) = (x - y)^2 with Gaussian entries:
    (2 sigma^2, 8 sigma^4, 2 sigma^4, 6 sigma^4). Otherwise a nested Monte
    Carlo (outer draw conditions, inner draws estimate the conditional mean
    and variance).
    """
    if d == "squared_difference" and entry_law == "gaussian":
        s4 = sigma**4
        return DMoments(m1=2 * sigma**2, m2=8 * s4, m2_1=2 * s4, m2_2=6 * s4)
    return _d_moments_mc(d, entry_law, sigma, mc_samples, seed)[0]


def _d_eval(d, x, y):
    if d == "squared_difference":
        return (x - y) ** 2
    if d == "abs_difference":
        return np.abs(x - y)
    if callable(d):
        return d(x, y)
    raise ValueError(f"unknown pair function {d!r}")


def _d_moments_mc(d, entry_law, sigma, mc_samples, seed):
    rng = rng_from_seed(seed, stream=(0xD,))
    n_outer = max(200, int(np.sqrt(mc_samples)))
    n_inner = max(200, mc_samples // n_outer)
    v = draw_entries(rng, entry_law, sigma, n_outer)
    w = draw_entries(rng, entry_law, sigma, (n_outer, n_inner))
    vals = _d_eval(d, v[:, None], w)
    cond_mean = vals.mean(axis=1)
    cond_var = vals.var(axis=1, ddof=1)
    m1 = float(cond_mean.mean())
    m2_1 = float(cond_mean.var(ddof=1))
    m2_2 = float(cond_var.mean())
    mom = DMoments(m1=m1, m2=m2_1 + m2_2, m2_1=m2_1, m2_2=m2_2)
    se = {"m1": float(cond_mean.std(ddof=1) / np.sqrt(n_outer)),
          "m2": float(vals.var(ddof=1) / np.sqrt(n_outer))}
    return mom, se


def zeta_general(phi_tilde, moments: DMoments, n_outer=64, n_inner=64) -> ZetaDistribution:
    """Limit variable E_{Z2}[phi_tilde(sqrt(m2_1/m2) Z1 + sqrt(m2_2/m2) Z2)],
    with both Gaussian expectations replaced by Gauss-Hermite quadrature.

    phi_tilde must map into [0, 1].
    """
    w1 = np.sqrt(moments.m2_1 / moments.m2)
    w2 = np.sqrt(moments.m2_2 / moments.m2)
    outer_nodes, outer_weights = gauss_hermite_prob(n_outer)
    inner_nodes, inner_weights = gauss_hermite_prob(n_inner)
    args = w1 * outer_nodes[:, None] + w2 * inner_nodes[None, :]
    vals = np.asarray(phi_tilde(args), dtype=float)
    if vals.min() < -1e-12 or vals.max() > 1 + 1e-12:
        raise ValueError("phi_tilde returned values outside [0, 1]")
    atoms = np.clip(vals, 0.0, 1.0) @ inner_weights
    return ZetaDistribution(values=np.clip(atoms, 0.0, 1.0),
                            weights=outer_weights)


# ---------------------------------------------------------------------------
# Solver for the generalized Marchenko-Pastur transform
# ---------------------------------------------------------------------------

# Cap on the vectorized Newton steps of one solve.
NEWTON_STEPS = 50
# Residual |F| that every point of a solve must reach.
TOL = 1e-10
# Step halvings tried before a point is taken to have no descent direction.
_HALVINGS = 40
# Points where the cold Newton stalls are re-solved at heights
# max(Im z, _LADDER_TOP / 10^k), k = 0, 1, ..., each level started from the
# roots of the one above.
_LADDER_TOP = 0.1


@dataclass(frozen=True)
class StieltjesSolution:
    """Solver output on a grid of upper-half-plane points: `iterations`
    counts Newton steps, `fallback_points` the points re-solved from above
    because the cold Newton found no descent."""

    values: np.ndarray
    iterations: int
    max_residual: float
    fallback_points: int


def _equation(s, z, c, sigma, zeta):
    """F(s) = 1 + z s - E[sigma^2 s zeta / (1 + c sigma^2 s zeta)] and
    F'(s) = z - E[sigma^2 zeta / (1 + c sigma^2 s zeta)^2], pointwise."""
    a = sigma**2 * zeta.values
    denom = 1.0 + c * a * s[:, None]
    q = zeta.weights * a / denom
    return 1.0 + z * s - s * q.sum(axis=1), z - (q / denom).sum(axis=1)


def _newton(s, z, c, sigma, zeta):
    """Newton steps on F, each halved until |F| decreases and Im s > 0.

    A point stops after the step taken from |F| <= TOL, which brings s to
    round-off, or when it finds no descent. Returns the iterates, their |F|
    and the number of steps taken.
    """
    F, dF = _equation(s, z, c, sigma, zeta)
    active = np.arange(z.size)
    steps = 0
    while active.size and steps < NEWTON_STEPS:
        steps += 1
        step, r = -F[active] / dF[active], np.abs(F[active])
        pending = np.arange(active.size)
        for k in range(_HALVINGS):
            idx = active[pending]
            s_try = s[idx] + 0.5**k * step[pending]
            F_try, dF_try = _equation(s_try, z[idx], c, sigma, zeta)
            ok = (np.abs(F_try) < r[pending]) & (s_try.imag > 0)
            s[idx[ok]], F[idx[ok]], dF[idx[ok]] = s_try[ok], F_try[ok], dF_try[ok]
            # a point already at TOL is at round-off after the full step or
            # never: it takes that step or none, without halving
            pending = pending[~ok & (r[pending] > TOL)]
            if not pending.size:
                break
        descended = np.ones(active.size, dtype=bool)
        descended[pending] = False
        active = active[descended & (r > TOL)]
    return s, np.abs(F), steps


def solve_nonsmooth_stieltjes(z, c, sigma, zeta: ZetaDistribution, init=None):
    """Solve 1 + z s = E[sigma^2 s zeta / (1 + c sigma^2 s zeta)] in C+ at
    one point, by `solve_stieltjes_grid`.

    The equation has a unique upper-half-plane solution, so the answer is
    initialization-independent.
    """
    if c <= 0 or sigma <= 0:
        raise ValueError("need c > 0 and sigma > 0")
    sol = solve_stieltjes_grid(np.asarray([complex(z)]), c, sigma, zeta, init=init)
    return complex(sol.values[0])


def solve_stieltjes_grid(z_grid, c, sigma, zeta: ZetaDistribution,
                         init=None) -> StieltjesSolution:
    """Vectorized solve of 1 + z s = E[sigma^2 s zeta / (1 + c sigma^2 s zeta)]
    over a grid of upper-half-plane points, to residual TOL.

    Backtracking Newton steps from `init` (default i / (1 + |z|)), at most
    NEWTON_STEPS of them. Points still above TOL are solved again by Newton,
    continued down in height from Im z = _LADDER_TOP (Dobriban, RMTA 2015);
    SolverError if one is still above TOL at its own height.
    """
    z = _upper_half_plane(z_grid).ravel()
    s0 = np.full(z.shape, init, dtype=complex) if init is not None \
        else 1j / (1.0 + np.abs(z))
    s, res, iterations = _newton(s0.copy(), z, c, sigma, zeta)
    slow = np.flatnonzero(res > TOL)
    if slow.size:
        zs, ss, k = z[slow], s0[slow], 0
        while True:
            height = _LADDER_TOP / 10.0**k
            ss, rs, steps = _newton(ss, zs.real + 1j * np.maximum(zs.imag, height),
                                    c, sigma, zeta)
            iterations += steps
            if height <= zs.imag.min():
                break
            k += 1
        if rs.max() > TOL:
            raise SolverError(
                f"fixed point not converged: max residual {rs.max():.3e} > "
                f"tol {TOL:.1e} after {iterations} Newton steps")
        s[slow], res[slow] = ss, rs
    return StieltjesSolution(values=s, iterations=iterations,
                             max_residual=float(res.max()),
                             fallback_points=int(slow.size))


# ---------------------------------------------------------------------------
# Stieltjes-Perron inversion and CDF assembly
# ---------------------------------------------------------------------------

def stieltjes_invert(s_fn, x_grid, v):
    """Density approximation f(x) = Im s(x + i v) / pi on a real grid.

    Raises InversionQualityError when f dips below -1e-8.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    x = np.asarray(x_grid, dtype=float)
    s = np.asarray(s_fn(x + 1j * v), dtype=complex)
    f = s.imag / np.pi
    if f.min() < -1e-8:
        raise InversionQualityError(
            f"inversion produced density < -1e-8 ({f.min():.3e})")
    return np.maximum(f, 0.0)


def generalized_mp_cdf(x_grid, density, atom_at_zero=0.0):
    """Monotone CDF from a density grid (trapezoid accumulation) plus an atom
    at 0, renormalized to total mass 1, exactly 1 from max(x_grid[-1], 0) on;
    raises InversionQualityError when the mass is outside [0.9, 1.1].
    """
    x = np.asarray(x_grid, dtype=float)
    f = np.asarray(density, dtype=float)
    if np.any(f < 0):
        raise ValueError("density must be nonnegative")
    widths = np.diff(x)
    partial = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * widths)))
    mass = partial[-1] + atom_at_zero
    if not 0.9 <= mass <= 1.1:
        raise InversionQualityError(
            f"inverted density mass {mass:.4f} outside [0.9, 1.1]")
    correction = 1.0 / mass
    cont = partial * correction
    atom = atom_at_zero * correction

    def cdf(t):
        t = np.asarray(t, dtype=float)
        val = np.interp(t, x, cont, left=0.0, right=cont[-1]) + np.where(t >= 0, atom, 0.0)
        out = np.where(t >= max(x[-1], 0.0), 1.0, np.minimum(val, 1.0))
        return out if out.ndim else float(out)

    cdf.mass_correction = correction
    return cdf


def law_grid(x_lo, x_hi, points, c=None, scale=None):
    """`points` equispaced points on [x_lo, x_hi]; an end left None takes its
    default in [0, 1.15 x the right edge of MP(c, scale)]."""
    lo = 0.0 if x_lo is None else x_lo
    hi = 1.15 * MPLaw(c=c, scale=scale).support[1] if x_hi is None else x_hi
    if points < 2 or not (hi > lo and np.isfinite([lo, hi]).all()):
        raise ValueError(f"a law grid needs >= 2 points and finite x_hi > x_lo "
                         f"(got {points} points on [{lo}, {hi}])")
    return np.linspace(lo, hi, points)


# Height above the real axis at which GenMPLaw inverts the transform.
INVERSION_HEIGHT = 1e-3


@dataclass(frozen=True, eq=False)
class GenMPLaw:
    """Generalized MP law of the fixed point with weights zeta, tabulated on
    the real grid by Stieltjes-Perron inversion at height INVERSION_HEIGHT.

    The constructor solves the fixed point on grid + i INVERSION_HEIGHT,
    takes the exact atom at 0, the rank deficit max(0, 1 - P(zeta > 0) / c)
    of sum_i zeta_i x_i x_i^T / n, removes its transform -atom / z, inverts
    the rest to a density and assembles the renormalized CDF.
    """

    c: float
    sigma: float
    zeta: ZetaDistribution
    grid: np.ndarray
    solution: StieltjesSolution = field(init=False)
    grid_density: np.ndarray = field(init=False)
    atom_at_zero: float = field(init=False)
    mass_correction: float = field(init=False)
    _cdf: object = field(init=False, repr=False)

    def __post_init__(self):
        c, sigma, zeta = self.c, self.sigma, self.zeta
        if not (0 < c < np.inf and 0 < sigma < np.inf):
            raise ValueError(f"GenMPLaw needs finite c > 0 and sigma > 0, got c={c}, "
                             f"sigma={sigma}")
        sol = solve_stieltjes_grid(self.grid + 1j * INVERSION_HEIGHT, c, sigma, zeta)
        atom = max(0.0, 1.0 - float(zeta.weights[zeta.values > 0].sum()) / c)
        density = stieltjes_invert(lambda z: sol.values + atom / z,
                                   self.grid, INVERSION_HEIGHT)
        cdf = generalized_mp_cdf(self.grid, density, atom_at_zero=atom)
        for name, value in (("solution", sol), ("grid_density", density),
                            ("atom_at_zero", atom),
                            ("mass_correction", cdf.mass_correction),
                            ("_cdf", cdf)):
            object.__setattr__(self, name, value)

    @property
    def support(self):  # the grid's ends: the law's own edges are not computed
        return (float(self.grid[0]), float(self.grid[-1]))

    def moments(self, k):
        """From the free cumulants c^(j-1) sigma^(2j) E zeta^j (Nica and
        Speicher, Lectures on the Combinatorics of Free Probability, 2006)."""
        c, (z1, z2, z3) = self.c, (self.zeta.moment(j) for j in (1, 2, 3))
        return self.sigma**(2 * k) * {1: z1, 2: z1 * z1 + c * z2,
                                      3: z1**3 + 3 * c * z1 * z2 + c * c * z3}[k]

    def table_grid(self, lo, hi):
        """A run's law.csv grid: the grid the law was solved on."""
        return self.grid

    def density(self, x):
        """Grid density interpolated linearly, zero off the grid."""
        return np.interp(np.asarray(x, dtype=float), self.grid,
                         self.grid_density, left=0.0, right=0.0)

    def cdf(self, x):
        return self._cdf(x)
