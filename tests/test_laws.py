import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from rmtlab import laws
from rmtlab.laws import (
    DMoments,
    InversionQualityError,
    MPLaw,
    SCLaw,
    ZetaDistribution,
    d_moments,
    generalized_mp_cdf,
    mp_cdf,
    sc_cdf,
    solve_nonsmooth_stieltjes,
    solve_stieltjes_grid,
    stieltjes_invert,
    zeta_general,
    zeta_indicator,
)


# ---------------------------------------------------------------------------
# Marchenko-Pastur closed forms
# ---------------------------------------------------------------------------

def test_mp_support_edges():
    law = MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    assert a == pytest.approx((1 - np.sqrt(0.4)) ** 2)
    assert b == pytest.approx((1 + np.sqrt(0.4)) ** 2)


def test_mp_density_midpoint_value():
    law = MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    x = 0.5 * (a + b)  # = 1.4
    expected = np.sqrt((b - x) * (x - a)) / (2 * np.pi * 0.4 * x)
    assert law.density(x) == pytest.approx(expected, rel=1e-12)


def test_mp_density_vanishes_outside_support():
    law = MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    assert law.density(a - 0.01) == 0.0
    assert law.density(b + 0.01) == 0.0


def test_mp_density_total_mass():
    law = MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    mass, _ = integrate.quad(law.density, a, b, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-8)
    law2 = MPLaw(c=2.0, scale=1.0)
    a2, b2 = law2.support
    mass2, _ = integrate.quad(law2.density, a2, b2, limit=200)
    assert mass2 == pytest.approx(0.5, abs=1e-8)


def test_mp_cdf_boundaries_and_atom():
    law = MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    assert mp_cdf(law, a) == pytest.approx(0.0, abs=1e-10)
    assert mp_cdf(law, b) == 1.0
    assert mp_cdf(law, b + 5.0) == 1.0
    assert mp_cdf(MPLaw(c=2.0, scale=1.0), 1e-9) == pytest.approx(0.5, abs=1e-8)


def test_mp_cdf_midpoint_matches_quadrature():
    law = MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    x = 0.5 * (a + b)
    ref, _ = integrate.quad(law.density, a, x, limit=200)
    assert mp_cdf(law, x) == pytest.approx(ref, abs=1e-8)


def test_mp_cdf_monotone():
    law = MPLaw(c=0.7, scale=2.0)
    grid = np.linspace(-0.5, 8.0, 60)
    vals = mp_cdf(law, grid)
    assert np.all(np.diff(vals) >= -1e-12)


def _mp_cdf_reference(law, x):
    """MP CDF by quadrature after u = a + (b - a) sin^2(t), which removes the
    square-root singularities of the density at both edges."""
    a, b = law.support
    atom = law.atom_at_zero if x >= 0 else 0.0
    if x >= b:
        return 1.0
    if x <= a:
        return atom
    theta = np.arcsin(np.sqrt((x - a) / (b - a)))
    f = lambda t: (((b - a) * np.sin(t) * np.cos(t)) ** 2
                   / (np.pi * law.scale * law.c * (a + (b - a) * np.sin(t) ** 2)))
    val, _ = integrate.quad(f, 0.0, theta, epsabs=1e-14, epsrel=1e-13, limit=200)
    return atom + val


@pytest.mark.parametrize("scale", [1.0, 0.3])
@pytest.mark.parametrize("c", [0.05, 0.4, 0.999, 1.0, 1.001, 2.0, 2.5])
def test_mp_cdf_closed_form_matches_substituted_quadrature(c, scale):
    law = MPLaw(c=c, scale=scale)
    a, b = law.support
    ks = np.arange(2, 13)
    x = np.concatenate([np.linspace(a - 0.1, b + 0.1, 201),
                        a + scale * 10.0 ** -ks, b - scale * 10.0 ** -ks,
                        [0.0, 1e-12, -1e-12, a, b]])
    ref = np.array([_mp_cdf_reference(law, t) for t in x])
    assert np.max(np.abs(mp_cdf(law, x) - ref)) <= 1e-12
    if c > 1:
        assert mp_cdf(law, 0.0) == pytest.approx(1 - 1 / c, abs=1e-12)
        assert mp_cdf(law, -1e-12) == 0.0
    scalar = mp_cdf(law, 0.5 * (a + b))
    assert type(scalar) is float
    assert scalar == pytest.approx(_mp_cdf_reference(law, 0.5 * (a + b)), abs=1e-12)
    grid = x[:200].reshape(4, 50)
    assert mp_cdf(law, grid).shape == (4, 50)
    assert np.array_equal(mp_cdf(law, grid), mp_cdf(law, x[:200]).reshape(4, 50))


def test_mp_law_validation():
    with pytest.raises(ValueError):
        MPLaw(c=0.0)
    with pytest.raises(ValueError):
        MPLaw(c=0.4, scale=-1.0)


def test_mp_stieltjes_matches_integral():
    law = MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    z = 1.0 + 1.0j
    ref = integrate.quad(lambda x: law.density(x) * ((x - z.real)
                         / ((x - z.real) ** 2 + z.imag**2)), a, b, limit=200)[0] \
        + 1j * integrate.quad(lambda x: law.density(x) * (z.imag
                              / ((x - z.real) ** 2 + z.imag**2)), a, b,
                              limit=200)[0]
    assert law.stieltjes(z) == pytest.approx(ref, abs=1e-8)


# ---------------------------------------------------------------------------
# Semicircle closed forms
# ---------------------------------------------------------------------------

def test_sc_density_center():
    assert SCLaw(variance=1.0).density(0.0) == pytest.approx(1 / np.pi)


def test_sc_density_and_cdf_outside_support():
    law = SCLaw(variance=1.0)
    assert law.density(2.5) == 0.0
    assert sc_cdf(law, -2.0) == 0.0
    assert sc_cdf(law, 2.0) == 1.0


def test_sc_cdf_symmetry():
    for v in (0.3, 1.0, 4.2):
        assert sc_cdf(SCLaw(variance=v), 0.0) == pytest.approx(0.5, abs=1e-12)


def test_sc_cdf_matches_quadrature():
    law = SCLaw(variance=1.7)
    for x in (-1.0, 0.3, 2.0):
        ref, _ = integrate.quad(law.density, -law.radius, x,
                                limit=200)
        assert sc_cdf(law, x) == pytest.approx(ref, abs=1e-10)


def test_sc_stieltjes_golden_point():
    # var*s^2 + z*s + 1 = 0 at z = i has root i(sqrt(5)-1)/2
    s = SCLaw(1.0).stieltjes(1j)
    assert s == pytest.approx(1j * (np.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)


def test_sc_stieltjes_tail():
    z = 1e3j
    s = SCLaw(1.0).stieltjes(z)
    assert abs(s + 1.0 / z) <= 2.0 / abs(z) ** 3


def test_sc_stieltjes_defining_equation():
    var = 0.7
    z = np.linspace(-3, 3, 100) + 0.05j
    s = SCLaw(var).stieltjes(z)
    assert np.max(np.abs(var * s**2 + z * s + 1)) < 1e-12
    assert np.all(s.imag > 0)


def test_sc_stieltjes_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        SCLaw(1.0).stieltjes(1.0 - 0.1j)


# ---------------------------------------------------------------------------
# zeta distributions
# ---------------------------------------------------------------------------

def test_zeta_validation():
    with pytest.raises(ValueError):
        ZetaDistribution(values=np.array([0.5]), weights=np.array([0.9]))
    with pytest.raises(ValueError):
        ZetaDistribution(values=np.array([1.5]), weights=np.array([1.0]))


def test_gauss_hermite_rule_is_computed_once_and_read_only():
    nodes, weights = laws.gauss_hermite_prob(64)
    assert laws.gauss_hermite_prob(64)[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    x, w = np.polynomial.hermite_e.hermegauss(64)
    assert np.array_equal(nodes, x) and np.array_equal(weights, w / w.sum())


def test_zeta_indicator_saturates():
    zeta = zeta_indicator(40.0)
    assert np.all(np.abs(zeta.values - 1.0) < 1e-9)


def test_zeta_indicator_symmetric_mean():
    assert zeta_indicator(0.0).mean() == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("z_alpha", [-1.0, 0.5, 2.0])
def test_zeta_indicator_matches_monte_carlo(z_alpha):
    zeta = zeta_indicator(z_alpha)
    assert zeta.mean() == pytest.approx(norm.cdf(z_alpha), abs=1e-10)
    rng = np.random.default_rng(10)
    draws = norm.cdf((rng.standard_normal(10**6) + 2 * z_alpha) / np.sqrt(3))
    se = draws.std() / 1000.0
    assert abs(zeta.mean() - draws.mean()) <= 3 * se
    se2 = (draws**2).std() / 1000.0
    assert abs(zeta.moment(2) - np.mean(draws**2)) <= 3 * se2


def test_d_moments_closed_form():
    mom = d_moments("squared_difference", "gaussian", sigma=1.0)
    assert (mom.m1, mom.m2, mom.m2_1, mom.m2_2) == (2.0, 8.0, 2.0, 6.0)
    mom4 = d_moments("squared_difference", "gaussian", sigma=2.0)
    assert (mom4.m1, mom4.m2, mom4.m2_1, mom4.m2_2) == (8.0, 128.0, 32.0, 96.0)


def test_d_moments_monte_carlo_consistency():
    closed = d_moments("squared_difference", "gaussian", sigma=1.0)
    mc, se = laws._d_moments_mc("squared_difference", "gaussian", 1.0, 4 * 10**5, 1)
    assert abs(mc.m1 - closed.m1) <= 3 * se["m1"]
    assert mc.m2_1 + mc.m2_2 == pytest.approx(mc.m2, rel=1e-8)


def test_d_moments_total_variance_identity_other_law():
    mom = d_moments("abs_difference", "uniform_centered", sigma=1.0,
                    mc_samples=10**5, seed=2)
    assert mom.m2_1 + mom.m2_2 == pytest.approx(mom.m2, rel=1e-8)


def test_dmoments_validation():
    with pytest.raises(ValueError):
        DMoments(m1=0.0, m2=1.0, m2_1=0.6, m2_2=0.6)
    with pytest.raises(ValueError):
        DMoments(m1=0.0, m2=-1.0, m2_1=0.0, m2_2=0.0)


def test_zeta_general_constant_profile():
    mom = d_moments("squared_difference", "gaussian", sigma=1.0)
    zeta = zeta_general(lambda t: np.full_like(t, 0.25), mom)
    assert np.allclose(zeta.values, 0.25)
    assert zeta.mean() == pytest.approx(0.25)


def test_zeta_general_reproduces_indicator():
    # for (x - y)^2 moments the mixture weights are 1/2 and sqrt(3)/2
    z_alpha = 0.4
    mom = d_moments("squared_difference", "gaussian", sigma=1.0)
    assert np.sqrt(mom.m2_1 / mom.m2) == pytest.approx(0.5)
    assert np.sqrt(mom.m2_2 / mom.m2) == pytest.approx(np.sqrt(3) / 2)
    # the hard indicator profile is discontinuous, so compare moments loosely
    zeta_hard = zeta_general(
        lambda t: (t <= z_alpha).astype(float), mom, n_outer=64, n_inner=128)
    ref = zeta_indicator(z_alpha)
    assert zeta_hard.mean() == pytest.approx(ref.mean(), abs=5e-3)
    assert zeta_hard.moment(2) == pytest.approx(ref.moment(2), abs=5e-3)


def test_zeta_general_quadrature_vs_monte_carlo():
    mom = d_moments("squared_difference", "gaussian", sigma=1.0)
    phi = lambda t: 1.0 / (1.0 + np.exp(-t))
    zeta = zeta_general(phi, mom)
    rng = np.random.default_rng(11)
    z1 = rng.standard_normal(10**6)
    z2 = rng.standard_normal(10**6)
    draws = phi(0.5 * z1 + np.sqrt(3) / 2 * z2)
    se = draws.std() / 1000.0
    assert abs(zeta.mean() - draws.mean()) <= 3 * se


def test_zeta_general_contract_violation():
    mom = d_moments("squared_difference", "gaussian", sigma=1.0)
    with pytest.raises(ValueError):
        zeta_general(lambda t: 2.0 + 0.0 * t, mom)


# ---------------------------------------------------------------------------
# fixed-point solver
# ---------------------------------------------------------------------------

def test_solver_point_mass_at_zero():
    zeta = ZetaDistribution.point_mass(0.0)
    z = 0.7 + 0.3j
    assert solve_nonsmooth_stieltjes(z, 0.4, 1.0, zeta) \
        == pytest.approx(-1.0 / z, abs=1e-10)


def test_solver_point_mass_at_one_matches_mp():
    zeta = ZetaDistribution.point_mass(1.0)
    law = MPLaw(c=0.4, scale=1.0)
    z = 1.0 + 1.0j
    s = solve_nonsmooth_stieltjes(z, 0.4, 1.0, zeta)
    assert s == pytest.approx(law.stieltjes(z), abs=1e-8)


def test_solver_small_c_limit():
    zeta = zeta_indicator(0.3)
    alpha = zeta.mean()
    z = 0.2 + 0.5j
    s = solve_nonsmooth_stieltjes(z, 1e-8, 1.0, zeta)
    assert s == pytest.approx(1.0 / (alpha - z), abs=1e-6)


def test_solver_residual_and_upper_half_plane():
    zeta = zeta_indicator(-0.2)
    x = np.linspace(0.01, 2.5, 120)
    sol = solve_stieltjes_grid(x + 1e-3j, 0.4, 1.0, zeta)
    assert sol.max_residual <= 1e-10
    assert np.all(sol.values.imag > 0)


def test_solver_initialization_independence():
    zeta = zeta_indicator(0.0)
    z = 0.8 + 0.2j
    rng = np.random.default_rng(12)
    sols = [solve_nonsmooth_stieltjes(z, 0.4, 1.0, zeta,
                                      init=complex(rng.uniform(-2, 2),
                                                   rng.uniform(0.05, 2)))
            for _ in range(10)]
    for s in sols[1:]:
        assert abs(s - sols[0]) <= 1e-10


def test_solver_tail_asymptotics():
    # s(iy) ~ -1/(iy) + O(1/y^2) far up the imaginary axis
    zeta = zeta_indicator(1.0)
    y = 100.0
    s = solve_nonsmooth_stieltjes(1j * y, 0.4, 1.0, zeta)
    assert abs(s * 1j * y + 1.0) < 2.0 * zeta.mean() / y


@pytest.mark.parametrize("c", [0.1, 1.0, 2.5])
def test_solver_sweep_residual_and_upper_half_plane(c):
    x = np.linspace(0.0, 1.15 * MPLaw(c=c, scale=1.0).support[1], 200)
    for z_alpha in (-1.5, 0.0, 1.5):
        for v in (1e-3, 1e-1):
            sol = solve_stieltjes_grid(x + 1j * v, c, 1.0, zeta_indicator(z_alpha))
            assert sol.max_residual <= 1e-10
            assert np.all(sol.values.imag > 0)


def test_solver_fallback_matches_closed_form_mp():
    # the cold Newton stalls near x = 0 on this grid; those points are
    # re-solved by Newton continued down from Im z = 0.1
    law = MPLaw(c=2.5, scale=1.0)
    z = np.linspace(-0.1, 2 * law.support[1], 400) + 1e-3j
    sol = solve_stieltjes_grid(z, 2.5, 1.0, ZetaDistribution.point_mass(1.0))
    assert sol.fallback_points >= 1
    assert sol.max_residual <= 1e-10
    assert np.max(np.abs(sol.values - law.stieltjes(z))) <= 1e-10


def test_solver_error_when_fallback_fails(monkeypatch):
    monkeypatch.setattr(laws, "NEWTON_STEPS", 0)
    with pytest.raises(laws.SolverError, match="not converged"):
        solve_stieltjes_grid(np.linspace(0.1, 2.0, 20) + 1e-3j, 0.4, 1.0,
                             zeta_indicator(0.0))


def test_solver_rejects_bad_arguments():
    zeta = zeta_indicator(0.0)
    with pytest.raises(ValueError):
        solve_nonsmooth_stieltjes(1.0 - 1.0j, 0.4, 1.0, zeta)
    with pytest.raises(ValueError):
        solve_nonsmooth_stieltjes(1.0 + 1.0j, -0.4, 1.0, zeta)


# ---------------------------------------------------------------------------
# inversion and CDF assembly
# ---------------------------------------------------------------------------

def test_invert_sc_transform():
    x = np.linspace(-1.9, 1.9, 300)
    f = stieltjes_invert(SCLaw(variance=1.0).stieltjes, x, 1e-3)
    ref = SCLaw(variance=1.0).density(x)
    assert np.max(np.abs(f - ref)) <= 2e-3


def test_invert_mp_transform():
    law = MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    x = np.linspace(a + 0.05, b - 0.05, 300)
    f = stieltjes_invert(law.stieltjes, x, 1e-3)
    # the Poisson smoothing error peaks near the square-root edges
    assert np.max(np.abs(f - law.density(x))) <= 1e-2


def test_invert_poisson_kernel():
    x = np.linspace(-2, 2, 101)
    v = 0.05
    f = stieltjes_invert(lambda z: -1.0 / z, x, v)
    assert np.allclose(f, v / (np.pi * (x**2 + v**2)), atol=1e-12)


def test_invert_rejects_negative_density():
    x = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(InversionQualityError):
        stieltjes_invert(lambda z: 1.0 / z, x, 0.05)
    with pytest.raises(ValueError):
        stieltjes_invert(lambda z: -1.0 / z, x, 0.0)


def test_generalized_cdf_sc_grid():
    x = np.linspace(-2.2, 2.2, 800)
    cdf = generalized_mp_cdf(x, SCLaw(variance=1.0).density(x))
    assert cdf(0.0) == pytest.approx(0.5, abs=5e-3)


def test_generalized_cdf_mp_grid():
    law = MPLaw(c=0.4, scale=1.0)
    a, b = law.support
    x = np.linspace(0.0, b + 0.1, 900)
    cdf = generalized_mp_cdf(x, law.density(x))
    assert cdf(b) == pytest.approx(1.0, abs=1e-2)
    assert cdf.mass_correction == pytest.approx(1.0, abs=0.03)


def test_genmp_law_point_mass_reproduces_mp():
    # zeta = delta_1 makes the fixed point the MP(c, sigma^2) equation
    mp = MPLaw(c=0.4, scale=1.0)
    a, b = mp.support
    x = np.linspace(0.0, 1.15 * b, 400)
    law = laws.GenMPLaw(0.4, 1.0, ZetaDistribution.point_mass(1.0), x)
    inner = (x > a + 0.05) & (x < b - 0.05)
    assert np.max(np.abs(law.density(x) - mp.density(x))[inner]) <= 1e-2
    assert np.max(np.abs(law.cdf(x) - mp_cdf(mp, x))) <= 5e-3
    assert law.solution.max_residual <= 1e-10
    assert np.array_equal(law.density(x), law.grid_density)
    assert law.density(-1.0) == 0.0 and law.density(2 * x[-1]) == 0.0


def test_generalized_cdf_pure_atom():
    x = np.linspace(-1.0, 1.0, 11)
    cdf = generalized_mp_cdf(x, np.zeros(11), atom_at_zero=1.0)
    assert cdf(-0.01) == 0.0
    assert cdf(0.0) == 1.0


def test_generalized_cdf_rejects_bad_mass():
    x = np.linspace(0.0, 1.0, 11)
    with pytest.raises(InversionQualityError):
        generalized_mp_cdf(x, np.full(11, 0.5))
    with pytest.raises(ValueError):
        generalized_mp_cdf(x, np.full(11, -1.0))


def test_generalized_cdf_renormalizes_any_mass_in_its_range():
    # outside [0.97, 1.03] but inside [0.9, 1.1]: renormalized, not rejected
    x = np.linspace(0.0, 1.0, 11)
    cdf = generalized_mp_cdf(x, np.full(11, 0.93))
    assert cdf.mass_correction == pytest.approx(1 / 0.93, rel=1e-12)
    assert cdf(1.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(InversionQualityError, match="0.8900"):
        generalized_mp_cdf(x, np.full(11, 0.89))


@pytest.mark.parametrize("c, atom", [(0.4, 0.0), (2.5, 0.6)])
def test_genmp_law_exact_atom_at_zero(c, atom):
    # all indicator atoms are positive, so the rank deficit is max(0, 1 - 1/c)
    x = np.linspace(0.0, 1.15 * MPLaw(c=c, scale=1.0).support[1], 400)
    law = laws.GenMPLaw(c, 1.0, zeta_indicator(0.5), x)
    assert law.atom_at_zero == pytest.approx(atom, abs=1e-12)
    mass = np.trapezoid(law.grid_density, x) + atom
    assert 0.99 <= mass <= 1.01
    assert law.cdf(-1e-12) == 0.0
    assert law.cdf(0.0) == pytest.approx(atom, abs=1e-2)


# The genMP law's numeric moments run above its closed forms by up to 2.92%
# (m3 at c = 0.4, z_alpha = -0.5; m1 +0.44%, m2 +1.15%): the inversion's
# smoothing at height 1e-3 on a 400-point grid that mostly lies off the
# support. The bound to tighten when the law is built on its exact support.
GENMP_MOMENT_GAP = 0.03


def test_law_moments_match_their_own_density():
    for law in (MPLaw(c=0.4), MPLaw(c=2.5, scale=1.3), SCLaw(variance=0.7)):
        a, b = law.support
        for k in (1, 2, 3):
            ref, _ = integrate.quad(lambda x: x**k * law.density(x), a, b, limit=200)
            assert law.moments(k) == pytest.approx(ref, rel=1e-10, abs=1e-12)
    for c in (0.4, 2.5):
        for z_alpha in (-0.5, 0.5, 1.5):
            law = laws.GenMPLaw(c, 1.0, zeta_indicator(z_alpha),
                                laws.law_grid(None, None, 400, c, 1.0))
            for k in (1, 2, 3):
                numeric = np.trapezoid(law.grid**k * law.grid_density, law.grid) \
                    * law.mass_correction
                assert numeric == pytest.approx(law.moments(k), rel=GENMP_MOMENT_GAP)
    with pytest.raises(KeyError):
        SCLaw(variance=1.0).moments(4)


def test_closed_form_laws_carry_no_solution_and_genmp_spans_its_grid():
    assert MPLaw(c=0.4).solution is None and SCLaw(variance=2.0).solution is None
    assert SCLaw(variance=2.0).support == (-2.0 * np.sqrt(2.0), 2.0 * np.sqrt(2.0))
    x = np.linspace(0.0, 3.0, 300)
    law = laws.GenMPLaw(0.4, 1.0, zeta_indicator(0.5), x)
    assert law.support == (0.0, 3.0) and law.table_grid(-5.0, 9.0) is law.grid
    assert law.solution.max_residual <= 1e-10
    assert law.cdf(3.0) == 1.0 and law.cdf(4.0) == 1.0


def test_mp_and_sc_transforms_share_the_upper_half_plane_check():
    for law in (MPLaw(c=0.4), SCLaw(variance=1.0)):
        with pytest.raises(ValueError, match="Im z > 0"):
            law.stieltjes(np.array([1.0 + 1.0j, 2.0]))


def test_genmp_law_rejects_bad_parameters():
    x = np.linspace(0.0, 3.0, 50)
    with pytest.raises(ValueError):
        laws.GenMPLaw(-0.4, 1.0, zeta_indicator(0.0), x)
    with pytest.raises(ValueError):
        laws.GenMPLaw(0.4, 0.0, zeta_indicator(0.0), x)
