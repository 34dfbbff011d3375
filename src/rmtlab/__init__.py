"""Numerical laboratory for spectra of kernel-truncated covariance matrices.

Builds seeded random ensembles (data matrices, geometric-graph degrees,
truncated covariance matrices), extracts empirical spectra, evaluates the
predicted limiting laws (Marchenko-Pastur, generalized Marchenko-Pastur via a
Stieltjes fixed point, semicircle), and compares simulation against theory.
"""

from .ensemble import (
    DataMatrix,
    KernelSpec,
    adjacency_stream,
    alpha_p,
    beta_p_sq,
    derive_seed,
    expected_mean_eigenvalue,
    indicator_radius_from_beta,
    indicator_radius_from_z_alpha,
    normalized_matrix_E,
    pair_kernel_moment,
    sample_data_matrix,
    truncated_covariance,
    xi_bar_matrix,
    xi_conditional,
    xi_prime,
    z_alpha_from_beta,
    z_alpha_from_radius,
)
from .spectra import (
    EmpiricalSpectrum,
    Histogram,
    esd,
    histogram,
    hoffman_wielandt_bound,
    ks_distance,
    symmetric_eigenvalues,
    wasserstein2,
)
from .laws import (
    DMoments,
    InversionQualityError,
    MPLaw,
    SCLaw,
    SolverError,
    StieltjesSolution,
    ZetaDistribution,
    d_moments,
    generalized_mp_cdf,
    mp_cdf,
    mp_density,
    mp_stieltjes,
    sc_cdf,
    sc_density,
    sc_stieltjes,
    solve_nonsmooth_stieltjes,
    solve_stieltjes_grid,
    stieltjes_invert,
    stieltjes_invert_refined,
    zeta_general,
    zeta_indicator,
)
from .harness import (
    ExperimentConfig,
    diagnostics_reductions,
    figure1,
    figure2,
    run_experiment,
    select_prediction,
    semicircle_experiment,
)

__version__ = "0.1.0"
