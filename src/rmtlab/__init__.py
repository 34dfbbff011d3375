"""Numerical laboratory for spectra of kernel-truncated covariance matrices.

Builds seeded random ensembles (data matrices, geometric-graph degrees,
truncated covariance matrices), extracts empirical spectra, evaluates the
predicted limiting laws (Marchenko-Pastur, generalized Marchenko-Pastur via a
Stieltjes fixed point, semicircle), and compares simulation against theory.
"""

__version__ = "0.1.0"
