"""Reference implementations the tests compare the library against."""

import numpy as np


def pairwise_sqdist(X, Y=None):
    """Squared Euclidean distances between the columns of X and Y (default X)."""
    if Y is None:
        Y = X
    g = X.T @ Y
    nx = np.einsum("ij,ij->j", X, X)
    ny = np.einsum("ij,ij->j", Y, Y)
    sq = nx[:, None] + ny[None, :] - 2.0 * g
    np.maximum(sq, 0.0, out=sq)
    return sq


def kernel_matrix(K, X, Y=None):
    """Dense kernel matrix K(X_i, Y_j) for the columns of X and Y (default X)."""
    return K.eval_sqdist(pairwise_sqdist(X, Y))


def truncated_covariance_direct(X, K):
    """M = (1 / 2n^2) sum_{i,j} K(X_i, X_j) (X_i - X_j)(X_i - X_j)^T.

    Literal pair-sum accumulation; independent of the library's streamed
    Laplacian route.
    """
    if K.dimension != X.p:
        raise ValueError(f"kernel dimension {K.dimension} != data dimension {X.p}")
    W, p, n = X.entries, X.p, X.n
    M = np.zeros((p, p))
    if n == 1:
        return M
    A = kernel_matrix(K, W)
    for i in range(n):
        diffs = W - W[:, i:i + 1]  # p x n, column j = X_j - X_i
        M += (diffs * A[i]) @ diffs.T
    M /= 2.0 * n**2
    return 0.5 * (M + M.T)
