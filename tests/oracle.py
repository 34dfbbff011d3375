"""Reference implementations the tests compare the library against."""

import numpy as np


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
    A = K.gram(W)
    for i in range(n):
        diffs = W - W[:, i:i + 1]  # p x n, column j = X_j - X_i
        M += (diffs * A[i]) @ diffs.T
    M /= 2.0 * n**2
    return 0.5 * (M + M.T)
