# Seeded construction of the random objects under study: data matrices,
# kernel adjacency degrees, and the truncated covariance matrices whose
# spectra the rest of the library analyses.

import contextlib
import functools
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

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
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
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
            if self.radius is None or not self.radius >= 0:
                raise ValueError(f"indicator kernel needs radius >= 0, got {self.radius}")
        if self.variant == "gaussian":
            if self.tau is None or not 0 < self.tau < np.inf:
                raise ValueError(f"gaussian kernel needs finite tau > 0, got {self.tau}")
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


def indicator_radius_from_beta(beta, sigma, p):
    """Figure-style radius r(beta) = sqrt((2 + beta) sigma^2 p)."""
    if not beta >= -2:
        raise ValueError(f"r(beta) needs beta >= -2, got {beta}")
    return float(np.sqrt((2.0 + beta) * sigma**2 * p))


def z_alpha_from_beta(beta, p):
    """Convert the r(beta) parametrization to the z_alpha one."""
    return float(beta * np.sqrt(p) / (2.0 * np.sqrt(2.0)))


def z_alpha_from_radius(radius, sigma, p):
    """Invert r^2 = (2p + 2 sqrt(2p) z_alpha) sigma^2 for z_alpha."""
    return float((radius**2 / sigma**2 - 2.0 * p) / (2.0 * np.sqrt(2.0 * p)))


def indicator_radius_from_z_alpha(z_alpha, sigma, p):
    if np.isnan(z_alpha):
        raise ValueError("z_alpha must be a number, got nan")
    r2 = (2.0 * p + 2.0 * np.sqrt(2.0 * p) * z_alpha) * sigma**2
    if r2 < 0:
        return 0.0
    return float(np.sqrt(r2))


# ---------------------------------------------------------------------------
# Kernel adjacency stream and truncated covariance
# ---------------------------------------------------------------------------

# bytes of tile rows turned into kernel values at a time, small enough that
# they stay in cache between the elementwise passes (on the float64 path of a
# 400 x 20000 stream 128-512 KB time alike, 64 KB and 1 MB are slower; the
# indicator's float32 passes time alike from 128 KB to 1 MB)
_CHUNK_BYTES = 256 * 1024

# indicator pairs decided again in float64 per gather of their columns; the
# two p x 1024 gathers are no larger than the float32 operands of a
# 1024-wide tile (a 512-wide tile holds about 100 such pairs at 400 x 20000)
_REDECIDE_BATCH = 1024

_U32 = 2.0**-24  # unit roundoff of float32

# the default block: a stream of more than BLOCK columns runs on `_pool()`'s
# workers, one of at most BLOCK on the calling thread; every walk's tiles are
# `_side(BLOCK)` = 512 wide
BLOCK = 1024

# OpenBLAS thread count pinned by `_pool`: the pools inside, and the count on
# the first one's entry, restored when the last one leaves. It is module
# state because OpenBLAS has one thread count per process
_PIN = threading.Lock()
_pinned = {"callers": 0, "threads": 1}


@functools.cache
def _openblas_threads():
    """The getter and setter of the thread count of the OpenBLAS that numpy
    loaded (a scipy-openblas build), or None for any other BLAS."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _serial(fn, make, items):
    """fn(state, item) for each of the items, in order, on the caller's thread
    and one state made by make()."""
    return map(functools.partial(fn, make()), items)


@contextlib.contextmanager
def _pool(most=None):
    """Gives workers(fn, make, items), which runs fn(state, item) for each of
    the items on as many worker threads as OpenBLAS had threads on entry, or
    on `most` if that is fewer (at least one), and yields the results in
    item order, with OpenBLAS on one thread until the last pool inside, on
    any thread, leaves (on error too). A pool of one worker (`most` = 1,
    OpenBLAS on one thread, or no OpenBLAS setter, which pins nothing) is
    `_serial`, on the calling thread as its results are read. An error in
    the `with` body cancels the tasks not yet started; those running finish
    before the pin is lifted. Each task borrows one of up to that many
    states, all made by make() on the calling thread first: made on the
    workers, their buffers left the peak RSS of a 400 x 20000 stream 1-7 MB
    higher, and varying.
    """
    blas = _openblas_threads()
    with _PIN:
        if blas and not _pinned["callers"]:
            _pinned["threads"] = blas[0]()
            blas[1](1)
        _pinned["callers"] += 1
        threads = _pinned["threads"] if most is None \
            else max(1, min(most, _pinned["threads"]))

    def workers(fn, make, items):
        states = queue.SimpleQueue()
        for _ in range(min(threads, len(items))):
            states.put(make())

        def task(item):
            state = states.get()
            try:
                return fn(state, item)
            finally:
                states.put(state)

        return pool.map(task, items)

    pool = ThreadPoolExecutor(threads) if threads > 1 else None
    try:
        yield workers if pool else _serial
    except BaseException:
        if pool:
            pool.shutdown(cancel_futures=True)  # tasks not yet started never run
        raise
    finally:
        if pool:
            pool.shutdown()
        with _PIN:
            _pinned["callers"] -= 1
            if blas and not _pinned["callers"]:
                blas[1](_pinned["threads"])


def _is_one(K: KernelSpec):
    """K is 1 at every distance: the constant kernel, or an infinite-radius indicator."""
    return K.variant == "constant" or (K.variant == "indicator" and K.radius == np.inf)


def _side(block):
    """The side, ceil(block / 2), of the tiles of every walk of a kernel
    matrix: the stream's for any n, and the conditional means'."""
    return -(-block // 2)


def _stream(X: DataMatrix, K: KernelSpec, block, workers):
    """Degrees deg = A 1 and W A W^T of the adjacency A_ij = K(X_i, X_j)
    (zero diagonal) without materialising A: (deg, W A W^T).

    A is symmetric, so only its upper-triangular tiles (I, J), J >= I, are
    formed, each once. Row block I sums its tiles into one panel V_I =
    A_II W_I^T / 2 + sum_{J > I} A_IJ W_J^T, and W A W^T = S + S^T, S =
    sum_I W_I V_I: one p x p GEMM per row block, not per tile, and exactly
    symmetric. A smooth kernel's tile is its float64 Gram block turned into
    kernel values a cache-sized chunk of rows at a time. An indicator tile is
    one float32 GEMM of the margins |x_i - x_j|^2 - r^2, each pair decided by
    the sign of its margin except the pairs within the GEMM's rounding bound
    of 0, which are decided again in float64 (`_IndicatorTiles`). A is then
    the float64 Gram's, except possibly at a pair whose float64 margin lies
    within float64 rounding of 0. Every kernel's tile then has its degrees
    and zero diagonal taken in one place (`_Tiles.row_block`).

    The tiles are ceil(block / 2) wide (`_side`), one for n up to that. Each
    row block is one item of `workers` (`_pool`'s), which returns its degree
    contributions and W_I V_I; these are added into deg and S in row-block
    order. Each task borrows one of the workers' sets of tile, operands and
    panels (`_Tiles`), and BLAS runs on one thread, so every bit is the same
    for any number of workers or BLAS threads. Memory beyond X: O(p^2 + p
    block + block^2) per worker.
    """
    W, n = X.entries, X.n
    sqn = np.einsum("ij,ij->j", W, W)
    side = _side(block)
    # on the workers: _Tiles calls no public function, whose tracer spans
    # would share one stack across threads
    blocks = workers(_Tiles.row_block, lambda: _Tiles(W, K, sqn, side),
                     range(0, n, side))
    deg, S = next(blocks)
    for d, P in blocks:
        deg += d
        S += P
    return deg, np.add(S, S.T, out=S)


class _Tiles:
    """A set of buffers for the stream's row blocks of `side` rows, used by
    one row block at a time: the panel V_I, when a row holds more than one
    tile a second side x p buffer that takes each tile's product before it
    is added to V_I, and the tile rule's own buffer (`_tile_rule`). A tile is
    formed by that rule; its degrees and zero diagonal are taken by
    `row_block` alone."""

    def __init__(self, W, K, sqn, side):
        p, n = W.shape
        self.W, self.side = W, side
        # the panels below the tile buffer in the heap: above it, the freed
        # panel left a hole that raised the diagnostics' peak RSS by 1-3 MB
        self.panel = np.empty((min(side, n), p))
        self.tmp = np.empty_like(self.panel) if n > side else None
        self.tile = _tile_rule(W, W, K, sqn, sqn, side)

    def row_block(self, lo):
        """Row block I from column lo: the degrees its tiles add to each of
        the n columns, and W_I V_I."""
        W, side = self.W, self.side
        n = W.shape[1]
        hi = min(lo + side, n)
        deg = np.zeros(n)
        V = self.panel[:hi - lo]
        for lo2 in range(lo, n, side):
            hi2 = min(lo2 + side, n)
            A = self.tile(lo, hi, lo2, hi2)
            if lo2 == lo:  # its column sums: exactly its row sums for 0/1 tiles
                np.fill_diagonal(A, 0.0)
                deg[lo:hi] += A.sum(axis=0)
                np.matmul(A, W[:, lo:hi].T, out=V)
                V *= 0.5  # exact: (A_II / 2) W_I^T
            else:
                deg[lo:hi] += A.sum(axis=1)
                deg[lo2:hi2] += A.sum(axis=0)
                np.matmul(A, W[:, lo2:hi2].T, out=self.tmp[:hi - lo])
                V += self.tmp[:hi - lo]
        return deg, W[:, lo:hi] @ V


def _tile_rule(W, V, K, sqn, sqv, side):
    """tile(lo, hi, lo2, hi2): the float64 kernel values K(w_i, v_j) of the
    columns lo:hi of W against lo2:hi2 of V, at most side x side, in one
    buffer that the next call overwrites. An indicator's tiles are decided by
    `_IndicatorTiles`, every other kernel's by `_kernel_tile`."""
    if K.variant == "indicator":
        return _IndicatorTiles(W, V, sqn, sqv, K.radius**2, side).fill
    buf = np.empty(min(side, W.shape[1]) * min(side, V.shape[1]))

    def tile(lo, hi, lo2, hi2):
        A = buf[:(hi - lo) * (hi2 - lo2)].reshape(hi - lo, hi2 - lo2)
        _kernel_tile(K, A, W[:, lo:hi], V[:, lo2:hi2], sqn[lo:hi], sqv[lo2:hi2])
        return A

    return tile


def _kernel_tile(K, A, Wi, Vj, sqn_i, sqn_j):
    """Kernel values K(w_i, v_j) into A: the float64 Gram block Wi^T Vj,
    turned into kernel values a cache-sized chunk of rows at a time."""
    np.matmul(Wi.T, Vj, out=A)
    rows = max(1, _CHUNK_BYTES // A[0].nbytes)
    for r in range(0, len(A), rows):
        s = A[r:r + rows]
        # -2 g is exact, so s rounds as (sqn_i + sqn_j) - 2 g
        s *= -2.0
        s += np.add.outer(sqn_i[r:r + len(s)], sqn_j)
        np.maximum(s, 0.0, out=s)
        s[...] = K.eval_sqdist(s)


class _IndicatorTiles:
    """Indicator tiles A_ij = 1((-2 g_ij) + (sqn_i + sqn_j) <= r^2) of the
    columns w_i of W against the columns v_j of V (V is W on the symmetric
    stream), the float64 formula of the smooth kernels' tiles, decided by a
    float32 GEMM.

    With a = sqn - r^2 / 2 on each side, the rows L_i = [-2 w_i, a_i, 1] and
    the columns R_j = [v_j, 1, a_j] multiply to the margin m_ij = sqn_i +
    sqn_j - 2 g_ij - r^2, so one GEMM with inner dimension p + 2 gives a
    tile's margins. W, V and r are first scaled by the power of two that puts
    max(sqn, r^2) over both sides in [1/4, 1), so float32 cannot overflow. By
    the inner-product bound (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1) and the float32 rounding of the
    operands, the computed margins of tile (I, J) lie within
        band = (gamma_{p+2} + 3 u)(1 + u)
               (2 max_I |w_i| max_J |v_j| + max_I |a_i| + max_J |a_j|)
    of the exact ones (u = 2^-24, p + 2 < 2^23), with a slack of about u
    times the bracket that covers the float64 rounding of the formula; an
    absolute term covers float32 underflow. A pair with |m| > band thus
    gets the formula's value from the sign of m. Every other pair is decided
    again by the formula, with g_ij from its own two columns.

    Both walks take the float64 0/1 tiles of `fill`, whose upper half holds
    the margins. A diagonal tile of the symmetric stream is exactly
    symmetric: a pair outside the band takes the sign of its exact margin,
    one inside it the formula, both symmetric in i and j. The radius must be
    finite: an infinite one, 1 everywhere, is never walked (`_is_one`).
    """

    def __init__(self, W, V, sqn, sqv, r2, block):
        p = W.shape[0]
        self.W, self.V, self.sqn, self.sqv, self.r2, self.lo = W, V, sqn, sqv, r2, None
        self.scale = 2.0 ** -((int(np.frexp(max(sqn.max(), sqv.max(), r2))[1]) + 1) // 2)
        # exact: 2^k; the symmetric stream shares W's vectors with V's
        self.a, self.norm = (sqn - r2 / 2) * self.scale**2, np.sqrt(sqn) * self.scale
        self.b, self.normv = (self.a, self.norm) if V is W else (
            (sqv - r2 / 2) * self.scale**2, np.sqrt(sqv) * self.scale)
        self.coef = ((p + 2) * _U32 / (1 - (p + 2) * _U32) + 3 * _U32) * (1 + _U32)
        self.tiny = (p + 2) * 2.0**-146  # subnormal casts and products
        # the float64 tile, then the float32 operands L and R
        h, w = min(block, W.shape[1]), min(block, V.shape[1])
        self.buf = np.empty(h * w + ((h + w) * (p + 2) + 1) // 2)
        ops = self.buf[h * w:].view(np.float32)
        self.L, self.R = ops[:h * (p + 2)], ops[h * (p + 2):]

    def fill(self, lo, hi, lo2, hi2):
        """Tile (I, J) as float64 0/1 values, its diagonal's 1s included, in
        the object's buffer."""
        W, V, a, b = self.W, self.V, self.a, self.b
        (h, w), p = (hi - lo, hi2 - lo2), W.shape[0]
        A = self.buf[:h * w].reshape(h, w)
        # the float32 margins fill the upper half of A's bytes, so writing a
        # chunk's float64 rows overwrites only margins already read
        m = A.reshape(-1).view(np.float32)[h * w:].reshape(h, w)
        L = self.L[:h * (p + 2)].reshape(h, p + 2)
        if lo != self.lo:
            self.lo = lo
            np.multiply(W[:, lo:hi].T, -2.0 * self.scale, out=L[:, :p],
                        casting="same_kind")
            L[:, p] = a[lo:hi]
            L[:, p + 1] = 1.0
        R = self.R[:(p + 2) * w].reshape(p + 2, w)
        np.multiply(V[:, lo2:hi2], self.scale, out=R[:p], casting="same_kind")
        R[p] = 1.0
        R[p + 1] = b[lo2:hi2]
        np.matmul(L, R, out=m)
        band = self.coef * (2.0 * self.norm[lo:hi].max() * self.normv[lo2:hi2].max()
                            + np.abs(a[lo:hi]).max() + np.abs(b[lo2:hi2]).max())
        band = np.nextafter(np.float32(band + self.tiny), np.float32(np.inf))
        # per cache-sized chunk of rows: a pair at most -band is 1 for sure,
        # one above band 0; those within the band are decided again below
        rows = max(1, _CHUNK_BYTES // (8 * w))
        below, near = np.empty((2, min(rows, h), w), bool)
        found = []
        for r in range(0, h, rows):
            c = min(rows, h - r)
            np.less_equal(m[r:r + c], -band, out=below[:c])
            np.less_equal(m[r:r + c], band, out=near[:c])
            near[:c] ^= below[:c]
            found.append(np.flatnonzero(near[:c]) + r * w)
            A[r:r + c] = below[:c]
        found = np.concatenate(found)
        for s in range(0, len(found), _REDECIDE_BATCH):
            t = found[s:s + _REDECIDE_BATCH]
            i, j = lo + t // w, lo2 + t % w
            g = np.einsum("ij,ij->j", W.take(i, axis=1), V.take(j, axis=1))
            A.reshape(-1)[t] = -2.0 * g + (self.sqn[i] + self.sqv[j]) <= self.r2
        return A


def truncated_covariance(X: DataMatrix, K: KernelSpec, block=BLOCK):
    """M = X L X^T / n^2 = (W diag(deg) W^T - W A W^T) / n^2 with
    L = diag(deg) - A, equal to the pair sum
    (1 / 2n^2) sum_{i,j} K(X_i, X_j) (X_i - X_j)(X_i - X_j)^T.

    deg and W A W^T come from the stream's row panels (`_stream`); W diag(deg)
    W^T is formed one GEMM per block of output rows (`_weighted_gram`): no
    p x n temporary. Memory beyond X is O(p^2 + p block + block^2): one
    512 x 512 tile at the default block and its panels per worker during
    the stream, then one block of output rows per worker.
    """
    return covariance_and_stream(X, K, block)[0]


def covariance_and_stream(X: DataMatrix, K: KernelSpec, block=BLOCK):
    """`truncated_covariance` M with the degrees and W A W^T of the
    stream (`_stream`) it is formed from: (M, deg, W A W^T). Both the
    stream and W diag(deg) W^T run on one `_pool()` with BLAS on one
    thread: on the calling thread for n <= block, else on as many workers
    as BLAS had threads, so every bit is the same at any BLAS thread count.
    W diag(deg) W^T's buffers are made after the stream's are freed. A kernel
    that is 1 at every distance (`_is_one`) streams nothing: M is then the
    centred sample covariance ((n - 1) G - W A W^T) / n^2, with G = W W^T."""
    if K.dimension != X.p:
        raise ValueError(f"kernel dimension {K.dimension} != data dimension {X.p}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if _is_one(K):  # L = n I - 1 1^T: deg = n - 1 and W A W^T = s s^T - G
        with _pool(1):
            G, s = X.entries @ X.entries.T, X.entries.sum(axis=1)
        deg, xaxt, M = np.full(X.n, X.n - 1.0), np.outer(s, s) - G, (X.n - 1.0) * G
    else:
        with _pool(1 if X.n <= block else None) as workers:
            deg, xaxt = _stream(X, K, block, workers)
            M = _weighted_gram(X.entries, deg, block, workers)
    M -= xaxt
    M /= X.n**2
    return 0.5 * (M + M.T), deg, xaxt


def _row_blocks(p, n, block):
    """Near-equal blocks of the p output rows of W diag(v) W^T, each of at
    least 2 rows, so that a block's k x n product W[rows] * v stays within
    a block x block tile where it can; one block when p n does."""
    k = max(1, min(-(-p * n // block**2), p // 2))
    edges = [i * p // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _weighted_gram(W, v, block=BLOCK, workers=_serial):
    """W diag(v) W^T, one GEMM (W[rows] * v) W^T per block of output rows.
    Each block is one item of `workers` (`_pool`'s, or `_serial` on the
    caller's BLAS threads), which writes its own rows of the result, its
    product W[rows] * v in one of the workers' buffers.

    A blocked BLAS GEMM sums each output entry over the inner dimension in
    an order that does not depend on how many rows it is asked for (Goto
    and van de Geijn, ACM TOMS 2008), so the row blocks give the single
    GEMM's bits on that path; a 1-row block would go to gemv, and a small
    product to a small-matrix kernel, which sum in other orders.
    """
    p, n = W.shape
    out = np.empty((p, p))
    blocks = _row_blocks(p, n, block)
    height = max(s - r for r, s in blocks)

    def rows(buf, edges):  # on a worker: calls no public function
        r, s = edges
        Wv = buf[:(s - r) * n].reshape(s - r, n)
        np.multiply(W[r:s], v, out=Wv)
        np.matmul(Wv, W.T, out=out[r:s])

    for _ in workers(rows, lambda: np.empty(height * n), blocks):
        pass
    return out


# ---------------------------------------------------------------------------
# Kernel moments alpha_p = E K(X1, X2) and E K(X1, X2) K(X1, X3)
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


def _kernel_moment_mc(K, entry_law, sigma, mc_samples, seed):
    """Monte-Carlo mean and standard error of K(X1, X2)."""
    total, total_sq = _mc_sums(
        lambda x1, x2: K.eval_sqdist(_sqnorm_diff(x1, x2)), 2,
        rng_from_seed(seed), entry_law, sigma, K.dimension, mc_samples)
    mean = total / mc_samples
    var = max(total_sq / mc_samples - mean**2, 0.0)
    se = np.sqrt(var / mc_samples)
    return float(mean), float(se)


def _chi_mean(f, p):
    """E f(Q) for Q ~ chi-square(p): 64-point Gauss-Legendre (Golub and Welsch, 1969) in
    r = sqrt(q) on sqrt(p) -+ 9 cut at 0, where the chi(p) density is smooth, of sd < 0.71."""
    x, w = np.polynomial.legendre.leggauss(64)
    lo, hi = max(0.0, np.sqrt(p) - 9.0), np.sqrt(p) + 9.0
    r = lo + (hi - lo) * (x + 1.0) / 2.0
    log_dens = ((p - 1) * np.log(r) - r**2 / 2 - (p / 2 - 1) * np.log(2.0)
                - special.gammaln(p / 2))
    return float((hi - lo) / 2.0 * np.dot(w, np.exp(log_dens) * f(r**2)))


def _chi_kernel_mean(K: KernelSpec, sigma, k):
    """E K at squared distance 2 sigma^2 Q, Q ~ chi-square(k), for a built-in
    kernel: the chi-square CDF for the indicator, its MGF for the gaussian one.
    Gaussian entries give ||X1 - X2||^2 = 2 sigma^2 Q at k = p."""
    if K.variant == "constant":
        return 1.0
    if K.variant == "indicator":
        return float(special.chdtr(k, K.radius**2 / (2.0 * sigma**2)))
    return 1.0 - (1.0 + 2.0 * sigma**2 / (K.dimension * K.tau**2)) ** (-k / 2.0)


def alpha_p(K: KernelSpec, sigma=1.0, entry_law="gaussian", mc_samples=10**5, seed=0):
    """E K(X1, X2): `_chi_kernel_mean` at k = p for the constant kernel and,
    with Gaussian entries, the other built-in ones; else Monte Carlo."""
    if K.variant == "constant" or (K.variant != "custom" and entry_law == "gaussian"):
        return _chi_kernel_mean(K, sigma, K.dimension)
    return _kernel_moment_mc(K, entry_law, sigma, mc_samples, seed)[0]


def pair_kernel_moment(K: KernelSpec, sigma=1.0, entry_law="gaussian",
                       mc_samples=10**5, seed=0):
    """E K(X1, X2) K(X1, X3) = E xi^2, the second moment of the conditional
    mean xi = E[K(X1, V) | X1].

    For Gaussian entries the indicator case is E xi(Q)^2 over Q = ||X1||^2 /
    sigma^2 ~ chi-square(p) by `_chi_mean` (given X1, ||X1 - V||^2 / sigma^2
    is noncentral chi-square) and the gaussian-kernel case is closed form via
    exponential moments. Other combinations fall back to Monte Carlo.
    """
    p = K.dimension
    if K.variant == "constant":
        return 1.0
    if K.variant == "indicator" and entry_law == "gaussian":
        return _chi_mean(lambda q: special.chndtr(K.radius**2 / sigma**2, p, q) ** 2, p)
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


def expected_mean_eigenvalue(K: KernelSpec, sigma=1.0, n=None,
                             entry_law="gaussian", mc_samples=10**5, seed=0):
    """Exact mean eigenvalue of M: E tr M / p = ((n-1)/(2 n p)) E[K(X1,X2) d12]
    with d12 = ||X1 - X2||^2.

    For Gaussian entries d12 = 2 sigma^2 Q, Q ~ chi-square(p), and E[K Q] =
    p E K under chi-square(p + 2): the mean is (n-1)/n sigma^2 `_chi_kernel_mean`
    at k = p + 2, the constant kernel's at any entry law; else Monte Carlo.
    """
    p = K.dimension
    if n is None or n < 2:
        raise ValueError("expected_mean_eigenvalue needs the sample size n >= 2")
    pref = (n - 1.0) / n
    if K.variant == "constant" or (K.variant != "custom" and entry_law == "gaussian"):
        return float(pref * sigma**2 * _chi_kernel_mean(K, sigma, p + 2))
    def kernel_times_sqdist(x1, x2):
        sq = _sqnorm_diff(x1, x2)
        return K.eval_sqdist(sq) * sq

    total, _ = _mc_sums(kernel_times_sqdist, 2, rng_from_seed(seed, stream=(0x7ACE,)),
                        entry_law, sigma, p, mc_samples)
    return float(pref * total / (2.0 * p * mc_samples))


# ---------------------------------------------------------------------------
# Reduction diagnostics
# ---------------------------------------------------------------------------

def xi_conditional(X: DataMatrix, K: KernelSpec, mc_conditional=2000, seed=0):
    """xi_i = E[K(X_i, V) | X_i] estimated by the row means (1/m) sum_j
    K(X_i, v_j) over m = mc_conditional fresh draws v_j of V.

    The X-vs-V kernel matrix is walked in the stream's tiles, formed by its
    tile rule (`_tile_rule`), so no n x m array is formed: memory beyond X and
    V is O(p (n + m) + block^2). An indicator's 0/1 tiles are decided as in
    `_stream`, so their row sums are exact integers and give the float64
    Gram's means.
    """
    if K.dimension != X.p:
        raise ValueError(f"kernel dimension {K.dimension} != data dimension {X.p}")
    if mc_conditional < 100:
        raise ValueError("mc_conditional must be >= 100")
    if _is_one(K):  # no V drawn: it has its own substream
        return np.ones(X.n)
    rng = rng_from_seed(seed, stream=(0xD1A6,))
    V = draw_entries(rng, X.entry_law, X.sigma, (X.p, mc_conditional))
    with _pool(1):
        return _kernel_row_means(X.entries, V, K)


def _kernel_row_means(W, V, K, block=BLOCK):
    """(1/m) sum_j K(w_i, v_j) for the columns w_i of W and v_j of V, from
    the stream's tiles (`_tile_rule`); a row within one tile is summed whole,
    as by mean."""
    (n, m), side = (W.shape[1], V.shape[1]), _side(block)
    sqn, sqv = (np.einsum("ij,ij->j", U, U) for U in (W, V))
    tile = _tile_rule(W, V, K, sqn, sqv, side)
    total = np.zeros(n)
    for lo in range(0, n, side):
        hi = min(lo + side, n)
        for lo2 in range(0, m, side):
            total[lo:hi] += tile(lo, hi, lo2, min(lo2 + side, m)).sum(axis=1)
    return total / m


def xi_bar_matrix(X: DataMatrix, xi):
    """Mbar = (1/n) sum_i xi_i X_i X_i^T, the reduced matrix of the diagnostics."""
    with _pool(1) as workers:
        Mbar = _weighted_gram(X.entries, xi, BLOCK, workers) / X.n
    return 0.5 * (Mbar + Mbar.T)


def xi_prime(deg, xi):
    """xi'_i = sum_{j != i} (K(X_i, X_j) - xi_i) = deg_i - (n - 1) xi_i, from
    the degrees of `covariance_and_stream` and the means of `xi_conditional`."""
    return deg - (len(deg) - 1) * xi
