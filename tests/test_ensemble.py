import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from rmtlab import ensemble as R
from oracle import kernel_matrix, pairwise_sqdist, truncated_covariance_direct
from rmtlab.ensemble import (
    KernelSpec,
    _kernel_moment_mc,
    covariance_and_stream,
    sample_data_matrix,
    truncated_covariance,
)


# ---------------------------------------------------------------------------
# sample_data_matrix
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic():
    a = sample_data_matrix(2, 2, "gaussian", 1.0, seed=42)
    b = sample_data_matrix(2, 2, "gaussian", 1.0, seed=42)
    assert np.array_equal(a.entries, b.entries)


def test_distinct_seeds_give_distinct_streams():
    a = sample_data_matrix(10, 10, "gaussian", 1.0, seed=1)
    b = sample_data_matrix(10, 10, "gaussian", 1.0, seed=2)
    assert not np.array_equal(a.entries, b.entries)


def test_entries_are_centered():
    X = sample_data_matrix(200, 500, "gaussian", 1.0, seed=3)
    assert abs(X.entries.mean()) < 4.0 / np.sqrt(200 * 500)


def test_rademacher_variance():
    X = sample_data_matrix(1000, 1000, "rademacher", 1.0, seed=4)
    v = X.entries.var()
    assert 0.99 <= v <= 1.01


def test_uniform_centered_matches_sigma():
    X = sample_data_matrix(500, 500, "uniform_centered", 2.0, seed=5)
    assert abs(X.entries.mean()) < 0.05
    assert abs(X.entries.var() - 4.0) < 0.1


@pytest.mark.parametrize("kwargs", [
    dict(p=0, n=5), dict(p=5, n=0), dict(p=5, n=5, sigma=0.0),
    dict(p=5, n=5, entry_law="cauchy"), dict(p=5, n=5, sigma=np.inf),
])
def test_sampling_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        sample_data_matrix(**{"entry_law": "gaussian", "sigma": 1.0,
                              "seed": 0, **kwargs})


def test_derive_seed_reproducible_and_distinct():
    s = [R.derive_seed(7, t) for t in range(50)]
    assert s == [R.derive_seed(7, t) for t in range(50)]
    assert len(set(s)) == 50


# ---------------------------------------------------------------------------
# kernels and the adjacency stream
# ---------------------------------------------------------------------------

def test_constant_kernel_graph_n3():
    X = sample_data_matrix(4, 3, seed=0)
    deg, xaxt = covariance_and_stream(X, KernelSpec(variant="constant", dimension=4))[1:]
    W = X.entries
    assert np.array_equal(deg, np.full(3, 2.0))
    assert np.allclose(xaxt, W @ (np.ones((3, 3)) - np.eye(3)) @ W.T)


def test_zero_radius_gives_empty_graph():
    X = sample_data_matrix(5, 6, seed=1)
    K = KernelSpec(variant="indicator", dimension=5, radius=0.0)
    deg, xaxt = covariance_and_stream(X, K)[1:]
    assert not deg.any()
    assert not xaxt.any()
    assert not truncated_covariance(X, K).any()


def test_laplacian_identities():
    X = sample_data_matrix(6, 4, seed=2)
    K = KernelSpec(variant="gaussian", dimension=6, tau=1.0)
    deg, _ = covariance_and_stream(X, K)[1:]
    A = kernel_matrix(K, X.entries)
    np.fill_diagonal(A, 0.0)
    assert np.allclose(deg, A.sum(axis=1), rtol=1e-12, atol=1e-14)
    M = truncated_covariance(X, K)
    assert np.linalg.eigvalsh(M).min() >= -1e-10 * np.linalg.norm(M)


def test_graph_dimension_mismatch():
    X = sample_data_matrix(5, 6, seed=1)
    K = KernelSpec(variant="constant", dimension=4)
    with pytest.raises(ValueError):
        covariance_and_stream(X, K)
    with pytest.raises(ValueError):
        truncated_covariance(X, K)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(variant="indicator", dimension=3)
    with pytest.raises(ValueError):
        KernelSpec(variant="gaussian", dimension=3, tau=0.0)
    with pytest.raises(ValueError):
        KernelSpec(variant="custom", dimension=3)
    with pytest.raises(ValueError):
        KernelSpec(variant="triangle", dimension=3)


def test_custom_profile_must_stay_in_unit_interval():
    K = KernelSpec(variant="custom", dimension=3, profile=lambda sq: 2.0 * sq)
    with pytest.raises(ValueError):
        K.eval_sqdist(np.array([1.0]))


def test_pairwise_sqdist_matches_loops():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 5))
    sq = pairwise_sqdist(X)
    for i in range(5):
        for j in range(5):
            assert sq[i, j] == pytest.approx(
                np.sum((X[:, i] - X[:, j]) ** 2), abs=1e-12)


def test_radius_parametrizations_are_inverse():
    for beta in (-0.1, 0.1, 0.3):
        r = R.indicator_radius_from_beta(beta, 1.0, 200)
        za = R.z_alpha_from_radius(r, 1.0, 200)
        assert za == pytest.approx(R.z_alpha_from_beta(beta, 200), abs=1e-10)
        assert R.indicator_radius_from_z_alpha(za, 1.0, 200) == pytest.approx(r)


# ---------------------------------------------------------------------------
# truncated covariance
# ---------------------------------------------------------------------------

def test_constant_kernel_is_centered_sample_covariance():
    X = sample_data_matrix(8, 30, seed=3)
    M = truncated_covariance(X, KernelSpec(variant="constant", dimension=8))
    W = X.entries
    centered = W - W.mean(axis=1, keepdims=True)
    S = centered @ centered.T / 30
    assert np.allclose(M, S, rtol=1e-12, atol=1e-14)


def test_single_sample_gives_zero():
    X = sample_data_matrix(4, 1, seed=0)
    M = truncated_covariance(X, KernelSpec(variant="constant", dimension=4))
    assert not M.any()


def test_direct_matches_brute_force_double_sum():
    X = sample_data_matrix(3, 4, seed=9)
    K = KernelSpec(variant="indicator", dimension=3, radius=2.0)
    W = X.entries
    M_ref = np.zeros((3, 3))
    for i in range(4):
        for j in range(4):
            diff = W[:, i] - W[:, j]
            k = 1.0 if np.sum(diff**2) <= 4.0 else 0.0
            M_ref += k * np.outer(diff, diff)
    M_ref /= 2.0 * 16
    M = truncated_covariance_direct(X, K)
    assert np.allclose(M, M_ref, rtol=1e-12, atol=1e-15)


KERNELS = {
    "constant": {},
    "indicator": {"radius": 9.0},
    "gaussian": {"tau": 0.8},
    "custom": {"profile": lambda sq: 1.0 / (1.0 + sq / 50.0)},
    # 1 at every distance, as the constant kernel: M by the same closed form
    "infinite_radius": {"variant": "indicator", "radius": np.inf},
}


def _kernel(name, p):
    return KernelSpec(**{"variant": name, **KERNELS[name]}, dimension=p)


@pytest.mark.parametrize("variant", sorted(KERNELS))
@pytest.mark.parametrize("n,block", [
    (100, 2048),  # one tile
    (100, 25),    # 13-wide tiles on the workers, a 9-wide last one
    (100, 64),    # 32-wide tiles, a 4-wide last one
    (1, 2048),
])
def test_streamed_equals_pair_sum(variant, n, block):
    X = sample_data_matrix(50, n, seed=11)
    K = _kernel(variant, 50)
    M1 = truncated_covariance_direct(X, K)
    M2 = truncated_covariance(X, K, block=block)
    assert np.linalg.norm(M1 - M2) <= 1e-10 * max(np.linalg.norm(M1), 1e-30)


@pytest.mark.parametrize("variant", ["custom", "gaussian", "indicator"])
def test_stream_over_many_row_chunks_equals_pair_sum(variant):
    # n = 2100 walks each tile in many row chunks: with block 2048 two
    # 1024-wide tiles and a 52-wide ragged one per row, with block 700 six
    # 350-wide tiles whose chunks do not divide 350
    X = sample_data_matrix(40, 2100, seed=21)
    K = _kernel(variant, 40)
    M1 = truncated_covariance_direct(X, K)
    A = kernel_matrix(K, X.entries)
    np.fill_diagonal(A, 0.0)
    for block in (2048, 700):
        M2 = truncated_covariance(X, K, block=block)
        assert np.linalg.norm(M1 - M2) <= 1e-10 * np.linalg.norm(M1)
        if variant == "indicator":
            deg, _ = covariance_and_stream(X, K, block=block)[1:]
            assert np.array_equal(deg, A.sum(axis=1))


@pytest.mark.parametrize("block", [2048, 700])
def test_stream_checks_custom_profile_in_every_chunk(block):
    # the profile leaves [0, 1] only at the largest squared distances, which
    # lie in some later chunk of some tile
    X = sample_data_matrix(40, 2100, seed=21)
    top = 0.999 * pairwise_sqdist(X.entries).max()
    K = KernelSpec(variant="custom", dimension=40,
                   profile=lambda sq: np.where(sq > top, 1.5, 0.5))
    with pytest.raises(ValueError, match="left"):
        covariance_and_stream(X, K, block=block)


@pytest.mark.parametrize("variant", sorted(KERNELS))
@pytest.mark.parametrize("block", [1024, 700, 64])
def test_stream_xaxt_is_exactly_symmetric(variant, block):
    # W A W^T = S + S^T from the row panels; n = 2100 gives a ragged last
    # tile at 1024 and 64 (512 and 32 wide), six equal ones at 700
    X = sample_data_matrix(20, 2100, seed=5)
    K = _kernel(variant, 20)
    _, xaxt = covariance_and_stream(X, K, block=block)[1:]
    assert np.array_equal(xaxt, xaxt.T)


@pytest.mark.parametrize("block", [0, -1])
def test_stream_rejects_block_below_one(block):
    X = sample_data_matrix(5, 6, seed=1)
    K = KernelSpec(variant="constant", dimension=5)
    with pytest.raises(ValueError, match="block"):
        covariance_and_stream(X, K, block=block)
    with pytest.raises(ValueError, match="block"):
        truncated_covariance(X, K, block=block)


def _integer_pairs_on_the_radius(p=36, bases=500, c=1000, seed=3):
    # integer entries in [-2^11, 2^11]: float32 sums of their products round,
    # float64 and int64 ones are exact. Each base column has a partner at
    # base + c sigma with sigma a sign vector, exactly at distance
    # r = sqrt(p) c = 6000 (p = 36), so many pairs lie on the radius. Also
    # returns a random order of the 2 * bases columns
    rng = np.random.default_rng(seed)
    base = rng.integers(-1024, 1025, size=(p, bases))
    partner = base + c * rng.choice([-1, 1], size=(p, bases))
    return base, partner, np.sqrt(p) * c, rng.permutation(2 * bases)


def _integer_data_on_the_radius():
    # base and partner columns in random order, so that pairs on the radius
    # fall into every tile
    base, partner, radius, order = _integer_pairs_on_the_radius()
    return np.concatenate([base, partner], axis=1)[:, order], radius


def _exact_indicator_stream(W, radius):
    sqn = (W * W).sum(axis=0)
    sq = sqn[:, None] + sqn[None, :] - 2 * (W.T @ W)
    A = (sq <= radius**2).astype(np.int64)
    np.fill_diagonal(A, 0)
    return sq, A.sum(axis=1), W @ A @ W.T


@pytest.mark.parametrize("block", [2048, 700, 64])
def test_indicator_stream_is_exact_on_integer_data(block):
    # the float32 margins of pairs on or near the radius round, so only a
    # rigorous band with the float64 re-decision gives the exact graph
    W, radius = _integer_data_on_the_radius()
    sq, deg, xaxt = _exact_indicator_stream(W, radius)
    assert (sq == radius**2).sum() >= 1000  # the 500 partner pairs, both ways
    p, n = W.shape
    X = R.DataMatrix(W.astype(float), p, n, "integer", 1.0, 0)
    K = KernelSpec(variant="indicator", dimension=p, radius=radius)
    got_deg, got_xaxt = covariance_and_stream(X, K, block=block)[1:]
    assert np.array_equal(got_deg, deg)
    assert np.array_equal(got_xaxt, xaxt)


@pytest.mark.parametrize("k", [-60, 0, 60])
def test_indicator_degrees_do_not_move_under_power_of_two_scaling(k):
    W, radius = _integer_data_on_the_radius()
    _, deg, _ = _exact_indicator_stream(W, radius)
    p, n = W.shape
    X = R.DataMatrix(np.ldexp(W.astype(float), k), p, n, "integer", 1.0, 0)
    K = KernelSpec(variant="indicator", dimension=p, radius=np.ldexp(radius, k))
    assert np.array_equal(covariance_and_stream(X, K, block=700)[1], deg)


def _exact_indicator_means(W, V, radius):
    sq = (W * W).sum(axis=0)[:, None] + (V * V).sum(axis=0) - 2 * (W.T @ V)
    return sq, (sq <= radius**2).sum(axis=1) / V.shape[1]


@pytest.mark.parametrize("block", [2048, 700, 64])
def test_indicator_xi_is_exact_on_integer_data(block):
    # the rows are all 1000 columns, the columns of V the 500 partners, so
    # every base row has its partner exactly on the radius; the tiles are
    # 1024 wide at block 2048, one tile, and 350 and 32 wide at 700 and 64,
    # which split the rows and V
    _, partner, radius, _ = _integer_pairs_on_the_radius()
    W, _ = _integer_data_on_the_radius()
    sq, xi = _exact_indicator_means(W, partner, radius)
    assert (sq == radius**2).sum() >= 500
    K = KernelSpec(variant="indicator", dimension=W.shape[0], radius=radius)
    got = R._kernel_row_means(W.astype(float), partner.astype(float), K, block=block)
    assert np.array_equal(got, xi)


@pytest.mark.parametrize("block", [2048, 700, 64])
@pytest.mark.parametrize("data", ["integer", "gaussian"])
def test_indicator_xi_of_the_data_itself_is_the_streams_degrees(data, block):
    # V = W: both walks take the same tile rule, so the X-vs-V walk decides
    # every pair as the stream does, its diagonal's 1s included
    if data == "integer":
        W, radius = _integer_data_on_the_radius()
        W = W.astype(float)
    else:
        W = sample_data_matrix(30, 1500, seed=4).entries
        radius = R.indicator_radius_from_z_alpha(0.0, 1.0, 30)
    p, n = W.shape
    K = KernelSpec(variant="indicator", dimension=p, radius=radius)
    deg = covariance_and_stream(R.DataMatrix(W, p, n, data, 1.0, 0), K, block)[1]
    assert np.array_equal(R._kernel_row_means(W, W, K, block=block), (deg + 1) / n)


@pytest.mark.parametrize("k", [-60, 0, 60])
def test_indicator_xi_does_not_move_under_power_of_two_scaling(k):
    _, partner, radius, _ = _integer_pairs_on_the_radius()
    W, _ = _integer_data_on_the_radius()
    _, xi = _exact_indicator_means(W, partner, radius)
    K = KernelSpec(variant="indicator", dimension=W.shape[0],
                   radius=np.ldexp(radius, k))
    got = R._kernel_row_means(np.ldexp(W.astype(float), k),
                              np.ldexp(partner.astype(float), k), K, block=700)
    assert np.array_equal(got, xi)


@pytest.mark.parametrize("n", [50, 1500], ids=["one_tile", "tiles"])
def test_infinite_radius_indicator_is_the_constant_kernel(n):
    # 1 everywhere: both kernels take the closed form (`_is_one`), so the
    # float32 margins of an infinite radius, not finite, are never formed
    X = sample_data_matrix(20, n, seed=3)
    K = KernelSpec(variant="indicator", dimension=20, radius=np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = covariance_and_stream(X, K)
        xi = R.xi_conditional(X, K)
    want = covariance_and_stream(X, KernelSpec(variant="constant", dimension=20))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(xi, np.ones(n))


@pytest.mark.parametrize("block", [2048, 700, 64])
def test_gaussian_xi_matches_dense_kernel_matrix(block):
    # every block sums each row over several tiles of V (2,000 columns)
    X = sample_data_matrix(30, 900, seed=8)
    K = KernelSpec(variant="gaussian", dimension=30, tau=1.0)
    V = R.draw_entries(R.rng_from_seed(5, stream=(0xD1A6,)), "gaussian", 1.0,
                       (30, 2000))
    dense = kernel_matrix(K, X.entries, V).mean(axis=1)
    got = R._kernel_row_means(X.entries, V, K, block=block)
    assert np.allclose(got, dense, rtol=0.0, atol=1e-12)
    if block == 2048:
        assert np.allclose(R.xi_conditional(X, K, 2000, seed=5), dense,
                           rtol=0.0, atol=1e-12)


def test_xi_memory_stays_below_the_kernel_matrix():
    # the dense route held the n x m distance matrix; the tiles are at most
    # block x block, with the indicator's float32 operands inside that budget
    X = sample_data_matrix(20, 2000, seed=1)
    V = sample_data_matrix(20, 2000, seed=2).entries
    for K in (KernelSpec(variant="gaussian", dimension=20, tau=1.0),
              KernelSpec(variant="indicator", dimension=20, radius=6.0)):
        tracemalloc.start()
        try:
            R._kernel_row_means(X.entries, V, K, block=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 8, K.variant


def test_stream_memory_stays_below_one_column_block():
    # the tiles are block x block: the traced peak must stay below a single
    # n x block array, which any route over column blocks of A would need;
    # the indicator's float32 operands and gathers stay inside that budget
    X = sample_data_matrix(20, 4000, seed=1)
    for K in (KernelSpec(variant="gaussian", dimension=20, tau=1.0),
              KernelSpec(variant="indicator", dimension=20, radius=6.0)):
        tracemalloc.start()
        try:
            truncated_covariance(X, K, block=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 256 * 8, K.variant


def test_default_stream_memory_is_one_512_tile_per_worker():
    # every stream walks 512 x 512 tiles at the default block; n > 1024, so
    # each of the workers holds a tile, its float32 operands and two
    # 512 x p panels. The bound is that of one 1024 x 1024 float64 tile
    # (8.4 MB), its operands and two 1024 x p panels on one thread
    X = sample_data_matrix(100, 5000, seed=1)
    K = KernelSpec(variant="indicator", dimension=100,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, 100))
    tracemalloc.start()
    try:
        truncated_covariance(X, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


_HASH_STREAMS = """
X = R.sample_data_matrix(60, 2500, seed=3)
kernels = (R.KernelSpec(variant="constant", dimension=60),
           R.KernelSpec(variant="indicator", dimension=60,
                        radius=R.indicator_radius_from_z_alpha(0.0, 1.0, 60)),
           R.KernelSpec(variant="gaussian", dimension=60, tau=1.0))
out = {K.variant: [digest(a) for a in R.covariance_and_stream(X, K)] for K in kernels}
cfg = harness.ExperimentConfig(regime="semi_high_dim", p=60, n=2500, trials=2,
                               kernel_variant="indicator", kernel_z_alpha=0.0)
report = harness.run_experiment(cfg, write_artifacts=False)
out["run"] = digest(report["pooled_spectrum"].eigenvalues)
hashes["multi_tile"] = out
"""

_HASH_SMALL_STREAMS = """
out = {}
for p, n in ((200, 500), (400, 1000)):
    X = R.sample_data_matrix(p, n, seed=3)
    for K in (R.KernelSpec(variant="constant", dimension=p),
              R.KernelSpec(variant="indicator", dimension=p,
                           radius=R.indicator_radius_from_z_alpha(0.0, 1.0, p)),
              R.KernelSpec(variant="gaussian", dimension=p, tau=1.0)):
        stream = R.covariance_and_stream(X, K)
        out[f"{p}x{n}_{K.variant}"] = [digest(a) for a in stream]
    xi = R.xi_conditional(X, K, seed=3)  # K: the gaussian kernel
    out[f"{p}x{n}_xi"] = [digest(xi), digest(R.xi_bar_matrix(X, xi))]
out["400x1000_eig"] = digest(S.symmetric_eigenvalues(stream[0]))  # the gaussian's M
hashes["small"] = out
"""


def _hashes_at_one_and_two_blas_threads(script):
    src = str(Path(R.__file__).resolve().parents[1])
    return [json.loads(subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}).stdout)
        for threads in ("1", "2")]


@pytest.fixture(scope="module")
def blas_thread_hashes():
    # every hash case in one child process per BLAS thread count, which
    # imports rmtlab once
    return _hashes_at_one_and_two_blas_threads(
        "import hashlib, json\n"
        "from rmtlab import ensemble as R, harness, spectra as S\n"
        "digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()\n"
        "hashes = {}\n" + _HASH_STREAMS + _HASH_SMALL_STREAMS + "print(json.dumps(hashes))\n")


def test_multi_tile_stream_is_the_same_at_any_blas_thread_count(blas_thread_hashes):
    # n > block: the row blocks run on as many workers as BLAS had threads,
    # with BLAS on one thread and the sums taken in row-block order, so M,
    # deg and W A W^T hash alike under 1 and 2 BLAS threads; the constant
    # kernel's closed form and a trial's eigensolve run under the same pin
    one, two = (h["multi_tile"] for h in blas_thread_hashes)
    assert one == two


def test_stream_of_at_most_block_columns_is_the_same_at_any_blas_thread_count(
        blas_thread_hashes):
    # n <= block: a direct call runs on the calling thread with BLAS on one
    # thread, so its M, deg and W A W^T hash alike under 1 and 2 BLAS
    # threads (on the caller's BLAS threads they did not), the constant
    # kernel's closed form too; so do the gaussian kernel's xi and Mbar,
    # which at 400 x 1000 also differed, and a direct eigensolve of its
    # 400 x 400 M, which differed too
    one, two = (h["small"] for h in blas_thread_hashes)
    assert len(one) == 9 and one == two


def _blas_threads():
    blas = R._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
    return blas[0]()


def test_stream_restores_the_blas_thread_count_on_success_and_error():
    before = _blas_threads()
    X = sample_data_matrix(40, 2100, seed=21)
    covariance_and_stream(X, KernelSpec(variant="indicator", dimension=40, radius=8.0),
                          block=700)
    assert _blas_threads() == before
    # the profile leaves [0, 1] at the largest distances, inside a worker
    top = 0.999 * pairwise_sqdist(X.entries).max()
    K = KernelSpec(variant="custom", dimension=40,
                   profile=lambda sq: np.where(sq > top, 1.5, 0.5))
    with pytest.raises(ValueError, match="left"):
        covariance_and_stream(X, K, block=700)
    assert _blas_threads() == before


def test_concurrent_streams_on_more_workers_than_cores_keep_their_bits():
    # four streams at once, each on four workers (the thread count on entry
    # of the first one), with a short switch interval: the pin is restored
    # and every stream gives the bits of a stream on the default workers
    before = _blas_threads()
    put = R._openblas_threads()[1]
    X = sample_data_matrix(30, 1500, seed=4)
    K = KernelSpec(variant="gaussian", dimension=30, tau=1.0)
    one = covariance_and_stream(X, K, block=128)
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        put(4)
        with ThreadPoolExecutor(4) as pool:
            runs = list(pool.map(lambda _: covariance_and_stream(X, K, block=128), range(4)))
        after = _blas_threads()
    finally:
        put(before)
        sys.setswitchinterval(switch)
    assert after == 4
    for run in runs:
        assert all(np.array_equal(a, b) for a, b in zip(run, one))


def test_nested_pins_keep_the_saved_thread_count():
    before = _blas_threads()
    with R._pool():
        assert (R._pinned["threads"], _blas_threads()) == (before, 1)
        with R._pool():
            assert R._pinned["threads"] == before
        assert _blas_threads() == 1
    assert _blas_threads() == before


def test_stream_runs_on_the_caller_or_on_pinned_workers_by_n():
    # BLAS on one thread throughout: n <= block, the one tile on the calling
    # thread; n > block, every tile on a worker of a two-worker pool, or on
    # the calling thread when BLAS had one thread; the count is restored
    before = _blas_threads()
    get, put = R._openblas_threads()
    seen = []

    def profile(sq):
        seen.append((threading.current_thread(), get()))
        return np.exp(-sq / 80.0)

    def threads_seen(n, blas):
        seen.clear()
        put(blas)
        try:
            covariance_and_stream(sample_data_matrix(20, n, seed=5), K, block=300)
            assert get() == blas
        finally:
            put(before)
        assert seen
        return {(t is threading.current_thread(), count) for t, count in seen}

    K = KernelSpec(variant="custom", dimension=20, profile=profile)
    assert threads_seen(300, 2) == {(True, 1)}
    assert threads_seen(301, 2) == {(False, 1)}
    assert threads_seen(301, 1) == {(True, 1)}


def test_pooled_walk_yields_in_item_order_when_a_later_item_finishes_first():
    before = _blas_threads()
    put = R._openblas_threads()[1]
    released, finished = threading.Event(), []

    def fn(state, item):
        if item == 0:
            assert released.wait(10)  # item 0 waits until item 1 is done
        finished.append(item)
        if item == 1:
            released.set()
        return item

    try:
        put(2)  # two workers
        with R._pool() as workers:
            got = list(workers(fn, object, range(3)))
    finally:
        put(before)
    # the worker that ran item 1 may take and finish item 2 before item 0
    # wakes, so only the order of items 1 and 0 is fixed
    assert finished.index(1) < finished.index(0) and got == [0, 1, 2]


def test_pool_error_in_the_body_cancels_the_tasks_not_started():
    # the caller fails while two workers each hold their first item: the
    # other items never run, and the pin is lifted after the two finish
    before = _blas_threads()
    put = R._openblas_threads()[1]
    ran = []

    def fn(state, item):
        ran.append(item)
        time.sleep(0.2)
        return item

    try:
        put(2)
        with pytest.raises(RuntimeError, match="caller"):
            with R._pool() as workers:
                workers(fn, object, range(20))
                raise RuntimeError("caller failed")
        after = _blas_threads()
    finally:
        put(before)
    assert after == 2
    assert len(ran) <= 2


def test_symmetric_indicator_tiles_share_their_vectors():
    # V is W: one set of shifted squared norms and norms, not two
    W = sample_data_matrix(10, 50, seed=2).entries
    sqn = np.einsum("ij,ij->j", W, W)
    t = R._IndicatorTiles(W, W, sqn, sqn, 20.0, 16)
    assert t.b is t.a and t.normv is t.norm


def test_covariance_memory_stays_below_a_p_by_n_array():
    # W diag(deg) W^T is formed a block of output rows at a time, so no
    # p x n temporary such as W * deg is held
    X = sample_data_matrix(40, 8000, seed=1)
    for K in (KernelSpec(variant="gaussian", dimension=40, tau=1.0),
              KernelSpec(variant="indicator", dimension=40, radius=9.0)):
        tracemalloc.start()
        try:
            truncated_covariance(X, K, block=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 8000 * 8, K.variant


@pytest.mark.parametrize("p,n,block,count", [
    (37, 600, 32, 18), (37, 600, 2, 18), (5, 500, 16, 2), (2, 10**6, 2, 1),
    (400, 20000, 2048, 2), (400, 20000, 1024, 8), (200, 500, 2048, 1),
    (400, 1000, 2048, 1)])
def test_row_blocks_are_near_equal_and_never_one_row(p, n, block, count):
    blocks = R._row_blocks(p, n, block)
    assert len(blocks) == count
    assert blocks[0][0] == 0 and blocks[-1][1] == p
    assert all(s == r for (_, s), (r, _) in zip(blocks, blocks[1:]))
    heights = [s - r for r, s in blocks]
    assert min(heights) >= 2 and max(heights) - min(heights) <= 1


@pytest.mark.parametrize("block", [2048, 32, 2])
def test_weighted_gram_is_exact_on_integer_data(block):
    # integer products and sums stay below 2^53, so every summation order
    # gives the exact value: the row blocks must cover all of it; p = 37 is
    # split raggedly (block 32 and 2 give 18 blocks of 2 or 3 rows)
    rng = np.random.default_rng(4)
    W = rng.integers(-1024, 1025, size=(37, 600))
    v = rng.integers(0, 600, size=600)
    got = R._weighted_gram(W.astype(float), v.astype(float), block)
    assert np.array_equal(got, (W * v) @ W.T)


def test_weighted_gram_row_blocks_agree_with_one_gemm():
    X = sample_data_matrix(37, 3000, seed=9)
    v = np.random.default_rng(9).uniform(0.0, 3000.0, 3000)
    one = (X.entries * v) @ X.entries.T
    got = R._weighted_gram(X.entries, v, block=64)
    assert len(R._row_blocks(37, 3000, 64)) > 1
    assert np.linalg.norm(got - one) <= 1e-13 * np.linalg.norm(one)


def test_m_is_positive_semidefinite():
    X = sample_data_matrix(30, 80, seed=13)
    K = KernelSpec(variant="gaussian", dimension=30, tau=1.0)
    M = truncated_covariance(X, K)
    ev = np.linalg.eigvalsh(M)
    assert ev.min() >= -1e-8 * np.abs(ev).max()


def test_constant_kernel_scaling_covariance():
    X = sample_data_matrix(10, 25, seed=14)
    K = KernelSpec(variant="constant", dimension=10)
    ev1 = np.linalg.eigvalsh(truncated_covariance(X, K))
    from dataclasses import replace
    X3 = replace(X, entries=3.0 * X.entries)
    ev3 = np.linalg.eigvalsh(truncated_covariance(X3, K))
    assert np.allclose(ev3, 9.0 * ev1, rtol=1e-10, atol=1e-12)


def test_constant_kernel_rank_bound():
    X = sample_data_matrix(40, 10, seed=15)
    K = KernelSpec(variant="constant", dimension=40)
    ev = np.linalg.eigvalsh(truncated_covariance(X, K))
    # rank <= n - 1 because the column mean is projected out
    assert np.sum(ev > 1e-10 * ev.max()) <= 9


# ---------------------------------------------------------------------------
# kernel moments
# ---------------------------------------------------------------------------

def test_alpha_constant_kernel():
    assert R.alpha_p(KernelSpec(variant="constant", dimension=7)) == 1.0


def test_alpha_gaussian_closed_form():
    K = KernelSpec(variant="gaussian", dimension=200, tau=1.0)
    val = R.alpha_p(K, sigma=1.0)
    assert val == pytest.approx(1.0 - (1.0 + 2.0 / 200) ** (-100), abs=1e-12)
    mc, se = _kernel_moment_mc(K, "gaussian", 1.0, 10**5, 0)
    assert abs(val - mc) <= 3.0 * se


def test_alpha_indicator_tends_to_half():
    p = 2000
    K = KernelSpec(variant="indicator", dimension=p,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, p))
    assert abs(R.alpha_p(K, sigma=1.0) - 0.5) < 0.02


def test_alpha_monte_carlo_path():
    K = KernelSpec(variant="indicator", dimension=30,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, 30))
    closed = R.alpha_p(K, sigma=1.0)
    mc, se = _kernel_moment_mc(K, "uniform_centered", 1.0, 4 * 10**4, 1)
    # different entry law, but the CLT distance distribution is close at p=30
    assert abs(mc - closed) < 0.05
    assert se > 0


def test_pair_moment_constant():
    assert R.pair_kernel_moment(KernelSpec(variant="constant", dimension=3)) == 1.0


def test_pair_moment_indicator_limit():
    from rmtlab import laws
    p = 1500
    K = KernelSpec(variant="indicator", dimension=p,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, p))
    val = R.pair_kernel_moment(K, sigma=1.0)
    assert abs(val - laws.zeta_indicator(0.0).moment(2)) < 0.01


def test_pair_moment_closed_forms_match_monte_carlo():
    for K in (KernelSpec(variant="indicator", dimension=40,
                         radius=R.indicator_radius_from_z_alpha(0.3, 1.0, 40)),
              KernelSpec(variant="gaussian", dimension=40, tau=0.9)):
        closed = R.pair_kernel_moment(K, sigma=1.0)
        prof = K.eval_sqdist
        K_mc = KernelSpec(variant="custom", dimension=40, profile=prof)
        mc = R.pair_kernel_moment(K_mc, sigma=1.0, mc_samples=2 * 10**5, seed=3)
        assert abs(closed - mc) < 0.01


_CHI_GRID = [(p, z) for p in (1, 3, 5, 20, 100, 400, 3200) for z in (-1.0, 0.0, 1.0)]


def _indicator(p, z_alpha, sigma=1.0):
    return KernelSpec(variant="indicator", dimension=p,
                      radius=R.indicator_radius_from_z_alpha(z_alpha, sigma, p))


@pytest.mark.parametrize("p, z_alpha", _CHI_GRID)
def test_chi_rule_gives_the_closed_form_mean_of_xi(p, z_alpha):
    # E xi(Q) = P(||X1 - X2||^2 <= r^2) = chdtr(p, r^2 / 2 sigma^2), alpha_p's
    # closed form
    from scipy import special
    K = _indicator(p, z_alpha)
    mean = R._chi_mean(lambda q: special.chndtr(K.radius**2, p, q), p)
    assert abs(mean - R.alpha_p(K)) <= 1e-12


@pytest.mark.parametrize("p, z_alpha", _CHI_GRID)
def test_indicator_pair_moment_matches_adaptive_quadrature_in_r(p, z_alpha):
    # the reference integrates xi^2 against the chi(p) density of r = ||X1||
    # adaptively, to a tolerance far below the bound: in r the density is
    # smooth at 0 for every p, where the chi-square density of q = r^2 is not
    # for small p
    from scipy import integrate, special
    K = _indicator(p, z_alpha)
    log_norm = special.gammaln(p / 2) + (p / 2 - 1) * np.log(2.0)

    def f(r):
        dens = np.exp(special.xlogy(p - 1, r) - r * r / 2 - log_norm)
        return dens * special.chndtr(K.radius**2, p, r * r) ** 2

    s = np.sqrt(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        ref, _ = integrate.quad(f, max(0.0, s - 12.0), s + 12.0, points=[s],
                                epsabs=1e-16, epsrel=1e-14, limit=200)
    assert abs(R.pair_kernel_moment(K) - ref) <= 1e-12


@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 3, 20, 400])
@pytest.mark.parametrize("sigma", [1.0, 1.7])
def test_chi_kernel_mean_is_the_chi_square_weighted_kernel_mean(sigma, p, j):
    # E[K(2 sigma^2 Q) Q^j] / (p (p + 2)...(p + 2j - 2)) with Q ~ chi-square(p)
    # is the rule at k = p + 2j: alpha_p at j = 0, the mean eigenvalue's at
    # j = 1 and the second moment's at j = 2. The reference integrates in
    # r = sqrt(Q) adaptively, cut at the indicator's radius
    from scipy import integrate, special
    log_norm = (special.gammaln(p / 2) + (p / 2 - 1) * np.log(2.0)
                + sum(np.log(p + 2.0 * i) for i in range(j)))
    s, k = np.sqrt(p), p + 2 * j
    lo, hi = max(0.0, np.sqrt(k) - 12.0), np.sqrt(k) + 12.0
    for K in (_indicator(p, -1.0, sigma), _indicator(p, 0.5, sigma),
              KernelSpec(variant="gaussian", dimension=p, tau=0.7)):
        def f(r):
            dens = np.exp(special.xlogy(p - 1 + 2 * j, r) - r * r / 2 - log_norm)
            return dens * K.eval_sqdist(2.0 * sigma**2 * r * r)

        top = min(hi, K.radius / (np.sqrt(2.0) * sigma)) if K.radius is not None else hi
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            ref, _ = integrate.quad(f, min(lo, top), top,
                                    points=[x for x in (s, np.sqrt(k)) if lo < x < top],
                                    epsabs=1e-16, epsrel=1e-14, limit=200)
        assert abs(R._chi_kernel_mean(K, sigma, k) - ref) <= 1e-12


def test_expected_mean_eigenvalue_closed_forms():
    n = 400
    assert R.expected_mean_eigenvalue(
        KernelSpec(variant="constant", dimension=30), 1.0, n=n) \
        == pytest.approx((n - 1) / n)
    K = KernelSpec(variant="indicator", dimension=60,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, 60))
    closed = R.expected_mean_eigenvalue(K, 1.0, n=n)
    K_mc = KernelSpec(variant="custom", dimension=60, profile=K.eval_sqdist)
    mc = R.expected_mean_eigenvalue(K_mc, 1.0, n=n, mc_samples=2 * 10**5, seed=4)
    assert closed == pytest.approx(mc, rel=0.02)


def test_expected_mean_eigenvalue_matches_simulation():
    p, n = 100, 300
    K = KernelSpec(variant="indicator", dimension=p,
                   radius=R.indicator_radius_from_beta(0.1, 1.0, p))
    predicted = R.expected_mean_eigenvalue(K, 1.0, n=n)
    means = []
    for seed in range(12):
        X = sample_data_matrix(p, n, seed=seed)
        means.append(np.trace(truncated_covariance(X, K)) / p)
    se = np.std(means, ddof=1) / np.sqrt(len(means))
    assert abs(np.mean(means) - predicted) <= 4.0 * se


@pytest.mark.parametrize("moment", [R.pair_kernel_moment,
                                    lambda K, **kw: R.expected_mean_eigenvalue(K, n=50, **kw)],
                         ids=["pair_kernel_moment", "expected_mean_eigenvalue"])
def test_monte_carlo_moments_reject_zero_samples(moment):
    K = KernelSpec(variant="custom", dimension=5, profile=lambda t: np.exp(-t / 10.0))
    with pytest.raises(ValueError, match="mc_samples"):
        moment(K, mc_samples=0)


# Seeded Monte Carlo fallbacks, recorded from the chunked loops they replaced:
# (entry_law, p, mc_samples) -> (alpha_p and its stderr, pair moment, mean
# eigenvalue at n = 200), custom profile exp(-t/2p), seed 11. The p = 4000
# case spans two chunks (2500 + 100 samples).
MC_PINS = {
    ("gaussian", 30, 5000): (
        0.38063599555712785, 0.0013127185284051563, 0.14578748418567516,
        0.3546621544147169),
    ("rademacher", 30, 5000): (
        0.37407089196336185, 0.0009619263122262259, 0.1387340578227229,
        0.35979954254149715),
    ("uniform_centered", 30, 5000): (
        0.3756738734295342, 0.0011205405344753203, 0.14210222792400629,
        0.3574161107402823),
    ("gaussian", 4000, 2600): (
        0.3679383397983434, 0.00016042086781399554, 0.13543020891540497,
        0.3659491833041309),
}


@pytest.mark.parametrize("entry_law, p, mc_samples", list(MC_PINS))
def test_monte_carlo_moments_are_pinned(entry_law, p, mc_samples):
    K = KernelSpec(variant="custom", dimension=p, profile=lambda t: np.exp(-t / (2.0 * p)))
    kw = dict(entry_law=entry_law, mc_samples=mc_samples, seed=11)
    got = (*_kernel_moment_mc(K, entry_law, 1.0, mc_samples, 11),
           R.pair_kernel_moment(K, 1.0, **kw),
           R.expected_mean_eigenvalue(K, 1.0, n=200, **kw))
    assert all(type(v) is float for v in got)
    assert got == MC_PINS[(entry_law, p, mc_samples)]
    assert R.alpha_p(K, 1.0, **kw) == got[0]


# ---------------------------------------------------------------------------
# semi-high-dimensional centering and reduction diagnostics
# ---------------------------------------------------------------------------

def test_normalized_E_constant_kernel_formula():
    # the constant kernel's M is the centered sample covariance S, so the
    # semi_high_dim spectrum is that of E = sqrt(n/p) (S - I)
    from rmtlab.harness import ExperimentConfig, run_experiment
    cfg = ExperimentConfig(regime="semi_high_dim", p=20, n=50, trials=1,
                           master_seed=16, kernel_variant="constant")
    lam = run_experiment(cfg, write_artifacts=False)["pooled_spectrum"].eigenvalues
    W = sample_data_matrix(20, 50, seed=R.derive_seed(16, 0)).entries
    centered = W - W.mean(axis=1, keepdims=True)
    ref = np.sqrt(50 / 20) * (centered @ centered.T / 50 - np.eye(20))
    assert np.allclose(lam, np.linalg.eigvalsh(ref), rtol=1e-10, atol=1e-12)


def test_xi_conditional_constant_kernel():
    X = sample_data_matrix(8, 12, seed=18)
    K = KernelSpec(variant="constant", dimension=8)
    xi = R.xi_conditional(X, K, mc_conditional=200, seed=0)
    assert np.array_equal(xi, np.ones(12))
    Mbar = R.xi_bar_matrix(X, xi)
    assert np.allclose(Mbar, X.entries @ X.entries.T / 12)
    deg, _ = R.covariance_and_stream(X, K)[1:]
    assert np.allclose(R.xi_prime(deg, xi), 0.0, atol=1e-12)


def test_xi_conditional_rejects_tiny_sample():
    X = sample_data_matrix(4, 5, seed=0)
    with pytest.raises(ValueError):
        R.xi_conditional(X, KernelSpec(variant="constant", dimension=4),
                         mc_conditional=10)


def test_xi_conditional_rejects_kernel_of_another_dimension():
    X = sample_data_matrix(20, 30, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        R.xi_conditional(X, KernelSpec(variant="gaussian", dimension=7, tau=1.0))


def test_w2_gap_shrinks_with_size():
    from rmtlab import spectra
    gaps = []
    for p, n in ((50, 100), (200, 400)):
        vals = []
        for seed in range(8):
            K = KernelSpec(variant="indicator", dimension=p,
                           radius=R.indicator_radius_from_z_alpha(0.0, 1.0, p))
            X = sample_data_matrix(p, n, seed=seed)
            M = truncated_covariance(X, K)
            Mbar = R.xi_bar_matrix(X, R.xi_conditional(X, K, mc_conditional=1500,
                                                       seed=seed))
            vals.append(spectra.wasserstein2(
                spectra.esd(np.linalg.eigvalsh(M)),
                spectra.esd(np.linalg.eigvalsh(Mbar))))
        gaps.append(np.mean(vals))
    assert gaps[1] < gaps[0]


def test_xi_prime_scaling_in_n():
    p = 60
    K = KernelSpec(variant="indicator", dimension=p,
                   radius=R.indicator_radius_from_z_alpha(0.0, 1.0, p))
    maxima = []
    for n in (200, 800, 3200):
        X = sample_data_matrix(p, n, seed=20)
        deg, _ = R.covariance_and_stream(X, K)[1:]
        xp = R.xi_prime(deg, R.xi_conditional(X, K, mc_conditional=4000, seed=20))
        maxima.append(np.max(np.abs(xp)) / n)
    # decreases roughly like sqrt(log n / n)
    assert maxima[2] < maxima[1] < maxima[0]
    assert maxima[2] < maxima[0] * np.sqrt(np.log(3200) / 3200
                                           / (np.log(200) / 200)) * 3.0
