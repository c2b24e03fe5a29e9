"""Deterministic low-level numerics: scrambled Sobol' streams, Gaussian qMC
draws via Box-Muller, the special functions used by the probability and
smoothing formulas, the row blocking that bounds the memory of large
batches, and the thread pool that maps independent candidates over the
process's CPUs.

All functions here are pure; :class:`SobolStream` is the only stateful object
(a mutable cursor into a fixed low-discrepancy sequence), apart from the
pool and the OpenBLAS handles, which are built on first use.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import warnings
from concurrent.futures import wait
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy
from scipy import special
from scipy.stats import qmc

MAX_SOBOL_DIM = 64

TWO_PI = 2.0 * np.pi

# float64 elements per temporary when a large batch is processed in blocks
# of rows (512 KiB), so peak memory does not grow with the batch and a
# block's temporaries stay in one core's L2 cache.
ELEMENT_BUDGET = 2**16


class SobolStream:
    """A cursor into a (optionally Owen-scrambled) Sobol' sequence.

    Uses the Joe-Kuo direction numbers (via scipy). With the same
    ``(dimension, scramble_seed)`` the emitted sequence is identical across
    runs, regardless of how requests are batched.

    Single-writer: ``take`` and ``skip`` advance one cursor, so a consumer
    that needs its own position opens its own stream and ``skip``s to it.
    """

    def __init__(self, dimension: int, scramble_seed: int | None = None):
        if dimension < 1 or dimension > MAX_SOBOL_DIM:
            raise ValueError(
                f"Sobol dimension must be in [1, {MAX_SOBOL_DIM}], got {dimension}"
            )
        self.dimension = dimension
        self.scramble_seed = scramble_seed
        if scramble_seed is None:
            self._engine = qmc.Sobol(dimension, scramble=False)
        else:
            self._engine = qmc.Sobol(
                dimension, scramble=True, rng=np.random.default_rng(scramble_seed)
            )

    def skip(self, count: int) -> "SobolStream":
        """Advance the cursor by ``count`` points without drawing them; the
        points taken next are those ``take`` would have returned after them."""
        if count:
            self._engine.fast_forward(count)
        return self

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` points, shape (count, dimension), in [0, 1)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        with warnings.catch_warnings():
            # scipy warns when count is not a power of two; balance is the
            # caller's concern here.
            warnings.simplefilter("ignore", UserWarning)
            return self._engine.random(count)


def check_sizes(counts: dict, qmc=()):
    """Raise ValueError unless every ``{name: count}`` is at least 1 and the
    counts named in ``qmc``, the sizes of qMC sets, are powers of two: a
    Sobol' set is balanced only at a power-of-two size."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    for name in qmc:
        if counts[name] & (counts[name] - 1):
            raise ValueError(f"{name} must be a power of two, got {counts[name]}")


def box_muller(uniforms: np.ndarray) -> np.ndarray:
    """Trigonometric Box-Muller on consecutive coordinate pairs.

    ``uniforms`` has shape (n, 2m); the result has shape (n, 2m) with columns
    (2k, 2k+1) mapped to r*cos(theta), r*sin(theta) where r = sqrt(-2 ln u_2k)
    and theta = 2 pi u_{2k+1}. The trigonometric form preserves the qMC point
    count exactly (no rejection).
    """
    u = np.asarray(uniforms, dtype=float)
    if u.ndim != 2 or u.shape[1] % 2 != 0:
        raise ValueError("box_muller expects an (n, 2m) array")
    u1 = np.clip(u[:, 0::2], 1e-300, None)  # u=0 occurs at Sobol index 0
    u2 = u[:, 1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = TWO_PI * u2
    z = np.empty_like(u)
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r * np.sin(theta)
    return z


def gaussian_stream_dim(d: int) -> int:
    """The Sobol' dimension Box-Muller needs for d Gaussian coordinates: it
    consumes the coordinates in pairs."""
    return 2 * ((d + 1) // 2)


def gaussian_qmc(stream: SobolStream, count: int, scale_diag: np.ndarray) -> np.ndarray:
    """``count`` zero-mean qMC Gaussian draws with diagonal scale, shape
    (count, d).

    Consumes Sobol' coordinates pairwise through Box-Muller; the stream must
    have dimension >= ``gaussian_stream_dim(d)``.
    """
    scale_diag = np.atleast_1d(np.asarray(scale_diag, dtype=float))
    d = scale_diag.shape[0]
    if np.any(scale_diag <= 0):
        raise ValueError("scale_diag must be strictly positive")
    needed = gaussian_stream_dim(d)
    if stream.dimension < needed:
        raise ValueError(
            f"stream dimension {stream.dimension} < {needed} required for d={d}"
        )
    u = stream.take(count)[:, :needed]
    return scale_diag * box_muller(u)[:, :d]


def row_blocks(rows, width: int) -> list:
    """``rows`` cut into consecutive blocks of ``ELEMENT_BUDGET // width``
    rows rounded down to a power of two (at least one row), so a temporary
    of ``width`` float64 per row stays within the budget."""
    step = 1 << max(0, (ELEMENT_BUDGET // max(width, 1)).bit_length() - 1)
    if len(rows) <= step:
        return [rows]
    return [rows[i : i + step] for i in range(0, len(rows), step)]


def concat_blocks(parts: list):
    """The per-block outputs of a blocked call joined along their rows: an
    array, or a tuple of arrays, each with one leading entry per row."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def in_blocks(fn, rows: np.ndarray, width: int):
    """``fn(rows)`` computed over the :func:`row_blocks` of ``rows``, its
    outputs concatenated; one block is a plain call.

    That the blocks leave the bytes of the products unchanged is checked at
    the widths of the golden fixtures and of the fantasy scan's design blocks
    (tests/test_golden.py), not promised for every width and budget: smaller
    blocks can move them.
    """
    return concat_blocks([fn(block) for block in row_blocks(rows, width)])


# -- the candidate pool ----------------------------------------------------


def openblas_function(package, symbol: str, restype=ctypes.c_int, *argtypes):
    """The function ``symbol`` of the OpenBLAS bundled in ``<package>.libs``,
    or None without that library or symbol."""
    libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("*openblas*"))))
        return ctypes.CFUNCTYPE(restype, *argtypes)((symbol, lib))
    except (StopIteration, OSError, AttributeError):
        return None


@functools.cache
def _blas_thread_counts() -> list:
    """(get, set) of the thread count of NumPy's and SciPy's OpenBLAS, for
    each that exports both; NumPy's symbols carry the suffix of its 64-bit
    integer build."""
    found = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        get = openblas_function(package, f"scipy_openblas_get_num_threads{suffix}")
        put = openblas_function(
            package, f"scipy_openblas_set_num_threads{suffix}", None, ctypes.c_int
        )
        if get and put:
            found.append((get, put))
    return found


# The pool and the BLAS pin are per process, built on first use: a forked
# child (``relbo run --parallel N``) inherits no pool threads and perhaps a
# lock that another thread held, so it starts afresh.
_lock = threading.Lock()
_pool = None  # ThreadPoolExecutor, or False on one CPU
_maps_running = 0  # maps holding BLAS at one thread
_saved_counts = []  # (thread count, set) per OpenBLAS, from the first of them
_worker = threading.local()


def _reset_after_fork():
    global _lock, _pool, _maps_running
    _lock, _pool, _maps_running = threading.Lock(), None, 0


os.register_at_fork(after_in_child=_reset_after_fork)


@contextmanager
def _one_blas_thread():
    """NumPy's and SciPy's OpenBLAS held at one thread while any map runs,
    their counts restored when the last one leaves, also when it raises."""
    global _maps_running, _saved_counts
    with _lock:
        if _maps_running == 0:
            _saved_counts = [(get(), put) for get, put in _blas_thread_counts()]
            for _, put in _saved_counts:
                put(1)
        _maps_running += 1
    try:
        yield
    finally:
        with _lock:
            _maps_running -= 1
            if _maps_running == 0:
                for count, put in _saved_counts:
                    put(count)


def _mark_worker():
    _worker.active = True


def _thread_pool():
    """This process's pool, one thread per CPU in its affinity, or False on
    one CPU."""
    global _pool
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            n_cpu = len(os.sched_getaffinity(0))
            _pool = n_cpu > 1 and ThreadPoolExecutor(n_cpu, "relbo", initializer=_mark_worker)
        return _pool


def parallel_map(fn, items) -> list:
    """``[fn(x) for x in items]``, in order, over one thread per CPU.

    For candidates whose work is independent: each result is the bytes the
    inline loop gives, whatever the CPU count. BLAS runs at one thread while
    the tasks do, so a task's threaded BLAS call does not spin a second core
    against the other tasks; the counts are restored once every task has
    finished, also when one raises, and the first exception in item order
    reaches the caller. The map runs inline for one item, on one CPU, and
    when called from a task.
    """
    items = list(items)
    if len(items) < 2 or getattr(_worker, "active", False):
        return [fn(x) for x in items]
    pool = _thread_pool()
    if not pool:
        return [fn(x) for x in items]
    with _one_blas_thread():
        futures = [pool.submit(fn, x) for x in items]
        wait(futures)
    return [f.result() for f in futures]


def _check_finite(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)):
        raise ValueError("NaN input to normal cdf/pdf")
    return x


def std_normal_cdf(x):
    """Standard normal CDF."""
    return special.ndtr(_check_finite(x))


def std_normal_log_cdf(x):
    """log of the standard normal CDF, accurate far into the lower tail."""
    return special.log_ndtr(_check_finite(x))


def std_normal_pdf(x):
    """Standard normal density."""
    x = _check_finite(x)
    return np.exp(-0.5 * x * x) / np.sqrt(TWO_PI)


def std_normal_log_pdf(x):
    x = _check_finite(x)
    return -0.5 * x * x - 0.5 * np.log(TWO_PI)

