"""Deterministic low-level numerics: scrambled Sobol' streams, Gaussian qMC
draws via Box-Muller, the special functions used by the probability and
smoothing formulas, and the row blocking that bounds the memory of large
batches.

All functions here are pure; :class:`SobolStream` is the only stateful object
(a mutable cursor into a fixed low-discrepancy sequence).
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import special
from scipy.stats import qmc

MAX_SOBOL_DIM = 64
_MAX_CURSOR = 2**31

TWO_PI = 2.0 * np.pi

# float64 elements per temporary when a large batch is processed in blocks
# of rows (16 MiB), so peak memory does not grow with the batch.
ELEMENT_BUDGET = 2**21


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
        self.cursor = 0
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
            self.cursor += count
        return self

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` points, shape (count, dimension), in [0, 1)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if self.cursor + count > _MAX_CURSOR:
            raise ValueError("Sobol stream exhausted")
        with warnings.catch_warnings():
            # scipy warns when count is not a power of two; balance is the
            # caller's concern here.
            warnings.simplefilter("ignore", UserWarning)
            pts = self._engine.random(count)
        self.cursor += count
        return pts


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


def in_blocks(fn, rows: np.ndarray, width: int):
    """``fn(rows)`` computed over blocks of rows, its outputs concatenated.

    A block holds ``ELEMENT_BUDGET // width`` rows rounded down to a power of
    two, so a temporary of ``width`` float64 per row stays within the budget.
    Power-of-two blocks start where the BLAS kernels' own tiles and thread
    shares of a power-of-two batch start, so blocking leaves the bytes of the
    products unchanged. ``fn`` returns an array or a tuple of arrays, each
    with one leading entry per row.
    """
    step = 1 << max(0, (ELEMENT_BUDGET // max(width, 1)).bit_length() - 1)
    if len(rows) <= step:
        return fn(rows)
    parts = [fn(rows[i : i + step]) for i in range(0, len(rows), step)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


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

