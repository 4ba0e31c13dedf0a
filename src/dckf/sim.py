"""Monte Carlo simulation of the true dynamics and the discretized filter.

The truth follows an Euler-Maruyama step with process increments scaled by
sqrt(dt); continuous-time measurement noise of a given intensity is realized
per step with covariance (intensity / dt).  The filter recursion is the
exact zero-order-hold discretization of its linear dynamics (stacked
transition matrix ``expm(closed_loop * dt)`` with the matched input map),
which stays stable for arbitrarily strong consensus coupling and agrees
with an explicit Euler step to second order when the coupling is mild.
A run's step size, horizon, trials, seed and record stride come in a
``SimConfig``, which ``dckf.scenario`` defines and validates, so that
loading a scenario does not import this module; ``SimulationOverflowError``
lives in ``dckf.model``, so that a command can catch it without importing
this module either.

Fused blocked recursion: one step of the truth ``x`` and of the estimates
``est_g`` of every filter realization ``g`` in a sweep is one linear map of
the row vector ``z = [x, est_1 ... est_G]``, namely ``z' = z M + xi N``, where
``xi`` is the step's noise row (process noise, then measurement noise).  A
record stride of ``S`` steps is therefore one product,
``z_S = z_0 M^S + [xi_0 ... xi_{S-1}] stack(N M^{S-1-j})``, instead of ``S``
Python iterations.  ``M`` is block upper triangular (the truth drives each
filter, no filter feeds back), so the operators are built per gain from its
own ``(n + q)``-square block, the truth columns are shared, and a filter that
overflows cannot spill into another gain.  A stride whose powers of ``M``
would leave the safe floating-point range is split into shorter pieces;
overflow is still detected per record and per (trial, gain).  The noise term
``[xi_0 ... xi_{S-1}] stack(...)`` of a piece does not depend on ``z``, so
consecutive pieces that share their operators form blocks of ``k`` pieces,
whose noise rows are drawn and multiplied by the noise map together before
``z`` steps through the block with only the products that depend on it.
``k`` is the most pieces whose noise rows and products, for the chunk's
trials, fit in ``_BLOCK_BYTES`` (1 MiB), and at least one, so it depends only
on the config and the chunk's trial count.  A chunk run draws every block
into one buffer of at most ``_BLOCK_BYTES``, allocated once and reused: a
block that fits is drawn in one call per trial and multiplied in one product
of ``trials * k`` rows, and a lone piece that does not is drawn and
multiplied in consecutive segments of its rows, whose products are summed.
So a chunk never holds more noise rows than the buffer.  A product over more
rows, or one summed from segments, can round differently: blocks moved the
Monte Carlo outputs in the last bits (about 2e-16 relative on case1's sweep)
from what one product per piece gave, and segments moved case2's by at most
2.3e-16 relative.

Reproducibility contract: every random draw of trial ``l`` comes from a
generator seeded with the pair ``(seed, l)``, so per-trial streams are
independent and a trial's trajectory depends only on that pair and the
simulation config.  The noise consumption pattern per trial is fixed: one
vector for the initial state, then one row per step holding the process
noise followed by the measurement noise.  A generator's normal stream
depends only on the order of the draws, not on how they are grouped into
calls (drawing ``a`` rows and then ``b`` rows gives the same numbers as
drawing ``a + b``), so the engine draws a whole block's rows, or a segment
of a lone piece's rows, at once and the grouping does not change any trial's
noise.  Every gain of a sweep
sees the same rows (common random numbers).

Parallel chunks: trials run in fixed chunks of at most half the trials
(rounded up), and of fewer when the chunk's noise rows for one piece would
pass ``_NOISE_BYTES``, so a run of two or more trials has at least two chunks
and the split depends only on the config.  The engine yields a block's
records in the block's noise-product buffer, where each piece leaves its
``z``, and a chunk reduces them there in one pass per block, so it keeps no
per-record history: it returns its per-record sums over its trials and each
trial's sum over the steady window, the latter added one record at a time.
A chunk in which some (trial, gain) overflows runs a second time, with that
pair masked out of the sums at every record.  Each chunk's sums are a pure
function of its trial range, computed while the engine's operators are only
read (they are all built on the caller's thread first), so the chunks run
in rounds of ``workers``: the ``workers - 1`` pool threads take all but the
last chunk of a round, the calling thread runs that one, and numpy releases
the GIL in the noise fills and the products; with one worker no thread
starts.  The caller adds the chunks up one by one in trial order, so the
sums see the same operands in the same order whatever the worker count or
the number of cores.
``workers`` is the usable core count divided by the BLAS thread count (the
first positive value among ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS``, as OpenBLAS reads them), and 1 when none holds one,
because then BLAS already keeps every core busy.  ``import dckf`` sets
``OPENBLAS_NUM_THREADS=1`` when none holds one, so that happens only if the
caller deletes it.  The variables are read here, not the pools: ``import
dckf`` also sets an OpenBLAS that numpy or scipy loaded before it to one
thread, so the pools have the count the variables say in either import
order.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import _blas_threads, matkit
from .filtering import FilterRealization
from .model import SimulationOverflowError, TrueSystem
from .scenario import SimConfig

__all__ = [
    "MseSeries",
    "monte_carlo_mse",
    "monte_carlo_sweep",
]

# Memory caps: a piece's noise operator; a trial chunk's noise rows for its
# longest piece, which sizes the chunk (so a lone piece is drawn in at most
# three segments of the next); and a chunk's one noise buffer, which also
# bounds a block's noise rows plus their products.
_OPERATOR_BYTES = 4 * 2**20
_NOISE_BYTES = 2 * 2**20
_BLOCK_BYTES = _NOISE_BYTES // 2
# Largest entry a piece's operators may hold; longer strides are split.
_POWER_LIMIT = 1e100
# Squared errors are summed scaled by 2**-_SUM_SHIFT, which is exact for normal
# values, so finite errors near the top of the double range cannot sum to inf.
_SUM_SHIFT = 64


@dataclass(frozen=True, eq=False)
class MseSeries:
    """Recorded mean squared error, averaged over trials and sensors.

    ``mse[k]`` is the average over sensors of ``per_sensor_mse[k]``.
    ``steady_mse`` averages the per-trial means over the final fifth of the
    horizon; ``steady_se`` is its standard error across trials (NaN for a
    single trial).  Overflowed trials are excluded from every average and
    listed with the step at which they left the finite range.
    """

    time: np.ndarray
    mse: np.ndarray
    per_sensor_mse: np.ndarray
    trials_used: int
    steady_mse: float
    steady_se: float
    overflow_trials: tuple[tuple[int, int], ...] = field(default_factory=tuple)


@dataclass(frozen=True, eq=False)
class _Operators:
    """Everything one piece of ``length`` steps applies to ``z``."""

    length: int
    state_map: np.ndarray  # (n, n + G q): the truth's row of M^length
    filter_maps: np.ndarray  # (G, q, q): each gain's diagonal block of M^length
    noise_map: np.ndarray  # (length * cols, n + G q): stack(N M^{length-1-j})


class _Engine:
    """The fused recursion of one true system and a list of filter realizations."""

    def __init__(self, ts: TrueSystem, realizations, cfg: SimConfig) -> None:
        realizations = list(realizations)
        if not realizations:
            raise ValueError("need at least one filter realization")
        for fr in realizations:
            if fr.nominal.n != ts.n or fr.nominal.sensor_count != ts.sensor_count:
                raise ValueError("filter realization does not match the true system dimensions")
        self.ts = ts
        self.cfg = cfg
        n = self.n = ts.n
        self.n_sensors = ts.sensor_count
        self.gains = len(realizations)
        q = self.q = n * ts.sensor_count
        self.width = n + self.gains * q
        c_stack_t = ts.c_stack.T
        m_total = c_stack_t.shape[1]
        self.cols = n + m_total
        self.sigma0_half_t = matkit.sqrtm_psd(ts.sigma0).T
        dt = cfg.dt
        # Per-gain blocks of M and N, each (n + q) columns wide.
        blocks = np.zeros((self.gains, n + q, n + q))
        noise_blocks = np.zeros((self.gains, self.cols, n + q))
        blocks[:, :n, :n] = np.eye(n) + dt * ts.a.T
        noise_blocks[:, :n, :n] = np.sqrt(dt) * matkit.sqrtm_psd(ts.q).T
        r_half_t = scipy.linalg.block_diag(*[matkit.sqrtm_psd(s.r) for s in ts.sensors]).T
        for g, fr in enumerate(realizations):
            # Zero-order-hold discretization of the filter recursion; the
            # augmented exponential also yields the input map when the closed
            # loop is singular.
            aug = np.zeros((q + m_total, q + m_total))
            aug[:q, :q] = fr.closed_loop * dt
            aug[:q, q:] = fr.gain_diag * dt
            exp_aug = matkit.expm(aug)
            input_t = exp_aug[:q, q:].T
            blocks[g, n:, n:] = exp_aug[:q, :q].T
            blocks[g, :n, n:] = c_stack_t @ input_t
            noise_blocks[g, n:, n:] = (r_half_t * (1.0 / np.sqrt(dt))) @ input_t
        self.blocks = blocks
        self.noise_blocks = noise_blocks
        self._operators: dict[int, _Operators] = {}
        self.max_piece = max(1, _OPERATOR_BYTES // (self.cols * self.width * 8))
        # Every operator is built here, before any trial runs, so trial chunks
        # running on other threads only read the engine.
        strides = dict.fromkeys(int(s) for s in np.diff(cfg.record_steps()))
        self.plan = {stride: self.pieces(stride) for stride in strides}
        self.longest_piece = max(ops.length for pieces in self.plan.values() for ops in pieces)

    def pieces(self, stride: int) -> list[_Operators]:
        """Operators that advance ``z`` by ``stride`` steps, applied in order."""
        out = []
        while stride > 0:
            ops = self._operators_for(min(stride, self.max_piece))
            out.append(ops)
            stride -= ops.length
        return out

    def _operators_for(self, length: int) -> _Operators:
        """Operators of ``length`` steps, or of fewer if the powers of ``M`` grow too large."""
        if length in self._operators:
            return self._operators[length]
        n, q, cols, gains = self.n, self.q, self.cols, self.gains
        noise_map = np.empty((length, cols, self.width))
        filter_noise = noise_map[:, :, n:].reshape(length, cols, gains, q)
        power = np.broadcast_to(np.eye(n + q), self.blocks.shape).copy()
        used = length
        # Horner: one running power M^j; the noise block of step i is N M^{length-1-i}.
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(length):
                noise_block = self.noise_blocks @ power
                grown = power @ self.blocks
                if j > 0 and not (
                    np.abs(noise_block).max() <= _POWER_LIMIT
                    and np.abs(grown).max() <= _POWER_LIMIT
                ):
                    # Every later piece is capped too: the operators do not
                    # depend on where a piece starts.
                    used = self.max_piece = j
                    break
                noise_map[length - 1 - j, :, :n] = noise_block[0, :, :n]
                filter_noise[length - 1 - j] = noise_block[:, :, n:].transpose(1, 0, 2)
                power = grown
        noise_map = noise_map[length - used :].reshape(used * cols, self.width)
        if used < length:
            noise_map = noise_map.copy()  # do not keep the rows of the longer piece alive
        state_map = np.empty((n, self.width))
        state_map[:, :n] = power[0, :n, :n]
        state_map[:, n:] = power[:, :n, n:].transpose(1, 0, 2).reshape(n, gains * q)
        ops = _Operators(used, state_map, power[:, n:, n:].copy(), noise_map)
        # A capped piece is also the piece of its own length, so the pieces
        # that follow it share its operators and its blocks.
        self._operators[length] = self._operators[used] = ops
        return ops

    def chunk_size(self) -> int:
        """Trials run together: at most half of them, and bounded by their longest piece's rows."""
        trial_bytes = self.longest_piece * self.cols * 8  # one trial's rows for the longest piece
        return max(1, min((self.cfg.trials + 1) // 2, _NOISE_BYTES // trial_bytes))

    def block_size(self, ops: _Operators, batch: int) -> int:
        """Pieces of ``ops`` whose noise rows and products for ``batch`` trials fit in a block."""
        return max(1, _BLOCK_BYTES // (batch * (ops.length * self.cols + self.width) * 8))

    def schedule(self, batch: int):
        """Yield ``(ops, ends)`` for each block of consecutive pieces that share ``ops``.

        A block holds at most ``block_size(ops, batch)`` pieces; ``ends[j]`` says
        whether its piece ``j`` ends a record stride.
        """
        ops, ends, size = None, [], 0
        for stride in np.diff(self.cfg.record_steps()):
            for piece in self.plan[int(stride)]:
                if piece is not ops or len(ends) == size:
                    if ends:
                        yield ops, ends
                    ops, ends, size = piece, [], self.block_size(piece, batch)
                ends.append(False)
            ends[-1] = True
        yield ops, ends

    def run(self, trials):
        """Yield each block's records, in order, as a (trials, records, n + G q) array.

        The initial state is a block of one record, and a block that ends no
        record yields nothing.  The array is the block's noise-product buffer,
        where each piece leaves its ``z``, or a copy of the pieces that end a
        record when not all of them do (only in a split stride).  The noise
        rows go through one buffer, in segments for a lone piece that does
        not fit it (see the module notes).
        """
        cfg = self.cfg
        n = self.n
        rngs = [np.random.default_rng((cfg.seed, int(l))) for l in trials]
        batch = len(rngs)
        z = np.empty((batch, self.width))
        z[:, :n] = self.ts.x0 + np.stack([r.standard_normal(n) for r in rngs]) @ self.sigma0_half_t
        z[:, n:] = np.tile(self.ts.x0, self.gains * self.n_sensors)
        yield z[:, None]
        blocks = list(self.schedule(batch))
        draws = max(len(ends) * ops.length for ops, ends in blocks) * self.cols  # per trial
        buffer = np.empty(min(batch * draws, _BLOCK_BYTES // 8))
        for ops, ends in blocks:
            size = ops.length * self.cols
            # A block of several pieces fits the buffer whole (see block_size),
            # so only a lone piece is cut, and each trial draws its rows in order.
            segment = min(size, buffer.size // (batch * len(ends)))
            for start in range(0, size, segment):
                stop = min(start + segment, size)
                noise = buffer[: batch * len(ends) * (stop - start)].reshape(batch, len(ends), -1)
                for k, rng in enumerate(rngs):
                    rng.standard_normal(out=noise[k])
                with np.errstate(over="ignore", invalid="ignore"):
                    product = noise.reshape(-1, stop - start) @ ops.noise_map[start:stop]
                    if start:
                        out += product
                    else:
                        out = product
            out = out.reshape(batch, len(ends), self.width)
            for j in range(len(ends)):
                z = self._advance(z, out[:, j], ops)
            if all(ends):
                yield out
            elif any(ends):
                yield out[:, ends]

    def _advance(self, z: np.ndarray, out: np.ndarray, ops: _Operators) -> np.ndarray:
        """Add the products of ``z`` to its noise product ``out`` in place; return ``out``."""
        batch, n = z.shape[0], self.n
        # Overflow is a monitored outcome (divergent scenarios), not an error.
        with np.errstate(over="ignore", invalid="ignore"):
            out += z[:, :n] @ ops.state_map
            est = z[:, n:].reshape(batch, self.gains, self.q).transpose(1, 0, 2)
            filters = out[:, n:].reshape(batch, self.gains, self.q).transpose(1, 0, 2)
            # Summed into the fresh product and copied back: numpy would copy
            # the strided view first to add into it in place.
            product = np.matmul(est, ops.filter_maps)
            product += filters
            filters[...] = product
        return out

    def squared_errors(self, z: np.ndarray) -> np.ndarray:
        """Squared estimation error norms of ``z`` (..., n + G q), of shape (..., G, sensors)."""
        n = self.n
        with np.errstate(over="ignore", invalid="ignore"):
            estimates = z[..., n:].reshape(*z.shape[:-1], self.gains, self.n_sensors, n)
            err = estimates - z[..., None, None, :n]
            return np.einsum("...gsi,...gsi->...gs", err, err)


def monte_carlo_mse(ts: TrueSystem, fr: FilterRealization, cfg: SimConfig) -> MseSeries:
    """Average squared estimation error over trials, sensors, and record times."""
    return monte_carlo_sweep(ts, [fr], cfg)[0]


def monte_carlo_sweep(ts: TrueSystem, realizations, cfg: SimConfig) -> list[MseSeries]:
    """``monte_carlo_mse`` for every filter realization, on one shared set of trials.

    Each trial's noise is drawn once and drives the truth and every filter,
    so the series of a gain sweep differ only by the gain (common random
    numbers), and each equals what ``monte_carlo_mse`` gives for that gain
    alone.  Trials run in fixed chunks of at most half the trials, so a run
    of two or more trials has two chunks or more, and the chunks run in
    rounds of ``workers``, the calling thread running one of each round (it
    alone with one worker).  Each chunk reduces its records a block at a
    time (see the module notes); a chunk in which some trial overflows runs
    a second time to leave that trial out of every record.  The chunks are added up one by
    one in increasing trial order, so the aggregate is a deterministic
    function of the config, whatever the worker count.  Raises
    :class:`SimulationOverflowError` when every trial of some realization
    overflows.
    """
    engine = _Engine(ts, realizations, cfg)
    steps = cfg.record_steps()
    times = steps * cfg.dt
    window = times >= 0.8 * cfg.horizon
    if not window.any():
        window[-1] = True
    gains = engine.gains
    sums = np.zeros((steps.size, gains, engine.n_sensors))
    steady = np.empty((cfg.trials, gains))
    overflow = np.full((cfg.trials, gains), -1, dtype=int)
    chunk = engine.chunk_size()
    chunks = [range(s, min(s + chunk, cfg.trials)) for s in range(0, cfg.trials, chunk)]

    def work(trials: range, flags: np.ndarray | None = None):
        """Per-record sums over ``trials``, each trial's window sum, and overflow steps.

        Both sums are of the squared errors scaled by 2**-_SUM_SHIFT.  A chunk
        with an overflow runs again with its ``flags``, and the pairs they mark
        then add nothing; its streams repeat exactly.
        """
        rerun = flags is not None
        flags = flags if rerun else np.full((len(trials), gains), -1, dtype=int)
        chunk_sums = np.empty((steps.size, gains, engine.n_sensors))
        window_sums = np.zeros((len(trials), gains))
        start = 0
        # Overflowed pairs are summed too until they are masked; inf * 0 is NaN, hence np.where.
        with np.errstate(over="ignore", invalid="ignore"):
            for block in engine.run(trials):
                stop = start + block.shape[1]
                sse = engine.squared_errors(block)  # (trials, records, gains, sensors)
                np.ldexp(sse, -_SUM_SHIFT, out=sse)
                if rerun:
                    sse = np.where(flags[:, None, :, None] < 0, sse, 0.0)
                chunk_sums[start:stop] = sse.sum(axis=0)
                # The terms are >= 0, so the sums are finite when the terms are; a sum
                # that overflows on finite terms only costs the exact test.
                if not (rerun or np.isfinite(chunk_sums[start:stop]).all()):
                    bad = ~np.isfinite(sse).all(axis=3)
                    first = steps[start + bad.argmax(axis=1)]
                    flags = np.where((flags < 0) & bad.any(axis=1), first, flags)
                # One record at a time and in order, so the rounding is the stepwise one.
                for j in np.flatnonzero(window[start:stop]):
                    window_sums += sse[:, j].mean(axis=2)
                start = stop
        if not rerun and np.any(flags >= 0):
            return work(trials, flags)
        return chunk_sums, window_sums, flags

    workers = _worker_count(len(chunks))
    for (chunk_sums, window_sums, flags), trials in zip(_in_order(work, chunks, workers), chunks):
        overflow[trials.start : trials.stop] = flags
        sums += chunk_sums
        steady[trials.start : trials.stop] = np.ldexp(window_sums / window.sum(), _SUM_SHIFT)

    out = []
    for g in range(gains):
        good = overflow[:, g] < 0
        used = int(np.sum(good))
        if used == 0:
            raise SimulationOverflowError("every trial overflowed; nothing to average")
        scaled = sums[:, g] / used
        steady_mse, steady_se = _mean_and_se(steady[good, g])
        out.append(
            MseSeries(
                time=times,
                mse=np.ldexp(scaled.mean(axis=1), _SUM_SHIFT),
                per_sensor_mse=np.ldexp(scaled, _SUM_SHIFT),
                trials_used=used,
                steady_mse=steady_mse,
                steady_se=steady_se,
                overflow_trials=tuple(
                    (int(l), int(step)) for l, step in enumerate(overflow[:, g]) if step >= 0
                ),
            )
        )
    return out


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """Mean of the per-trial values and its standard error (NaN for one value).

    Both are taken of the values scaled by a power of two, which is exact, so
    sums and squares of values near the top of the double range cannot
    overflow, and ordinary values give the same bits as without the scaling.
    An infinite value gives an infinite mean and a NaN standard error.
    """
    _, exponent = np.frexp(np.max(np.abs(values)))
    scaled = np.ldexp(values, -int(exponent))
    mean = float(np.ldexp(scaled.mean(), int(exponent)))
    if values.size < 2:
        return mean, float("nan")
    with np.errstate(invalid="ignore"):
        spread = scaled.std(ddof=1) / np.sqrt(values.size)
    return mean, float(np.ldexp(spread, int(exponent)))


def _worker_count(chunks: int) -> int:
    """Trial chunks to run at once: usable cores ÷ BLAS threads, at most ``chunks``.

    The BLAS thread count is the first positive value among the variables
    OpenBLAS reads; with none, BLAS already uses every core, so 1.
    """
    threads = _blas_threads()
    if threads is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores // threads, chunks))


def _in_order(work, items: list, workers: int):
    """Yield ``work(item)`` for every item in order, in rounds of ``workers`` items.

    In each round the ``workers - 1`` pool threads take all items but the
    last, which the calling thread runs itself; with one worker no thread
    starts.  A call that raised re-raises when its turn comes, after every
    earlier result.
    """
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        for start in range(0, len(items), workers):
            *others, last = items[start : start + workers]
            futures = [pool.submit(work, item) for item in others]
            try:
                here = Future()
                try:
                    here.set_result(work(last))
                except Exception as exc:
                    here.set_exception(exc)
                for future in (*futures, here):
                    yield future.result()
            finally:
                for future in futures:
                    future.cancel()
