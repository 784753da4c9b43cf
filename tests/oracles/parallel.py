"""Loop partitioners: the reference for :mod:`repro.devices.parallel`.

The library deals rows and SELL chunks to workers with reshape-based
reductions.  These are the original per-window / round-robin loops they
replaced.  Every load is a sum of integer-valued terms well below 2^53,
so the two must agree bit for bit; ``tests/devices/test_parallel.py``
checks that, and :mod:`tests.oracles.instance` measures imbalance
through :func:`imbalance_for_strategy` here.
"""

import numpy as np

from repro.devices.parallel import ImbalanceStats, PARTITION_STRATEGIES


def warp_per_row(
    row_lengths: np.ndarray, n_workers: int, simd_width: int = 32
) -> ImbalanceStats:
    """GPU warp-per-row scheduling (cuSPARSE CSR flavour).

    Each row costs ``ceil(len / simd_width)`` warp-cycles; rows are dealt
    round-robin to warp slots.  The critical path is additionally
    lower-bounded by the single longest row (it cannot be split)."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    cycles = np.ceil(row_lengths / simd_width)
    slots = np.arange(n_rows) % n_workers
    loads = np.bincount(slots, weights=cycles, minlength=n_workers)
    longest = float(cycles.max())
    mean = loads.mean() if loads.mean() > 0 else 1.0
    factor = max(loads.max(), longest) / mean
    return ImbalanceStats(
        factor=float(max(factor, 1.0)),
        max_load=float(max(loads.max(), longest)),
        mean_load=float(mean),
        n_workers=n_workers,
    )


def sell_chunk_imbalance(
    row_lengths: np.ndarray,
    n_workers: int,
    C: int = 32,
    sigma: int = 1024,
) -> ImbalanceStats:
    """SELL-C-σ chunk loads: rows sorted within σ-windows, chunk cost is
    ``C * chunk_width``; chunks are dealt to workers in order."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_workers)
    lengths = np.asarray(row_lengths, dtype=np.int64).copy()
    for w0 in range(0, n_rows, sigma):
        w1 = min(w0 + sigma, n_rows)
        lengths[w0:w1] = np.sort(lengths[w0:w1])[::-1]
    n_chunks = (n_rows + C - 1) // C
    padded = np.zeros(n_chunks * C, dtype=np.int64)
    padded[:n_rows] = lengths
    widths = padded.reshape(n_chunks, C).max(axis=1)
    cost = widths * C
    # Chunks are dealt in snake order (0..w-1, w-1..0, ...), modelling the
    # guided scheduling real SELL kernels use: within a sorted sigma-window
    # costs descend monotonically, so plain contiguous or round-robin
    # assignment would systematically overload the first worker.
    phase = np.arange(n_chunks) % (2 * n_workers)
    slots = np.where(phase < n_workers, phase, 2 * n_workers - 1 - phase)
    loads = np.bincount(slots, weights=cost, minlength=n_workers)
    return ImbalanceStats.from_loads(loads)


def lockstep_channel_imbalance(
    row_lengths: np.ndarray, n_channels: int = 16
) -> ImbalanceStats:
    """VSL channel lockstep: rows are interleaved over HBM channel groups
    which advance in lockstep, so the critical channel paces all 16.  A
    skewed row concentrates its stream on one channel (Fig 5's ~4x FPGA
    drop)."""
    n_rows = len(row_lengths)
    if n_rows == 0:
        return ImbalanceStats(1.0, 0.0, 0.0, n_channels)
    slots = np.arange(n_rows) % n_channels
    loads = np.bincount(slots, weights=row_lengths, minlength=n_channels)
    # Lockstep advances in bursts: per-burst padding amplifies the critical
    # channel; approximate with the channel max over the mean.
    return ImbalanceStats.from_loads(loads)


# The library's table with the three loop partitioners swapped in.
ORACLE_STRATEGIES = {
    **PARTITION_STRATEGIES,
    "warp_row": warp_per_row,
    "sell_chunk": sell_chunk_imbalance,
    "lockstep_channel": lockstep_channel_imbalance,
}


def imbalance_for_strategy(
    strategy: str,
    row_lengths: np.ndarray,
    n_workers: int,
    simd_width: int = 32,
) -> ImbalanceStats:
    """Dispatch to the named partitioner."""
    if strategy == "warp_row":
        return warp_per_row(row_lengths, n_workers, simd_width)
    if strategy == "lockstep_channel":
        return lockstep_channel_imbalance(row_lengths, n_workers)
    try:
        fn = ORACLE_STRATEGIES[strategy]
    except KeyError:
        raise KeyError(
            f"unknown partition strategy {strategy!r}; available: "
            f"{sorted(ORACLE_STRATEGIES)}"
        ) from None
    return fn(row_lengths, n_workers)
