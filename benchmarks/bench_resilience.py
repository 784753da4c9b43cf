"""Resilient dispatch overhead — fault-free sweeps vs a plain pool.

The resilient worker crew (per-chunk deadlines, retry bookkeeping,
journal hooks, crash detection) must be essentially free when nothing
goes wrong.  This bench times fault-free sweeps on the crew against a
plain ``multiprocessing.Pool`` baseline defined here, which maps the
engine's own chunk function (``repro.pipeline.engine._chunk_table``)
over the same chunk bounds with no retries, deadlines or journal —
legs interleaved and order-alternated so machine speed drift cancels,
best-of-``REPEATS`` per leg.  It asserts the tables row-identical to
each other and to a serial reference, gates the resilient overhead at
``MAX_OVERHEAD``, and writes the numbers to
``benchmarks/results/BENCH_resilience.json`` (mirrored to the repo-root
snapshot) alongside the other bench floors.
"""

import json
import multiprocessing
import time

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.core.table import SweepTable
from repro.devices import TESTBEDS
from repro.pipeline.engine import _CHUNKS_PER_JOB, _chunk_bounds, _chunk_table

from conftest import MAX_NNZ, RESULTS_DIR, SCALE, emit

BENCH_PATH = RESULTS_DIR / "BENCH_resilience.json"
# Committed snapshot at the repo root (also a CI artifact).
ROOT_BENCH_PATH = RESULTS_DIR.parent.parent / "BENCH_resilience.json"

# Acceptance ceiling: fault-free resilient dispatch within 5% of the
# plain multiprocessing.Pool baseline.  The crew does strictly more
# bookkeeping per chunk (deadline tracking, drain-before-classify,
# liveness polls), but all of it is O(chunks) parent-side work around
# seconds-long chunk executions, so the measured gap is noise-level.
MAX_OVERHEAD = 0.05

DEVICES = [TESTBEDS["Tesla-A100"]]
JOBS = 2
REPEATS = 3

_POOL_DATASET = {}


def _pool_init(specs):
    _POOL_DATASET["dataset"] = Dataset(specs, max_nnz=MAX_NNZ, name=SCALE)


def _pool_chunk(task):
    chunk_id, (lo, hi) = task
    table, _ = _chunk_table(_POOL_DATASET["dataset"], lo, hi, DEVICES,
                            True, None, 0, "fp64", None)
    return chunk_id, table


def _plain_pool_sweep(specs):
    """The baseline: the crew's chunks on a plain pool, merged in order."""
    bounds = _chunk_bounds(len(specs), JOBS * _CHUNKS_PER_JOB)
    # The crew forks where it can; start the baseline's workers the
    # same way so the two legs compare dispatch alone.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    with ctx.Pool(processes=JOBS, initializer=_pool_init,
                  initargs=(specs,)) as pool:
        results = dict(pool.imap_unordered(_pool_chunk,
                                           list(enumerate(bounds))))
    return SweepTable.concat([results[c] for c in sorted(results)])


def _timed_sweep(specs, leg):
    t0 = time.perf_counter()
    if leg == "pool":
        table = _plain_pool_sweep(specs)
    else:
        ds = Dataset(specs, max_nnz=MAX_NNZ, name=SCALE)
        table = sweep(ds, DEVICES, jobs=JOBS)
    return time.perf_counter() - t0, table


def test_resilient_dispatch_overhead():
    specs = build_dataset_specs(SCALE)
    times = {"pool": [], "resilient": []}
    tables = {}
    for rep in range(REPEATS):
        order = (
            ("pool", "resilient") if rep % 2 == 0
            else ("resilient", "pool")
        )
        for leg in order:
            t, table = _timed_sweep(specs, leg)
            times[leg].append(t)
            tables[leg] = table

    # Speed must not change results: both legs, and a serial
    # reference, produce the same rows.
    assert tables["resilient"].rows == tables["pool"].rows
    serial = sweep(
        Dataset(specs, max_nnz=MAX_NNZ, name=SCALE), DEVICES
    )
    assert tables["resilient"].rows == serial.rows

    best_pool = min(times["pool"])
    best_resilient = min(times["resilient"])
    overhead = best_resilient / best_pool - 1.0

    payload = {
        "scale": SCALE,
        "max_nnz": MAX_NNZ,
        "jobs": JOBS,
        "n_specs": len(specs),
        "repeats": REPEATS,
        "pool_s": [round(t, 3) for t in times["pool"]],
        "resilient_s": [round(t, 3) for t in times["resilient"]],
        "best_pool_s": round(best_pool, 3),
        "best_resilient_s": round(best_resilient, 3),
        "overhead_pct": round(100.0 * overhead, 2),
        "max_overhead_pct": round(100.0 * MAX_OVERHEAD, 2),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    BENCH_PATH.write_text(text)
    ROOT_BENCH_PATH.write_text(text + "\n")

    emit(
        "resilience_dispatch_overhead",
        f"sweep of {len(specs)} specs (scale={SCALE}, "
        f"jobs={JOBS}, best of {REPEATS})\n"
        f"  plain pool: {best_pool:.2f}s  {times['pool']}\n"
        f"  resilient:  {best_resilient:.2f}s  {times['resilient']}\n"
        f"  fault-free overhead: {100.0 * overhead:+.1f}% "
        f"(ceiling {100.0 * MAX_OVERHEAD:.0f}%)",
    )
    assert overhead <= MAX_OVERHEAD, (
        f"resilient dispatch costs {100.0 * overhead:.1f}% over the "
        f"plain pool on a fault-free sweep (ceiling "
        f"{100.0 * MAX_OVERHEAD:.0f}%)"
    )
