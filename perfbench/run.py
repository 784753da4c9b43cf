"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

Run from the repository root: the benchmark imports ``repro`` from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end set, with ``--trace 1`` the
per-layer set (see ``perfbench/README.md``).  The line before it
records the run: seed, versions, ``nproc``, the host-speed probe.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench_work"

# name -> unit; every workload reports every one of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms": "ms",
}

# name -> unit.  Span metrics come from perfbench.tracing.TARGETS; the
# rest from the workloads.  A layer a workload does not reach reads 0.
PER_LAYER = {
    "generator.structure_s": "s",
    "generator.profile_s": "s",
    "generator.profile_rows": "count",
    "features.extract_s": "s",
    "features.calls": "count",
    "formats.stats_s": "s",
    "parallel.imbalance_s": "s",
    "parallel.imbalance_calls": "count",
    "parallel.sell_widths_s": "s",
    "parallel.simd_s": "s",
    "perfmodel.materialise_s": "s",
    "perfmodel.score_s": "s",
    "perfmodel.cells": "count",
    "table.assemble_s": "s",
    "engine.overhead_s": "s",
    "cache.fetch_s": "s",
    "cache.store_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes_written": "bytes",
    "ml.fit_s": "s",
    "ml.fit_calls": "count",
    "ml.evaluate_s": "s",
    "ml.predict_ms_b1": "ms",
    "ml.predict_ms_bmean": "ms",
    "service.select_server_p50_ms": "ms",
    "service.client_overhead_ms": "ms",
    "batcher.flushes": "count",
    "batcher.mean_batch": "count",
    "service.sweep_cache_hit_ratio": "ratio",
    "trace.covered_share": "ratio",
    "trace.overhead_pct": "%",
    "error_rate": "ratio",
    "sweep_specs_per_s": "1/s",
    "fill_specs_per_s": "1/s",
    "warm_specs_per_s": "1/s",
    "cache_mb": "MB",
    "serve_qps": "1/s",
    "select_p50_ms": "ms",
    "select_p99_ms": "ms",
    "sweep_p50_ms": "ms",
}


def _workloads():
    from perfbench.serve import ServeMix
    from perfbench.sweeps import SweepCache, SweepCold

    return {w.name: w for w in (SweepCold, SweepCache, ServeMix)}


def layer_metrics(tracer, p0, p1, window, extras, named, failed,
                  attempted) -> dict:
    """The per-layer set from a traced pass ``p1`` and its untraced
    twin ``p0``; ``window`` is the traced pass's ``(start, end)`` ns."""
    from perfbench.tracing import covered_time

    out = {name: 0.0 for name in PER_LAYER}
    out.update({name: ns / 1e9 for name, ns in tracer.times_ns.items()})
    out.update(tracer.counts)
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
    start, end = window
    inside = [(max(s, start), min(e, end)) for s, e in tracer.roots
              if e > start and s < end]
    out["trace.covered_share"] = covered_time(inside) / (end - start)
    if p0.attempted and p1.attempted:
        # Same operations in both passes, except serve-mix, whose
        # passes last equally long: compare time per operation.
        per_op0 = p0.wall_s / p0.attempted
        per_op1 = p1.wall_s / p1.attempted
        out["trace.overhead_pct"] = 100.0 * (per_op1 / per_op0 - 1.0)
    out["error_rate"] = failed / attempted if attempted else 1.0
    out.update(named)
    out.update(extras)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import common
    from perfbench.stats import median
    from perfbench.tracing import Tracer

    work = ROOT / WORK_DIR / f"{workload}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    ctx = common.Context(root=ROOT, work=work, seed=seed, seconds=seconds)
    record = common.run_record(ctx, workload, trace)
    record["reference_ms_before"] = common.reference_ms()
    wl = _workloads()[workload](ctx)
    try:
        setup_s = []
        for rep in range(wl.setup_reps):
            if rep:
                wl.reset()
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)

        p0 = wl.measure(seconds)
        # Before the checks, which may build more than the timed pass.
        peak_mb = max(common.peak_rss_mb(), wl.child_peak_mb())
        failed = p0.failed + wl.check(p0)
        attempted = p0.attempted
        named = wl.named(p0)
        if trace:
            tracer = Tracer()
            with tracer:
                start = time.perf_counter_ns()
                p1 = wl.measure(seconds, replay=p0, tracer=tracer)
                window = (start, time.perf_counter_ns())
                extras = wl.traced_extras(p0, p1, tracer)
            failed += p1.failed + wl.mismatches(p0, p1)
            attempted += p1.attempted
            record["absent_targets"] = tracer.absent
            metrics = layer_metrics(tracer, p0, p1, window, extras, named,
                                    failed, attempted)
        else:
            metrics = {"setup_s": median(setup_s), "peak_rss_mb": peak_mb,
                       **wl.end_to_end(p0)}
        record["setup_reps_s"] = setup_s
        record.update(named)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work files are still there
    record["reference_ms_after"] = common.reference_ms()
    units = PER_LAYER if trace else END_TO_END
    return {
        "record": record,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}: run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    names = _workloads()
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; available: "
              f"{sorted(names)}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
