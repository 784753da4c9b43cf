"""The two sweep workloads: cold fused chunks, and cache fill + warm."""

from __future__ import annotations

import shutil
import sys
import time
import traceback
from typing import Dict, List, Optional

from .common import (
    PRESET, all_devices, dataset_specs, dir_bytes, fresh_import,
    measure_until, stratified_order, sweep_options,
)
from .stats import median
from .workload import Pass, Workload

# Specs per sweep() call of sweep-cold: a mix of all three footprint
# bins, and small enough that re-sweeping one call through the instance
# route for the check stays a few seconds.
COLD_CHUNK = 8
# sweep-cold repeats a cycle of this many calls (48 specs, 16 per bin)
# and measures whole cycles only: every run sweeps the same specs, so
# neither its rate nor its peak memory depends on how many calls fit.
COLD_CYCLE = 6
# sweep-cache rounds: fill a fresh cache with one sample of this many
# specs (4 per footprint bin, ~120 MB), then read it warm this many
# times.  A cycle is one round per sample; whole cycles only, as above.
FILL_SPECS = 12
WARM_PER_ROUND = 10
CACHE_SAMPLES = 3


def _sweep(dataset, devices, **kwargs):
    from repro.core.dataset import sweep

    return sweep(dataset, devices, best_only=True, jobs=1, **kwargs)


def _guarded(fn, *args, **kwargs):
    """``fn(...)``, or ``None`` after printing the traceback: a failed
    operation is counted, it does not end the run."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 — reported and counted as failed
        traceback.print_exc(file=sys.stderr)
        return None


class SweepCold(Workload):
    name = "sweep-cold"
    # A set-up is ~0.4 s, mostly an interpreter start: repeat it more.
    setup_reps = 5

    def setup(self) -> None:
        fresh_import(self.ctx.root)
        self.specs = dataset_specs(self.ctx.seed)
        order = stratified_order(len(self.specs))
        self.chunks = [
            order[i:i + COLD_CHUNK]
            for i in range(0, COLD_CHUNK * COLD_CYCLE, COLD_CHUNK)
        ]
        self.devices = all_devices()

    def _dataset(self, k: int):
        from repro.core.dataset import Dataset

        k %= len(self.chunks)
        return Dataset([self.specs[i] for i in self.chunks[k]],
                       name=f"{PRESET}.{k}")

    def measure(self, seconds: float, replay: Optional[Pass] = None,
                tracer=None) -> Pass:
        options = sweep_options()
        tables: List[object] = []
        op_s: List[float] = []
        n_specs = 0
        cycles = replay and replay.attempted // len(self.chunks)
        t0 = time.perf_counter()
        for _ in measure_until(seconds, cycles):
            for k in range(len(self.chunks)):
                dataset = self._dataset(k)
                start = time.perf_counter()
                tables.append(_guarded(_sweep, dataset, self.devices,
                                       **options))
                op_s.append(time.perf_counter() - start)
                n_specs += len(dataset)
        return Pass(
            wall_s=time.perf_counter() - t0, op_s=op_s,
            attempted=len(op_s),
            failed=sum(t is None for t in tables),
            data={"tables": tables, "specs": n_specs},
        )

    def check(self, p: Pass) -> int:
        """Re-sweep one seeded call through the default (instance)
        route, untimed; its rows must equal the fused rows exactly."""
        tables = p.data["tables"]
        i = int(self.ctx.rng(1).integers(len(tables)))
        if tables[i] is None:
            return 0  # already counted as failed
        ref = _guarded(_sweep, self._dataset(i), self.devices)
        return int(ref is None or not ref == tables[i])

    def mismatches(self, p0: Pass, p1: Pass) -> int:
        return sum(
            a is not None and b is not None and not a == b
            for a, b in zip(p0.data["tables"], p1.data["tables"])
        )

    def end_to_end(self, p: Pass) -> Dict[str, float]:
        # Calls differ by their spec mix, and a median would pick a
        # different call on another seed: report the mean call time.
        return {
            "ops_per_s": p.data["specs"] / p.busy_s,
            "op_ms": 1000.0 * p.busy_s / len(p.op_s),
        }

    def named(self, p: Pass) -> Dict[str, float]:
        return {"sweep_specs_per_s": p.data["specs"] / p.busy_s}


class SweepCache(Workload):
    name = "sweep-cache"
    setup_reps = 5

    def setup(self) -> None:
        fresh_import(self.ctx.root)
        specs = dataset_specs(self.ctx.seed)
        order = stratified_order(len(specs))
        self.samples = [
            [specs[i] for i in order[j:j + FILL_SPECS]]
            for j in range(0, FILL_SPECS * CACHE_SAMPLES, FILL_SPECS)
        ]
        self.devices = all_devices()
        self._dirs = 0

    def _dataset(self, r: int):
        from repro.core.dataset import Dataset

        return Dataset(self.samples[r], name=f"{PRESET}.{r}")

    def _round(self, r: int, out: Dict[str, list]) -> None:
        """Fill a fresh cache directory with sample ``r``, then read it
        warm."""
        self._dirs += 1
        cache_dir = self.ctx.work / f"cache-{self._dirs}"
        cache_dir.mkdir(parents=True)
        try:
            start = time.perf_counter()
            out["fill"].append(_guarded(_sweep, self._dataset(r),
                                        self.devices,
                                        cache_dir=str(cache_dir)))
            out["fill_s"].append(time.perf_counter() - start)
            warm = []
            for _ in range(WARM_PER_ROUND):
                start = time.perf_counter()
                # A fresh Dataset and cache handle for every pass.
                warm.append(_guarded(_sweep, self._dataset(r),
                                     self.devices,
                                     cache_dir=str(cache_dir)))
                out["warm_s"].append(time.perf_counter() - start)
            out["warm"].append(warm)
            out["cache_mb"].append(dir_bytes(cache_dir) / 2 ** 20)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def measure(self, seconds: float, replay: Optional[Pass] = None,
                tracer=None) -> Pass:
        out: Dict[str, list] = {
            "fill": [], "fill_s": [], "warm": [], "warm_s": [],
            "cache_mb": [],
        }
        cycles = replay and len(replay.data["fill"]) // CACHE_SAMPLES
        t0 = time.perf_counter()
        for _ in measure_until(seconds, cycles):
            for r in range(CACHE_SAMPLES):
                self._round(r, out)
        outcomes = out["fill"] + [t for w in out["warm"] for t in w]
        return Pass(
            wall_s=time.perf_counter() - t0,
            op_s=out["fill_s"] + out["warm_s"],
            attempted=len(outcomes),
            failed=sum(t is None for t in outcomes),
            data=out,
        )

    def check(self, p: Pass) -> int:
        """Every warm table must equal its round's fill table."""
        return sum(
            t is not None and not t == fill
            for fill, warm in zip(p.data["fill"], p.data["warm"])
            if fill is not None for t in warm
        )

    def mismatches(self, p0: Pass, p1: Pass) -> int:
        return sum(
            t is not None and not t == ref
            for ref, fill, warm in zip(p0.data["fill"], p1.data["fill"],
                                       p1.data["warm"])
            if ref is not None for t in [fill] + warm
        )

    def _rate(self, p: Pass, key: str) -> float:
        """Specs per second over the pass's fill or warm sweeps."""
        return FILL_SPECS * len(p.data[key]) / sum(p.data[key])

    def end_to_end(self, p: Pass) -> Dict[str, float]:
        # The latency of a sweep() call on an empty cache: a fill.
        return {
            "ops_per_s": self._rate(p, "warm_s"),
            "op_ms": 1000.0 * sum(p.data["fill_s"]) / len(p.data["fill_s"]),
        }

    def named(self, p: Pass) -> Dict[str, float]:
        return {
            "fill_specs_per_s": self._rate(p, "fill_s"),
            "warm_specs_per_s": self._rate(p, "warm_s"),
            "cache_mb": median(p.data["cache_mb"]),
        }
