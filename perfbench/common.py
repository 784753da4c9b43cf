"""Shared pieces of the workloads: inputs, host facts, set-up helpers."""

from __future__ import annotations

import inspect
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

# Every workload sweeps the ``tiny`` preset (180 specs, 60 per footprint
# bin, bin-major) of the seed's dataset.
PRESET = "tiny"
N_BINS = 3
# Stride through one bin's 60 specs; coprime with 60 so every spec is
# visited once, and large enough that neighbours differ in row length
# and skew, not only in the innermost regularity knobs.
BIN_STRIDE = 7

# Devices of the table behind serve-mix: one CPU, one GPU and the FPGA
# (the FPGA refuses large matrices, so the table also carries capacity
# skips).
TABLE_DEVICES = ("AMD-EPYC-24", "Tesla-A100", "Alveo-U280")
# Specs in that table (a stratified sample, TABLE_SPECS / 3 per bin).
TABLE_SPECS = 24


@dataclass
class Context:
    """One benchmark run: where it works and what it was asked."""

    root: Path
    work: Path
    seed: int
    seconds: float

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])


def dataset_specs(seed: int):
    from repro.core.feature_space import build_dataset_specs

    return build_dataset_specs(PRESET, seed=seed)


def stratified_order(n_specs: int) -> List[int]:
    """Spec positions interleaved across the footprint bins.

    Positions, not the seed, decide the order, so every seed sweeps the
    same feature combinations in the same order and runs on different
    seeds do comparable work; the seed changes footprints inside each
    bin and every matrix's random structure.
    """
    per_bin = n_specs // N_BINS
    order = [
        b * per_bin + (k * BIN_STRIDE) % per_bin
        for k in range(per_bin) for b in range(N_BINS)
    ]
    order.extend(range(per_bin * N_BINS, n_specs))
    return order


def sweep_options() -> Dict[str, object]:
    """``fused=True`` while ``sweep()`` still offers the choice.

    Once a cold sweep is always fused the keyword disappears and the
    default is the fused engine, so the benchmark needs no edit.
    """
    from repro.core.dataset import sweep

    if "fused" in inspect.signature(sweep).parameters:
        return {"fused": True}
    return {}


def all_devices():
    from repro.devices import TESTBEDS, get_device

    return [get_device(name) for name in TESTBEDS]


def build_table(specs, order: List[int], n: int = TABLE_SPECS):
    """All-formats fused sweep of ``n`` stratified specs on
    :data:`TABLE_DEVICES`, at the experiment spec's default ``max_nnz``."""
    from repro.core.dataset import Dataset, sweep
    from repro.devices import get_device
    from repro.experiments.spec import ExperimentSpec

    sample = [specs[i] for i in order[:n]]
    dataset = Dataset(sample, max_nnz=ExperimentSpec().max_nnz,
                      name=PRESET)
    devices = [get_device(d) for d in TABLE_DEVICES]
    return sweep(dataset, devices, best_only=False, jobs=1,
                 **sweep_options())


def python_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    return env


def fresh_import(root: Path) -> None:
    """Import the CLI in a fresh interpreter: the start-up every
    ``repro`` command pays before its first spec (part of set-up)."""
    # No timeout: waiting with one polls every 50 ms, which would
    # quantise the set-up time.
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        cwd=root, env=python_env(root), check=True,
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_ms(reps: int = 5) -> float:
    """Median time of a fixed NumPy loop: a host-speed probe, so a
    reader can tell host drift from a regression (reported only)."""
    x = np.random.default_rng(0).random(1 << 20)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.sort(x)
        np.cumsum(x)
        float((x * x).sum())
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1000.0


def run_record(ctx: Context, workload: str, trace: bool) -> Dict[str, object]:
    """The facts recorded with every run."""
    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def dir_bytes(path: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def measure_until(seconds: float, count: Optional[int]):
    """Yield op indices: exactly ``count`` of them when replaying a
    pass, else at least one and then while the next op, at the mean op
    time so far, would end nearer ``seconds`` than the last one did.
    Runs then last ``seconds`` on average, whatever the op size."""
    t0 = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                return
        elif i:
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / i > seconds:
                return
        yield i
        i += 1
