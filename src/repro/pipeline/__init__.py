"""Sweep execution pipeline: sharding, persistence, caching, resilience.

The pipeline industrialises the dataset sweep that every figure/table
bench and the CLI run: :func:`run_sweep` partitions specs into chunks,
executes them serially or across a self-healing worker crew (per-chunk
deadlines, capped-backoff retries, pool-death detection, in-process
degradation), and merges results deterministically;
:class:`RecordCache` content-keys each
:class:`~repro.core.generator.MatrixSpec` and persists its measurement
record (features, per-format statistics, SIMD utilisation, imbalance)
in one append-only pack so warm sweeps skip generation entirely —
quarantining, never trusting, corrupt records.  :class:`RunJournal`
makes long sweeps resumable (``repro sweep --resume``),
:class:`FaultPlan` injects deterministic chaos for the resilience
suites, and :class:`RunReport` accounts every incident for
``repro sweep --health-json``.
"""

from .cache import CACHE_VERSION, RecordCache, spec_key
from .engine import resolve_jobs, run_sweep
from .faults import Fault, FaultPlan, InjectedFaultError, corrupt_file
from .journal import RunJournal, sweep_config
from .report import (
    ChunkFailedError,
    ChunkTimeoutError,
    ResumeError,
    RunReport,
    SweepError,
    WorkerCrashError,
)

__all__ = [
    "CACHE_VERSION",
    "RecordCache",
    "spec_key",
    "resolve_jobs",
    "run_sweep",
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "corrupt_file",
    "RunJournal",
    "sweep_config",
    "RunReport",
    "SweepError",
    "WorkerCrashError",
    "ChunkTimeoutError",
    "ChunkFailedError",
    "ResumeError",
]
