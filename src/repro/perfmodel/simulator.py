"""Matrix-instance views of the SpMV model.

:func:`simulate_grid` scores every (instance, device, format, precision)
cell with the record scorer (:func:`repro.perfmodel.batch._score_grid`,
which composes the paper's four bottlenecks) from each instance's
memoised measurement record.  :func:`simulate_spmv` (one triple) and
:func:`simulate_best_detailed` (one device's format list) are one-device
grids read back as :class:`SpmvMeasurement` objects.  Asking about
another format or device only measures what is new.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..devices.base import Device
from ..formats.base import CapacityError, FormatError
from .batch import (
    BOTTLENECKS, DIAGNOSTIC_KEYS, PRECISIONS, STATUS_CAPACITY_ERROR,
    STATUS_FORMAT_ERROR, GridResult, _GridPlan, _score_grid,
)
from .instance import MatrixInstance, instance_records

__all__ = ["SpmvMeasurement", "simulate_grid", "simulate_spmv",
           "simulate_best", "simulate_best_detailed", "BestFormatOutcome",
           "FormatSkip", "BOTTLENECKS", "PRECISIONS"]


def simulate_grid(
    instances: Sequence[MatrixInstance],
    devices: Sequence[Device],
    formats: Optional[Sequence[str]] = None,
    precisions: Sequence[str] = ("fp64",),
    seed: int = 0,
    noise_sigma: Optional[float] = None,
) -> GridResult:
    """Score the full (instance x device x format x precision) grid.

    Formats that refuse a matrix become ``format_error`` cells, the
    device capacity gate becomes ``capacity_error`` cells (with the
    reason :func:`simulate_spmv` raises), and the rest are scored.
    ``formats=None`` uses each device's Table-II list; an explicit list
    applies to every device.
    """
    plan = _GridPlan(devices, formats, precisions)
    instances = list(instances)
    return _score_grid(
        instance_records(instances, plan),
        [inst.name for inst in instances], plan, seed, noise_sigma,
    )


@dataclass(frozen=True)
class SpmvMeasurement:
    """One simulated SpMV measurement (the paper's per-run record)."""

    device: str
    format: str
    matrix: str
    gflops: float
    time_s: float
    watts: float
    gflops_per_watt: float
    bottleneck: str
    diagnostics: Dict[str, float] = field(default_factory=dict, hash=False)


def _measurement(grid: GridResult, idx: int) -> SpmvMeasurement:
    rec = grid.data[idx]
    return SpmvMeasurement(
        device=grid.device_names[rec["device"]],
        format=grid.format_names[rec["format"]],
        matrix=grid.instance_names[rec["instance"]],
        gflops=float(rec["gflops"]),
        time_s=float(rec["time_s"]),
        watts=float(rec["watts"]),
        gflops_per_watt=float(rec["gflops_per_watt"]),
        bottleneck=BOTTLENECKS[rec["bottleneck"]],
        diagnostics={key: float(rec[key]) for key in DIAGNOSTIC_KEYS},
    )


def simulate_spmv(
    instance: MatrixInstance,
    format_name: str,
    device: Device,
    seed: int = 0,
    noise_sigma: Optional[float] = None,
    precision: str = "fp64",
) -> SpmvMeasurement:
    """Simulate one SpMV run; raises :class:`FormatError`/:class:`CapacityError`
    when the format cannot host the matrix on this device.

    ``precision`` extends the paper's double-precision protocol with the
    single-precision variant it defers to future work: values shrink to
    4 bytes and the compute peak doubles, while index metadata is
    unchanged — so the speedup is sub-2x and largest for value-heavy
    (low-metadata) formats.
    """
    grid = simulate_grid(
        [instance], [device], formats=[format_name],
        precisions=(precision,), seed=seed, noise_sigma=noise_sigma,
    )
    status = grid.data["status"][0]
    if status == STATUS_CAPACITY_ERROR:
        raise CapacityError(grid.skip_reasons[0])
    if status == STATUS_FORMAT_ERROR:
        raise FormatError(grid.skip_reasons[0])
    return _measurement(grid, 0)


@dataclass(frozen=True)
class FormatSkip:
    """One format that refused (or overflowed on) a device, and why."""

    format: str
    reason: str
    capacity: bool  # True for CapacityError (hard storage overflow)


@dataclass(frozen=True)
class BestFormatOutcome:
    """Result of a best-format search, including every skipped format.

    ``best`` is ``None`` when all formats failed (e.g. HBM capacity
    overflow on the FPGA) — ``skipped`` then explains each failure.
    """

    best: Optional[SpmvMeasurement]
    skipped: Tuple[FormatSkip, ...]
    attempted: Tuple[str, ...]

    @property
    def all_failed(self) -> bool:
        return self.best is None and bool(self.attempted)

    @property
    def skip_reasons(self) -> Dict[str, str]:
        """``{format: reason}`` for every skipped format."""
        return {s.format: s.reason for s in self.skipped}


def simulate_best_detailed(
    instance: MatrixInstance,
    device: Device,
    formats: Optional[List[str]] = None,
    seed: int = 0,
    noise_sigma: Optional[float] = None,
    precision: str = "fp64",
) -> BestFormatOutcome:
    """Best measurement across the device's formats, with the reason for
    every format that was skipped (the paper reports the best-performing
    format per matrix/device; Section V-A's VSL/HBM failures motivate the
    skip accounting).  Ties go to the earliest format in the list."""
    names = tuple(formats if formats is not None else device.formats)
    if not names:
        return BestFormatOutcome(best=None, skipped=(), attempted=())
    grid = simulate_grid(
        [instance], [device], formats=names, precisions=(precision,),
        seed=seed, noise_sigma=noise_sigma,
    )
    idx = int(grid.best_per()[0, 0, 0])
    return BestFormatOutcome(
        best=_measurement(grid, idx) if idx >= 0 else None,
        skipped=tuple(
            FormatSkip(format=s.format, reason=s.reason,
                       capacity=s.kind == "capacity")
            for s in grid.skips()
        ),
        attempted=names,
    )


def simulate_best(
    instance: MatrixInstance,
    device: Device,
    formats: Optional[List[str]] = None,
    seed: int = 0,
    noise_sigma: Optional[float] = None,
    precision: str = "fp64",
) -> Optional[SpmvMeasurement]:
    """Best measurement across the device's formats (the paper reports the
    best-performing format per matrix/device).

    Formats that refuse the matrix are skipped; returns ``None`` when every
    format fails (e.g. HBM capacity overflow on the FPGA).  Use
    :func:`simulate_best_detailed` to learn *why* formats were skipped.
    """
    return simulate_best_detailed(
        instance, device, formats=formats, seed=seed,
        noise_sigma=noise_sigma, precision=precision,
    ).best
