"""Dataset containers and sweeps.

A :class:`Dataset` owns a list of specs.  The :func:`sweep` helper runs
the simulator across devices/formats and returns a columnar
:class:`~repro.core.table.SweepTable` that the analysis, ml and
experiment layers consume directly.  Sweeps never materialise matrix
instances: :func:`records_table` scores a chunk from its per-spec
measurement records (:mod:`repro.perfmodel.record`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..devices.base import Device
from .generator import MatrixSpec
from .table import SweepTable

__all__ = ["Dataset", "sweep", "records_table", "SweepTable"]

DEFAULT_MAX_NNZ = 100_000


class Dataset:
    """A list of matrix specs, generated at up to ``max_nnz`` nonzeros."""

    def __init__(
        self,
        specs: Sequence[MatrixSpec],
        max_nnz: int = DEFAULT_MAX_NNZ,
        name: str = "dataset",
    ):
        self.specs = list(specs)
        self.max_nnz = max_nnz
        self.name = name

    def __len__(self) -> int:
        return len(self.specs)


def _first_seen_codes(values: np.ndarray, labels: Sequence[str]):
    """Categorical (codes, categories) with categories ordered by first
    appearance in ``values`` — the same encoding ``SweepTable.from_rows``
    produces from dict rows, so both engines emit identical tables."""
    uniq, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    categories = [labels[int(uniq[pos])] for pos in order]
    return rank[inverse], categories


def _per_inst_columns(
    indices: Sequence[int],
    specs: Sequence[MatrixSpec],
    features: Sequence,
) -> Dict[str, np.ndarray]:
    """Per-spec scalar columns (measured ``features`` at declared scale
    plus requested grid coordinates), gathered once per chunk member."""
    n_inst = len(indices)
    per_inst = {
        "spec_index": np.empty(n_inst, dtype=np.int64),
        "mem_footprint_mb": np.empty(n_inst),
        "avg_nnz_per_row": np.empty(n_inst),
        "skew_coeff": np.empty(n_inst),
        "cross_row_similarity": np.empty(n_inst),
        "avg_num_neighbours": np.empty(n_inst),
        "nnz": np.empty(n_inst, dtype=np.int64),
        "n_rows": np.empty(n_inst, dtype=np.int64),
        "req_footprint_mb": np.empty(n_inst),
        "req_avg_nnz": np.empty(n_inst),
        "req_skew": np.empty(n_inst),
        "req_sim": np.empty(n_inst),
        "req_neigh": np.empty(n_inst),
    }
    for ci, i in enumerate(indices):
        feats = features[ci]
        spec = specs[i]
        per_inst["spec_index"][ci] = i
        per_inst["mem_footprint_mb"][ci] = feats.mem_footprint_mb
        per_inst["avg_nnz_per_row"][ci] = feats.avg_nnz_per_row
        per_inst["skew_coeff"][ci] = feats.skew_coeff
        per_inst["cross_row_similarity"][ci] = feats.cross_row_similarity
        per_inst["avg_num_neighbours"][ci] = feats.avg_num_neighbours
        per_inst["nnz"][ci] = feats.nnz
        per_inst["n_rows"][ci] = feats.n_rows
        per_inst["req_footprint_mb"][ci] = spec.mem_footprint_mb
        per_inst["req_avg_nnz"][ci] = spec.avg_nnz_per_row
        per_inst["req_skew"][ci] = spec.skew_coeff
        per_inst["req_sim"][ci] = spec.cross_row_sim
        per_inst["req_neigh"][ci] = spec.avg_num_neigh
    return per_inst


def _grid_sweep_table(
    grid, per_inst: Dict[str, np.ndarray], best_only: bool, precision: str
) -> SweepTable:
    """Assemble the measurement table from a scored grid plus the chunk's
    per-spec scalar columns."""
    from ..perfmodel.batch import STATUS_OK
    from ..perfmodel.simulator import BOTTLENECKS

    if best_only:
        flat = grid.best_per().ravel()
        flat = flat[flat >= 0]
    else:
        flat = np.flatnonzero(grid.data["status"] == STATUS_OK)
    if len(flat) == 0:
        return SweepTable({})
    rec = grid.data[flat]

    inst_idx = rec["instance"].astype(np.int64)
    columns: Dict[str, np.ndarray] = {}
    categories: Dict[str, List[str]] = {}
    # Cell emission order is instance-major, so first-seen == sorted for
    # the matrix column; device/format/bottleneck need the rank pass.
    columns["matrix"], categories["matrix"] = _first_seen_codes(
        inst_idx, grid.instance_names
    )
    for name, arr in per_inst.items():
        columns[name] = arr[inst_idx]
    columns["device"], categories["device"] = _first_seen_codes(
        rec["device"].astype(np.int64), grid.device_names
    )
    columns["format"], categories["format"] = _first_seen_codes(
        rec["format"].astype(np.int64), grid.format_names
    )
    columns["precision"] = np.zeros(len(rec), dtype=np.int64)
    categories["precision"] = [precision]
    for key in ("gflops", "watts", "gflops_per_watt"):
        columns[key] = rec[key].astype(np.float64)
    columns["bottleneck"], categories["bottleneck"] = _first_seen_codes(
        rec["bottleneck"].astype(np.int64), BOTTLENECKS
    )
    return SweepTable(columns, categories)


def records_table(
    dataset: Dataset,
    lo: int,
    hi: int,
    records: Sequence,
    devices: Sequence[Device],
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    precision: str = "fp64",
) -> SweepTable:
    """Measurement table for specs ``lo..hi`` scored from their
    :class:`~repro.perfmodel.record.SpecRecord` s — the production sweep
    path (the records must cover every cell of the grid; see
    :func:`~repro.perfmodel.record.chunk_records`)."""
    from ..perfmodel.batch import _GridPlan, _score_grid

    indices = list(range(lo, hi))
    grid = _score_grid(
        records, [f"{dataset.name}[{i}]" for i in indices],
        _GridPlan(devices, formats, (precision,)), seed=seed,
    )
    per_inst = _per_inst_columns(indices, dataset.specs, grid.features)
    return _grid_sweep_table(grid, per_inst, best_only, precision)


def sweep(
    dataset: Dataset,
    devices: Sequence[Device],
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    progress: Optional[Callable[[int, int], None]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    precision: str = "fp64",
    run_dir: Optional[str] = None,
    resume: bool = False,
    pack_shards: bool = False,
    faults=None,
    chunk_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    report=None,
) -> SweepTable:
    """Simulate the dataset on every device.

    With ``best_only`` (the paper's reporting convention) one row per
    (matrix, device) carries the best format; otherwise one row per
    (matrix, device, format).  Matrices that no format can host on a device
    (FPGA capacity) are skipped, matching the paper's handling.  The
    result is a columnar :class:`~repro.core.table.SweepTable`
    (``.rows`` gives the historical dict-row projection).

    ``jobs`` selects the execution engine: 1 (the default) stays serial
    and in-process, ``jobs > 1`` shards over a process pool and 0
    auto-detects the core count.  ``cache_dir`` keeps each spec's
    measurement record in ``<cache_dir>/records.rpak`` so warm re-sweeps
    skip generation.  ``precision`` scores every cell at fp64 (the
    default) or fp32.  Output is row-for-row identical across ``jobs``
    values and cache states; every path funnels through
    :func:`repro.pipeline.run_sweep`.

    Resilience controls pass straight through to the engine: ``run_dir``
    journals completed chunks (``resume=True`` skips them on a rerun,
    ``pack_shards`` stores them in a single ``shards.rpak`` pack),
    ``chunk_timeout``/``max_retries`` set the per-chunk deadline and
    retry budget, ``faults`` arms a deterministic
    :class:`~repro.pipeline.faults.FaultPlan` and ``report`` receives a
    filled :class:`~repro.pipeline.report.RunReport` — none of them
    change the merged rows.
    """
    from ..pipeline.engine import run_sweep

    return run_sweep(
        dataset, devices, best_only=best_only, formats=formats,
        seed=seed, jobs=jobs, cache_dir=cache_dir, progress=progress,
        precision=precision, run_dir=run_dir, resume=resume,
        pack_shards=pack_shards, faults=faults,
        chunk_timeout=chunk_timeout, max_retries=max_retries,
        report=report,
    )
