"""Matrix instances: a materialised matrix plus its declared full scale.

Full-size paper matrices reach 2 GB in CSR; materialising thousands of
those in pure Python is infeasible, so dataset entries carry a
*representative* matrix (structurally faithful, capped nnz) together with
the declared :class:`~repro.core.generator.MatrixSpec`.  Scale-free
statistics (locality, padding ratios, SIMD utilisation) are measured on
the representative; size-dependent quantities (footprint, row count, the
row-length profile used for imbalance) come from the declared spec.

An instance measures itself into one memoised
:class:`~repro.perfmodel.record.SpecRecord` — the record a sweep builds
per spec — so every ``simulate_*`` call is a view of the record scorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.features import Features
from ..core.generator import MatrixSpec
from ..core.matrix import CSRMatrix, CSRStructBatch
from .batch import _GridPlan
from .record import (
    SpecRecord, _Profile, base_records, declared_features,
    declared_profile, measure, needs,
)

__all__ = ["MatrixInstance", "instance_records"]


@dataclass
class MatrixInstance:
    """A matrix to simulate: representative structure + declared scale."""

    matrix: CSRMatrix
    spec: Optional[MatrixSpec] = None
    name: str = ""

    def __post_init__(self):
        self._features: Optional[Features] = None
        self._record: Optional[SpecRecord] = None
        self._declared: Optional[_Profile] = None

    # -- declared scale -------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.spec.n_rows if self.spec else self.matrix.n_rows

    @property
    def n_cols(self) -> int:
        return self.spec.n_cols if self.spec else self.matrix.n_cols

    @property
    def nnz(self) -> int:
        if self.spec is None:
            return self.matrix.nnz
        # Preserve the representative's realised density rather than the
        # nominal average (generation is stochastic).
        return int(round(self.matrix.nnz * self.scale))

    @property
    def scale(self) -> float:
        """Declared rows over representative rows (>= 1)."""
        if self.spec is None:
            return 1.0
        return max(1.0, self.spec.n_rows / max(self.matrix.n_rows, 1))

    @property
    def mem_footprint_mb(self) -> float:
        """Declared CSR footprint (paper f1)."""
        return (self.nnz * 12.0 + (self.n_rows + 1) * 4.0) / (1024**2)

    @property
    def features(self) -> Features:
        """Measured features, with the footprint at declared scale."""
        if self._features is None:
            self._features = declared_features(
                self.matrix, self.n_rows, self.n_cols, self.nnz
            )
        return self._features

    # -- measurement ----------------------------------------------------
    def record(self, plan: _GridPlan) -> SpecRecord:
        """This matrix's measurement record, covering every cell ``plan``
        scores (see :func:`instance_records`)."""
        return instance_records([self], plan)[0]

    def _record_with_stats(self, format_names: Sequence[str]) -> SpecRecord:
        """The memoised record, extended by the stats of any of
        ``format_names`` it lacks (scored as a one-matrix structure
        batch)."""
        rec = self._record
        missing = [name for name in format_names if rec is None or (
            name not in rec.stats and name not in rec.refusals)]
        if missing:
            fresh = base_records(
                CSRStructBatch.from_matrices([self.matrix]), [self.matrix],
                [self.spec], missing, features=[self.features],
            )[0]
            self._record = rec = (
                fresh if rec is None else rec.merged(fresh)
            )
        return rec

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec: MatrixSpec,
        max_nnz: int = 200_000,
        name: str = "",
    ) -> "MatrixInstance":
        """Build the representative matrix for ``spec`` and wrap it."""
        return cls(matrix=spec.build(max_nnz=max_nnz), spec=spec, name=name)

    @classmethod
    def from_matrix(
        cls, matrix: CSRMatrix, name: str = ""
    ) -> "MatrixInstance":
        """Wrap a fully materialised matrix (no scaling)."""
        return cls(matrix=matrix, spec=None, name=name)


def instance_records(
    instances: Sequence[MatrixInstance], plan: _GridPlan
) -> List[SpecRecord]:
    """The memoised records of ``instances``, each covering every cell
    ``plan`` scores.

    A record that already covers the plan is reused as is; otherwise
    only the missing formats, SIMD widths and imbalance keys are
    measured and merged in.  An instance's declared-scale row profile is
    drawn at most once, whichever devices ask.
    """
    records = [inst._record_with_stats(plan.format_names)
               for inst in instances]
    for inst, rec, need in zip(instances, records, needs(plan, records)):
        if not rec.covers((), *need):
            if inst._declared is None:
                inst._declared = _Profile(declared_profile(
                    inst.spec, rec.scale, inst.matrix.row_lengths
                ))
            measure(rec, inst._declared, need)
    return records
