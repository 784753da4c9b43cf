"""Per-matrix measurement records: everything the grid scorer reads.

A sweep chunk runs specs → structure batch → one :class:`SpecRecord`
per spec → :func:`repro.perfmodel.batch._score_grid`, and a
:class:`~repro.perfmodel.instance.MatrixInstance` memoises one record
for its own matrix, so every score comes from the same chain.  A record
holds the declared-scale scalars, the
:class:`~repro.core.features.Features`, each format's stat tuple or
refusal message, SIMD utilisation per width and imbalance factors per
``(strategy, n_workers, simd_width)`` key — and nothing name-dependent:
the noise hash is recomputed from the row name at score time, so one
record serves every dataset holding the spec.

:func:`build_records` generates the chunk's CSR structure once
(:func:`~repro.core.generator.structure_batch`), derives the format
stats columnar, and then measures spec by spec, releasing each spec's
declared-scale profile, prefix sum, SELL widths and warp cycles before
the next.  Only the widths and keys the grid's cells need are measured
(:meth:`~repro.perfmodel.batch._GridPlan.gate`, the scorer's own
capacity gate).

Records serialise to canonical JSON bytes (never pickle: the sweep cache
reads them back from a user directory); float ``repr`` round-trips every
value exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.features import Features, extract_features
from ..core.generator import MatrixSpec, row_length_profile, structure_batch
from ..core.matrix import CSRMatrix, CSRStructBatch
from ..devices.parallel import imbalance_for_strategy, sell_chunk_widths
from ..formats.base import FormatError, FormatStatsBatch, get_format
from .batch import _GridPlan, _scalar_arrays, _stat_arrays

__all__ = ["SpecRecord", "build_records", "chunk_records",
           "MAX_PROFILE_ROWS"]

# Imbalance statistics converge long before this many rows; the cap bounds
# profile memory for multi-GB declared matrices.
MAX_PROFILE_ROWS = 2_000_000

# Strategies whose partitioners share the profile's integer prefix sum.
_CSUM_STRATEGIES = ("row_block", "nnz_row")

ImbalanceKey = Tuple[str, int, int]
# (memory_bytes, metadata_bytes, stored_elements, padding_ratio,
#  simd_friendly) — the stat columns the scorer reads.
StatTuple = Tuple[int, int, int, float, bool]


@dataclass
class SpecRecord:
    """What the grid scorer reads about one spec's matrix."""

    scale: float
    nnz: int
    n_rows: int
    n_cols: int
    features: Features
    stats: Dict[str, StatTuple]
    refusals: Dict[str, str]
    simd: Dict[int, float] = field(default_factory=dict)
    imbalance: Dict[ImbalanceKey, float] = field(default_factory=dict)

    def covers(self, formats: Sequence[str], widths: Sequence[int] = (),
               keys: Sequence[ImbalanceKey] = ()) -> bool:
        """Whether every named format, width and key is present."""
        return (
            all(f in self.stats or f in self.refusals for f in formats)
            and all(w in self.simd for w in widths)
            and all(k in self.imbalance for k in keys)
        )

    def merged(self, newer: "SpecRecord") -> "SpecRecord":
        """``newer`` plus every format, width and key only ``self`` has."""
        return replace(
            newer,
            stats={**self.stats, **newer.stats},
            refusals={**self.refusals, **newer.refusals},
            simd={**self.simd, **newer.simd},
            imbalance={**self.imbalance, **newer.imbalance},
        )

    def to_bytes(self) -> bytes:
        payload = {
            "scale": self.scale,
            "nnz": self.nnz,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "features": self.features.to_dict(),
            "stats": {name: list(st) for name, st in self.stats.items()},
            "refusals": self.refusals,
            "simd": {str(w): v for w, v in self.simd.items()},
            "imbalance": {
                f"{s}|{n}|{w}": v for (s, n, w), v in self.imbalance.items()
            },
        }
        return json.dumps(payload, sort_keys=True,
                          default=_json_scalar).encode()

    @classmethod
    def from_bytes(cls, data) -> "SpecRecord":
        """Parse :meth:`to_bytes` output; any damage raises ValueError."""
        try:
            d = json.loads(bytes(data))
            imbalance = {}
            for enc, v in d["imbalance"].items():
                strategy, workers, width = enc.rsplit("|", 2)
                imbalance[(strategy, int(workers), int(width))] = float(v)
            return cls(
                scale=float(d["scale"]),
                nnz=int(d["nnz"]),
                n_rows=int(d["n_rows"]),
                n_cols=int(d["n_cols"]),
                features=Features(**d["features"]),
                stats={
                    name: (int(m), int(meta), int(st), float(pad), bool(fr))
                    for name, (m, meta, st, pad, fr) in d["stats"].items()
                },
                refusals={k: str(v) for k, v in d["refusals"].items()},
                simd={int(w): float(v) for w, v in d["simd"].items()},
                imbalance=imbalance,
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed spec record: {exc!r}") from exc


def _json_scalar(obj):
    """JSON fallback for NumPy scalars (feature values may be ones)."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON-serialisable: {type(obj)!r}")


class _Profile:
    """One spec's declared-scale row-length profile plus the
    worker-independent precomputations its measurements share: the
    prefix sum for the contiguous-block partitioners, the SELL chunk
    widths and the per-width warp-cycle counts."""

    def __init__(self, lengths: np.ndarray):
        self.lengths = lengths
        self._csum: Optional[np.ndarray] = None
        self._sell: Optional[np.ndarray] = None
        self._cycles: Dict[int, np.ndarray] = {}
        self._hist: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _histogram(self) -> Tuple[np.ndarray, np.ndarray]:
        """(values, counts) of the positive profile lengths.

        ``bincount`` is O(n_rows + max_len) against ``np.unique``'s
        O(n_rows log n_rows) sort and yields the same ascending pairs;
        the sort stays as the fallback for profiles whose maximum row
        length would make the count array larger than the profile.
        """
        if self._hist is None:
            prof = self.lengths
            max_len = int(prof.max()) if len(prof) else 0
            if 0 < max_len <= max(4 * len(prof), 1024):
                counts = np.bincount(prof)
                vals = np.nonzero(counts)[0]
                if len(vals) and vals[0] == 0:
                    vals = vals[1:]
                self._hist = (vals, counts[vals])
            else:
                self._hist = np.unique(prof[prof > 0], return_counts=True)
        return self._hist

    def simd_utilisation(self, width: int) -> float:
        if width <= 1:
            return 1.0
        vals, cnts = self._histogram()
        if len(vals) == 0:
            return 1.0
        issued = (np.ceil(vals / width) * width * cnts).sum()
        return float((vals * cnts).sum() / issued)

    def imbalance_factor(self, strategy: str, workers: int,
                         width: int) -> float:
        csum = sell = cycles = None
        if strategy in _CSUM_STRATEGIES:
            if self._csum is None:
                self._csum = np.concatenate(([0], np.cumsum(self.lengths)))
            csum = self._csum
        elif strategy == "sell_chunk":
            if self._sell is None:
                self._sell = sell_chunk_widths(self.lengths)
            sell = self._sell
        elif strategy == "warp_row":
            if width not in self._cycles:
                self._cycles[width] = (self.lengths + width - 1) // width
            cycles = self._cycles[width]
        return imbalance_for_strategy(
            strategy, self.lengths, workers, width,
            csum=csum, sell_widths=sell, warp_cycles=cycles,
        ).factor


def declared_profile(spec: Optional[MatrixSpec], scale: float,
                     rep_lengths: np.ndarray) -> np.ndarray:
    """Row-length profile at declared scale, for SIMD and imbalance.

    An unscaled matrix's profile is its own row lengths; a scaled one's
    is regenerated from the spec at (up to) ``MAX_PROFILE_ROWS`` rows so
    heavy rows keep their true *fraction* of the total work.
    """
    if spec is None or scale <= 1.0:
        return rep_lengths
    rng = np.random.default_rng(spec.seed)
    return row_length_profile(
        min(spec.n_rows, MAX_PROFILE_ROWS),
        spec.n_cols,
        spec.avg_nnz_per_row,
        spec.std_ratio * spec.avg_nnz_per_row,
        spec.skew_coeff,
        rng,
        spec.distribution,
    )


def _format_columns(name, batch, mats, nnz, decl_cols):
    """One format's stat columns over the chunk."""
    n = len(mats)
    cls = get_format(name)
    if hasattr(cls, "stats_at_density"):
        # Rectangular representatives dilute per-column populations,
        # which overstates the padding of column-density-sensitive
        # formats; those decide per matrix whether to use a
        # density-corrected estimate.
        fsb = FormatStatsBatch.empty(n)
        for i, mat in enumerate(mats):
            rep_density = mat.nnz / max(mat.n_cols, 1)
            dec_density = int(nnz[i]) / max(int(decl_cols[i]), 1)
            cell_density = None
            if rep_density > 0 and (
                abs(dec_density / rep_density - 1.0) > 0.05
            ):
                cell_density = dec_density / cls.N_CHANNELS
            try:
                stats = (
                    cls.stats_at_density_from_csr(mat, cell_density)
                    if cell_density is not None
                    else cls.stats_from_csr(mat)
                )
            except FormatError as exc:
                fsb.fail[i] = True
                fsb.fail_reason[i] = str(exc)
                continue
            fsb.put(i, stats)
    else:
        fsb = cls.stats_from_csr_batch(batch, matrices=mats)
    useful = fsb.stored_elements - fsb.padding_elements
    pad = np.zeros(n)
    nz = useful != 0
    pad[nz] = fsb.padding_elements[nz] / useful[nz]
    return (fsb.memory_bytes, fsb.metadata_bytes, fsb.stored_elements,
            pad, fsb.simd_friendly, fsb.fail, fsb.fail_reason)


def declared_features(matrix: CSRMatrix, n_rows: int, n_cols: int,
                      nnz: int) -> Features:
    """``matrix``'s measured features with the declared-scale shape and
    CSR footprint (paper f1)."""
    return replace(
        extract_features(matrix),
        mem_footprint_mb=(nnz * 12.0 + (n_rows + 1) * 4.0) / (1024 ** 2),
        n_rows=n_rows,
        n_cols=n_cols,
        nnz=nnz,
    )


def base_records(
    batch: CSRStructBatch,
    mats: Sequence[CSRMatrix],
    specs: Sequence[Optional[MatrixSpec]],
    format_names: Sequence[str],
    features: Optional[Sequence[Features]] = None,
) -> List[SpecRecord]:
    """Records for the matrices of ``batch`` (materialised as ``mats``)
    holding the declared-scale scalars, the features and the stats of
    ``format_names`` — no SIMD or imbalance measurements yet.

    Each matrix is the representative of its spec, or unscaled where the
    spec is ``None``.  ``features`` optionally supplies the features
    already measured.
    """
    n = len(mats)
    decl_rows = np.array(
        [batch.n_rows[i] if s is None else s.n_rows
         for i, s in enumerate(specs)], dtype=np.int64,
    )
    decl_cols = np.array(
        [batch.n_cols[i] if s is None else s.n_cols
         for i, s in enumerate(specs)], dtype=np.int64,
    )
    scale = np.maximum(1.0, decl_rows / np.maximum(batch.n_rows, 1))
    nnz = np.round(batch.nnz * scale).astype(np.int64)

    stats: List[Dict[str, StatTuple]] = [{} for _ in range(n)]
    refusals: List[Dict[str, str]] = [{} for _ in range(n)]
    for name in format_names:
        (mem, meta, stored, pad, friendly, fail,
         reasons) = _format_columns(name, batch, mats, nnz, decl_cols)
        for i in range(n):
            if fail[i]:
                refusals[i][name] = reasons[i]
            else:
                stats[i][name] = (int(mem[i]), int(meta[i]),
                                  int(stored[i]), float(pad[i]),
                                  bool(friendly[i]))

    records: List[SpecRecord] = []
    for i in range(n):
        n_rows, n_cols = int(decl_rows[i]), int(decl_cols[i])
        nnz_i = int(nnz[i])
        records.append(SpecRecord(
            scale=float(scale[i]), nnz=nnz_i, n_rows=n_rows,
            n_cols=n_cols,
            features=(features[i] if features is not None else
                      declared_features(mats[i], n_rows, n_cols, nnz_i)),
            stats=stats[i], refusals=refusals[i],
        ))
    return records


def measure(rec: SpecRecord, profile: _Profile,
            need: Tuple[Sequence[int], Sequence[ImbalanceKey]]) -> None:
    """Add the SIMD widths and imbalance keys in ``need`` that ``rec``
    lacks, measured on ``profile``."""
    widths, keys = need
    for w in widths:
        if w not in rec.simd:
            rec.simd[w] = profile.simd_utilisation(w)
    for key in keys:
        if key not in rec.imbalance:
            rec.imbalance[key] = profile.imbalance_factor(*key)


def needs(plan: _GridPlan, records: Sequence[SpecRecord]):
    """Per record, the ``(widths, keys)`` its cells in ``plan`` need
    (``plan``'s capacity gate over ``records``, whose stats must cover
    ``plan.format_names``)."""
    scale, _, n_rows, n_cols, *_ = _scalar_arrays(
        records, [""] * len(records)
    )
    s_mem, s_meta, _, _, s_friendly, s_fail, _ = _stat_arrays(
        records, plan.format_names
    )
    gate = plan.gate(scale, n_rows, n_cols, s_mem, s_meta, s_fail,
                     s_friendly)
    return [
        ([w for k, w in enumerate(plan.widths) if gate.need_w[i, k]],
         [key for k, key in enumerate(plan.keys) if gate.need_key[i, k]])
        for i in range(len(records))
    ]


def build_records(specs: Sequence[MatrixSpec], max_nnz: Optional[int],
                  plan: _GridPlan) -> List[SpecRecord]:
    """Fresh records for ``specs`` carrying every format stat, SIMD
    width and imbalance key ``plan``'s cells need."""
    specs = list(specs)
    if not specs:
        return []
    batch = structure_batch(specs, max_nnz=max_nnz)
    mats = [batch.matrix(i) for i in range(len(specs))]
    records = base_records(batch, mats, specs, plan.format_names)
    del mats
    for i, (spec, rec, need) in enumerate(
        zip(specs, records, needs(plan, records))
    ):
        if need[0] or need[1]:
            # One spec's profile at a time: it and everything derived
            # from it are released before the next spec's is drawn.
            profile = _Profile(declared_profile(
                spec, rec.scale, batch.lengths_of(i)
            ))
            measure(rec, profile, need)
            del profile
    return records


def chunk_records(
    specs: Sequence[MatrixSpec],
    max_nnz: Optional[int],
    plan: _GridPlan,
    prior: Sequence[Optional[SpecRecord]],
) -> Tuple[List[SpecRecord], List[int]]:
    """Records for ``specs`` reusing ``prior`` ones where they cover
    everything ``plan`` needs.

    Returns ``(records, fresh)``: ``fresh`` lists the positions that were
    (re)built — a prior record lacking a format, width or key is rebuilt
    and merged with what it already had, so the caller can persist it as
    a superseding record (last record wins).
    """
    records: List[Optional[SpecRecord]] = list(prior)
    fmts = plan.format_names
    complete = [r is not None and r.covers(fmts) for r in records]
    reuse = [i for i, ok in enumerate(complete) if ok]
    if reuse:
        for i, need in zip(reuse, needs(plan, [records[i] for i in reuse])):
            complete[i] = records[i].covers(fmts, *need)
    fresh = [i for i, ok in enumerate(complete) if not ok]
    built = build_records([specs[i] for i in fresh], max_nnz, plan)
    for i, rec in zip(fresh, built):
        records[i] = rec if records[i] is None else records[i].merged(rec)
    return records, fresh
