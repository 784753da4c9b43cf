"""The scalar instance sweep: the reference for ``repro.core.dataset.sweep``.

:class:`InstanceDataset` is a :class:`~repro.core.dataset.Dataset` that
also materialises (and caches) one :class:`OracleInstance` per spec;
:func:`spec_rows` scores one spec across devices with the scalar model
(:mod:`tests.oracles.simulator`) and returns dict rows in the sweep's
row schema.  The production sweep never materialises instances — it
scores per-spec records — and must reproduce these rows exactly
(``tests/perfmodel/test_grid_agreement.py``,
``tests/pipeline/test_fused_agreement.py``, ``tests/test_end_to_end.py``).
"""

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.dataset import Dataset
from repro.devices.base import Device
from repro.formats.base import FormatError

from tests.oracles.instance import OracleInstance
from tests.oracles.simulator import simulate_best, simulate_spmv


class InstanceDataset(Dataset):
    """A dataset with cached oracle instances."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._instances: Dict[int, OracleInstance] = {}

    def instance(self, i: int) -> OracleInstance:
        """The (cached) representative instance for spec ``i``."""
        if i not in self._instances:
            self._instances[i] = OracleInstance.from_spec(
                self.specs[i], max_nnz=self.max_nnz,
                name=f"{self.name}[{i}]",
            )
        return self._instances[i]

    def instances(self) -> Iterable[OracleInstance]:
        for i in range(len(self)):
            yield self.instance(i)

    def drop_cache(self) -> None:
        self._instances.clear()


def _base_row(dataset: InstanceDataset, i: int) -> dict:
    """Per-spec columns shared by every measurement row of spec ``i``
    (features at declared scale + requested grid coordinates)."""
    inst = dataset.instance(i)
    feats = inst.features
    return {
        "matrix": inst.name,
        "spec_index": i,
        "mem_footprint_mb": feats.mem_footprint_mb,
        "avg_nnz_per_row": feats.avg_nnz_per_row,
        "skew_coeff": feats.skew_coeff,
        "cross_row_similarity": feats.cross_row_similarity,
        "avg_num_neighbours": feats.avg_num_neighbours,
        "nnz": feats.nnz,
        "n_rows": feats.n_rows,
        # requested (grid) coordinates, for exact binning
        "req_footprint_mb": dataset.specs[i].mem_footprint_mb,
        "req_avg_nnz": dataset.specs[i].avg_nnz_per_row,
        "req_skew": dataset.specs[i].skew_coeff,
        "req_sim": dataset.specs[i].cross_row_sim,
        "req_neigh": dataset.specs[i].avg_num_neigh,
    }


def spec_rows(
    dataset: InstanceDataset,
    i: int,
    devices: Sequence[Device],
    best_only: bool = True,
    formats: Optional[Sequence[str]] = None,
    seed: int = 0,
    precision: str = "fp64",
) -> List[dict]:
    """Measurement rows for spec ``i`` across ``devices``, scored one
    scalar call at a time."""
    inst = dataset.instance(i)
    base = _base_row(dataset, i)
    rows: List[dict] = []
    for dev in devices:
        names = list(formats) if formats else list(dev.formats)
        if best_only:
            m = simulate_best(inst, dev, formats=names, seed=seed,
                              precision=precision)
            if m is None:
                continue
            rows.append(
                {**base, "device": dev.name, "format": m.format,
                 "gflops": m.gflops, "watts": m.watts,
                 "gflops_per_watt": m.gflops_per_watt,
                 "bottleneck": m.bottleneck}
            )
        else:
            for fmt in names:
                try:
                    m = simulate_spmv(inst, fmt, dev, seed=seed,
                                      precision=precision)
                except FormatError:
                    continue
                rows.append(
                    {**base, "device": dev.name, "format": fmt,
                     "gflops": m.gflops, "watts": m.watts,
                     "gflops_per_watt": m.gflops_per_watt,
                     "bottleneck": m.bottleneck}
                )
    return rows
