"""The instance measurement engine: the reference for spec records.

:class:`OracleInstance` is a :class:`~repro.perfmodel.MatrixInstance`
that measures itself the original way, one memoised quantity at a time:
the declared-scale row profile, SIMD utilisation from the raw profile,
imbalance through the loop partitioners (:mod:`tests.oracles.parallel`)
and per-format stats through either stats engine.  The library builds
the same numbers as one :class:`~repro.perfmodel.record.SpecRecord`; the
agreement suites score both and compare.  Being a ``MatrixInstance``,
an oracle instance also feeds the library's ``simulate_*`` views
unchanged.
"""

from typing import Dict, Optional

import numpy as np

from repro.core.generator import row_length_profile
from repro.devices.parallel import ImbalanceStats
from repro.formats.base import FormatError, FormatStats, get_format
from repro.perfmodel.instance import MatrixInstance
from repro.perfmodel.record import MAX_PROFILE_ROWS

from tests.oracles.parallel import imbalance_for_strategy


def simd_utilisation_of_profile(
    row_profile: np.ndarray, simd_width: int
) -> float:
    """Fraction of SIMD lanes doing useful work under row-vectorisation."""
    if simd_width <= 1:
        return 1.0
    lengths = row_profile[row_profile > 0]
    if len(lengths) == 0:
        return 1.0
    issued = np.ceil(lengths / simd_width) * simd_width
    return float(lengths.sum() / issued.sum())


class OracleInstance(MatrixInstance):
    """A matrix instance with the scalar measurement engine."""

    # How `format_stats` computes structural statistics: "analytic" scores
    # via `SparseFormat.stats_from_csr` (closed forms over the CSR arrays,
    # no payload materialisation), "materialise" converts with `from_csr`
    # and reduces.  Both produce identical stats and raise identical
    # errors (tests/formats/test_stats_agreement.py).  Class-level
    # default; assign per instance to override.
    stats_engine = "analytic"

    def __post_init__(self):
        super().__post_init__()
        self._profile: Optional[np.ndarray] = None
        self._format_stats: Dict[str, FormatStats] = {}
        self._format_fail: Dict[str, str] = {}
        self._simd_util: Dict[int, float] = {}
        self._imbalance: Dict[tuple, ImbalanceStats] = {}

    def row_profile(self) -> np.ndarray:
        """Row-length profile at declared scale (capped), for imbalance.

        For un-scaled instances this is simply the measured row lengths;
        for scaled ones the profile is regenerated from the spec at (up to)
        ``MAX_PROFILE_ROWS`` rows so heavy rows keep their true *fraction*
        of the total work.
        """
        if self._profile is None:
            if self.spec is None or self.scale <= 1.0:
                self._profile = self.matrix.row_lengths
            else:
                rows = min(self.spec.n_rows, MAX_PROFILE_ROWS)
                rng = np.random.default_rng(self.spec.seed)
                self._profile = row_length_profile(
                    rows,
                    self.spec.n_cols,
                    self.spec.avg_nnz_per_row,
                    self.spec.std_ratio * self.spec.avg_nnz_per_row,
                    self.spec.skew_coeff,
                    rng,
                    self.spec.distribution,
                )
        return self._profile

    def simd_utilisation(self, simd_width: int) -> float:
        """Memoised SIMD utilisation of the row profile at ``simd_width``."""
        if simd_width not in self._simd_util:
            self._simd_util[simd_width] = simd_utilisation_of_profile(
                self.row_profile(), simd_width
            )
        return self._simd_util[simd_width]

    def imbalance(
        self, strategy: str, n_workers: int, simd_width: int = 32
    ) -> ImbalanceStats:
        """Memoised load-imbalance statistics of the named partitioner."""
        key = (strategy, n_workers, simd_width)
        if key not in self._imbalance:
            self._imbalance[key] = imbalance_for_strategy(
                strategy, self.row_profile(), n_workers, simd_width
            )
        return self._imbalance[key]

    def format_stats(self, format_name: str) -> FormatStats:
        """Score the format once and cache the structural statistics.

        Raises :class:`FormatError` (replayed from cache) when the format
        refuses the matrix — same error, same message, either engine.
        """
        if self.stats_engine not in ("analytic", "materialise"):
            raise ValueError(
                f"unknown stats_engine {self.stats_engine!r}; "
                "expected 'analytic' or 'materialise'"
            )
        if format_name in self._format_fail:
            raise FormatError(self._format_fail[format_name])
        if format_name not in self._format_stats:
            cls = get_format(format_name)
            analytic = self.stats_engine == "analytic"
            # Rectangular representatives dilute per-column populations,
            # which overstates the padding of column-density-sensitive
            # formats; those expose a density-corrected estimate.
            cell_density = None
            if hasattr(cls, "stats_at_density"):
                rep_density = self.matrix.nnz / max(self.matrix.n_cols, 1)
                dec_density = self.nnz / max(self.n_cols, 1)
                if rep_density > 0 and (
                    abs(dec_density / rep_density - 1.0) > 0.05
                ):
                    cell_density = dec_density / cls.N_CHANNELS
            try:
                if analytic:
                    stats = (
                        cls.stats_at_density_from_csr(
                            self.matrix, cell_density
                        )
                        if cell_density is not None
                        else cls.stats_from_csr(self.matrix)
                    )
                else:
                    fmt = cls.from_csr(self.matrix)
                    stats = (
                        fmt.stats_at_density(cell_density)
                        if cell_density is not None
                        else fmt.stats()
                    )
            except FormatError as exc:
                self._format_fail[format_name] = str(exc)
                raise
            self._format_stats[format_name] = stats
        return self._format_stats[format_name]
