"""Format 'wins' accounting (the bars behind Fig 7's boxplots).

Every function takes a :class:`~repro.core.table.SweepTable`, or dict
rows / a ``GridResult`` converted once by
:func:`~repro.core.table.as_table`, and reduces its columns.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.table import as_table

__all__ = ["format_wins", "win_table", "confusion_table"]


def format_wins(rows) -> Dict[str, float]:
    """Percentage of matrices on which each format was the best.

    ``rows`` must carry one *best* measurement per matrix (the output of a
    ``best_only`` sweep for one device): keys ``format``.
    """
    table = as_table(rows)
    if len(table) == 0:
        return {}
    counts = np.bincount(
        table.codes("format"), minlength=len(table.categories("format"))
    )
    return {
        fmt: 100.0 * int(c) / len(table)
        for fmt, c in sorted(zip(table.categories("format"), counts))
        if c
    }


def win_table(
    rows, devices: Sequence[str]
) -> Dict[str, Dict[str, float]]:
    """Per-device win percentages: ``{device: {format: pct}}``."""
    table = as_table(rows)
    if len(table) == 0:
        return {dev: {} for dev in devices}
    return {dev: format_wins(table.where(device=dev)) for dev in devices}


def confusion_table(
    pairs: Sequence[Tuple[str, str]]
) -> Dict[str, Dict[str, int]]:
    """Oracle-vs-chosen selection counts: ``{oracle: {chosen: n}}``.

    ``pairs`` are (oracle_format, chosen_format) tuples, one per
    evaluated matrix (the selector's ``choices`` detail).  Keys are
    sorted so the table renders and serialises deterministically.
    """
    counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for oracle, chosen in pairs:
        counts[oracle][chosen] += 1
    return {
        oracle: dict(sorted(row.items()))
        for oracle, row in sorted(counts.items())
    }
