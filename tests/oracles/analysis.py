"""Dict-row analysis reductions: the reference for ``repro.analysis``.

The library reduces ``SweepTable`` columns (bincounts over categorical
codes, predicates applied once per distinct value).  These are the
original per-row loops over dict rows; the parity suite
(``tests/analysis/test_parity.py``) pins the columnar reductions to
them value for value.
"""

from collections import Counter, defaultdict
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.stats import box_stats


def format_wins(rows) -> Dict[str, float]:
    counts: Dict[str, int] = defaultdict(int)
    for r in rows:
        counts[r["format"]] += 1
    total = sum(counts.values())
    if total == 0:
        return {}
    return {fmt: 100.0 * c / total for fmt, c in sorted(counts.items())}


def win_table(rows, devices: Sequence[str]):
    return {
        dev: format_wins([r for r in rows if r["device"] == dev])
        for dev in devices
    }


def feature_slice(rows, sweep_key, fixed, value_key="gflops"):
    by_value: Dict[float, List[float]] = defaultdict(list)
    for r in rows:
        if all(pred(r[key]) for key, pred in fixed.items()):
            by_value[r[sweep_key]].append(r[value_key])
    return {v: box_stats(vals) for v, vals in sorted(by_value.items())}


def bottleneck_census(rows, by="device"):
    groups: Dict[str, Counter] = defaultdict(Counter)
    for r in rows:
        groups[r[by]][r["bottleneck"]] += 1
    out = {}
    for key, counts in groups.items():
        total = sum(counts.values())
        out[key] = {
            b: 100.0 * c / total for b, c in sorted(counts.items())
        }
    return out


def optimal_ranges(rows, feature_key, value_key="gflops",
                   top_fraction=0.25):
    if not rows:
        return None
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    values = np.array([r[value_key] for r in rows])
    cutoff = np.quantile(values, 1.0 - top_fraction)
    top = [r[feature_key] for r in rows if r[value_key] >= cutoff]
    if not top:
        return None
    arr = np.array(top, dtype=np.float64)
    return {
        "min": float(arr.min()),
        "median": float(np.median(arr)),
        "max": float(arr.max()),
        "n": len(arr),
    }
