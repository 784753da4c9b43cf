"""Columnar table ops vs the dict-row path at million-row scale.

The ROADMAP's north star is million-row sweeps at hardware speed; the
redesign's claim is that the core interchange operations — ``where``
slicing, ``groupby`` and feeding the format selector — are array passes
over a :class:`~repro.core.table.SweepTable` instead of Python loops
over dict rows.  This bench builds a synthetic per-format measurement
table (``REPRO_TABLE_ROWS`` rows, default 1M), runs each operation
through both paths, asserts the results agree, and gates the combined
columnar time at >= 10x faster.  Results land in
``benchmarks/results/BENCH_table.json``.

Standalone usage:

    PYTHONPATH=../src python bench_table_ops.py [--rows 1000000]
"""

import json
import os
import time

import numpy as np

from repro.core.table import SweepTable
from repro.ml.selector import MINIMAL_FEATURES, FormatSelector

from conftest import RESULTS_DIR, emit
from tests.oracles import selector as oracle

BENCH_PATH = RESULTS_DIR / "BENCH_table.json"

# Acceptance floor: columnar where+groupby+selector-feed combined must
# beat the dict-row combined time by at least this factor.
MIN_SPEEDUP = 10.0

N_ROWS = int(os.environ.get("REPRO_TABLE_ROWS", "1000000"))

FORMATS = ["Naive-CSR", "CSR5", "ELL", "SELL-C-s", "Merge-CSR",
           "SparseX", "COO", "BCSR"]


class _NullModel:
    """Constant regressor: isolates the selector's *data feed* cost
    (grouping, target assembly, feature matrix) from model fitting."""

    def fit(self, X, y):
        return self

    def predict(self, X):
        return np.zeros(len(X))


def _build_table(n_rows: int) -> SweepTable:
    """Synthetic per-format sweep table, built columnar (one device)."""
    rng = np.random.default_rng(11)
    n_fmt = len(FORMATS)
    n_mat = max(n_rows // n_fmt, 1)
    n = n_mat * n_fmt
    matrix = np.repeat(np.arange(n_mat, dtype=np.int32), n_fmt)
    columns = {
        "matrix": matrix,
        "device": np.zeros(n, dtype=np.int32),
        "format": np.tile(np.arange(n_fmt, dtype=np.int32), n_mat),
        "precision": np.zeros(n, dtype=np.int32),
        "gflops": rng.uniform(1.0, 120.0, size=n),
    }
    feats = {
        "mem_footprint_mb": rng.uniform(1, 1024, size=n_mat),
        "avg_nnz_per_row": rng.uniform(2, 200, size=n_mat),
        "skew_coeff": rng.uniform(0, 8000, size=n_mat),
        "cross_row_similarity": rng.uniform(0, 1, size=n_mat),
        "avg_num_neighbours": rng.uniform(0, 2, size=n_mat),
    }
    for key in MINIMAL_FEATURES:
        columns[key] = feats[key][matrix]
    return SweepTable(columns, {
        "matrix": [f"m{i}" for i in range(n_mat)],
        "device": ["bench-device"],
        "format": list(FORMATS),
        "precision": ["fp64"],
    })


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _bench(table, rows):
    """(timings, agreement checks) for the three gated operations."""
    times = {}

    # -- where: one device+format slice -------------------------------
    cond = {"format": "CSR5"}
    t_where, times["where_columnar_s"] = _timed(
        lambda: table.where(**cond)
    )
    r_where, times["where_dict_s"] = _timed(
        lambda: [r for r in rows if r["format"] == "CSR5"]
    )
    assert len(t_where) == len(r_where)

    # -- groupby: per-format row counts --------------------------------
    def columnar_group():
        return {k: len(t) for k, t in table.groupby("format")}

    def dict_group():
        out = {}
        for r in rows:
            out.setdefault(r["format"], []).append(r)
        return {k: len(v) for k, v in out.items()}

    g_col, times["groupby_columnar_s"] = _timed(columnar_group)
    g_dict, times["groupby_dict_s"] = _timed(dict_group)
    assert g_col == g_dict

    # -- selector feed: grouping + feature matrix + per-format targets -
    # (the dict side is the dict-row fit of tests/oracles/selector.py)
    def selector():
        return FormatSelector(FORMATS, model_factory=_NullModel)

    _, times["selector_feed_columnar_s"] = _timed(
        lambda: selector().fit(table)
    )
    _, times["selector_feed_dict_s"] = _timed(
        lambda: oracle.fit(selector(), rows)
    )

    return times


def test_table_ops_throughput():
    table = _build_table(N_ROWS)
    # The pre-redesign pipeline shipped dict rows (GridResult.to_rows()
    # exploded straight after simulation), so the dict path pays the
    # materialisation before its first op; the columnar path never does.
    rows, to_rows_s = _timed(table.to_rows)
    times = _bench(table, rows)

    columnar = sum(v for k, v in times.items() if "columnar" in k)
    dict_path = to_rows_s + sum(
        v for k, v in times.items() if "dict" in k
    )
    speedup = dict_path / columnar
    payload = {
        "n_rows": len(table),
        "n_formats": len(FORMATS),
        "to_rows_s": round(to_rows_s, 4),
        **{k: round(v, 5) for k, v in times.items()},
        "columnar_total_s": round(columnar, 4),
        "dict_total_s": round(dict_path, 4),
        "speedup": round(speedup, 2),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    emit(
        "table_ops_throughput",
        f"table ops over {len(table):,} rows "
        f"({len(FORMATS)} formats)\n"
        f"  where:         columnar {times['where_columnar_s']:.4f}s"
        f"  vs dict {times['where_dict_s']:.3f}s\n"
        f"  groupby:       columnar {times['groupby_columnar_s']:.4f}s"
        f"  vs dict {times['groupby_dict_s']:.3f}s\n"
        f"  selector feed: columnar"
        f" {times['selector_feed_columnar_s']:.4f}s"
        f"  vs dict {times['selector_feed_dict_s']:.3f}s\n"
        f"  dict-row materialisation: {to_rows_s:.2f}s\n"
        f"  combined speedup: {speedup:.1f}x",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"columnar table ops only {speedup:.1f}x over dict rows"
    )


def main():
    import argparse

    parser = argparse.ArgumentParser(
        description="Columnar vs dict-row table op throughput"
    )
    parser.add_argument("--rows", type=int, default=N_ROWS)
    args = parser.parse_args()
    table = _build_table(args.rows)
    rows, to_rows_s = _timed(table.to_rows)
    times = _bench(table, rows)
    print(f"{len(table):,} rows (dict materialisation {to_rows_s:.2f}s)")
    for op in ("where", "groupby", "selector_feed"):
        col = times[f"{op}_columnar_s"]
        ref = times[f"{op}_dict_s"]
        print(f"  {op:14s} columnar {col:.4f}s  dict {ref:.3f}s  "
              f"({ref / col:,.0f}x)")


if __name__ == "__main__":
    main()
