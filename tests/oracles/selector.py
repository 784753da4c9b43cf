"""The dict-row scalar selector: the reference for ``repro.ml.selector``.

The library converts every input to a ``SweepTable`` once and trains
and evaluates over its columns, scoring all held-out matrices with one
``model.predict`` per format.  This module keeps the original
formulation: rows grouped per matrix into dicts by an explicit instance
key, one feature vector per ``log1p`` call, and a per-instance scalar
``select`` loop.  It drives a library :class:`FormatSelector`'s format
list, feature keys and model factory, so both sides fit the same
models on the same examples.
"""

from typing import Dict, List

import numpy as np

from repro.ml.selector import SelectionReport


def instance_key(row: dict):
    """The matrix a measurement row belongs to: its name when present,
    else the sweep's ``spec_index`` or the grid's ``instance`` index."""
    name = row.get("matrix")
    if name:
        return ("matrix", name)
    for alt in ("spec_index", "instance"):
        value = row.get(alt)
        if value is not None:
            return (alt, value)
    raise ValueError(
        "measurement row carries no 'matrix' name, 'spec_index' or "
        "'instance' key to group per-format rows by"
    )


def as_rows(rows) -> List[dict]:
    """Dict rows of a row sequence, ``SweepTable`` or ``GridResult``,
    refusing row sets that mix devices or precisions."""
    if hasattr(rows, "to_rows"):
        rows = rows.to_rows()
    rows = list(rows)
    for coord in ("device", "precision"):
        seen = {r[coord] for r in rows if coord in r}
        if len(seen) > 1:
            raise ValueError(
                f"measurement rows span multiple {coord}s ({sorted(seen)})"
            )
    return rows


def vector(selector, features: dict) -> np.ndarray:
    """One instance's model input, feature by feature."""
    return np.array(
        [np.log1p(abs(float(features[k]))) for k in selector.feature_keys]
    )


def predict_gflops(selector, features: dict) -> Dict[str, float]:
    """Per-format prediction for one instance, one model call each."""
    x = vector(selector, features)[None, :]
    return {
        fmt: float(model.predict(x)[0])
        for fmt, model in selector._models.items()
    }


def select(selector, features: dict) -> str:
    scores = predict_gflops(selector, features)
    return max(scores, key=scores.get)


def _group(rows):
    """``(perf[key][format], last feature row per key)``."""
    perf: Dict[tuple, Dict[str, float]] = {}
    feats: Dict[tuple, dict] = {}
    for r in as_rows(rows):
        key = instance_key(r)
        perf.setdefault(key, {})[r["format"]] = r["gflops"]
        feats[key] = r
    return perf, feats


def fit(selector, rows):
    """Fit ``selector``'s per-format models from dict rows; a format
    without a row for a matrix scores 0 there."""
    perf, feats = _group(rows)
    if not perf:
        raise ValueError("no training rows")
    keys = list(perf)
    X = np.array([vector(selector, feats[k]) for k in keys])
    selector._models = {}
    for fmt in selector.formats:
        y = np.array([perf[k].get(fmt, 0.0) for k in keys])
        selector._models[fmt] = selector._factory().fit(X, y)
    return selector


def evaluate(selector, rows, detail: bool = False) -> SelectionReport:
    """Accuracy and retained performance, one scalar ``select`` per
    held-out matrix."""
    perf, feats = _group(rows)
    if not perf:
        raise ValueError("no evaluation rows")
    hits, retained, choices = 0, [], []
    for key, truth in perf.items():
        chosen = select(selector, feats[key])
        oracle = max(truth, key=truth.get)
        if not truth[oracle] > 0:
            raise ValueError(
                f"instance {key[1]!r} has a best measured GFLOPS of "
                f"{truth[oracle]}"
            )
        hits += chosen == oracle
        kept = truth.get(chosen, 0.0) / truth[oracle]
        retained.append(kept)
        if detail:
            choices.append({
                "instance": key[1],
                "oracle": oracle,
                "chosen": chosen,
                "retained": kept,
            })
    report = SelectionReport(
        top1_accuracy=hits / len(perf),
        mean_retained=float(np.mean(retained)),
        worst_retained=float(np.min(retained)),
        n_matrices=len(perf),
    )
    if detail:
        report["choices"] = choices
    return report
