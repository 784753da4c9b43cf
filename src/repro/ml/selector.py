"""Feature-based format selection.

The paper's related-work line (SMAT [4], BestSF [14], ...) trains
predictors that pick the best storage format from matrix features.
:class:`FormatSelector` packages that workflow on top of the repro stack:
one regressor per candidate format, trained on (five-feature vector ->
GFLOPS) pairs from a sweep; selection is the argmax of predicted GFLOPS.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.table import SweepTable, _write_npz, as_table
from .forest import RandomForestRegressor
from .knn import KNeighborsRegressor
from .linear import LinearRegression, RidgeRegression

__all__ = [
    "FormatSelector", "SelectionReport", "SelectorVersionError",
    "SELECTOR_SCHEMA_VERSION",
]

SELECTOR_SCHEMA_VERSION = 1

# Persistable model families (npz ``__kind__`` tag -> class).  A model
# participates by exposing ``to_state() -> dict[str, ndarray]`` and
# ``from_state(state)`` with bit-identical reloaded predictions.
MODEL_IO: Dict[str, type] = {
    "forest": RandomForestRegressor,
    "knn": KNeighborsRegressor,
    "linear": LinearRegression,
    "ridge": RidgeRegression,
}
_KIND_OF = {cls: kind for kind, cls in MODEL_IO.items()}


class SelectorVersionError(ValueError):
    """A selector artifact this build cannot load — not an artifact,
    another schema version, or a corrupt model state (the
    :class:`~repro.core.table.SchemaVersionError` convention)."""


MINIMAL_FEATURES = [
    "mem_footprint_mb",
    "avg_nnz_per_row",
    "skew_coeff",
    "cross_row_similarity",
    "avg_num_neighbours",
]


def _check_coordinates(table: SweepTable) -> None:
    """Refuse tables that mix devices or precisions.

    The selector's feature vector carries no device/precision
    coordinate, so rows from several devices (or fp64+fp32) would
    assign conflicting targets to one feature vector.  Train one
    selector per (device, precision) slice instead.
    """
    for coord in ("device", "precision"):
        if coord in table.names:
            seen = table.unique(coord)
            if len(seen) > 1:
                raise ValueError(
                    f"measurement rows span multiple {coord}s "
                    f"({sorted(seen)}); fit one selector per {coord} "
                    "(filter the rows or simulate one grid slice at a "
                    "time)"
                )


def _instance_groups(table: SweepTable) -> Tuple[np.ndarray, List]:
    """``(group id per row, group keys)``: one group per matrix.

    Per-format rows of one matrix must collapse to one example, so the
    key is an explicit identity column: ``matrix`` when every row is
    named, else the sweep's ``spec_index``, else the grid's
    ``instance`` index.  Rows with none of these are ambiguous —
    grouping them by position would silently turn each format row into
    its own "matrix" — so they are refused.
    """
    for name in ("matrix", "spec_index", "instance"):
        if name in table.names:
            g, keys = table.group_index(name)
            if name != "matrix" or "" not in keys:
                return g, keys
    raise ValueError(
        "measurement row carries no 'matrix' name, 'spec_index' or "
        "'instance' key to group per-format rows by; add one of them "
        "(anonymous rows cannot be grouped unambiguously)"
    )


class SelectionReport(dict):
    """Evaluation summary: accuracy + performance retained vs oracle."""

    @property
    def accuracy(self) -> float:
        return self["top1_accuracy"]

    @property
    def retained(self) -> float:
        return self["mean_retained"]


class FormatSelector:
    """Predict the best storage format for a matrix from its features.

    Parameters
    ----------
    formats:
        Candidate format names (e.g. a device's Table-II list).
    feature_keys:
        Feature-dict keys used as the input vector (default: the paper's
        minimal five).
    model_factory:
        Zero-argument callable returning a fresh regressor with
        ``fit``/``predict`` (default: a 25-tree random forest).
    """

    def __init__(
        self,
        formats: Sequence[str],
        feature_keys: Optional[Sequence[str]] = None,
        model_factory=None,
    ):
        if not formats:
            raise ValueError("need at least one candidate format")
        self.formats = list(formats)
        self.feature_keys = list(feature_keys or MINIMAL_FEATURES)
        self._factory = model_factory or (
            lambda: RandomForestRegressor(n_estimators=25, random_state=0)
        )
        self._models: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def _matrix(self, features_seq: Sequence[dict]) -> np.ndarray:
        """Feature matrix (``log1p`` of absolute values), one row per
        feature dict."""
        raw = np.array(
            [[abs(float(f[k])) for k in self.feature_keys]
             for f in features_seq],
            dtype=np.float64,
        ).reshape(len(features_seq), len(self.feature_keys))
        return np.log1p(raw)

    def _groups(
        self, table: SweepTable
    ) -> Tuple[np.ndarray, List, np.ndarray]:
        """``(group id per row, group keys, feature matrix X)``.

        Groups are per-matrix in first-appearance order; row ``i`` of
        ``X`` holds the features of group ``i``'s last row, transformed
        as in :meth:`_matrix` (``np.log1p``/``np.abs`` are elementwise).
        """
        _check_coordinates(table)
        g, keys = _instance_groups(table)
        last = np.full(len(keys), -1, dtype=np.int64)
        np.maximum.at(last, g, np.arange(len(table)))
        raw = np.stack(
            [
                np.abs(table.column(k)[last].astype(np.float64))
                for k in self.feature_keys
            ],
            axis=1,
        )
        return g, keys, np.log1p(raw)

    def fit(self, rows) -> "FormatSelector":
        """Train from a :class:`~repro.core.table.SweepTable`, sweep dict
        rows with the feature keys plus ``format`` and ``gflops``, or a
        :class:`~repro.perfmodel.batch.GridResult` (the latter two are
        converted once by :func:`~repro.core.table.as_table`).

        Rows are grouped per matrix by an explicit instance key (name,
        ``spec_index`` or grid ``instance`` index); anonymous rows raise.
        A format that refused a matrix simply has no row for it; the model
        treats missing observations as zero performance for that matrix.
        """
        table = as_table(rows)
        if len(table) == 0:
            raise ValueError("no training rows")
        g, _, X = self._groups(table)
        fmt_codes = table.codes("format")
        fmt_cats = table.categories("format")
        gflops = table.column("gflops")
        for fmt in self.formats:
            y = np.zeros(len(X))
            if fmt in fmt_cats:
                sel = fmt_codes == fmt_cats.index(fmt)
                # Duplicate (matrix, format) rows keep the last value.
                y[g[sel]] = gflops[sel]
            self._models[fmt] = self._factory().fit(X, y)
        return self

    def predict_gflops(self, features: dict) -> Dict[str, float]:
        """Predicted GFLOPS for every candidate format (a one-row
        :meth:`predict_gflops_batch`)."""
        scores = self.predict_gflops_batch([features])
        return {fmt: float(s[0]) for fmt, s in scores.items()}

    def select(self, features: dict) -> str:
        """The format with the highest predicted GFLOPS (a one-row
        :meth:`select_batch`)."""
        return self.select_batch([features])[0]

    # ------------------------------------------------------------------
    def _predict(self, X: np.ndarray) -> Tuple[List[str], np.ndarray]:
        """``(format names, (n_formats, n) predictions)``: one
        ``model.predict`` per format over the whole batch."""
        names = list(self._models)
        preds = np.stack([
            np.asarray(self._models[f].predict(X), dtype=np.float64)
            for f in names
        ])
        return names, preds

    def _scores(self, features_seq) -> Tuple[List[str], np.ndarray]:
        if not self._models:
            raise RuntimeError("selector not fitted")
        return self._predict(self._matrix(list(features_seq)))

    def predict_gflops_batch(
        self, features_seq: Sequence[dict]
    ) -> Dict[str, np.ndarray]:
        """Predicted GFLOPS for every format over many instances.

        Entry ``[fmt][i]`` does not depend on the batch (per-sample tree
        routing and the per-format model are independent of batch size).
        """
        names, preds = self._scores(features_seq)
        return dict(zip(names, preds))

    def select_batch(self, features_seq: Sequence[dict]) -> List[str]:
        """Best predicted format per instance; ties resolve to the
        earliest fitted format."""
        names, preds = self._scores(features_seq)
        return [names[i] for i in np.argmax(preds, axis=0)]

    # ------------------------------------------------------------------
    def evaluate(self, rows, detail: bool = False) -> SelectionReport:
        """Top-1 accuracy and oracle-relative performance on held-out
        rows (any :meth:`fit` input form).

        All held-out instances are scored with one ``model.predict`` per
        format.  The per-matrix truth is a dense (group, format) GFLOPS
        matrix; a chosen format with no row for a matrix retains 0.
        ``detail`` adds a ``choices`` list with the per-instance
        (oracle, chosen, retained) triples that the experiment reports
        aggregate into win/confusion tables.  A matrix whose best
        measured GFLOPS is not positive has no retained fraction and
        raises ``ValueError`` naming it.
        """
        table = as_table(rows)
        if len(table) == 0:
            raise ValueError("no evaluation rows")
        if not self._models:
            raise RuntimeError("selector not fitted")
        g, keys, X = self._groups(table)
        names, preds = self._predict(X)
        chosen_idx = np.argmax(preds, axis=0)

        fmt_codes = table.codes("format")
        fmt_cats = table.categories("format")
        perf = np.full((len(keys), len(fmt_cats)), -np.inf)
        seen = np.zeros((len(keys), len(fmt_cats)), dtype=bool)
        perf[g, fmt_codes] = table.column("gflops")  # duplicates: last
        seen[g, fmt_codes] = True
        oracle_idx = np.argmax(perf, axis=1)
        rows_i = np.arange(len(keys))
        best = perf[rows_i, oracle_idx]
        bad = np.flatnonzero(~(best > 0))
        if len(bad):
            i = int(bad[0])
            raise ValueError(
                f"instance {keys[i]!r} has a best measured GFLOPS of "
                f"{best[i]}; retained performance needs a positive "
                "oracle (drop or re-measure the matrix)"
            )
        code_of = {fmt: c for c, fmt in enumerate(fmt_cats)}
        chosen_code = np.array(
            [code_of.get(f, -1) for f in names], dtype=np.int64
        )[chosen_idx]
        has = chosen_code >= 0
        num = np.zeros(len(keys))
        at = (rows_i[has], chosen_code[has])
        num[has] = np.where(seen[at], perf[at], 0.0)
        retained = num / best
        hits = chosen_code == oracle_idx

        report = SelectionReport(
            top1_accuracy=int(hits.sum()) / len(keys),
            mean_retained=float(np.mean(retained)),
            worst_retained=float(np.min(retained)),
            n_matrices=len(keys),
        )
        if detail:
            report["choices"] = [
                {
                    "instance": keys[i],
                    "oracle": fmt_cats[oracle_idx[i]],
                    "chosen": names[chosen_idx[i]],
                    "retained": float(retained[i]),
                }
                for i in range(len(keys))
            ]
        return report

    # ------------------------------------------------------------------
    def to_npz(self, path: Union[str, Path]) -> None:
        """Persist the fitted selector as a lossless NPZ artifact.

        The artifact records the schema version, the candidate formats,
        the feature keys and every per-format model's fitted state
        (:data:`MODEL_IO` families only); :meth:`from_npz` rebuilds a
        selector whose predictions are bit-identical — the contract
        that lets ``repro serve`` and ``repro experiment`` share one
        trained model file.  The write is deterministic (pinned zip
        timestamps, stable member order), like ``SweepTable.to_npz``.
        """
        if not self._models:
            raise RuntimeError(
                "selector not fitted; fit before saving"
            )
        payload: Dict[str, np.ndarray] = {
            "__selector_schema__": np.int64(SELECTOR_SCHEMA_VERSION),
            "formats": np.array(self.formats, dtype=np.str_),
            "feature_keys": np.array(self.feature_keys, dtype=np.str_),
        }
        for i, fmt in enumerate(self.formats):
            model = self._models[fmt]
            kind = _KIND_OF.get(type(model))
            if kind is None:
                raise ValueError(
                    f"cannot persist model {type(model).__name__!r} for "
                    f"format {fmt!r}; persistable families: "
                    f"{sorted(MODEL_IO)}"
                )
            payload[f"model/{i}/__kind__"] = np.array(kind)
            for key, arr in model.to_state().items():
                payload[f"model/{i}/{key}"] = np.asanyarray(arr)
        with open(path, "wb") as fh:
            _write_npz(fh, payload)

    @classmethod
    def from_npz(cls, path: Union[str, Path]) -> "FormatSelector":
        """Load a selector saved by :meth:`to_npz`.

        Raises :class:`SelectorVersionError` (a ``ValueError``) when the
        file is not a selector artifact, was written by a different
        schema version or holds a model state that does not load (a
        tree whose node arrays do not form one tree, a missing array),
        with the retrain hint.
        """
        path = Path(path)
        try:
            data = np.load(path)
        except (zipfile.BadZipFile, ValueError, EOFError) as exc:
            # Not an npz at all: bad zip, numpy's pickle fallback on
            # arbitrary bytes, or an empty file.
            raise SelectorVersionError(
                f"{path} is not a selector artifact ({exc}); save one "
                "with FormatSelector.to_npz or `repro train --out`"
            ) from exc
        with data:
            if "__selector_schema__" not in data:
                raise SelectorVersionError(
                    f"{path} is not a selector artifact (no "
                    "__selector_schema__ entry); save one with "
                    "FormatSelector.to_npz or `repro train --out`"
                )
            version = int(data["__selector_schema__"])
            if version != SELECTOR_SCHEMA_VERSION:
                raise SelectorVersionError(
                    f"{path} was written with selector schema "
                    f"version {version} but this build reads "
                    f"version {SELECTOR_SCHEMA_VERSION}; retrain "
                    "the artifact with `repro train`"
                )
            formats = [str(f) for f in data["formats"]]
            feature_keys = [str(k) for k in data["feature_keys"]]
            selector = cls(formats, feature_keys=feature_keys)
            for i, fmt in enumerate(formats):
                prefix = f"model/{i}/"
                kind = str(data[prefix + "__kind__"])
                family = MODEL_IO.get(kind)
                if family is None:
                    raise SelectorVersionError(
                        f"{path} holds an unknown model kind "
                        f"{kind!r} for format {fmt!r}; known "
                        f"kinds: {sorted(MODEL_IO)}"
                    )
                state = {
                    key[len(prefix):]: data[key]
                    for key in data.files
                    if key.startswith(prefix)
                    and key != prefix + "__kind__"
                }
                try:
                    selector._models[fmt] = family.from_state(state)
                except (KeyError, ValueError) as exc:
                    raise SelectorVersionError(
                        f"{path} holds a corrupt {kind} model for "
                        f"format {fmt!r} ({exc}); retrain the artifact "
                        "with `repro train`"
                    ) from exc
            return selector
