"""The absolute golden for the selector artifacts.

The sweep golden pins the rows a sweep writes; this one pins what the
selector makes of them.  From the committed ``sweep_table.csv`` one
:class:`~repro.ml.FormatSelector` per (device, persistable model kind)
is trained and saved with ``to_npz`` (deterministic: pinned zip
timestamps, fixed member order); the golden holds the SHA-256 of each
artifact.  Alongside it are the ``evaluate(..., detail=True)`` report of
every artifact on every device slice (``selector_reports.json``) and
the ``/select`` response bodies of a served artifact for a fixed request
set (``select_bodies.txt``).

The models use small leaves and few neighbours so that the four golden
matrices per device still grow split trees and non-trivial neighbour
weights.

Regenerate with ``PYTHONPATH=src python -m tests.golden.regenerate``
only when a change to these bytes is intended, and justify it in
``CHANGES.md``.
"""

import json
import tempfile
from pathlib import Path

from repro.io import load_table
from repro.ml import (
    FormatSelector, KNeighborsRegressor, LinearRegression,
    RandomForestRegressor, RidgeRegression,
)
from repro.service import BadRequest, ServiceApp

from tests.golden.golden import DEVICE_NAMES, TABLE_PATH, sha256

HERE = Path(__file__).resolve().parent
REPORTS_PATH = HERE / "selector_reports.json"
SELECT_PATH = HERE / "select_bodies.txt"
SHA_PATH = HERE / "selector_artifacts.sha256"

# One factory per persistable model kind (``repro.ml.selector.MODEL_IO``).
MODEL_KINDS = {
    "forest": lambda: RandomForestRegressor(
        n_estimators=8, min_samples_leaf=1, random_state=0
    ),
    "knn": lambda: KNeighborsRegressor(n_neighbors=2, weights="distance"),
    "linear": LinearRegression,
    "ridge": lambda: RidgeRegression(alpha=1.0),
}

# The artifact ``repro serve --selector`` loads for the /select golden.
SERVED = ("Tesla-A100", "forest")

_FEATURES = {
    "mem_footprint_mb": 64.0,
    "avg_nnz_per_row": 20.0,
    "skew_coeff": 100.0,
    "cross_row_similarity": 0.5,
    "avg_num_neighbours": 1.0,
}
SELECT_REQUESTS = (
    {"spec": {"n_rows": 5000, "avg_nnz_per_row": 12, "skew_coeff": 10}},
    {"spec": {"mem_footprint_mb": 64, "avg_nnz_per_row": 50}},
    {"spec": {"n_rows": 200000, "avg_nnz_per_row": 4,
              "skew_coeff": 1000, "cross_row_sim": 0.9,
              "avg_num_neigh": 1.5}},
    {"spec": {"mem_footprint_mb": 2048, "avg_nnz_per_row": 100,
              "skew_coeff": 10000, "cross_row_sim": 0.05,
              "avg_num_neigh": 0.05}},
    {"features": _FEATURES},
    {"features": {**_FEATURES, "skew_coeff": 0.0,
                  "mem_footprint_mb": 1.0}},
    {"features": {**_FEATURES, "avg_nnz_per_row": "12"}},
    {"features": {"mem_footprint_mb": 1.0}},
    {"features": {**_FEATURES, "skew_coeff": "steep"}},
    {"spec": {"n_rows": 100, "avg_nnz_per_row": 5, "bogus": 1}},
    {"spec": {"avg_nnz_per_row": 5}},
    [1, 2, 3],
)


def golden_table():
    return load_table(TABLE_PATH)


def golden_selector(table, device, kind) -> FormatSelector:
    """The ``(device, kind)`` selector, trained on the device slice."""
    sliced = table.where(device=device)
    return FormatSelector(
        sliced.unique("format"), model_factory=MODEL_KINDS[kind]
    ).fit(sliced)


def artifact_names():
    return [f"{dev}/{kind}.npz" for dev in DEVICE_NAMES
            for kind in MODEL_KINDS]


def selector_artifacts(table, tmp_dir) -> dict:
    """``{name: path}`` of every golden artifact, written to ``tmp_dir``."""
    out = {}
    for dev in DEVICE_NAMES:
        for kind in MODEL_KINDS:
            path = Path(tmp_dir) / f"{dev}-{kind}.npz"
            golden_selector(table, dev, kind).to_npz(path)
            out[f"{dev}/{kind}.npz"] = path
    return out


def sha_text(artifacts: dict, reports: bytes, bodies: bytes) -> str:
    """One ``<sha256>  <name>`` line per artifact, then the report and
    body files."""
    lines = [
        f"{sha256(Path(artifacts[name]).read_bytes())}  {name}\n"
        for name in artifact_names()
    ]
    lines.append(f"{sha256(reports)}  {REPORTS_PATH.name}\n")
    lines.append(f"{sha256(bodies)}  {SELECT_PATH.name}\n")
    return "".join(lines)


def selector_reports(table, artifacts: dict, rows=False) -> bytes:
    """Every artifact's ``evaluate(detail=True)`` report on every device
    slice, as JSON; ``rows`` evaluates the dict-row form of each slice
    instead of the table."""
    slices = {dev: table.where(device=dev) for dev in DEVICE_NAMES}
    if rows:
        slices = {dev: t.to_rows() for dev, t in slices.items()}
    out = {}
    for name in artifact_names():
        selector = FormatSelector.from_npz(artifacts[name])
        out[name] = {
            dev: dict(selector.evaluate(held_out, detail=True))
            for dev, held_out in slices.items()
        }
    return (json.dumps(out, indent=1, sort_keys=True) + "\n").encode()


def select_bodies(table, artifacts: dict) -> bytes:
    """``/select`` status and body for each request, as the HTTP layer
    encodes them (``json.dumps(..., sort_keys=True)``), from a
    micro-batching app serving the ``SERVED`` artifact."""
    dev, kind = SERVED
    selector = FormatSelector.from_npz(artifacts[f"{dev}/{kind}.npz"])
    app = ServiceApp(selector, table)
    lines = []
    try:
        for request in SELECT_REQUESTS:
            try:
                status, obj = 200, app.select(request)
            except BadRequest as exc:
                status, obj = 400, {"error": str(exc)}
            lines.append(f"POST /select {json.dumps(request)}\n")
            lines.append(f"{status} {json.dumps(obj, sort_keys=True)}\n")
    finally:
        app.close()
    return "".join(lines).encode()


def build_all(tmp_dir):
    """``(sha text, reports, select bodies)`` rebuilt from the golden
    table, the artifacts written to ``tmp_dir``."""
    table = golden_table()
    artifacts = selector_artifacts(table, tmp_dir)
    reports = selector_reports(table, artifacts)
    bodies = select_bodies(table, artifacts)
    return sha_text(artifacts, reports, bodies), reports, bodies


def write_all() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shas, reports, bodies = build_all(tmp)
    REPORTS_PATH.write_bytes(reports)
    SELECT_PATH.write_bytes(bodies)
    SHA_PATH.write_text(shas)
