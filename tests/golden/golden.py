"""The absolute golden sweep: its configuration and how to compare.

Every other bit-identity suite is relative (one engine, cache state or
``--jobs`` value against another).  This one pins the rows themselves:
a small all-formats sweep of the ``tiny`` preset on one CPU, one GPU and
the FPGA is frozen as ``sweep_table.csv`` together with the SHA-256 of
that canonical CSV.  A change that moves every engine at once — a NumPy
RNG stream change, a shared noise or stats refactor — fails here.

Regenerate with ``PYTHONPATH=src python -m tests.golden.regenerate``
only when a change to the rows is intended, and justify it in
``CHANGES.md``.
"""

import csv
import hashlib
import io
from pathlib import Path

import numpy as np

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.devices import get_device
from repro.formats import FORMAT_REGISTRY

HERE = Path(__file__).resolve().parent
TABLE_PATH = HERE / "sweep_table.csv"
SHA_PATH = HERE / "sweep_table.sha256"

DEVICE_NAMES = ("AMD-EPYC-24", "Tesla-A100", "Alveo-U280")
# Four tiny-preset specs: a declared-scale profile (7), a mid-size
# matrix (23), a dense-row one (96) and a 1.5 GB one the FPGA cannot
# host (158); the full format registry adds ELL/DIA refusals.
SPEC_INDICES = (7, 23, 96, 158)
MAX_NNZ = 4_000
FORMATS = tuple(sorted(FORMAT_REGISTRY))
NAME = "golden"


def golden_specs():
    specs = build_dataset_specs("tiny")
    return [specs[i] for i in SPEC_INDICES]


def golden_dataset() -> Dataset:
    return Dataset(golden_specs(), max_nnz=MAX_NNZ, name=NAME)


def golden_devices(names=DEVICE_NAMES):
    return [get_device(name) for name in names]


def golden_sweep(devices=None, **kwargs):
    """The golden sweep; ``kwargs`` pass through to :func:`sweep`."""
    return sweep(
        golden_dataset(), devices or golden_devices(), best_only=False,
        formats=list(FORMATS), **kwargs,
    )


def canonical_csv(table) -> bytes:
    """The table as typed CSV bytes (``repro.io.csvio.write_table``
    layout: header in column order, repr-exact floats)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.names)
    for row in table.iter_rows():
        writer.writerow([row[name] for name in table.names])
    return buf.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def first_difference(got: bytes, want: bytes) -> str:
    """Name the first differing row and column of two canonical CSVs."""
    a = list(csv.reader(io.StringIO(got.decode())))
    b = list(csv.reader(io.StringIO(want.decode())))
    if a[:1] != b[:1]:
        return f"header differs: got {a[:1]}, golden {b[:1]}"
    header = a[0]
    for r, (ra, rb) in enumerate(zip(a[1:], b[1:])):
        for c, (va, vb) in enumerate(zip(ra, rb)):
            if va != vb:
                return (f"row {r} column {header[c]!r}: got {va}, "
                        f"golden {vb}")
    return f"row counts differ: got {len(a) - 1}, golden {len(b) - 1}"


def assert_matches_golden(table) -> None:
    got = canonical_csv(table)
    want = TABLE_PATH.read_bytes()
    assert sha256(want) == SHA_PATH.read_text().split()[0], (
        f"{TABLE_PATH.name} does not match {SHA_PATH.name}; regenerate "
        "both with `python -m tests.golden.regenerate`"
    )
    if got != want:
        raise AssertionError(
            "sweep rows drifted from the golden table (NumPy "
            f"{np.__version__}): {first_difference(got, want)}"
        )
