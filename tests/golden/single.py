"""The absolute golden for the single-matrix API.

The sweep golden (:mod:`tests.golden.golden`) pins the rows of a
dataset sweep.  This one pins the calls a user makes on one matrix:
``simulate_best_detailed`` on every testbed at fp64 and fp32, and
``simulate_spmv`` for every registry format on AMD-EPYC-24, over the
four golden specs (``MatrixInstance.from_spec`` at the golden
``max_nnz``) plus one unscaled matrix — golden spec 23's representative
written to MatrixMarket and read back.  Each row holds the measurement
with all ten diagnostics, or the skip kind and reason.  The stdout of
``repro validate`` at its defaults is frozen alongside.

Regenerate with ``PYTHONPATH=src python -m tests.golden.regenerate``
only when a change to these numbers is intended, and justify it in
``CHANGES.md``.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import numpy as np

from repro.cli import main as cli_main
from repro.devices import TESTBEDS, get_device
from repro.formats import FORMAT_REGISTRY, CapacityError, FormatError
from repro.io import read_mtx, write_mtx
from repro.perfmodel import (
    MatrixInstance, simulate_best_detailed, simulate_spmv,
)

from tests.golden.golden import (
    FORMATS, MAX_NNZ, NAME, SPEC_INDICES, first_difference, golden_specs,
    sha256,
)

HERE = Path(__file__).resolve().parent
SINGLE_PATH = HERE / "single_matrix.csv"
VALIDATE_PATH = HERE / "validate_stdout.txt"
SINGLE_SHA_PATH = HERE / "single_matrix.sha256"

PRECISIONS = ("fp64", "fp32")
SPMV_DEVICE = "AMD-EPYC-24"
# Golden spec 23's representative, unscaled.
MTX_SPEC_INDEX = 23
DIAGNOSTICS = (
    "t_mem", "t_comp", "t_lat", "imbalance", "utilisation", "bw_gbs",
    "miss_rate", "padding_ratio", "bytes_total", "simd_util",
)
HEADER = (
    ("matrix", "call", "device", "precision", "format", "gflops",
     "time_s", "watts", "gflops_per_watt", "bottleneck")
    + DIAGNOSTICS + ("skip_kind", "skip_reason")
)
VALIDATE_ARGV = ["validate"]


def golden_instances(tmp_dir):
    """The four golden specs as instances, plus the unscaled matrix
    (written to and read back from ``tmp_dir``)."""
    specs = golden_specs()
    out = [
        MatrixInstance.from_spec(spec, max_nnz=MAX_NNZ,
                                 name=f"{NAME}[{idx}]")
        for idx, spec in zip(SPEC_INDICES, specs)
    ]
    rep = specs[SPEC_INDICES.index(MTX_SPEC_INDEX)].build(max_nnz=MAX_NNZ)
    path = Path(tmp_dir) / f"spec{MTX_SPEC_INDEX}.mtx"
    write_mtx(path, rep)
    out.append(MatrixInstance.from_matrix(
        read_mtx(path), name=f"{NAME}[{MTX_SPEC_INDEX}].mtx"
    ))
    return out


def _num(x: float) -> str:
    return repr(float(x))


def _measured(inst, call, precision, m):
    return [inst.name, call, m.device, precision, m.format,
            _num(m.gflops), _num(m.time_s), _num(m.watts),
            _num(m.gflops_per_watt), m.bottleneck,
            *(_num(m.diagnostics[k]) for k in DIAGNOSTICS), "", ""]


def _skipped(inst, call, device, precision, fmt, capacity, reason):
    return ([inst.name, call, device, precision, fmt]
            + [""] * (5 + len(DIAGNOSTICS))
            + ["capacity" if capacity else "format", reason])


def single_rows(instances):
    rows = []
    for inst in instances:
        for precision in PRECISIONS:
            for dev in TESTBEDS.values():
                out = simulate_best_detailed(inst, dev,
                                             precision=precision)
                if out.best is not None:
                    rows.append(_measured(inst, "best", precision,
                                          out.best))
                for s in out.skipped:
                    rows.append(_skipped(inst, "best", dev.name,
                                         precision, s.format, s.capacity,
                                         s.reason))
            dev = get_device(SPMV_DEVICE)
            for fmt in FORMATS:
                try:
                    m = simulate_spmv(inst, fmt, dev, precision=precision)
                except FormatError as exc:
                    rows.append(_skipped(
                        inst, "spmv", dev.name, precision, fmt,
                        isinstance(exc, CapacityError), str(exc),
                    ))
                    continue
                rows.append(_measured(inst, "spmv", precision, m))
    return rows


def single_csv() -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    with tempfile.TemporaryDirectory() as tmp:
        writer.writerows(single_rows(golden_instances(tmp)))
    return buf.getvalue().encode()


def validate_stdout() -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(VALIDATE_ARGV)
    assert rc == 0, f"repro validate exited {rc}"
    return buf.getvalue().encode()


def sha_text(single: bytes, validate: bytes) -> str:
    return (f"{sha256(single)}  {SINGLE_PATH.name}\n"
            f"{sha256(validate)}  {VALIDATE_PATH.name}\n")


def assert_single_matches_golden(single: bytes, validate: bytes) -> None:
    want_single = SINGLE_PATH.read_bytes()
    want_validate = VALIDATE_PATH.read_bytes()
    assert SINGLE_SHA_PATH.read_text() == sha_text(
        want_single, want_validate
    ), (
        f"{SINGLE_PATH.name}/{VALIDATE_PATH.name} do not match "
        f"{SINGLE_SHA_PATH.name}; regenerate all three with "
        "`python -m tests.golden.regenerate`"
    )
    if single != want_single:
        raise AssertionError(
            "single-matrix results drifted from the golden (NumPy "
            f"{np.__version__}): {first_difference(single, want_single)}"
        )
    if validate != want_validate:
        raise AssertionError(
            "`repro validate` output drifted from the golden (NumPy "
            f"{np.__version__}):\n--- got\n{validate.decode()}"
            f"--- golden\n{want_validate.decode()}"
        )
