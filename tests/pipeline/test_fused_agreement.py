"""Golden agreement: record sweeps are bit-identical to the scalar oracle.

The production sweep scores each chunk from per-spec measurement records
built straight from a structure batch (``repro.perfmodel.record``).  It
must reproduce the scalar instance oracle (``spec_rows`` and
``simulate_spmv`` in ``tests/oracles``) row for row — same
measurements, same noise, same skip reasons, same category order —
across execution engines (serial / parallel), cache states (cold / warm)
and every registered format, including the scalar fallback and
capacity-gated cells.  The hypothesis
section pins the ``stats_from_csr_batch`` contract itself: a batch entry
equals the scalar ``stats_from_csr`` outcome (errors included) and is
invariant under batch order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_dataset_specs
from repro.core.dataset import Dataset, records_table
from repro.core.matrix import CSRStructBatch, csr_from_coo
from repro.core.table import SweepTable
from repro.devices import get_device
from repro.formats import FORMAT_REGISTRY, CapacityError, FormatError
from repro.perfmodel.batch import (
    DIAGNOSTIC_KEYS, STATUS_CAPACITY_ERROR, STATUS_FORMAT_ERROR, STATUS_OK,
    _GridPlan, _score_grid,
)
from repro.perfmodel.record import build_records
from repro.perfmodel.simulator import BOTTLENECKS
from repro.pipeline.engine import run_sweep
from tests.oracles.simulator import simulate_spmv
from tests.oracles.sweep import InstanceDataset, spec_rows

DEVICE_NAMES = ("AMD-EPYC-24", "Tesla-A100", "Alveo-U280")
MAX_NNZ = 60_000
# A cross-section of the tiny dataset: small, mid and the largest specs
# (the latter trip the Alveo capacity gate and the ELL/DIA refusals).
SPEC_INDICES = (0, 7, 23, 61, 96, 133, 158, 171, 179)


def _devices():
    return [get_device(name) for name in DEVICE_NAMES]


@pytest.fixture(scope="module")
def golden_specs():
    specs = build_dataset_specs("tiny")
    return [specs[i] for i in SPEC_INDICES]


def _dataset(specs, cls=Dataset):
    return cls(specs, max_nnz=MAX_NNZ, name="golden")


def _reference(specs, best_only, formats=None):
    """The scalar oracle's table over the whole spec list."""
    dataset = _dataset(specs, InstanceDataset)
    rows = [row for i in range(len(specs))
            for row in spec_rows(dataset, i, _devices(),
                                 best_only=best_only, formats=formats)]
    return SweepTable.from_rows(rows).with_constant("precision", "fp64")


def _assert_tables_equal(a, b, context=""):
    assert a.names == b.names, context
    for name in a.names:
        assert np.array_equal(a.column(name), b.column(name)), (
            context, name,
        )
        assert a.is_categorical(name) == b.is_categorical(name), (
            context, name,
        )
        if a.is_categorical(name):
            assert a.categories(name) == b.categories(name), (
                context, name,
            )
            assert np.array_equal(a.codes(name), b.codes(name)), (
                context, name,
            )


# ---------------------------------------------------------------------------
# sweep-level golden agreement
# ---------------------------------------------------------------------------
def test_fused_equals_instance_serial(golden_specs):
    for best_only in (True, False):
        ref = _reference(golden_specs, best_only)
        got = run_sweep(_dataset(golden_specs), _devices(),
                        best_only=best_only)
        _assert_tables_equal(ref, got, f"best_only={best_only}")


def test_fused_equals_instance_under_pool(golden_specs):
    ref = _reference(golden_specs, best_only=False)
    got = run_sweep(_dataset(golden_specs), _devices(), best_only=False,
                    jobs=2)
    _assert_tables_equal(got, ref, "jobs=2")


def test_fused_agrees_with_cold_and_warm_cache(golden_specs, tmp_path):
    cache_dir = str(tmp_path / "cache")
    ref = _reference(golden_specs, best_only=False)
    cold = run_sweep(_dataset(golden_specs), _devices(), best_only=False,
                     cache_dir=cache_dir)
    warm = run_sweep(_dataset(golden_specs), _devices(), best_only=False,
                     cache_dir=cache_dir)
    _assert_tables_equal(ref, cold, "reference vs cold")
    _assert_tables_equal(cold, warm, "cold vs warm")


def test_fused_covers_every_registered_format(golden_specs):
    """Explicit all-format sweep: the scalar-fallback formats (no
    vectorised ``stats_from_csr_batch`` override) must agree too."""
    formats = sorted(FORMAT_REGISTRY)
    n = len(golden_specs)
    ref = _reference(golden_specs, best_only=False, formats=formats)
    records = build_records(golden_specs, MAX_NNZ,
                            _GridPlan(_devices(), formats))
    got = records_table(_dataset(golden_specs), 0, n, records, _devices(),
                        best_only=False, formats=formats)
    _assert_tables_equal(ref, got, "all formats")
    scored = set(ref.categories("format"))
    # The fallback path is genuinely exercised, not vacuously green.
    assert {"VSL", "SparseX", "BCSR"} <= scored


def test_fused_grid_bit_identity_and_skip_sets(golden_specs):
    """Grid-level check, stronger than the table: every cell of the
    record-scored grid (scored or skipped) — measurements, diagnostics,
    bottleneck and skip reason — must equal the scalar oracle's call."""
    dataset = _dataset(golden_specs, InstanceDataset)
    n = len(golden_specs)
    # Explicit all-formats grid: the device Table-II defaults exclude the
    # refusing formats (ELL/DIA), so only the full registry exercises
    # format_error cells alongside the capacity gate.
    formats = sorted(FORMAT_REGISTRY)
    plan = _GridPlan(_devices(), formats)
    records = build_records(golden_specs, MAX_NNZ, plan)
    got = _score_grid(records, [f"golden[{i}]" for i in range(n)], plan)

    assert got.instance_names == [dataset.instance(i).name
                                  for i in range(n)]
    capacity = set()
    for idx, cell in enumerate(got.data):
        inst = dataset.instance(int(cell["instance"]))
        dev = _devices()[cell["device"]]
        fmt = got.format_names[cell["format"]]
        coords = (inst.name, dev.name, fmt)
        try:
            m = simulate_spmv(inst, fmt, dev)
        except CapacityError as exc:
            assert cell["status"] == STATUS_CAPACITY_ERROR, coords
            assert got.skip_reasons[idx] == str(exc), coords
            capacity.add(coords + ("fp64",))
            continue
        except FormatError as exc:
            assert cell["status"] == STATUS_FORMAT_ERROR, coords
            assert got.skip_reasons[idx] == str(exc), coords
            continue
        assert cell["status"] == STATUS_OK, coords
        for key in ("gflops", "time_s", "watts", "gflops_per_watt"):
            assert cell[key] == getattr(m, key), (coords, key)
        for key in DIAGNOSTIC_KEYS:
            assert cell[key] == m.diagnostics[key], (coords, key)
        assert BOTTLENECKS[cell["bottleneck"]] == m.bottleneck, coords
    assert got.capacity_skip_set() == capacity
    # The golden spec selection must actually exercise both skip kinds.
    assert got.skips(kind="capacity"), "no capacity skips in golden set"
    assert got.skips(kind="format"), "no format refusals in golden set"


# ---------------------------------------------------------------------------
# stats_from_csr_batch properties
# ---------------------------------------------------------------------------
@st.composite
def csr_matrix_lists(draw):
    """1-4 small random matrices, degenerate shapes included."""
    n_mats = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n_mats):
        mode = draw(st.sampled_from(["random", "empty", "dense-rows"]))
        if mode == "empty":
            mats.append(csr_from_coo(draw(st.integers(1, 12)),
                                     draw(st.integers(1, 12)), [], [], []))
            continue
        if mode == "dense-rows":
            n_rows = draw(st.integers(1, 8))
            n_cols = draw(st.integers(1, 40))
            rows = np.repeat(np.arange(n_rows), n_cols)
            cols = np.tile(np.arange(n_cols), n_rows)
            mats.append(csr_from_coo(n_rows, n_cols, rows, cols,
                                     rng.uniform(1, 5, n_rows * n_cols)))
            continue
        n_rows = draw(st.integers(1, 20))
        n_cols = draw(st.integers(1, 20))
        nnz = draw(st.integers(0, 50))
        vals = rng.uniform(1, 5, nnz)
        mats.append(csr_from_coo(n_rows, n_cols,
                                 rng.integers(0, n_rows, nnz),
                                 rng.integers(0, n_cols, nnz), vals))
    return mats


def _scalar_outcome(cls, mat):
    try:
        return cls.stats_from_csr(mat), None
    except FormatError as exc:
        return None, str(exc)


@given(mats=csr_matrix_lists())
@settings(max_examples=30, deadline=None)
def test_batch_stats_equal_scalar_stats(mats):
    """Entry ``i`` of the batch equals the scalar call on matrix ``i`` —
    including batch-of-1 and the exact refusal message (error parity)."""
    batch = CSRStructBatch.from_matrices(mats)
    for name in sorted(FORMAT_REGISTRY):
        cls = FORMAT_REGISTRY[name]
        fsb = cls.stats_from_csr_batch(batch, matrices=mats)
        assert len(fsb) == len(mats), name
        for i, mat in enumerate(mats):
            ref, ref_err = _scalar_outcome(cls, mat)
            if ref_err is not None:
                assert bool(fsb.fail[i]), (name, i)
                assert fsb.fail_reason[i] == ref_err, (name, i)
                with pytest.raises(FormatError):
                    fsb.stats(i)
            else:
                assert not fsb.fail[i], (name, i)
                assert fsb.stats(i) == ref, (name, i)


@given(mats=csr_matrix_lists(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_batch_stats_order_invariance(mats, seed):
    """Permuting the batch permutes the entries and nothing else."""
    perm = np.random.default_rng(seed).permutation(len(mats))
    batch = CSRStructBatch.from_matrices(mats)
    shuffled = CSRStructBatch.from_matrices([mats[p] for p in perm])
    for name in sorted(FORMAT_REGISTRY):
        cls = FORMAT_REGISTRY[name]
        fsb = cls.stats_from_csr_batch(batch, matrices=mats)
        fsb_p = cls.stats_from_csr_batch(
            shuffled, matrices=[mats[p] for p in perm]
        )
        for j, p in enumerate(perm):
            assert bool(fsb_p.fail[j]) == bool(fsb.fail[p]), (name, j)
            if fsb.fail[p]:
                assert fsb_p.fail_reason[j] == fsb.fail_reason[p], (name, j)
            else:
                assert fsb_p.stats(j) == fsb.stats(p), (name, j)


@given(mats=csr_matrix_lists())
@settings(max_examples=20, deadline=None)
def test_structure_batch_matrices_roundtrip(mats):
    """``CSRStructBatch.matrix(i)`` reproduces each matrix's structure
    (data is zeroed by design — stats and features never read it)."""
    batch = CSRStructBatch.from_matrices(mats)
    for i, mat in enumerate(mats):
        rebuilt = batch.matrix(i)
        assert rebuilt.n_rows == mat.n_rows
        assert rebuilt.n_cols == mat.n_cols
        assert np.array_equal(rebuilt.indptr, mat.indptr)
        assert np.array_equal(rebuilt.indices, mat.indices)
        assert not rebuilt.data.any()
