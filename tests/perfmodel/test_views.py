"""The single-matrix API as views of the record scorer: the record memo,
error parity with the scalar oracle, and grid feature columns."""

import pytest

from repro.core.feature_space import build_dataset_specs
from repro.core.generator import MatrixSpec
from repro.devices import TESTBEDS
from repro.formats import CapacityError, FormatError
from repro.ml import FormatSelector
from repro.perfmodel import (
    MatrixInstance, simulate_best, simulate_best_detailed, simulate_grid,
    simulate_spmv,
)
from repro.perfmodel.batch import _GridPlan, _score_grid
from repro.perfmodel.record import build_records
from repro.perfmodel.simulator import BOTTLENECKS
from tests.oracles import simulator as oracle
from tests.oracles.instance import OracleInstance

FEATURE_KEYS = ("mem_footprint_mb", "avg_nnz_per_row", "skew_coeff",
                "cross_row_similarity", "avg_num_neighbours", "nnz",
                "n_rows")


def _scaled_spec(seed=1):
    return MatrixSpec.from_footprint(256.0, 20, skew_coeff=50, seed=seed)


def _forbid(monkeypatch, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("the record memo measured a matrix again")

    for module in ("repro.core.generator", "repro.core.features",
                   "repro.perfmodel.record"):
        for name in names:
            monkeypatch.setattr(f"{module}.{name}", forbidden,
                                raising=False)


class TestRecordMemo:
    def test_second_device_reuses_profile_and_features(self, monkeypatch):
        spec = _scaled_spec()
        later = ("Tesla-A100", "Alveo-U280", "ARM-NEON")
        reference = OracleInstance.from_spec(spec, max_nnz=20_000,
                                             name="memo")
        want = [oracle.simulate_best(reference, TESTBEDS[name])
                for name in later]
        inst = MatrixInstance.from_spec(spec, max_nnz=20_000, name="memo")
        assert inst.scale > 1.0  # the profile is drawn from the spec
        assert simulate_best(inst, TESTBEDS["AMD-EPYC-24"]) is not None
        _forbid(monkeypatch, "row_length_profile", "extract_features")
        # Different SIMD width, worker count and format list: new
        # widths, keys and formats, but no new profile or features.
        got = [simulate_best(inst, TESTBEDS[name]) for name in later]
        assert got == want
        assert all(m is not None for m in got)

    def test_memo_matches_fresh_instances(self):
        spec = _scaled_spec(seed=2)
        warm = MatrixInstance.from_spec(spec, max_nnz=20_000, name="w")
        for name in ("AMD-EPYC-24", "Tesla-V100", "INTEL-XEON"):
            fresh = MatrixInstance.from_spec(spec, max_nnz=20_000,
                                             name="w")
            assert simulate_best_detailed(warm, TESTBEDS[name]) == \
                simulate_best_detailed(fresh, TESTBEDS[name])

    def test_covered_plan_reuses_the_record(self):
        inst = MatrixInstance.from_spec(_scaled_spec(), max_nnz=20_000)
        plan = _GridPlan([TESTBEDS["Tesla-A100"]])
        rec = inst.record(plan)
        assert inst.record(plan) is rec


@pytest.fixture(scope="module")
def refusing():
    """A skewed matrix ELL refuses."""
    spec = MatrixSpec.from_footprint(8, 5, skew_coeff=10000, seed=5)
    return spec


@pytest.fixture(scope="module")
def overflowing():
    """A matrix too large for the FPGA's HBM."""
    return MatrixSpec.from_footprint(1024, 5, seed=3)


class TestErrorParity:
    def test_unknown_precision_before_format_work(self, refusing):
        inst = MatrixInstance.from_spec(refusing, max_nnz=20_000)
        dev = TESTBEDS["AMD-EPYC-24"]
        for call in (
            lambda: simulate_spmv(inst, "ELL", dev, precision="fp16"),
            lambda: simulate_best_detailed(inst, dev, formats=["ELL"],
                                           precision="fp16"),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert "fp64" in str(err.value) and "fp32" in str(err.value)
        assert inst._record is None  # no format was measured

    def test_unknown_format(self, refusing):
        inst = MatrixInstance.from_spec(refusing, max_nnz=20_000)
        dev = TESTBEDS["AMD-EPYC-24"]
        with pytest.raises(KeyError):
            simulate_spmv(inst, "NOPE", dev)
        with pytest.raises(KeyError):
            simulate_best_detailed(inst, dev, formats=["Naive-CSR", "NOPE"])

    @pytest.mark.parametrize("case, fmt, device, error", [
        ("refusing", "ELL", "AMD-EPYC-24", FormatError),
        ("overflowing", "VSL", "Alveo-U280", CapacityError),
    ])
    def test_error_messages_equal_oracle(self, request, case, fmt, device,
                                         error):
        spec = request.getfixturevalue(case)
        dev = TESTBEDS[device]
        for precision in ("fp64", "fp32"):
            with pytest.raises(error) as got:
                simulate_spmv(
                    MatrixInstance.from_spec(spec, max_nnz=20_000,
                                             name=case),
                    fmt, dev, precision=precision,
                )
            with pytest.raises(error) as want:
                oracle.simulate_spmv(
                    OracleInstance.from_spec(spec, max_nnz=20_000,
                                             name=case),
                    fmt, dev, precision=precision,
                )
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)

    def test_skips_equal_oracle(self, overflowing):
        dev = TESTBEDS["Alveo-U280"]
        got = simulate_best_detailed(
            MatrixInstance.from_spec(overflowing, max_nnz=20_000), dev,
        )
        want = oracle.simulate_best_detailed(
            OracleInstance.from_spec(overflowing, max_nnz=20_000), dev,
        )
        assert got == want
        assert got.all_failed


class TestFeatureColumns:
    def test_grid_rows_carry_features_for_the_selector(self):
        specs = build_dataset_specs("tiny")[:6]
        instances = [MatrixInstance.from_spec(s, max_nnz=5_000,
                                              name=f"f[{i}]")
                     for i, s in enumerate(specs)]
        dev = TESTBEDS["AMD-EPYC-24"]
        rows = simulate_grid(instances, [dev]).to_rows(with_features=True)
        assert rows
        for row in rows:
            feats = instances[row["instance"]].features
            for key in FEATURE_KEYS:
                assert row[key] == getattr(feats, key), key
        selector = FormatSelector(list(dev.formats)).fit(rows)
        assert selector.select(rows[0]) in dev.formats

    def test_record_scored_grid_carries_features(self):
        specs = build_dataset_specs("tiny")[:3]
        plan = _GridPlan([TESTBEDS["Tesla-A100"]])
        records = build_records(specs, 5_000, plan)
        grid = _score_grid(records, ["a", "b", "c"], plan)
        rows = grid.to_rows(with_features=True)
        assert rows and all(row["bottleneck"] in BOTTLENECKS
                            for row in rows)
        for row in rows:
            feats = records[row["instance"]].features
            for key in FEATURE_KEYS:
                assert row[key] == getattr(feats, key), key
