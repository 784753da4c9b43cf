"""Golden end-to-end regression: sweep -> fit -> evaluate.

The whole chain — sweep, selector training, batched evaluation — must
produce *identical* results across every execution engine: serial vs
parallel sweeps, the record sweep vs the scalar instance oracle
(``tests/oracles``) under either stats engine, the batched columnar
selector vs the dict-row scalar selector oracle.  Any drift in any layer shows up here as a
field-level diff of the SelectionReport (and of the raw measurement
rows, checked first for a sharper failure signal).
"""

import pytest

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.experiments import ExperimentSpec, run_experiment
from repro.core.table import SweepTable
from repro.ml import FormatSelector, KNeighborsRegressor
from tests.oracles import selector as selector_oracle
from tests.oracles.instance import OracleInstance
from tests.oracles.sweep import InstanceDataset, spec_rows

N_SPECS = 8
MAX_NNZ = 20_000
DEVICE = "INTEL-XEON"


def _dataset(cls=Dataset):
    return cls(
        build_dataset_specs("tiny")[:N_SPECS], max_nnz=MAX_NNZ,
        name="golden",
    )


def _table(jobs=1, engine="sweep", stats_engine="analytic",
           cache_dir=None):
    """The golden sweep through the production path (``engine="sweep"``)
    or the scalar ``spec_rows`` oracle (``engine="scalar"``)."""
    assert OracleInstance.stats_engine == "analytic"  # default unchanged
    devices = [TESTBEDS[DEVICE]]
    if engine == "sweep":
        return sweep(_dataset(), devices, best_only=False, seed=0,
                     jobs=jobs, cache_dir=cache_dir)
    dataset = _dataset(InstanceDataset)
    for inst in dataset.instances():
        inst.stats_engine = stats_engine
    rows = [row for i in range(len(dataset))
            for row in spec_rows(dataset, i, devices, best_only=False)]
    return SweepTable.from_rows(rows).with_constant("precision", "fp64")


def _chain(eval_batch=True, **engine):
    """One full sweep -> fit -> evaluate pass; returns (rows, report).

    ``eval_batch=False`` evaluates with the per-instance scalar loop of
    the dict-row selector oracle instead of the library's batch."""
    table = _table(**engine)
    rows = table.rows
    names = sorted({r["matrix"] for r in rows})
    train = [r for r in rows if r["matrix"] in names[: N_SPECS // 2]]
    test = [r for r in rows if r["matrix"] in names[N_SPECS // 2:]]
    selector = FormatSelector(
        list(TESTBEDS[DEVICE].formats),
        model_factory=lambda: KNeighborsRegressor(
            n_neighbors=3, weights="distance"
        ),
    ).fit(train)
    if not eval_batch:
        return rows, selector_oracle.evaluate(selector, test)
    return rows, selector.evaluate(test)


@pytest.fixture(scope="module")
def golden():
    """The reference chain: serial, batched, analytic stats."""
    return _chain()


class TestGoldenChain:
    def test_reference_report_is_complete_and_sane(self, golden):
        _, report = golden
        assert set(report) == {
            "top1_accuracy", "mean_retained", "worst_retained",
            "n_matrices",
        }
        assert report["n_matrices"] == N_SPECS // 2
        assert 0.0 <= report["top1_accuracy"] <= 1.0
        assert 0.0 < report["worst_retained"] \
            <= report["mean_retained"] <= 1.0

    def test_rerun_is_bit_identical(self, golden):
        rows, report = _chain()
        assert rows == golden[0]
        assert report == golden[1]

    def test_parallel_sweep_matches_serial(self, golden, tmp_path):
        rows, report = _chain(jobs=2, cache_dir=str(tmp_path / "cache"))
        assert rows == golden[0]
        assert report == golden[1]

    def test_scalar_grid_matches_batched(self, golden):
        rows, report = _chain(engine="scalar")
        assert rows == golden[0]
        assert report == golden[1]

    def test_materialised_stats_match_analytic(self, golden):
        rows, report = _chain(engine="scalar", stats_engine="materialise")
        assert rows == golden[0]
        assert report == golden[1]

    def test_scalar_evaluate_matches_batched(self, golden):
        rows, report = _chain(eval_batch=False)
        assert rows == golden[0]
        assert report == golden[1]


class TestGoldenExperiment:
    """The experiment driver inherits the chain's engine-independence."""

    def test_experiment_json_identical_across_engines(self, tmp_path):
        spec = ExperimentSpec(
            scale="tiny", devices=(DEVICE,), limit=N_SPECS,
            max_nnz=MAX_NNZ, n_splits=2, model="knn",
        )
        reference = run_experiment(spec).to_json()
        assert run_experiment(spec, jobs=2).to_json() == reference
        cache = str(tmp_path / "cache")
        assert run_experiment(spec, cache_dir=cache).to_json() == reference
        assert run_experiment(spec, cache_dir=cache).to_json() == reference


class TestColumnarAgreement:
    """The table redesign's golden pin: every columnar fast path equals
    the dict-row seed behaviour bit for bit, and the full chain survives
    an NPZ round trip byte-identically."""

    @pytest.fixture(scope="class")
    def table(self):
        return sweep(
            _dataset(), [TESTBEDS[DEVICE]], best_only=False, seed=0,
        )

    def _selector(self):
        return FormatSelector(
            list(TESTBEDS[DEVICE].formats),
            model_factory=lambda: KNeighborsRegressor(
                n_neighbors=3, weights="distance"
            ),
        )

    @pytest.mark.parametrize("oracle", [True, False])
    def test_columnar_selector_equals_dict_row_path(self, table, oracle):
        """The table and its dict rows train and evaluate identically;
        with ``oracle`` the dict-row side is the scalar selector oracle
        (``tests/oracles/selector.py``), else the library fed dict rows
        through its one boundary conversion."""
        names = sorted({r["matrix"] for r in table.rows})
        half = names[: N_SPECS // 2]
        train_t = table.where_in("matrix", half)
        test_t = table.where_in("matrix", names[N_SPECS // 2:])
        columnar = self._selector().fit(train_t).evaluate(
            test_t, detail=True
        )
        train_r, test_r = train_t.to_rows(), test_t.to_rows()
        if oracle:
            reference = selector_oracle.evaluate(
                selector_oracle.fit(self._selector(), train_r), test_r,
                detail=True,
            )
        else:
            reference = self._selector().fit(train_r).evaluate(
                test_r, detail=True
            )
        assert columnar == reference

    def test_npz_roundtrip_is_lossless(self, table, tmp_path):
        path = tmp_path / "sweep.npz"
        table.to_npz(path)
        from repro.core.table import SweepTable

        back = SweepTable.from_npz(path)
        assert back == table
        assert back.to_rows() == table.to_rows()

    def test_experiment_from_saved_table_is_byte_identical(
        self, tmp_path
    ):
        spec = ExperimentSpec(
            scale="tiny", devices=(DEVICE,), limit=N_SPECS,
            max_nnz=MAX_NNZ, n_splits=2, model="knn",
        )
        reference = run_experiment(spec).to_json()
        dataset = Dataset(
            build_dataset_specs("tiny")[:N_SPECS], max_nnz=MAX_NNZ,
            name="tiny",
        )
        saved = sweep(dataset, [TESTBEDS[DEVICE]], best_only=False,
                      seed=0)
        path = tmp_path / "sweep.npz"
        saved.to_npz(path)
        from repro.core.table import SweepTable

        loaded = run_experiment(
            spec, table=SweepTable.from_npz(path)
        )
        assert loaded.to_json() == reference
