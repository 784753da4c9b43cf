"""Feature-based format selector."""

import numpy as np
import pytest

from repro.core.table import SweepTable
from repro.ml import FormatSelector


def _synthetic_rows(n=80, seed=0):
    """Two formats with a crisp decision boundary on the skew feature:
    'Bal' wins on skewed matrices, 'Fast' on balanced ones."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        skew = float(rng.choice([1.0, 5000.0]))
        feats = {
            "matrix": f"m{i}",
            "mem_footprint_mb": float(rng.uniform(4, 512)),
            "avg_nnz_per_row": float(rng.uniform(5, 100)),
            "skew_coeff": skew,
            "cross_row_similarity": float(rng.uniform(0, 1)),
            "avg_num_neighbours": float(rng.uniform(0, 2)),
        }
        fast = 100.0 if skew < 100 else 20.0
        bal = 60.0
        rows.append({**feats, "format": "Fast", "gflops": fast})
        rows.append({**feats, "format": "Bal", "gflops": bal})
    return rows


class TestSelector:
    def test_learns_decision_boundary(self):
        rows = _synthetic_rows()
        sel = FormatSelector(["Fast", "Bal"]).fit(rows)
        balanced = {
            "mem_footprint_mb": 64, "avg_nnz_per_row": 50,
            "skew_coeff": 1.0, "cross_row_similarity": 0.5,
            "avg_num_neighbours": 1.0,
        }
        skewed = dict(balanced, skew_coeff=5000.0)
        assert sel.select(balanced) == "Fast"
        assert sel.select(skewed) == "Bal"

    def test_predict_scores_all_formats(self):
        sel = FormatSelector(["Fast", "Bal"]).fit(_synthetic_rows())
        scores = sel.predict_gflops({
            "mem_footprint_mb": 64, "avg_nnz_per_row": 50,
            "skew_coeff": 1.0, "cross_row_similarity": 0.5,
            "avg_num_neighbours": 1.0,
        })
        assert set(scores) == {"Fast", "Bal"}

    def test_evaluate_report(self):
        rows = _synthetic_rows(seed=1)
        sel = FormatSelector(["Fast", "Bal"]).fit(rows)
        report = sel.evaluate(_synthetic_rows(n=30, seed=2))
        assert report.accuracy > 0.9
        assert report.retained > 0.9
        assert report["n_matrices"] == 30

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            FormatSelector(["A"]).select({})

    def test_empty_formats_rejected(self):
        with pytest.raises(ValueError):
            FormatSelector([])

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            FormatSelector(["A"]).fit([])

    def test_missing_format_rows_treated_as_zero(self):
        # Format 'Rare' only appears for one matrix; the selector must
        # still fit and never crash at selection time.
        rows = _synthetic_rows(n=20)
        rows.append({
            "matrix": "m0", "mem_footprint_mb": 4, "avg_nnz_per_row": 5,
            "skew_coeff": 1.0, "cross_row_similarity": 0.5,
            "avg_num_neighbours": 1.0, "format": "Rare", "gflops": 1.0,
        })
        sel = FormatSelector(["Fast", "Bal", "Rare"]).fit(rows)
        choice = sel.select({
            "mem_footprint_mb": 64, "avg_nnz_per_row": 50,
            "skew_coeff": 1.0, "cross_row_similarity": 0.5,
            "avg_num_neighbours": 1.0,
        })
        assert choice in ("Fast", "Bal", "Rare")


class TestRowGrouping:
    """Regression: per-format rows of one unnamed matrix must collapse to
    one training example, never silently become distinct 'matrices'."""

    def _unnamed_rows(self):
        rows = []
        for i in range(12):
            feats = {
                "matrix": "",            # unnamed instance
                "spec_index": i,         # ...but explicitly keyed
                "mem_footprint_mb": 8.0 + i,
                "avg_nnz_per_row": 20.0,
                "skew_coeff": 1.0 if i % 2 else 4000.0,
                "cross_row_similarity": 0.5,
                "avg_num_neighbours": 1.0,
            }
            fast = 100.0 if i % 2 else 20.0
            rows.append({**feats, "format": "Fast", "gflops": fast})
            rows.append({**feats, "format": "Bal", "gflops": 60.0})
        return rows

    def test_unnamed_rows_group_by_spec_index(self):
        rows = self._unnamed_rows()
        sel = FormatSelector(["Fast", "Bal"]).fit(rows)
        report = sel.evaluate(rows)
        # 12 matrices, not 24: the two format rows of each spec merged.
        assert report["n_matrices"] == 12
        # With correct grouping the oracle is learnable: retained
        # performance reflects both formats being visible per matrix.
        assert report.retained > 0.5

    def test_none_matrix_groups_by_spec_index(self):
        """``matrix=None`` names no matrix: the rows still group by
        their ``spec_index`` rather than failing to encode the name."""
        rows = [dict(r, matrix=None) for r in self._unnamed_rows()]
        sel = FormatSelector(["Fast", "Bal"]).fit(rows)
        report = sel.evaluate(rows, detail=True)
        assert report["n_matrices"] == 12
        assert [c["instance"] for c in report["choices"]] == list(range(12))
        named = FormatSelector(["Fast", "Bal"]).fit(self._unnamed_rows())
        assert report == named.evaluate(self._unnamed_rows(), detail=True)

    def test_grid_instance_key_accepted(self):
        rows = [dict(r, spec_index=None, instance=r["spec_index"])
                for r in self._unnamed_rows()]
        sel = FormatSelector(["Fast", "Bal"]).fit(rows)
        assert sel.evaluate(rows)["n_matrices"] == 12

    def test_anonymous_rows_rejected(self):
        row = {
            "matrix": "", "mem_footprint_mb": 8.0, "avg_nnz_per_row": 20.0,
            "skew_coeff": 1.0, "cross_row_similarity": 0.5,
            "avg_num_neighbours": 1.0, "format": "Fast", "gflops": 1.0,
        }
        with pytest.raises(ValueError, match="group"):
            FormatSelector(["Fast"]).fit([row])
        with pytest.raises(ValueError, match="group"):
            FormatSelector(["Fast"]).fit([dict(row, matrix=None)])

    def test_mixed_device_rows_rejected(self):
        """A selector's feature vector has no device coordinate, so rows
        from several devices (or precisions) would silently overwrite
        each other per format — refuse instead."""
        rows = self._unnamed_rows()
        for r in rows:
            r["device"] = "AMD-EPYC-24" if r["format"] == "Fast" \
                else "Tesla-A100"
        with pytest.raises(ValueError, match="device"):
            FormatSelector(["Fast", "Bal"]).fit(rows)
        mixed_prec = self._unnamed_rows()
        for k, r in enumerate(mixed_prec):
            r["precision"] = "fp64" if k % 2 else "fp32"
        with pytest.raises(ValueError, match="precision"):
            FormatSelector(["Fast", "Bal"]).fit(mixed_prec)

    def test_zero_best_gflops_names_the_matrix(self):
        """Retained performance divides by the best measured GFLOPS;
        a matrix where every format measured 0 has none, for table and
        dict-row input alike."""
        rows = _synthetic_rows(n=10)
        sel = FormatSelector(["Fast", "Bal"]).fit(rows)
        held_out = [dict(r, gflops=0.0) if r["matrix"] == "m3" else r
                    for r in rows]
        for form in (held_out, SweepTable.from_rows(held_out)):
            with pytest.raises(ValueError, match="'m3'.*GFLOPS"):
                sel.evaluate(form)

    def test_multi_device_gridresult_rejected(self):
        from repro.core.generator import MatrixSpec
        from repro.devices import TESTBEDS
        from repro.perfmodel import MatrixInstance, simulate_grid

        inst = MatrixInstance.from_spec(
            MatrixSpec.from_footprint(4.0, 10.0, seed=0), max_nnz=6_000,
            name="m",
        )
        grid = simulate_grid(
            [inst], [TESTBEDS["INTEL-XEON"], TESTBEDS["Tesla-A100"]]
        )
        with pytest.raises(ValueError, match="device"):
            FormatSelector(["Naive-CSR"]).fit(grid)

    def test_fit_and_evaluate_consume_gridresult(self):
        from repro.core.generator import MatrixSpec
        from repro.devices import TESTBEDS
        from repro.perfmodel import MatrixInstance, simulate_grid

        instances = [
            MatrixInstance.from_spec(
                MatrixSpec.from_footprint(
                    4.0 + 6 * k, 10.0 + 5 * k, skew_coeff=float(50 * k),
                    seed=k,
                ),
                max_nnz=6_000, name="",  # unnamed: grid 'instance' key
            )
            for k in range(6)
        ]
        dev = TESTBEDS["INTEL-XEON"]
        grid = simulate_grid(instances, [dev])
        sel = FormatSelector(list(dev.formats)).fit(grid)
        report = sel.evaluate(grid)
        assert report["n_matrices"] == len(instances)
        assert 0.0 < report.retained <= 1.0


class TestSelectorOnSimulator:
    """Integration: train on simulated sweeps, beat the single-format
    baseline (the use-case the paper's related work motivates)."""

    def test_beats_fixed_format(self):
        from repro.core.dataset import Dataset, sweep
        from repro.core.feature_space import build_dataset_specs
        from repro.devices import TESTBEDS

        dev = TESTBEDS["INTEL-XEON"]
        specs = build_dataset_specs("tiny")[:40]
        ds = Dataset(specs, max_nnz=30_000, name="sel")
        table = sweep(ds, [dev], best_only=False)
        rows = table.rows
        split = len({r["matrix"] for r in rows}) // 2
        names = sorted({r["matrix"] for r in rows})
        train = [r for r in rows if r["matrix"] in names[:split]]
        test = [r for r in rows if r["matrix"] in names[split:]]

        sel = FormatSelector(list(dev.formats)).fit(train)
        report = sel.evaluate(test)
        # Selector retains most of the oracle's performance.
        assert report.retained > 0.7
