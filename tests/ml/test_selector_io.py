"""FormatSelector save/load round trips and schema-version checks."""

import numpy as np
import pytest

from repro.ml import (
    FormatSelector, SELECTOR_SCHEMA_VERSION, SelectorVersionError,
)
from repro.ml.knn import KNeighborsRegressor
from repro.ml.linear import RidgeRegression

from .test_selector import _synthetic_rows


def _probe_features(n=20, seed=3):
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(n):
        probes.append({
            "mem_footprint_mb": float(rng.uniform(4, 512)),
            "avg_nnz_per_row": float(rng.uniform(5, 100)),
            "skew_coeff": float(rng.choice([1.0, 5000.0])),
            "cross_row_similarity": float(rng.uniform(0, 1)),
            "avg_num_neighbours": float(rng.uniform(0, 2)),
        })
    return probes


FACTORIES = {
    "forest": None,  # selector default
    "knn": lambda: KNeighborsRegressor(n_neighbors=5,
                                       weights="distance"),
    "ridge": lambda: RidgeRegression(alpha=1.0),
}


class TestRoundTrip:
    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_predictions_bit_identical(self, family, tmp_path):
        factory = FACTORIES[family]
        sel = FormatSelector(
            ["Fast", "Bal"],
            **({} if factory is None else {"model_factory": factory}),
        ).fit(_synthetic_rows())
        path = tmp_path / "sel.npz"
        sel.to_npz(path)
        loaded = FormatSelector.from_npz(path)

        assert loaded.formats == sel.formats
        assert loaded.feature_keys == sel.feature_keys
        for probe in _probe_features():
            assert loaded.select(probe) == sel.select(probe)
            got = loaded.predict_gflops(probe)
            want = sel.predict_gflops(probe)
            for fmt in sel.formats:
                assert got[fmt] == want[fmt]  # exact, not approx

    def test_artifact_bytes_are_deterministic(self, tmp_path):
        sel = FormatSelector(["Fast", "Bal"]).fit(_synthetic_rows())
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        sel.to_npz(a)
        sel.to_npz(b)
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_unfitted_selector_refuses_to_save(self, tmp_path):
        with pytest.raises(RuntimeError, match="not fitted"):
            FormatSelector(["Fast"]).to_npz(tmp_path / "x.npz")

    def test_version_drift_is_actionable(self, tmp_path):
        sel = FormatSelector(["Fast", "Bal"]).fit(_synthetic_rows())
        path = tmp_path / "sel.npz"
        sel.to_npz(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["__selector_schema__"] = np.int64(
            SELECTOR_SCHEMA_VERSION + 1
        )
        np.savez(path, **payload)
        with pytest.raises(SelectorVersionError, match="retrain"):
            FormatSelector.from_npz(path)

    def test_plain_npz_is_not_an_artifact(self, tmp_path):
        path = tmp_path / "table.npz"
        np.savez(path, rows=np.arange(3))
        with pytest.raises(SelectorVersionError,
                           match="not a selector artifact"):
            FormatSelector.from_npz(path)

    def test_garbage_file_is_not_an_artifact(self, tmp_path):
        path = tmp_path / "noise.npz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(SelectorVersionError,
                           match="not a selector artifact"):
            FormatSelector.from_npz(path)

    def test_unknown_model_kind_is_rejected(self, tmp_path):
        sel = FormatSelector(["Fast", "Bal"]).fit(_synthetic_rows())
        path = tmp_path / "sel.npz"
        sel.to_npz(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["model/0/__kind__"] = np.array("transformer")
        np.savez(path, **payload)
        with pytest.raises(SelectorVersionError,
                           match="unknown model kind"):
            FormatSelector.from_npz(path)

    @pytest.mark.parametrize("field,corrupt,match", [
        # Left children point back at the root: routing never ends.
        ("left", lambda a: np.where(a >= 0, 0, a), "child index 0"),
        # A leaf split index past the feature vector.
        ("feature", lambda a: np.where(a >= 0, 99, a), "feature 99"),
        # A right child reached twice.
        ("right", lambda a: np.where(a >= 0, a.max(), a),
         "reached exactly once"),
        # A leaf carrying a child index.
        ("left", lambda a: np.where(a < 0, 1, a), "leaves store -1"),
    ])
    def test_corrupt_tree_is_actionable(self, tmp_path, field, corrupt,
                                        match):
        sel = FormatSelector(["Fast", "Bal"]).fit(_synthetic_rows())
        path = tmp_path / "sel.npz"
        sel.to_npz(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        key = f"model/0/tree/0/{field}"
        assert (payload["model/0/tree/0/feature"] >= 0).any()
        payload[key] = corrupt(payload[key])
        np.savez(path, **payload)
        with pytest.raises(SelectorVersionError, match=match) as exc:
            FormatSelector.from_npz(path)
        assert str(path) in str(exc.value)
        assert "retrain" in str(exc.value)

    def test_missing_model_array_is_actionable(self, tmp_path):
        sel = FormatSelector(["Fast", "Bal"]).fit(_synthetic_rows())
        path = tmp_path / "sel.npz"
        sel.to_npz(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files
                       if k != "model/1/tree/3/value"}
        np.savez(path, **payload)
        with pytest.raises(SelectorVersionError, match="corrupt forest"):
            FormatSelector.from_npz(path)

    def test_empty_forest_is_actionable(self, tmp_path):
        sel = FormatSelector(["Fast", "Bal"]).fit(_synthetic_rows())
        path = tmp_path / "sel.npz"
        sel.to_npz(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["model/0/n_trees"] = np.int64(0)
        np.savez(path, **payload)
        with pytest.raises(SelectorVersionError, match="0 trees"):
            FormatSelector.from_npz(path)

    def test_error_is_a_value_error(self):
        # CLI error handling maps ValueError to exit 2; the version
        # error must ride that path.
        assert issubclass(SelectorVersionError, ValueError)
