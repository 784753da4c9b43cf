"""Presorted split search: bit-identical trees to the re-sorting oracle.

The library tree (argsort each feature once per fit, partition the
sorted orders per node, grow straight into preorder arrays) must
reproduce the re-sorting node-object tree of ``tests/oracles/tree.py``
exactly — same splits, same thresholds, same leaf values — across
stopping rules, tie-heavy features and forest feature subsampling, and
through a full fixed-seed selector run.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

from tests.oracles.tree import OracleForest, OracleTree


def _assert_same_tree(tree, oracle):
    """Array-for-array equality of the preorder node layouts."""
    got, want = tree.to_arrays(), oracle.to_arrays()
    assert set(got) == set(want)
    for field in want:
        np.testing.assert_array_equal(got[field], want[field], field)
        assert got[field].dtype == want[field].dtype, field


def _data(n, d, seed, ties=True):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if ties:
        # Coarse quantisation forces equal feature values, exercising the
        # (value, original position) tie-break the partition must keep.
        X[:, 0] = np.round(X[:, 0], 1)
        X[:, -1] = np.round(X[:, -1])
    y = X @ rng.normal(size=d) + 0.25 * rng.normal(size=n)
    return X, y


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"max_depth": 3},
        {"max_depth": 25},
        {"min_samples_leaf": 12},
        {"min_impurity_decrease": 0.05},
        {"max_features": 2, "random_state": 7},
        {"max_features": 1, "random_state": 0, "max_depth": 6},
    ],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_presort_tree_identical(kwargs, seed):
    X, y = _data(400, 6, seed)
    fast = DecisionTreeRegressor(**kwargs).fit(X, y)
    ref = OracleTree(**kwargs).fit(X, y)
    _assert_same_tree(fast, ref)
    np.testing.assert_array_equal(fast.predict(X), ref.predict(X))
    assert fast.depth() == ref.depth()


def test_presort_constant_targets():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    y = np.ones(20)
    fast = DecisionTreeRegressor().fit(X, y)
    ref = OracleTree().fit(X, y)
    _assert_same_tree(fast, ref)
    assert fast.depth() == ref.depth() == 0


def test_presort_single_sample_and_duplicate_rows():
    fast = DecisionTreeRegressor().fit([[1.0, 2.0]], [3.0])
    ref = OracleTree().fit([[1.0, 2.0]], [3.0])
    _assert_same_tree(fast, ref)

    X = np.tile(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]), (5, 1))
    y = np.arange(15, dtype=float)
    fast = DecisionTreeRegressor(min_samples_leaf=1).fit(X, y)
    ref = OracleTree(min_samples_leaf=1).fit(X, y)
    _assert_same_tree(fast, ref)


def test_presort_forest_identical():
    """Bagged trees draw the same bootstrap/feature randomness and grow
    identical forests to the oracle's."""
    X, y = _data(250, 5, seed=11)
    fast = RandomForestRegressor(n_estimators=8, random_state=3).fit(X, y)
    ref = OracleForest(n_estimators=8, random_state=3).fit(X, y)
    assert len(fast.trees_) == len(ref.trees_)
    for a, b in zip(fast.trees_, ref.trees_):
        _assert_same_tree(a, b)
    np.testing.assert_array_equal(fast.predict(X), ref.predict(X))


def test_presort_selector_run_identical(all_archetypes):
    """Fixed-seed end-to-end selector training picks identical formats."""
    from repro.devices import TESTBEDS
    from repro.ml.selector import FormatSelector
    from repro.perfmodel import MatrixInstance, simulate_grid

    instances = [
        MatrixInstance.from_matrix(m, name=k)
        for k, m in sorted(all_archetypes.items())
    ]
    dev = TESTBEDS["AMD-EPYC-24"]
    grid = simulate_grid(instances, [dev], seed=0)

    selectors = {
        name: FormatSelector(
            list(dev.formats),
            model_factory=lambda cls=cls: cls(
                n_estimators=10, random_state=0
            ),
        ).fit(grid)
        for name, cls in (("fast", RandomForestRegressor),
                          ("ref", OracleForest))
    }
    feats = [inst.features.to_dict() for inst in instances]
    picks_fast = [selectors["fast"].select(f) for f in feats]
    picks_ref = [selectors["ref"].select(f) for f in feats]
    assert picks_fast == picks_ref
    for fmt, model in selectors["fast"]._models.items():
        ref_model = selectors["ref"]._models[fmt]
        for a, b in zip(model.trees_, ref_model.trees_):
            _assert_same_tree(a, b)
