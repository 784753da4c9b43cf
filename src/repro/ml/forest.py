"""Random-forest regressor: bagged CART trees with feature subsampling."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tree import DecisionTreeRegressor

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees.

    Each tree is fitted on a bootstrap resample with ``max_features``
    candidate features per split (default: ceil(sqrt(d))).
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 12,
        min_samples_leaf: int = 3,
        max_features: Optional[int] = None,
        random_state: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.trees_ = []

    def fit(self, X, y) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("bad training shapes")
        rng = np.random.default_rng(self.random_state)
        d = X.shape[1]
        m = self.max_features or max(1, int(np.ceil(np.sqrt(d))))
        self.trees_ = []
        for t in range(self.n_estimators):
            idx = rng.integers(0, len(y), size=len(y))
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=m,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[idx], y[idx])
            self.trees_.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("model not fitted")
        # Validate and convert once; each tree's asarray is then a no-op,
        # which matters when the selector batches hundreds of queries.
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.trees_[0].n_features_:
            raise ValueError(
                f"bad predict shape {X.shape}; expected "
                f"(n, {self.trees_[0].n_features_})"
            )
        # Sequential tree-order accumulation: ``stack(...).mean(axis=0)``
        # switches between pairwise and strided reduction with the batch
        # width, which would make batched predictions differ from
        # single-row ones in the last ulp.  This order is identical for
        # every batch size, so a row's prediction does not depend on the
        # batch it arrives in.
        out = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees_:
            out += tree.predict(X)
        out /= len(self.trees_)
        return out

    def to_state(self) -> dict:
        """Fitted state as a flat dict of arrays (one
        ``tree/<t>/<field>`` entry per node array), the inverse of
        :meth:`from_state`; a reloaded forest predicts bit-identically."""
        if not self.trees_:
            raise RuntimeError("model not fitted")
        state = {"n_trees": np.int64(len(self.trees_))}
        for t, tree in enumerate(self.trees_):
            for field, arr in tree.to_arrays().items():
                state[f"tree/{t}/{field}"] = arr
        return state

    @classmethod
    def from_state(cls, state: dict) -> "RandomForestRegressor":
        n_trees = int(state["n_trees"])
        if n_trees < 1:
            raise ValueError(f"forest state holds {n_trees} trees")
        model = cls(n_estimators=max(n_trees, 1))
        model.trees_ = [
            DecisionTreeRegressor.from_arrays({
                field: state[f"tree/{t}/{field}"]
                for field in ("feature", "threshold", "left", "right",
                              "value", "n_features")
            })
            for t in range(n_trees)
        ]
        model.n_estimators = n_trees
        return model
