"""The re-sorting CART tree: the reference for ``repro.ml.tree``.

:class:`OracleTree` grows ``_Node`` objects with a split search that
re-sorts every node's rows per feature, and predicts by walking the
nodes with index partitions.  The library tree argsorts once per fit,
partitions the sorted orders down the recursion and grows straight
into preorder arrays; :meth:`OracleTree.to_arrays` flattens the nodes
into the same layout so the two compare array for array.
:class:`OracleForest` bags oracle trees with the library forest's
bootstrap and seed draws.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(X, y, min_leaf):
    """Best (sse, feature, threshold) over all columns of ``X``, or None.

    For each feature, candidates are midpoints between consecutive
    distinct sorted values; split SSE is computed from prefix sums.
    """
    n, d = X.shape
    total = y.sum()
    total_sq = (y**2).sum()
    best = None
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csum_sq = np.cumsum(ys**2)
        k = np.arange(1, n)  # left sizes: split after position k - 1
        valid = (xs[1:] != xs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not valid.any():
            continue
        left_sum = csum[:-1]
        left_sq = csum_sq[:-1]
        right_sum = total - left_sum
        right_sq = total_sq - left_sq
        sse = (
            left_sq - left_sum**2 / k
            + right_sq - right_sum**2 / (n - k)
        )
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        if np.isfinite(sse[i]) and (best is None or sse[i] < best[0]):
            best = (float(sse[i]), j, float((xs[i] + xs[i + 1]) / 2.0))
    return best


class OracleTree:
    """The library tree's hyperparameters and stopping rules over
    node objects and a re-sorting split search."""

    def __init__(self, max_depth=12, min_samples_leaf=3,
                 min_impurity_decrease=0.0, max_features=None,
                 random_state=None):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.random_state = random_state
        self._root = None
        self.n_features_ = 0

    def fit(self, X, y) -> "OracleTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        self._root = self._grow(X, y, 0, rng)
        return self

    def _choose_features(self, d, rng):
        if self.max_features and self.max_features < d:
            return rng.choice(d, size=self.max_features, replace=False)
        return np.arange(d)

    def _grow(self, X, y, depth, rng) -> _Node:
        node = _Node(value=float(y.mean()))
        n = len(y)
        if (
            depth >= self.max_depth
            or n < 2 * self.min_samples_leaf
            or np.all(y == y[0])
        ):
            return node
        feats = self._choose_features(X.shape[1], rng)
        found = _best_split(X[:, feats], y, self.min_samples_leaf)
        if found is None:
            return node
        sse, j_local, thr = found
        parent_sse = float(((y - y.mean()) ** 2).sum())
        if parent_sse - sse < self.min_impurity_decrease * max(n, 1):
            return node
        j = int(feats[j_local])
        mask = X[:, j] <= thr
        node.feature = j
        node.threshold = thr
        node.left = self._grow(X[mask], y[mask], depth + 1, rng)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return node

    def predict(self, X) -> np.ndarray:
        """Node-object routing via index partitions."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.float64)
        stack = [(self._root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if node.is_leaf:
                out[idx] = node.value
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    def depth(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

    def to_arrays(self) -> dict:
        """Preorder node arrays in the library's ``to_arrays`` layout."""
        fields = {k: [] for k in
                  ("feature", "threshold", "left", "right", "value")}

        def walk(node) -> int:
            i = len(fields["value"])
            fields["feature"].append(-1 if node.is_leaf else node.feature)
            fields["threshold"].append(node.threshold)
            fields["left"].append(-1)
            fields["right"].append(-1)
            fields["value"].append(node.value)
            if not node.is_leaf:
                fields["left"][i] = walk(node.left)
                fields["right"][i] = walk(node.right)
            return i

        walk(self._root)
        out = {
            k: np.array(v, dtype=np.float64
                        if k in ("threshold", "value") else np.int64)
            for k, v in fields.items()
        }
        out["n_features"] = np.int64(self.n_features_)
        return out


class OracleForest:
    """``repro.ml.RandomForestRegressor``'s bagging over oracle trees:
    the same bootstrap and per-tree seed draws, the same tree-order
    prediction sum."""

    def __init__(self, n_estimators=30, max_depth=12, min_samples_leaf=3,
                 max_features=None, random_state=0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.trees_ = []

    def fit(self, X, y) -> "OracleForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.random_state)
        d = X.shape[1]
        m = self.max_features or max(1, int(np.ceil(np.sqrt(d))))
        self.trees_ = []
        for _ in range(self.n_estimators):
            idx = rng.integers(0, len(y), size=len(y))
            tree = OracleTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=m,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            self.trees_.append(tree.fit(X[idx], y[idx]))
        return self

    def predict(self, X) -> np.ndarray:
        out = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees_:
            out += tree.predict(X)
        out /= len(self.trees_)
        return out
