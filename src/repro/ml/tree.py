"""CART regression tree (variance-reduction splits), vectorised.

The split search evaluates every candidate threshold of a feature in one
NumPy pass (prefix sums of sorted targets).  Each feature is argsorted
once per ``fit`` and the per-feature sorted orders are *partitioned*
down the recursion — an O(n) subset per node instead of an O(n log n)
re-sort.  The tree grows straight into preorder node arrays
(``feature``, -1 marking a leaf; ``threshold``; ``left``/``right`` child
indices; ``value``): the one representation ``predict`` routes over and
``to_arrays``/``from_arrays`` persist.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["DecisionTreeRegressor"]

_FIELDS = ("feature", "threshold", "left", "right", "value")
_DTYPES = (np.int64, np.float64, np.int64, np.int64, np.float64)


def _best_split(X, y, idx, sorted_idx, feats, min_leaf):
    """Best (sse, local feature index, threshold) of a node, or None.

    ``idx`` holds the node's rows in original order (for the totals);
    ``sorted_idx[:, f]`` holds the same rows sorted by feature ``f``
    (stable: ties keep their original order).  Candidates are midpoints
    between consecutive distinct sorted values; split SSE comes from
    prefix sums.
    """
    n = len(idx)
    y_node = y[idx]
    total = y_node.sum()
    total_sq = (y_node**2).sum()
    best = None
    k = np.arange(1, n)  # left sizes
    for j_local, j in enumerate(feats):
        order = sorted_idx[:, j]
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csum_sq = np.cumsum(ys**2)
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
            best = (float(sse[i]), j_local, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _check_nodes(feature, left, right, n_features) -> None:
    """Raise ``ValueError`` unless the arrays form one tree rooted at
    node 0 whose routing terminates: feature indices in
    ``[-1, n_features)``, leaves (-1) without children, every child
    after its parent and every non-root node reached exactly once."""
    n = len(feature)
    bad = np.flatnonzero((feature < -1) | (feature >= n_features))
    if len(bad):
        raise ValueError(
            f"tree node {int(bad[0])} splits on feature "
            f"{int(feature[bad[0]])}, outside [0, {n_features})"
        )
    internal = feature >= 0
    bad = np.flatnonzero(~internal & ((left != -1) | (right != -1)))
    if len(bad):
        raise ValueError(
            f"tree leaf {int(bad[0])} carries child indices; leaves "
            "store -1"
        )
    parents = np.tile(np.flatnonzero(internal), 2)
    children = np.concatenate([left[internal], right[internal]])
    bad = np.flatnonzero((children <= parents) | (children >= n))
    if len(bad):
        parent = int(parents[bad[0]])
        raise ValueError(
            f"tree node {parent} has child index {int(children[bad[0]])};"
            f" children must lie in ({parent}, {n})"
        )
    reached = np.bincount(children, minlength=n)[1:]
    bad = np.flatnonzero(reached != 1)
    if len(bad):
        raise ValueError(
            f"tree node {int(bad[0]) + 1} is reached "
            f"{int(reached[bad[0]])} times from the root; every node "
            "must be reached exactly once"
        )


class DecisionTreeRegressor:
    """Regression tree with depth / leaf-size / impurity stopping rules."""

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_leaf: int = 3,
        min_impurity_decrease: float = 0.0,
        max_features: Optional[int] = None,
        random_state: Optional[int] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.random_state = random_state
        self._nodes: Optional[dict] = None
        self.n_features_: int = 0

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise ValueError("bad training shapes")
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.random_state)
        nodes = tuple([] for _ in _FIELDS)
        # One stable argsort per feature for the whole fit; nodes
        # partition these orders instead of re-sorting their subsets.
        self._grow(
            X, y, np.arange(len(y), dtype=np.int64),
            np.argsort(X, axis=0, kind="stable"), 0, rng, nodes,
        )
        self._nodes = {
            field: np.array(values, dtype=dtype)
            for field, dtype, values in zip(_FIELDS, _DTYPES, nodes)
        }
        return self

    def _choose_features(self, d, rng) -> np.ndarray:
        """Candidate features for one split (forest subsampling)."""
        if self.max_features and self.max_features < d:
            return rng.choice(d, size=self.max_features, replace=False)
        return np.arange(d)

    def _grow(self, X, y, idx, sorted_idx, depth, rng, nodes) -> int:
        """Append the subtree over rows ``idx`` to ``nodes`` in preorder
        and return its root index.

        ``idx`` is the node's rows in original order; ``sorted_idx`` its
        (n_node, d) per-feature sorted orders.
        """
        feature, threshold, left, right, value = nodes
        node = len(value)
        y_node = y[idx]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y_node.mean()))
        n = len(idx)
        if (
            depth >= self.max_depth
            or n < 2 * self.min_samples_leaf
            or np.all(y_node == y_node[0])
        ):
            return node
        feats = self._choose_features(X.shape[1], rng)
        found = _best_split(
            X, y, idx, sorted_idx, feats, self.min_samples_leaf
        )
        if found is None:
            return node
        sse, j_local, thr = found
        parent_sse = float(((y_node - y_node.mean()) ** 2).sum())
        if parent_sse - sse < self.min_impurity_decrease * max(n, 1):
            return node
        j = int(feats[j_local])
        go_left = X[idx, j] <= thr
        idx_left, idx_right = idx[go_left], idx[~go_left]
        # Partition every feature's sorted order by left membership —
        # order-preserving, so children stay sorted without re-sorting.
        is_left = np.zeros(len(y), dtype=bool)
        is_left[idx_left] = True
        mask2d = is_left[sorted_idx]
        d = sorted_idx.shape[1]
        left_sorted = sorted_idx.T[mask2d.T].reshape(d, len(idx_left)).T
        right_sorted = (
            sorted_idx.T[~mask2d.T].reshape(d, len(idx_right)).T
        )
        feature[node] = j
        threshold[node] = thr
        left[node] = self._grow(
            X, y, idx_left, left_sorted, depth + 1, rng, nodes
        )
        right[node] = self._grow(
            X, y, idx_right, right_sorted, depth + 1, rng, nodes
        )
        return node

    def _fitted(self) -> dict:
        if self._nodes is None:
            raise RuntimeError("model not fitted")
        return self._nodes

    def predict(self, X) -> np.ndarray:
        """Leaf values of the rows of ``X``.

        Routing takes at most ``depth`` vectorised steps regardless of
        batch width, so a single-row query costs the same handful of
        NumPy calls as a 64-row micro-batch, and every row lands on the
        same leaf whatever the batch size.
        """
        nodes = self._fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError("bad predict shape")
        feature, threshold = nodes["feature"], nodes["threshold"]
        left, right, value = nodes["left"], nodes["right"], nodes["value"]
        node = np.zeros(len(X), dtype=np.int64)
        while True:
            feat = feature[node]
            live = feat >= 0  # internal nodes; leaves store -1
            if not live.any():
                break
            rows = np.nonzero(live)[0]
            at = node[rows]
            go_left = X[rows, feat[rows]] <= threshold[at]
            node[rows] = np.where(go_left, left[at], right[at])
        return value[node]

    def to_arrays(self) -> dict:
        """Fitted state as plain arrays (``feature``/``threshold``/
        ``left``/``right``/``value`` + ``n_features``), the inverse of
        :meth:`from_arrays`; thresholds and leaf values round-trip
        exactly, so a reloaded tree predicts bit-identically."""
        out = {k: v.copy() for k, v in self._fitted().items()}
        out["n_features"] = np.int64(self.n_features_)
        return out

    @classmethod
    def from_arrays(cls, arrays: dict) -> "DecisionTreeRegressor":
        """Rebuild a fitted tree from :meth:`to_arrays` output.

        Raises ``ValueError`` for arrays that are not one well-formed
        tree (see :func:`_check_nodes`), so a corrupt artifact fails at
        load time instead of looping or indexing out of range at
        predict time.
        """
        nodes = {
            field: np.asarray(arrays[field], dtype=dtype)
            for field, dtype in zip(_FIELDS, _DTYPES)
        }
        n = len(nodes["feature"])
        if not n or any(len(a) != n for a in nodes.values()):
            raise ValueError("inconsistent tree arrays")
        n_features = int(arrays["n_features"])
        _check_nodes(
            nodes["feature"], nodes["left"], nodes["right"], n_features
        )
        tree = cls()
        tree._nodes = nodes
        tree.n_features_ = n_features
        return tree

    def depth(self) -> int:
        """Realised depth of the fitted tree (a lone leaf has depth 0)."""
        nodes = self._fitted()
        left, right = nodes["left"], nodes["right"]
        depth = np.zeros(len(left), dtype=np.int64)
        # Preorder: a parent's depth is final before its children's.
        for i in np.flatnonzero(nodes["feature"] >= 0):
            depth[left[i]] = depth[right[i]] = depth[i] + 1
        return int(depth.max())
