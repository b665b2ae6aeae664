"""M5P model trees (decision trees with linear regressions at the leaves).

The paper fits most of its predictors (VM CPU, VM IN/OUT, PM CPU, VM RT)
with WEKA's M5P, noting that "resource usage and response time, in this
setting, can be modeled reasonably well by piecewise linear functions".
This is a from-scratch reimplementation of the M5 algorithm family
(Quinlan 1992; Wang & Witten 1997) with the parts that matter here:

* **Growing** — split on the (feature, threshold) pair maximizing the
  standard-deviation reduction ``SDR = sd(S) - sum |S_i|/|S| sd(S_i)``;
  stop when a node holds fewer than ``2 * min_leaf`` instances or its
  target deviation falls below 5 % of the root's.
* **Leaf models** — a linear regression at every node (internal ones are
  needed for pruning and smoothing).
* **Pruning** — bottom-up: replace a subtree by its node's linear model
  when the model's adjusted error does not exceed the subtree's, using
  M5's ``(n + v) / (n - v)`` error inflation to penalize model size.
* **Smoothing** — a prediction descends to a leaf and is blended back up
  the path: ``p' = (n_child * p + k * q) / (n_child + k)`` with k = 15.

``min_leaf`` is WEKA's ``-M``; the paper uses M = 4 (CPU, RT, PM CPU) and
M = 2 (network in/out).

Split search is vectorized per feature with prefix-sum variance
computations, so growing is O(d · n log n) per node.  Prediction routes
the whole query matrix down the tree with boolean masks, one linear-model
evaluation per visited node, bit-identical to walking each row alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .linreg import LinearRegression

__all__ = ["M5PRegressor"]


@dataclass(eq=False)
class _Node:
    """One tree node; leaves have no children."""

    n: int
    model: LinearRegression
    depth: int
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def make_leaf(self) -> None:
        self.feature = None
        self.left = None
        self.right = None


def _sd(y: np.ndarray) -> float:
    return float(y.std()) if y.size else 0.0


def _rowwise(model: LinearRegression, X: np.ndarray) -> np.ndarray:
    """``model`` on every row of ``X``, each row as its own dot product.

    The stacked ``(n, 1, d) @ (d,)`` product runs one length-``d`` dot per
    row, the same kernel a one-row ``LinearRegression.predict_one`` uses,
    so a row's prediction does not depend on the other rows it arrives
    with.  A plain ``X @ coef_`` goes through BLAS gemv, whose blocked
    accumulation differs from the per-row dot in the last bits.
    """
    return (X[:, None, :] @ model.coef_)[:, 0] + model.intercept_


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int
                ) -> Optional[Tuple[int, float, float]]:
    """The (feature, threshold, SDR) with highest SDR, or None.

    For each feature, sorts once and evaluates every legal cut with
    prefix sums (variance via E[y^2] - E[y]^2).
    """
    n, d = X.shape
    if n < 2 * min_leaf:
        return None
    parent_sd = _sd(y)
    if parent_sd <= 0.0:
        return None
    best: Optional[Tuple[int, float, float]] = None
    for j in range(d):
        order = np.argsort(X[:, j], kind="mergesort")
        xs = X[order, j]
        ys = y[order]
        # Legal cut positions: between i-1 and i, both sides >= min_leaf,
        # and the feature value actually changes across the cut.
        cuts = np.arange(min_leaf, n - min_leaf + 1)
        if cuts.size == 0:
            continue
        distinct = xs[cuts] > xs[cuts - 1]
        cuts = cuts[distinct]
        if cuts.size == 0:
            continue
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        n_l = cuts.astype(float)
        n_r = n - n_l
        sum_l = csum[cuts - 1]
        sum_r = csum[-1] - sum_l
        sum2_l = csum2[cuts - 1]
        sum2_r = csum2[-1] - sum2_l
        var_l = np.maximum(0.0, sum2_l / n_l - (sum_l / n_l) ** 2)
        var_r = np.maximum(0.0, sum2_r / n_r - (sum_r / n_r) ** 2)
        sdr = parent_sd - (n_l * np.sqrt(var_l) + n_r * np.sqrt(var_r)) / n
        i = int(np.argmax(sdr))
        if best is None or sdr[i] > best[2]:
            lo, hi = xs[cuts[i] - 1], xs[cuts[i]]
            threshold = 0.5 * (lo + hi)
            # Adjacent floats can make the midpoint round up to ``hi``,
            # which would put the whole node on one side; pin to ``lo``.
            if threshold >= hi:
                threshold = lo
            best = (j, float(threshold), float(sdr[i]))
    if best is None or best[2] <= 0.0:
        return None
    return best


@dataclass
class M5PRegressor:
    """M5P model tree.

    Parameters
    ----------
    min_leaf:
        Minimum instances per leaf (WEKA ``-M``; paper uses 2 or 4).
    prune:
        Apply M5 adjusted-error subtree replacement.
    smoothing_k:
        Smoothing constant (0 disables; WEKA uses 15).
    sd_fraction:
        Stop splitting below this fraction of the root target deviation.
    max_depth:
        Hard growth bound.
    """

    min_leaf: int = 4
    prune: bool = True
    smoothing_k: float = 15.0
    sd_fraction: float = 0.05
    max_depth: int = 24
    _root: Optional[_Node] = field(default=None, init=False, repr=False)
    _n_features: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.smoothing_k < 0:
            raise ValueError("smoothing_k must be non-negative")
        if not 0.0 <= self.sd_fraction < 1.0:
            raise ValueError("sd_fraction must lie in [0, 1)")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    # -- training ------------------------------------------------------------
    def fit(self, X, y) -> "M5PRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y row counts differ")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        self._n_features = X.shape[1]
        root_sd = _sd(y)
        self._root = self._grow(X, y, depth=0, root_sd=root_sd)
        if self.prune:
            self._prune(self._root, X, y)
        return self

    def _fit_model(self, X: np.ndarray, y: np.ndarray) -> LinearRegression:
        # A ridge touch keeps tiny leaves with collinear features stable.
        return LinearRegression(l2=1e-6).fit(X, y)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int,
              root_sd: float) -> _Node:
        node = _Node(n=X.shape[0], model=self._fit_model(X, y), depth=depth)
        if (depth >= self.max_depth
                or X.shape[0] < 2 * self.min_leaf
                or _sd(y) < self.sd_fraction * root_sd):
            return node
        split = _best_split(X, y, self.min_leaf)
        if split is None:
            return node
        j, threshold, _sdr = split
        mask = X[:, j] <= threshold
        if not mask.any() or mask.all():
            return node  # degenerate split; keep as leaf
        node.feature = j
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1, root_sd)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, root_sd)
        return node

    # -- pruning ------------------------------------------------------------
    @staticmethod
    def _adjusted(err: float, n: int, v: int) -> float:
        """M5's pessimistic error inflation: err * (n + v) / (n - v)."""
        if n <= v:
            return float("inf")
        return err * (n + v) / (n - v)

    def _model_error(self, node: _Node, X: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(np.abs(y - node.model.predict(X))))

    def _subtree_error(self, node: _Node, X: np.ndarray, y: np.ndarray) -> float:
        if node.is_leaf:
            return self._model_error(node, X, y)
        mask = X[:, node.feature] <= node.threshold
        err = 0.0
        if mask.any():
            err += self._subtree_error(node.left, X[mask], y[mask]) * mask.sum()
        if (~mask).any():
            err += self._subtree_error(node.right, X[~mask], y[~mask]) * (~mask).sum()
        return err / X.shape[0]

    def _prune(self, node: _Node, X: np.ndarray, y: np.ndarray) -> None:
        if node.is_leaf:
            return
        mask = X[:, node.feature] <= node.threshold
        self._prune(node.left, X[mask], y[mask])
        self._prune(node.right, X[~mask], y[~mask])
        v = self._n_features + 1
        model_err = self._adjusted(self._model_error(node, X, y),
                                   X.shape[0], v)
        subtree_err = self._adjusted(self._subtree_error(node, X, y),
                                     X.shape[0], 2 * v)
        if model_err <= subtree_err:
            node.make_leaf()

    # -- prediction ------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        """Route the whole matrix down the tree, one boolean mask per split.

        Each node evaluates its linear model once on the rows routed to
        it, and smoothing blends child and parent predictions elementwise
        on the way back up, so every row gets exactly the arithmetic of
        the textbook per-row descent (bit for bit).
        """
        if self._root is None:
            raise RuntimeError("model not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"expected {self._n_features} features, got {X.shape[1]}")
        return self._predict_rows(self._root, X)

    def _predict_rows(self, node: _Node, X: np.ndarray) -> np.ndarray:
        if node.is_leaf:
            return _rowwise(node.model, X)
        go_left = X[:, node.feature] <= node.threshold
        k = self.smoothing_k
        # The parent's own model, which smoothing blends into the child's
        # prediction: p' = (n_child * p + k * q) / (n_child + k).
        q = _rowwise(node.model, X) if k > 0 else None
        out = np.empty(X.shape[0])
        for child, rows in ((node.left, go_left), (node.right, ~go_left)):
            if not rows.any():
                continue
            pred = self._predict_rows(child, X[rows])
            if k > 0:
                pred = (child.n * pred + k * q[rows]) / (child.n + k)
            out[rows] = pred
        return out

    def predict_one(self, x) -> float:
        x = np.asarray(x, dtype=float).ravel()
        return float(self.predict(x[None, :])[0])

    # -- introspection ------------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        def count(node: Optional[_Node]) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)
        return count(self._root)

    @property
    def depth(self) -> int:
        def d(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(d(node.left), d(node.right))
        return d(self._root)

    def describe(self) -> str:
        """A compact textual rendering of the tree structure."""
        if self._root is None:
            return "<unfitted M5P>"
        lines: List[str] = []

        def walk(node: _Node, indent: str) -> None:
            if node.is_leaf:
                lines.append(f"{indent}LM (n={node.n})")
            else:
                lines.append(
                    f"{indent}x[{node.feature}] <= {node.threshold:.4g} "
                    f"(n={node.n})")
                walk(node.left, indent + "  ")
                walk(node.right, indent + "  ")

        walk(self._root, "")
        return "\n".join(lines)
