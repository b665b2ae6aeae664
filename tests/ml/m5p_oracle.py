"""Per-row M5P prediction: the reference for the array-routed ``predict``.

Each row descends from the root to its leaf, then its prediction is
blended back up the path with M5 smoothing, one
``LinearRegression.predict_one`` call per model on the path.  This is
the textbook walk ``M5PRegressor.predict`` must reproduce bit for bit;
it lives here, outside the package, because production routes whole
matrices instead.
"""

from typing import List

import numpy as np


def predict_one_row(model, x: np.ndarray) -> float:
    """The smoothed prediction of ``model`` for the single row ``x``."""
    path: List = []
    node = model._root
    while True:
        path.append(node)
        if node.is_leaf:
            break
        node = node.left if x[node.feature] <= node.threshold else node.right
    pred = node.model.predict_one(x)
    if model.smoothing_k > 0:
        # Blend back up: each ancestor pulls the prediction toward its
        # own model, weighted by the child subtree size.
        for i in range(len(path) - 2, -1, -1):
            parent, child = path[i], path[i + 1]
            q = parent.model.predict_one(x)
            pred = (child.n * pred + model.smoothing_k * q) / (
                child.n + model.smoothing_k)
    return pred


def predict_per_row(model, X) -> np.ndarray:
    """:func:`predict_one_row` over every row of ``X``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.array([predict_one_row(model, x) for x in X])


def split_nodes(model) -> List:
    """Every internal node of a fitted tree, root first."""
    out, stack = [], [model._root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            out.append(node)
            stack.extend((node.right, node.left))
    return out
