"""k-nearest-neighbour regression.

The paper predicts per-VM SLA fulfillment directly with k-NN (K = 4),
"comparing the current situation with those seen before and choosing the
most similar one(s)" — it outperformed regressing RT and computing SLA from
it, because SLA's bounded [0, 1] range is less sensitive to RT outliers.

Features are z-normalized with training statistics; prediction is the
(optionally inverse-distance weighted) mean of the K nearest targets.
Queries are vectorized: one (n_query, n_train) distance matrix per call,
chunked to bound memory, over the bitwise-distinct query rows only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataset import Standardizer

__all__ = ["KNNRegressor"]


@dataclass
class KNNRegressor:
    """K-nearest-neighbour regressor with z-normalized Euclidean metric.

    Parameters
    ----------
    k:
        Neighbour count (paper: K = 4).
    weights:
        ``"uniform"`` averages the K targets; ``"distance"`` weights by
        inverse distance (exact matches dominate).
    chunk_size:
        Distinct query rows per distance-matrix block.
    """

    k: int = 4
    weights: str = "uniform"
    chunk_size: int = 1024
    _X: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _y: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    # Constants of the distance kernel: the training matrix transposed
    # (contiguous, for the per-row matrix-vector products) and its
    # squared row norms.
    _x_t: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _x_sq: Optional[np.ndarray] = field(default=None, init=False,
                                        repr=False)
    _scaler: Standardizer = field(default_factory=Standardizer, init=False,
                                  repr=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    def fit(self, X, y) -> "KNNRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y row counts differ")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on zero samples")
        self._X = self._scaler.fit_transform(X)
        self._y = y
        self._x_t = np.ascontiguousarray(self._X.T)
        self._x_sq = np.sum(self._X ** 2, axis=1)
        return self

    @property
    def n_train(self) -> int:
        return 0 if self._X is None else self._X.shape[0]

    def predict(self, X) -> np.ndarray:
        if self._X is None or self._y is None:
            raise RuntimeError("model not fitted")
        Q = np.atleast_2d(np.asarray(X, dtype=float))
        if Q.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"expected {self._X.shape[1]} features, got {Q.shape[1]}")
        # Every host that can fit a VM grants it the same resources, so a
        # placement matrix repeats rows heavily: predict each bitwise-
        # distinct row once and scatter the results back.
        Q = np.ascontiguousarray(Q)
        keys = Q.view(np.dtype((np.void, Q.itemsize * Q.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        return self._predict_scaled(self._scaler.transform(Q[first]))[inverse]

    def _predict_scaled(self, Q: np.ndarray) -> np.ndarray:
        k = min(self.k, self.n_train)
        out = np.empty(Q.shape[0])
        for start in range(0, Q.shape[0], self.chunk_size):
            block = Q[start:start + self.chunk_size]
            # ||q - x||^2 = ||q||^2 - 2 q.x + ||x||^2, built in place in
            # one (n_query, n_train) buffer.  The stacked product runs one
            # matrix-vector product per query row, so a row's distances do
            # not depend on the rows it is blocked with (a blocked gemm
            # rounds a row differently from block to block).
            d2 = (block[:, None, :] @ self._x_t)[:, 0]
            d2 *= -2.0
            d2 += np.sum(block ** 2, axis=1)[:, None]
            d2 += self._x_sq
            np.maximum(d2, 0.0, out=d2)
            nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
            rows = np.arange(block.shape[0])[:, None]
            targets = self._y[nn]
            if self.weights == "uniform":
                out[start:start + self.chunk_size] = targets.mean(axis=1)
            else:
                dist = np.sqrt(d2[rows, nn])
                w = 1.0 / np.maximum(dist, 1e-12)
                # An exact match takes all the weight.
                exact = dist <= 1e-12
                w = np.where(exact.any(axis=1)[:, None],
                             exact.astype(float), w)
                out[start:start + self.chunk_size] = (
                    (w * targets).sum(axis=1) / w.sum(axis=1))
        return out

    def predict_one(self, x) -> float:
        return float(self.predict(np.asarray(x, dtype=float)[None, :])[0])
