"""Folded ``KNNRegressor.predict`` ≡ per-row prediction, bit for bit.

``predict`` runs the distance kernel only on the bitwise-distinct query
rows and scatters the results back.  These tests feed it heavily
duplicated matrices and compare every row with ``predict_one`` on that
row alone (``np.array_equal``, not ``approx``).
"""

import numpy as np
import pytest

from repro.ml.knn import KNNRegressor
from repro.ml.predictors import PREDICTOR_SPECS


def per_row(model, Q):
    return np.array([model.predict_one(q) for q in Q])


def duplicated(rng, distinct: np.ndarray, n: int) -> np.ndarray:
    """``n`` rows drawn (with repeats, shuffled) from ``distinct``."""
    return distinct[rng.integers(0, len(distinct), size=n)]


@pytest.fixture(scope="module")
def train():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 4))
    y = rng.uniform(0.0, 1.0, 300)
    return X, y


@pytest.mark.parametrize("weights", ["uniform", "distance"])
@pytest.mark.parametrize("chunk_size", [1, 3, 1024])
def test_duplicated_rows_match_per_row(train, weights, chunk_size):
    X, y = train
    rng = np.random.default_rng(1)
    distinct = rng.normal(size=(11, 4))
    # Like one VM's load over many grants: distinct rows share a prefix.
    distinct[:, :2] = distinct[0, :2]
    Q = duplicated(rng, distinct, 400)
    model = KNNRegressor(k=4, weights=weights,
                         chunk_size=chunk_size).fit(X, y)
    got = model.predict(Q)
    assert np.array_equal(got, per_row(model, Q))
    # Equal rows get equal answers wherever they sit in the matrix.
    assert len(np.unique(got)) <= len(distinct)


def test_distance_weights_exact_match_branch(train):
    """Queries equal to training rows take all the weight from them."""
    X, y = train
    rng = np.random.default_rng(2)
    distinct = np.vstack([X[:5], rng.normal(size=(5, 4))])
    Q = duplicated(rng, distinct, 200)
    model = KNNRegressor(k=4, weights="distance", chunk_size=4).fit(X, y)
    got = model.predict(Q)
    assert np.array_equal(got, per_row(model, Q))
    exact = (Q[:, None, :] == X[None, :5, :]).all(axis=2)
    rows, which = np.nonzero(exact)
    assert np.array_equal(got[rows], y[which])


def test_signed_zero_rows(train):
    """Rows that differ only in -0.0 vs 0.0 each get their own answer."""
    X, y = train
    base = np.array([[0.0, 0.5, 0.0, -1.0], [-0.0, 0.5, 0.0, -1.0],
                     [0.0, 0.5, -0.0, -1.0], [-0.0, 0.5, -0.0, -1.0]])
    Q = np.vstack([base, base[::-1], base])
    for weights in ("uniform", "distance"):
        model = KNNRegressor(k=4, weights=weights, chunk_size=2).fit(X, y)
        assert np.array_equal(model.predict(Q), per_row(model, Q))


def test_zero_rows(train):
    X, y = train
    out = KNNRegressor(k=4).fit(X, y).predict(np.zeros((0, 4)))
    assert out.shape == (0,)
    assert out.dtype == np.float64


def test_non_contiguous_input(train):
    X, y = train
    rng = np.random.default_rng(3)
    Q = np.asfortranarray(duplicated(rng, rng.normal(size=(6, 4)), 90))
    model = KNNRegressor(k=4).fit(X, y)
    assert np.array_equal(model.predict(Q), per_row(model, Q))
    assert np.array_equal(model.predict(Q[::2]), per_row(model, Q[::2]))


def test_table1_sla_model_on_a_placement_matrix(tiny_models, tiny_monitor):
    """The trained SLA k-NN on a matrix shaped like a scoring call: one
    VM's load repeated over many candidate grants, most of them equal."""
    model = tiny_models["vm_sla"].model
    assert isinstance(model, KNNRegressor)
    X = PREDICTOR_SPECS["vm_sla"].build(tiny_monitor).X
    rng = np.random.default_rng(4)
    grant_cols = [4, 5, 6]  # given_cpu, given_mem, given_bw
    blocks = []
    for i in range(10):
        block = np.repeat(X[i:i + 1], 120, axis=0)
        grants = X[rng.integers(0, len(X), size=6)][:, grant_cols]
        block[:, grant_cols] = duplicated(rng, grants, 120)
        blocks.append(block)
    Q = np.vstack(blocks)
    assert np.array_equal(model.predict(Q), per_row(model, Q))
    assert np.array_equal(model.predict(X), per_row(model, X))
