"""Array-routed ``M5PRegressor.predict`` ≡ the per-row tree walk, bit for bit.

Production prediction routes the whole matrix down the tree with
boolean masks; ``m5p_oracle.predict_per_row`` walks each row on its own.
Every comparison here is ``np.array_equal``: ranking decisions depend on
the exact floats, so "close" is not enough.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m5p_oracle import predict_one_row, predict_per_row, split_nodes
from repro.ml.ensemble import BaggingRegressor, bagged_m5p
from repro.ml.m5p import M5PRegressor
from repro.ml.predictors import PREDICTOR_SPECS

#: The Table I elements learned with M5P.
M5P_KEYS = ("vm_cpu", "vm_in", "vm_out", "pm_cpu", "vm_rt")


def assert_matches_oracle(model, X):
    got = model.predict(X)
    want = predict_per_row(model, X)
    assert got.shape == want.shape == (np.atleast_2d(X).shape[0],)
    assert np.array_equal(got, want, equal_nan=True)


def threshold_rows(model, base: np.ndarray) -> np.ndarray:
    """Rows of ``base`` with one split feature set exactly at, just
    below and just above each split threshold of the tree."""
    rows = []
    for node in split_nodes(model):
        for value in (node.threshold,
                      np.nextafter(node.threshold, -np.inf),
                      np.nextafter(node.threshold, np.inf)):
            x = base[len(rows) % len(base)].copy()
            x[node.feature] = value
            rows.append(x)
    return np.array(rows).reshape(-1, base.shape[1])


@pytest.fixture(scope="module")
def table1_trees(tiny_models, tiny_monitor):
    """(key, fitted M5P, its training design matrix) per Table I tree."""
    out = []
    for key in M5P_KEYS:
        model = tiny_models[key].model
        assert isinstance(model, M5PRegressor)
        out.append((key, model, PREDICTOR_SPECS[key].build(tiny_monitor).X))
    return out


def synthetic(seed: int, n: int = 400, d: int = 3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n, d))
    y = (np.where(X[:, 0] < 5.0, 2.0 * X[:, 0], 30.0 - X[:, 0])
         + np.sin(X[:, -1]) + rng.normal(0.0, 0.2, n))
    return X, y


class TestTableIModels:
    def test_trees_have_splits(self, table1_trees):
        # The differential tests below are only meaningful on real trees.
        assert any(split_nodes(model) for _, model, _ in table1_trees)

    def test_training_rows(self, table1_trees):
        for _, model, X in table1_trees:
            assert_matches_oracle(model, X)

    def test_random_rows_around_training_range(self, table1_trees):
        rng = np.random.default_rng(0)
        for _, model, X in table1_trees:
            lo, hi = X.min(axis=0), X.max(axis=0)
            span = np.where(hi > lo, hi - lo, 1.0)
            Q = rng.uniform(lo - 0.2 * span, hi + 0.2 * span,
                            size=(500, X.shape[1]))
            assert_matches_oracle(model, Q)

    def test_rows_exactly_at_split_thresholds(self, table1_trees):
        for _, model, X in table1_trees:
            assert_matches_oracle(model, threshold_rows(model, X))

    def test_one_row_and_predict_one(self, table1_trees):
        for _, model, X in table1_trees:
            x = X[len(X) // 2]
            want = predict_one_row(model, x)
            assert np.array_equal(model.predict(x[None, :]), [want])
            assert model.predict_one(x) == want

    def test_zero_rows(self, table1_trees):
        for _, model, X in table1_trees:
            out = model.predict(np.zeros((0, X.shape[1])))
            assert out.shape == (0,)
            assert out.dtype == np.float64


class TestFitSettings:
    @pytest.mark.parametrize("kwargs", [
        dict(), dict(smoothing_k=0.0), dict(prune=False),
        dict(prune=False, smoothing_k=0.0), dict(min_leaf=2),
        dict(smoothing_k=3.5, max_depth=3)])
    def test_matches_oracle(self, kwargs):
        X, y = synthetic(1)
        model = M5PRegressor(**kwargs).fit(X, y)
        Q = np.vstack([X, synthetic(2, n=200)[0],
                       threshold_rows(model, X)])
        assert_matches_oracle(model, Q)

    def test_single_leaf(self):
        X, _ = synthetic(3)
        model = M5PRegressor().fit(X, np.full(len(X), 4.0))
        assert model.n_leaves == 1
        assert_matches_oracle(model, X)

    def test_nan_rows_go_right(self):
        """``x <= threshold`` is False for NaN in both walks."""
        X, y = synthetic(4)
        model = M5PRegressor(prune=False).fit(X, y)
        Q = X[:20].copy()
        Q[::2, 0] = np.nan
        assert_matches_oracle(model, Q)

    def test_fortran_ordered_input(self):
        X, y = synthetic(5)
        model = M5PRegressor().fit(X, y)
        assert_matches_oracle(model, np.asfortranarray(X))


class TestBaggedMembers:
    def test_members_and_mean_match_oracle(self):
        X, y = synthetic(7)
        bag = bagged_m5p(n_estimators=4, seed=3).fit(X, y)
        Q = synthetic(8, n=150)[0]
        oracle = np.stack([predict_per_row(m, Q) for m in bag._members])
        assert np.array_equal(bag.member_predictions(Q), oracle)
        assert np.array_equal(bag.predict(Q), oracle.mean(axis=0))

    def test_unpruned_unsmoothed_members(self):
        X, y = synthetic(9)
        bag = BaggingRegressor(
            base_factory=lambda: M5PRegressor(prune=False, smoothing_k=0.0),
            n_estimators=3, seed=1).fit(X, y)
        for member in bag._members:
            assert_matches_oracle(member, X)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           smoothing_k=st.sampled_from([0.0, 1.0, 15.0]),
           prune=st.booleans())
    def test_random_trees_match_oracle(self, seed, smoothing_k, prune):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 100)
        y = rng.normal(size=n) * rng.uniform(0.1, 100) + 3.0 * X[:, 0]
        model = M5PRegressor(min_leaf=2, prune=prune,
                             smoothing_k=smoothing_k).fit(X, y)
        Q = np.vstack([X, rng.normal(size=(50, d)) * 100.0,
                       threshold_rows(model, X)])
        assert_matches_oracle(model, Q)
