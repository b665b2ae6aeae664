"""Tests for the M5P model tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.m5p import M5PRegressor, _best_split


class TestBestSplit:
    def test_obvious_split_found(self):
        X = np.concatenate([np.zeros(20), np.ones(20)])[:, None]
        y = np.concatenate([np.zeros(20), np.ones(20) * 10.0])
        j, threshold, sdr = _best_split(X, y, min_leaf=4)
        assert j == 0
        assert 0.0 < threshold < 1.0
        assert sdr > 0.0

    def test_no_split_constant_target(self):
        X = np.arange(20, dtype=float)[:, None]
        y = np.full(20, 3.0)
        assert _best_split(X, y, min_leaf=4) is None

    def test_no_split_too_few_samples(self):
        X = np.arange(6, dtype=float)[:, None]
        y = np.arange(6, dtype=float)
        assert _best_split(X, y, min_leaf=4) is None

    def test_no_split_constant_feature(self):
        X = np.ones((20, 1))
        y = np.arange(20, dtype=float)
        assert _best_split(X, y, min_leaf=4) is None

    def test_min_leaf_respected(self):
        X = np.arange(20, dtype=float)[:, None]
        y = np.where(X[:, 0] < 2, 100.0, 0.0)  # best cut at 2 violates M=8
        result = _best_split(X, y, min_leaf=8)
        if result is not None:
            _, threshold, _ = result
            left = (X[:, 0] <= threshold).sum()
            assert 8 <= left <= 12


class TestFitPredict:
    def test_linear_function_single_leaf(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 10, size=(300, 2))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 1.0
        model = M5PRegressor(min_leaf=4).fit(X, y)
        pred = model.predict(X)
        assert np.mean(np.abs(pred - y)) < 0.2

    def test_piecewise_linear_beats_global_linear(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 10, size=(1000, 1))
        y = np.where(X[:, 0] < 5, X[:, 0], 10.0 - X[:, 0])
        model = M5PRegressor(min_leaf=4).fit(X, y)
        pred = model.predict(X)
        assert np.mean(np.abs(pred - y)) < 0.3
        assert model.n_leaves >= 2

    def test_step_function(self):
        X = np.linspace(0, 1, 400)[:, None]
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        model = M5PRegressor(min_leaf=4).fit(X, y)
        assert model.predict([[0.1]])[0] == pytest.approx(0.0, abs=0.8)
        assert model.predict([[0.9]])[0] == pytest.approx(10.0, abs=0.8)

    def test_constant_target(self):
        X = np.random.default_rng(2).normal(size=(50, 2))
        model = M5PRegressor().fit(X, np.full(50, 7.0))
        assert model.n_leaves == 1
        assert model.predict(X) == pytest.approx(np.full(50, 7.0))

    def test_single_sample(self):
        model = M5PRegressor().fit(np.array([[1.0]]), np.array([3.0]))
        assert model.predict([[5.0]])[0] == pytest.approx(3.0)

    def test_pruning_reduces_or_keeps_leaves(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(500, 2))
        y = X[:, 0] + rng.normal(0, 0.5, 500)  # mostly noise
        unpruned = M5PRegressor(min_leaf=4, prune=False).fit(X, y)
        pruned = M5PRegressor(min_leaf=4, prune=True).fit(X, y)
        assert pruned.n_leaves <= unpruned.n_leaves

    def test_smoothing_changes_predictions(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 10, size=(500, 1))
        y = np.where(X[:, 0] < 5, X[:, 0] * 2, 30.0 - X[:, 0])
        smooth = M5PRegressor(smoothing_k=15.0).fit(X, y)
        raw = M5PRegressor(smoothing_k=0.0).fit(X, y)
        q = rng.uniform(0, 10, size=(50, 1))
        assert not np.allclose(smooth.predict(q), raw.predict(q))

    def test_max_depth_bounds_tree(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(2000, 1))
        y = np.sin(20 * X[:, 0])
        model = M5PRegressor(min_leaf=2, max_depth=3,
                             sd_fraction=0.0).fit(X, y)
        assert model.depth <= 3

    def test_min_leaf_2_vs_4_more_leaves(self):
        """The paper's M parameter: smaller M, finer trees."""
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, size=(400, 1))
        y = np.sin(15 * X[:, 0]) + rng.normal(0, 0.05, 400)
        fine = M5PRegressor(min_leaf=2, prune=False).fit(X, y)
        coarse = M5PRegressor(min_leaf=30, prune=False).fit(X, y)
        assert fine.n_leaves > coarse.n_leaves

    def test_duplicate_feature_values(self):
        """Ties must not produce empty splits (regression guard)."""
        rng = np.random.default_rng(7)
        X = rng.integers(0, 3, size=(200, 2)).astype(float)
        y = X[:, 0] * 10 + rng.normal(0, 0.1, 200)
        model = M5PRegressor(min_leaf=2).fit(X, y)
        assert np.isfinite(model.predict(X)).all()

    def test_describe(self):
        model = M5PRegressor()
        assert "unfitted" in model.describe()
        X = np.linspace(0, 1, 100)[:, None]
        model.fit(X, (X[:, 0] > 0.5) * 5.0)
        assert "LM" in model.describe()


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(min_leaf=0), dict(smoothing_k=-1.0), dict(sd_fraction=1.0),
        dict(max_depth=0)])
    def test_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            M5PRegressor(**kwargs)

    def test_unfitted_predict(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            M5PRegressor().predict([[1.0]])
        with pytest.raises(RuntimeError, match="not fitted"):
            M5PRegressor().predict_one([1.0])

    def test_feature_count_checked(self):
        model = M5PRegressor().fit(np.ones((10, 2)), np.ones(10))
        with pytest.raises(ValueError, match="expected 2 features, got 3"):
            model.predict(np.ones((2, 3)))
        with pytest.raises(ValueError, match="expected 2 features, got 1"):
            model.predict_one([1.0])

    def test_empty_fit(self):
        with pytest.raises(ValueError):
            M5PRegressor().fit(np.zeros((0, 1)), np.zeros(0))


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_predictions_finite_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 100)
        y = rng.normal(size=n) * rng.uniform(0.1, 100)
        model = M5PRegressor(min_leaf=2).fit(X, y)
        assert np.isfinite(model.predict(X)).all()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_interpolation_within_target_envelope(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(100, 2))
        y = rng.uniform(0, 1, 100)
        model = M5PRegressor(min_leaf=4).fit(X, y)
        preds = model.predict(X)
        # Linear leaves can extrapolate a little, but not absurdly.
        margin = 3.0 * (y.max() - y.min() + 1.0)
        assert (preds > y.min() - margin).all()
        assert (preds < y.max() + margin).all()
