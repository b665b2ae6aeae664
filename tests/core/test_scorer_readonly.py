"""RoundScorer's cached columns are frozen — stray mutation must raise.

The warm placement server hands one ``RoundScorer`` to many queries (and,
through the session lock, many threads).  Its latency/migration caches
are shared across every evaluation of the round: a single in-place write
through a result would silently corrupt all later rounds.  The caches
are therefore published read-only (``setflags(write=False)``) so the
corruption becomes a loud ``ValueError`` at the write site.
"""

import numpy as np
import pytest

from repro.core.bestfit import SchedulingRound
from repro.core.estimators import OracleEstimator
from repro.core.model import HostBatch, RoundScorer
from repro.experiments.scenario import multidc_system


@pytest.fixture
def scorer(tiny_config, tiny_trace):
    system = multidc_system(tiny_config)
    round_ = SchedulingRound(system, tiny_trace, 0, OracleEstimator())
    problem = round_.problem()
    batch = HostBatch(problem.hosts)
    return problem, batch, RoundScorer(problem, batch)


def assert_frozen(arr):
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[...] = 0.0


class TestFrozenCaches:
    def test_latency_column_frozen(self, scorer):
        problem, _batch, s = scorer
        src = next(iter(problem.requests[0].loads))
        col = s._lat_col(src)
        assert_frozen(col)
        # The cache survives the failed write and stays coherent.
        assert s._lat_col(src) is col

    def test_latency_matrix_frozen(self, scorer):
        problem, _batch, s = scorer
        srcs = tuple(problem.requests[0].loads)
        assert_frozen(s._lat_mat(srcs))

    def test_migration_columns_frozen(self, scorer):
        problem, _batch, s = scorer
        request = problem.requests[0]
        image_mb = request.vm.image_size_mb
        for arr in s._mig_cols(request.current_location, image_mb):
            assert_frozen(arr)
        for arr in s._mig_cols(None, image_mb):
            assert_frozen(arr)

    def test_shared_zero_column_frozen(self, scorer):
        _problem, _batch, s = scorer
        assert_frozen(s._zeros)


class TestEvaluationStillWorks:
    def test_evaluate_after_freeze(self, scorer):
        """Frozen caches must not break scoring (stay-put patches copy)."""
        problem, _batch, s = scorer
        for request in problem.requests:
            req = problem.estimator.required_resources(
                request.vm, request.aggregate_load, float("inf"))
            evs = s.evaluate(request, req)
            assert np.isfinite(evs.profit_eur).any()

    def test_full_round_pack_after_freeze(self, tiny_config, tiny_trace):
        system = multidc_system(tiny_config)
        round_ = SchedulingRound(system, tiny_trace, 0, OracleEstimator())
        result = round_.best_fit()
        assert set(result.assignment) == set(round_.fleet.traced_set)
