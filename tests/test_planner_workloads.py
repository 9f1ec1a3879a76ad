"""Tests for the planning queries and composite workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.api import ApiError, PlanRequest
from repro.calibration import caffenet_accuracy_model, caffenet_time_model
from repro.cloud import CloudSimulator, P2_TYPES
from repro.core.config_space import enumerate_configurations
from repro.core.planner import PlanningSpace
from repro.pruning import PruneSpec
from repro.pruning.schedule import DegreeOfPruning, single_layer_sweep
from repro.serving.workloads import (
    diurnal_arrivals,
    phase_rates,
    replay_trace,
)


@pytest.fixture(scope="module")
def space():
    simulator = CloudSimulator(
        caffenet_time_model(), caffenet_accuracy_model()
    )
    degrees = [DegreeOfPruning.of(PruneSpec.unpruned())] + (
        single_layer_sweep("conv2", [0.3, 0.5, 0.7])
    )
    configurations = enumerate_configurations(P2_TYPES, max_per_type=2)
    return PlanningSpace.evaluate(
        simulator, degrees, configurations, images=5_000_000
    )


def _plan(space, target, *, deadline_s=None, budget=None):
    """``repro.api.plan`` over the test grid, deadline in seconds."""
    deadline_h = None if deadline_s is None else deadline_s / 3600.0
    request = PlanRequest(target=target, deadline_h=deadline_h, budget=budget)
    return api.plan(request, space=space)


def min_budget(space, target, deadline_s):
    return _plan(space, target, deadline_s=deadline_s).best


def min_deadline(space, target, budget):
    return _plan(space, target, budget=budget).best


def frontier(space, target):
    return _plan(space, target).points


def infeasible(match=None):
    return pytest.raises(ApiError, match=match)


class TestPlanner:
    def test_min_budget_meets_both_constraints(self, space):
        result = min_budget(space, 80.0, deadline_s=2 * 3600.0)
        assert result.top5 >= 80.0
        assert result.time_s <= 2 * 3600.0

    def test_min_budget_is_minimal(self, space):
        best = min_budget(space, 80.0, 2 * 3600.0)
        for r in space.results:
            if r.accuracy.top5 >= 80.0 and r.time_s <= 2 * 3600.0:
                assert r.cost >= best.cost - 1e-9

    def test_tighter_deadline_costs_more(self, space):
        loose = min_budget(space, 80.0, 10 * 3600.0)
        tight = min_budget(space, 80.0, 1 * 3600.0)
        assert tight.cost >= loose.cost

    def test_min_deadline_respects_budget(self, space):
        result = min_deadline(space, 80.0, budget=30.0)
        assert result.cost <= 30.0
        assert result.top5 >= 80.0

    def test_richer_budget_is_faster(self, space):
        poor = min_deadline(space, 80.0, budget=30.0)
        rich = min_deadline(space, 80.0, budget=200.0)
        assert rich.time_s <= poor.time_s

    def test_infeasible_raises(self, space):
        with infeasible() as exc:
            min_budget(space, 99.0, 3600.0)  # accuracy unreachable
        assert exc.value.code == "infeasible"
        with infeasible() as exc:
            min_deadline(space, 80.0, budget=0.001)
        assert exc.value.code == "infeasible"

    def test_iso_accuracy_frontier_trades_time_for_money(self, space):
        front = frontier(space, 80.0)
        assert len(front) >= 2
        times = [r.time_s for r in front]
        costs = [r.cost for r in front]
        # ordered by the filter: time increases as cost decreases
        assert times == sorted(times)
        assert costs == sorted(costs, reverse=True)

    def test_reachable_accuracy(self, space):
        assert space.reachable_accuracy() == pytest.approx(80.0)


class TestPlannerInfeasibleEdges:
    """Infeasible-target edge cases: messages, boundaries, empty sets."""

    def test_unreachable_target_message_names_constraint(self, space):
        with infeasible(r"99\.0% top5 within 3600s"):
            min_budget(space, 99.0, 3600.0)
        with infeasible(r"99\.0% top5 within \$5\.00"):
            min_deadline(space, 99.0, budget=5.0)

    def test_target_exactly_at_reachable_accuracy_is_feasible(self, space):
        target = space.reachable_accuracy()
        result = min_budget(space, target, deadline_s=100 * 3600.0)
        assert result.top5 >= target

    def test_target_just_above_reachable_is_infeasible(self, space):
        target = space.reachable_accuracy() + 1e-6
        with infeasible("no configuration"):
            min_budget(space, target, deadline_s=100 * 3600.0)
        with infeasible("no configuration"):
            frontier(space, target)

    def test_reachable_accuracy_but_impossible_deadline(self, space):
        # the accuracy filter alone is non-empty; the deadline empties it
        with infeasible("no configuration"):
            min_budget(space, 80.0, deadline_s=1.0)

    def test_reachable_accuracy_but_zero_budget(self, space):
        # a request budget must be positive: the smallest one buys nothing
        with infeasible("no configuration"):
            min_deadline(space, 80.0, budget=1e-9)

    def test_iso_frontier_unconstrained_by_time_or_money(self, space):
        # the frontier query has no (T', C') box: any reachable target
        # yields at least one point even when budgets would be absurd
        front = frontier(space, space.reachable_accuracy())
        assert len(front) >= 1
        assert all(p.top5 >= space.reachable_accuracy() for p in front)


class TestWorkloads:
    def test_phase_rates_average_preserved(self):
        rates = phase_rates(100.0, 24, 0.7)
        assert rates.mean() == pytest.approx(100.0)
        assert rates.min() > 0

    def test_phase_rates_validation(self):
        with pytest.raises(ValueError):
            phase_rates(100.0, 24, 1.0)
        with pytest.raises(ValueError):
            phase_rates(100.0, 0, 0.5)

    def test_diurnal_mean_rate(self):
        arr = diurnal_arrivals(
            100.0, duration_s=400.0, cycle_s=200.0, seed=2
        )
        assert arr.size == pytest.approx(40_000, rel=0.1)
        assert np.all(np.diff(arr) >= 0)

    def test_diurnal_has_day_night_contrast(self):
        arr = diurnal_arrivals(
            100.0, duration_s=200.0, cycle_s=200.0, amplitude=0.9, seed=3
        )
        # first quarter (rising sine) should far out-arrive the third
        q = 50.0
        day = ((arr >= 0) & (arr < q)).sum()
        night = ((arr >= 2 * q) & (arr < 3 * q)).sum()
        assert day > 2 * night

    def test_diurnal_deterministic(self):
        a = diurnal_arrivals(50.0, 100.0, 50.0, seed=7)
        b = diurnal_arrivals(50.0, 100.0, 50.0, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_replay_trace_normalises(self):
        out = replay_trace([5.0, 3.0, 9.0], time_scale=0.5, offset_s=1.0)
        np.testing.assert_allclose(out, [1.0, 2.0, 4.0])

    def test_replay_validation(self):
        with pytest.raises(ValueError):
            replay_trace([])
        with pytest.raises(ValueError):
            replay_trace([1.0], time_scale=0.0)

    def test_autoscaler_follows_diurnal_load(self):
        """End-to-end: the fleet tracks the day-night cycle."""
        from repro.serving.autoscaler import (
            AutoscalePolicy,
            AutoscalingSimulator,
        )
        from repro.serving.batcher import BatchPolicy
        from repro.cloud import instance_type

        arrivals = diurnal_arrivals(
            250.0, duration_s=300.0, cycle_s=300.0, amplitude=0.8, seed=4
        )
        simulator = AutoscalingSimulator(
            caffenet_time_model(),
            caffenet_accuracy_model(),
            instance_type("p2.8xlarge"),
            PruneSpec.unpruned(),
            BatchPolicy(max_batch=32, max_wait_s=0.05),
            AutoscalePolicy(
                interval_s=10.0,
                min_instances=1,
                max_instances=6,
                boot_delay_s=10.0,
            ),
        )
        report = simulator.run(arrivals)
        assert report.peak_instances > 1
        assert report.mean_instances < report.peak_instances
