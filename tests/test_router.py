"""Tests for the fleet routing layer (router, fleet cache, planner)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import caffenet_accuracy_model, caffenet_time_model
from repro.cloud.catalog import instance_type
from repro.cloud.configuration import ResourceConfiguration
from repro.cloud.faults import FaultPlan, Preemption
from repro.cloud.instance import CloudInstance
from repro.api import ApiError, select_cheapest_fleet
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, Tracer, scoped_observability
from repro.obs.telemetry import SloPolicy
from repro.pruning.base import PruneSpec
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    FleetRouter,
    FleetSpec,
    FleetTelemetry,
    FleetWorkload,
    ReplicaSpec,
    ServingSimulator,
    evaluate_fleet,
    poisson_arrivals,
)
from repro.serving.autoscaler import AutoscalePolicy
from repro.serving.fleet import clear_fleet_cache, fleet_cache_info

TM = caffenet_time_model()
AM = caffenet_accuracy_model()
POLICY = BatchPolicy(max_batch=32, max_wait_s=0.05)
SWEET = PruneSpec({"conv1": 0.3, "conv2": 0.5})


def _config(itype: str, n: int = 1) -> ResourceConfiguration:
    return ResourceConfiguration(
        [CloudInstance(instance_type(itype)) for _ in range(n)]
    )


def _replica(
    name: str, itype: str = "p2.xlarge", spec=SWEET, **kwargs
) -> ReplicaSpec:
    return ReplicaSpec(name, _config(itype), spec, POLICY, **kwargs)


def _heterogeneous() -> list[ReplicaSpec]:
    return [
        _replica("gold", "p2.8xlarge", PruneSpec.unpruned()),
        _replica("cheap-a"),
        _replica("cheap-b"),
    ]


class TestSingleReplicaEquivalence:
    def test_router_n1_equals_bare_simulator_byte_for_byte(self):
        arrivals = poisson_arrivals(100.0, 30.0, seed=1)
        bare = ServingSimulator(
            TM, AM, _config("p2.8xlarge"), PruneSpec.unpruned(), POLICY
        ).run(arrivals)
        fleet = FleetRouter(
            TM,
            AM,
            [
                ReplicaSpec(
                    "solo",
                    _config("p2.8xlarge"),
                    PruneSpec.unpruned(),
                    POLICY,
                )
            ],
        ).run(arrivals)
        report = fleet.outcomes[0].report
        assert report.requests == bare.requests
        assert report.duration_s == bare.duration_s
        assert np.array_equal(report.latencies_s, bare.latencies_s)
        assert np.array_equal(report.batch_sizes, bare.batch_sizes)
        assert report.busy_s == bare.busy_s
        assert report.worker_count == bare.worker_count
        assert report.cost == bare.cost
        assert report.accuracy == bare.accuracy
        assert report.retries == bare.retries
        assert report.dropped == bare.dropped
        assert report.preempted == bare.preempted
        # the fleet aggregates collapse to the same numbers
        assert fleet.served == bare.served
        assert fleet.cost == bare.cost
        assert fleet.p99 == bare.p99
        assert fleet.duration_s == bare.duration_s

    def test_adaptive_n1_without_degradation_equals_bare(self):
        """One replica, no ``degrade_limit``: every adaptive decision
        collapses onto replica 0 and nothing is served below floor,
        so the fleet equals the bare simulator byte for byte."""
        arrivals = poisson_arrivals(100.0, 30.0, seed=5)
        bare = ServingSimulator(
            TM, AM, _config("p2.8xlarge"), PruneSpec.unpruned(), POLICY
        ).run(arrivals)
        fleet = FleetRouter(
            TM,
            AM,
            [
                ReplicaSpec(
                    "solo",
                    _config("p2.8xlarge"),
                    PruneSpec.unpruned(),
                    POLICY,
                )
            ],
            routing="adaptive",
        ).run(
            arrivals,
            floors=np.full(arrivals.size, 75.0),
            deadlines=np.full(arrivals.size, 0.25),
        )
        assert fleet.degraded == 0
        assert fleet.served == bare.served
        assert fleet.goodput_at_accuracy == fleet.goodput
        report = fleet.outcomes[0].report
        assert np.array_equal(report.latencies_s, bare.latencies_s)
        assert report.cost == bare.cost

    def test_equivalence_holds_under_faults(self):
        arrivals = poisson_arrivals(120.0, 30.0, seed=3)
        plan = FaultPlan.sample(
            duration_s=30.0,
            workers=8,
            mtbf_s=20.0,
            recovery_s=5.0,
            retry_budget=2,
            timeout_s=3.0,
            seed=3,
        )
        bare = ServingSimulator(
            TM, AM, _config("p2.8xlarge"), PruneSpec.unpruned(), POLICY
        ).run(arrivals, plan)
        fleet = FleetRouter(
            TM,
            AM,
            [
                ReplicaSpec(
                    "solo",
                    _config("p2.8xlarge"),
                    PruneSpec.unpruned(),
                    POLICY,
                    faults=plan,
                )
            ],
        ).run(arrivals)
        report = fleet.outcomes[0].report
        assert np.array_equal(report.latencies_s, bare.latencies_s)
        assert report.dropped == bare.dropped
        assert report.preempted == bare.preempted
        assert report.cost == bare.cost


class TestRoutingPolicies:
    def test_round_robin_cycles_in_order(self):
        router = FleetRouter(TM, AM, _heterogeneous())
        arrivals = np.arange(9, dtype=float)
        assignment = router.route(arrivals)
        assert assignment.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_jsq_prefers_least_backlogged(self):
        router = FleetRouter(TM, AM, _heterogeneous(), routing="jsq")
        # a burst at t=0: JSQ spreads it instead of piling on one
        assignment = router.route(np.zeros(6))
        assert set(assignment.tolist()) == {0, 1, 2}

    def test_weighted_matches_capacity_ratio(self):
        router = FleetRouter(
            TM, AM, _heterogeneous(), routing="weighted"
        )
        assignment = router.route(np.zeros(1000))
        shares = np.bincount(assignment, minlength=3) / 1000.0
        weights = np.asarray(router.capacities)
        expected = weights / weights.sum()
        assert np.allclose(shares, expected, atol=0.01)

    def test_weighted_honours_explicit_weights(self):
        replicas = [
            _replica("a", weight=3.0),
            _replica("b", weight=1.0),
        ]
        router = FleetRouter(TM, AM, replicas, routing="weighted")
        assignment = router.route(np.zeros(8))
        assert assignment.tolist() == [0, 0, 1, 0, 0, 0, 1, 0]

    def test_tiered_routes_floors_to_accurate_tier(self):
        router = FleetRouter(
            TM, AM, _heterogeneous(), routing="tiered"
        )
        arrivals = np.arange(10, dtype=float)
        floors = np.array([0.0, 75.0] * 5)
        assignment = router.route(arrivals, floors)
        # floor-75 requests must land on the unpruned replica (80%)
        assert (assignment[1::2] == 0).all()
        # floor-free requests go to the cheap tier
        assert (assignment[::2] > 0).all()

    def test_tiered_degrades_gracefully_on_unmeetable_floor(self):
        router = FleetRouter(
            TM, AM, _heterogeneous(), routing="tiered"
        )
        assignment = router.route(
            np.zeros(4), np.full(4, 99.0)
        )
        # nothing clears 99%: serve on the most accurate replica
        assert (assignment == 0).all()

    def test_tiered_ties_break_by_backlog(self):
        router = FleetRouter(
            TM,
            AM,
            [_replica("cheap-a"), _replica("cheap-b")],
            routing="tiered",
        )
        assignment = router.route(np.zeros(4))
        assert assignment.tolist() == [0, 1, 0, 1]


class TestAdaptiveRouting:
    def test_equals_tiered_when_deadlines_are_infinite(self):
        """The documented reduction: with every deadline infinite and
        no ``degrade_limit``, adaptive and tiered pick identically."""
        arrivals = poisson_arrivals(150.0, 10.0, seed=13)
        floors = np.random.default_rng(13).choice(
            [0.0, 75.0, 99.0], size=arrivals.size
        )
        picks = {}
        for routing in ("tiered", "adaptive"):
            router = FleetRouter(
                TM, AM, _heterogeneous(), routing=routing
            )
            picks[routing] = router.route(arrivals, floors)
        assert np.array_equal(picks["tiered"], picks["adaptive"])

    def test_spills_below_floor_when_gold_misses_deadline(self):
        router = FleetRouter(
            TM, AM, _heterogeneous(), routing="adaptive"
        )
        # gold can hold two queued requests inside this deadline
        deadline = 2.5 / router.capacities[0]
        assignment = router.route(
            np.zeros(4),
            np.full(4, 75.0),
            np.full(4, deadline),
        )
        # three fit on the only floor-clearing replica; the fourth
        # degrades to the most accurate replica still in time
        assert assignment.tolist() == [0, 0, 0, 1]

    def test_min_wait_fallback_when_nothing_is_timely(self):
        router = FleetRouter(
            TM, AM, _heterogeneous(), routing="adaptive"
        )
        assignment = router.route(
            np.zeros(5), np.zeros(5), np.full(5, 1e-12)
        )
        # cheapest empty replicas first; once every queue is nonempty
        # the smallest estimated wait (the widest replica) wins
        assert assignment.tolist() == [1, 2, 0, 0, 0]

    def test_deadline_free_requests_take_the_cheapest_tier(self):
        router = FleetRouter(
            TM, AM, _heterogeneous(), routing="adaptive"
        )
        assignment = router.route(
            np.arange(10, dtype=float),
            np.array([0.0, 75.0] * 5),
        )
        assert (assignment[1::2] == 0).all()
        assert (assignment[::2] > 0).all()

    def test_degrade_limit_serves_below_floor_before_shedding(self):
        router = FleetRouter(
            TM,
            AM,
            _heterogeneous(),
            routing="adaptive",
            admission=AdmissionPolicy(
                queue_limit=8.0, degrade_limit=4.0
            ),
        )
        report = router.run(
            np.zeros(10), floors=np.full(10, 75.0)
        )
        # backlog 0-3: at floor on gold; 4-7: floor waived, served on
        # the cheap tier; 8-9: shed at the queue limit
        assert report.shed == 2
        assert report.degraded == 4
        assert report.outcomes[0].at_floor == 4
        assert report.outcomes[0].degraded == 0
        assert sum(o.degraded for o in report.outcomes) == 4

    def test_degrade_limit_works_with_tiered_routing(self):
        router = FleetRouter(
            TM,
            AM,
            _heterogeneous(),
            routing="tiered",
            admission=AdmissionPolicy(degrade_limit=4.0),
        )
        report = router.run(
            np.zeros(8), floors=np.full(8, 75.0)
        )
        assert report.shed == 0
        assert report.degraded == 4

    def test_accounting_identities_hold(self):
        workload_floors = np.random.default_rng(23).choice(
            [0.0, 75.0], size=400
        )
        router = FleetRouter(
            TM,
            AM,
            _heterogeneous(),
            routing="adaptive",
            admission=AdmissionPolicy(
                queue_limit=20.0, degrade_limit=10.0
            ),
        )
        report = router.run(
            poisson_arrivals(300.0, 4.0, seed=23)[:400],
            floors=workload_floors,
            deadlines=np.full(400, 0.05),
        )
        assert report.degraded == sum(
            o.degraded for o in report.outcomes
        )
        assert 0 <= report.served_at_floor <= report.served
        assert (
            report.goodput_at_accuracy
            <= report.goodput + 1e-9
        )
        summary = report.summary()
        assert summary["degraded"] == report.degraded
        assert summary["goodput_at_accuracy"] == pytest.approx(
            report.goodput_at_accuracy
        )
        for row, outcome in zip(
            summary["replicas"], report.outcomes
        ):
            assert row["name"] == outcome.spec.name
            assert row["at_floor"] == outcome.at_floor

    def test_goodput_at_accuracy_equals_goodput_without_floors(self):
        router = FleetRouter(TM, AM, _heterogeneous(), routing="jsq")
        report = router.run(poisson_arrivals(80.0, 10.0, seed=3))
        assert report.degraded == 0
        assert report.goodput_at_accuracy == pytest.approx(
            report.goodput
        )

    def test_workload_deadline_mixture_draw(self):
        workload = FleetWorkload(
            50.0,
            5.0,
            seed=7,
            deadlines=((0.5, 0.25), (2.0, 0.75)),
        )
        drawn = workload.deadlines_s(2000)
        assert set(np.unique(drawn)) == {0.5, 2.0}
        # independent of the floors draw, deterministic per seed
        assert np.array_equal(drawn, workload.deadlines_s(2000))
        assert FleetWorkload(50.0, 5.0, seed=7).deadlines_s(10) is None
        # the mixture is part of the evaluation-cache identity
        assert workload.cache_key() != (
            FleetWorkload(50.0, 5.0, seed=7).cache_key()
        )


class TestValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            FleetRouter(TM, AM, [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            FleetRouter(TM, AM, [_replica("a"), _replica("a")])

    def test_unknown_routing_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown routing"):
            FleetRouter(TM, AM, [_replica("a")], routing="random")

    def test_unsorted_arrivals_rejected(self):
        router = FleetRouter(TM, AM, [_replica("a")])
        with pytest.raises(ConfigurationError, match="sorted"):
            router.route(np.array([2.0, 1.0]))

    def test_empty_arrivals_rejected(self):
        router = FleetRouter(TM, AM, [_replica("a")])
        with pytest.raises(ConfigurationError, match="no arrivals"):
            router.run(np.array([]))

    def test_misaligned_floors_rejected(self):
        router = FleetRouter(TM, AM, [_replica("a")])
        with pytest.raises(ConfigurationError, match="align"):
            router.route(np.zeros(3), np.zeros(2))

    def test_misaligned_deadlines_rejected(self):
        router = FleetRouter(TM, AM, [_replica("a")])
        with pytest.raises(ConfigurationError, match="align"):
            router.route(np.zeros(3), np.zeros(3), np.zeros(2))

    def test_negative_degrade_limit_rejected(self):
        with pytest.raises(ConfigurationError, match="degrade"):
            AdmissionPolicy(degrade_limit=-1.0)

    def test_degrade_limit_above_queue_limit_rejected(self):
        with pytest.raises(ConfigurationError, match="exceed"):
            AdmissionPolicy(queue_limit=5.0, degrade_limit=10.0)

    def test_nonpositive_workload_deadline_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            FleetWorkload(10.0, 1.0, deadlines=((0.0, 1.0),))

    def test_workload_deadline_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            FleetWorkload(
                10.0, 1.0, deadlines=((0.5, 0.5), (2.0, 0.2))
            )

    def test_autoscaled_replica_needs_single_type(self):
        config = ResourceConfiguration(
            [
                CloudInstance(instance_type("p2.xlarge")),
                CloudInstance(instance_type("g3.4xlarge")),
            ]
        )
        with pytest.raises(ConfigurationError, match="single instance"):
            ReplicaSpec(
                "elastic",
                config,
                SWEET,
                POLICY,
                autoscale=AutoscalePolicy(max_instances=4),
            )


class TestAdmissionControl:
    def test_zero_rate_admits_only_the_burst(self):
        router = FleetRouter(
            TM,
            AM,
            [_replica("a")],
            admission=AdmissionPolicy(rate_per_s=0.0, burst=5),
        )
        report = router.run(np.linspace(0.0, 1.0, 50))
        assert report.admitted == 5
        assert report.shed == 45
        assert report.served == 5
        assert report.availability == pytest.approx(0.1)

    def test_zero_queue_limit_sheds_everything(self):
        router = FleetRouter(
            TM,
            AM,
            [_replica("a")],
            admission=AdmissionPolicy(queue_limit=0.0),
        )
        arrivals = poisson_arrivals(50.0, 10.0, seed=2)
        report = router.run(arrivals)
        assert report.shed == report.offered
        assert report.served == 0
        assert report.availability == 0.0
        assert np.isnan(report.p99)
        # the fleet idled until the last arrival was turned away, and
        # was billed for that wall time
        assert report.duration_s == arrivals[-1]
        assert report.cost > 0.0
        assert report.outcomes[0].report is None

    def test_overload_sheds_but_keeps_tail_bounded(self):
        arrivals = poisson_arrivals(120.0, 30.0, seed=2)
        unprotected = FleetRouter(TM, AM, [_replica("a")]).run(arrivals)
        protected = FleetRouter(
            TM,
            AM,
            [_replica("a")],
            admission=AdmissionPolicy(
                rate_per_s=40.0, burst=20, queue_limit=200.0
            ),
        ).run(arrivals)
        assert unprotected.availability == 1.0
        assert protected.shed > 0
        assert protected.availability < 1.0
        # graceful degradation: what gets in stays fast
        assert protected.p99 < 1.0 < unprotected.p99
        # accounting closes: every request is served, shed or dropped
        assert (
            protected.served + protected.dropped == protected.offered
        )

    def test_open_admission_policy_sheds_nothing(self):
        policy = AdmissionPolicy()
        assert policy.is_open
        router = FleetRouter(
            TM, AM, [_replica("a")], admission=policy
        )
        report = router.run(poisson_arrivals(20.0, 5.0, seed=1))
        assert report.shed == 0

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(rate_per_s=-1.0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(burst=-1)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(queue_limit=-0.5)


class TestFaultsAndIdle:
    def test_all_replicas_preempted_mid_run(self):
        # both single-GPU replicas die at t=1 and never recover
        plan = FaultPlan(
            preemptions=(Preemption(0, 1.0, None),),
            retry_budget=1,
        )
        router = FleetRouter(
            TM,
            AM,
            [
                _replica("a", faults=plan),
                _replica("b", faults=plan),
            ],
            routing="jsq",
        )
        report = router.run(poisson_arrivals(40.0, 10.0, seed=4))
        assert report.served + report.dropped == report.offered
        assert report.dropped > 0
        assert report.availability < 1.0
        for outcome in report.outcomes:
            assert outcome.report.preempted == 1

    def test_idle_replica_is_billed_for_the_makespan(self):
        # all traffic is floor-free: tiered routing starves the gold
        # replica, which must still pay for the fleet's wall time
        router = FleetRouter(
            TM,
            AM,
            [
                _replica("gold", "p2.8xlarge", PruneSpec.unpruned()),
                _replica("cheap"),
            ],
            routing="tiered",
        )
        report = router.run(poisson_arrivals(20.0, 10.0, seed=5))
        gold = report.outcome("gold")
        cheap = report.outcome("cheap")
        assert gold.report is None and gold.assigned == 0
        assert cheap.served == report.served
        from repro.cloud.pricing import hourly_rate_cost

        assert gold.cost == hourly_rate_cost(
            _config("p2.8xlarge").total_price_per_hour,
            report.duration_s,
        )

    def test_autoscaled_replica_runs_elastically(self):
        router = FleetRouter(
            TM,
            AM,
            [
                ReplicaSpec(
                    "elastic",
                    _config("p2.xlarge"),
                    SWEET,
                    POLICY,
                    autoscale=AutoscalePolicy(
                        interval_s=5.0, max_instances=4
                    ),
                ),
                _replica("static"),
            ],
            routing="round-robin",
        )
        report = router.run(poisson_arrivals(60.0, 30.0, seed=6))
        elastic = report.outcome("elastic")
        assert elastic.report.peak_instances >= 1
        assert report.served == report.offered
        # elastic replicas are excluded from the utilisation aggregate
        assert 0.0 < report.utilisation <= 1.0


class TestFleetTelemetry:
    def test_aggregate_histogram_matches_served(self):
        telemetry = FleetTelemetry(SloPolicy(latency_slo_s=1.0))
        router = FleetRouter(TM, AM, _heterogeneous(), routing="jsq")
        report = router.run(
            poisson_arrivals(90.0, 20.0, seed=7), telemetry=telemetry
        )
        assert telemetry.aggregate_latency.count == report.served
        assert len(telemetry.per_replica) == 3
        assert telemetry.burn_summaries().keys() == {
            "gold",
            "cheap-a",
            "cheap-b",
        }

    def test_shed_requests_are_recorded(self):
        telemetry = FleetTelemetry()
        router = FleetRouter(
            TM,
            AM,
            [_replica("a")],
            admission=AdmissionPolicy(queue_limit=0.0),
        )
        report = router.run(np.linspace(0.0, 1.0, 10), telemetry=telemetry)
        assert telemetry.shed == report.shed == 10

    def test_finalize_publishes_fleet_gauges(self):
        registry = MetricsRegistry()
        with scoped_observability(Tracer(enabled=False), registry):
            telemetry = FleetTelemetry()
            FleetRouter(TM, AM, _heterogeneous()).run(
                poisson_arrivals(50.0, 10.0, seed=8),
                telemetry=telemetry,
            )
        snapshot = registry.snapshot()
        assert "router.latency_p99_s" in snapshot["gauges"]
        assert "router.availability" in snapshot["gauges"]
        assert snapshot["counters"]["router.runs"] == 1

    def test_tier_counts_and_degraded_counters_published(self):
        registry = MetricsRegistry()
        with scoped_observability(Tracer(enabled=False), registry):
            telemetry = FleetTelemetry()
            FleetRouter(
                TM,
                AM,
                _heterogeneous(),
                routing="adaptive",
                admission=AdmissionPolicy(
                    queue_limit=8.0, degrade_limit=4.0
                ),
            ).run(
                np.zeros(10),
                floors=np.full(10, 75.0),
                telemetry=telemetry,
            )
        assert telemetry.degraded == 4
        assert telemetry.tier_counts["gold"]["at_floor"] == 4
        snapshot = registry.snapshot()
        assert snapshot["counters"]["router.degraded"] == 4
        assert snapshot["counters"]["router.gold.at_floor"] == 4
        assert "router.goodput_at_accuracy" in snapshot["gauges"]

    def test_tier_counters_absent_without_degradation(self):
        """Pre-adaptive runs keep byte-identical counter snapshots:
        the degraded/at-floor counters only exist once a request was
        actually served below its floor."""
        registry = MetricsRegistry()
        with scoped_observability(Tracer(enabled=False), registry):
            telemetry = FleetTelemetry()
            FleetRouter(TM, AM, _heterogeneous()).run(
                poisson_arrivals(50.0, 5.0, seed=4),
                telemetry=telemetry,
            )
        counters = registry.snapshot()["counters"]
        assert "router.degraded" not in counters
        assert not any("at_floor" in k for k in counters)

    def test_burn_rates_compose_admission_and_drops(self):
        router = FleetRouter(
            TM,
            AM,
            [_replica("a")],
            admission=AdmissionPolicy(rate_per_s=0.0, burst=5),
        )
        report = router.run(np.linspace(0.0, 1.0, 50))
        burn = report.burn_rates(
            SloPolicy(latency_slo_s=1.0, availability_target=0.9)
        )
        assert burn["availability"] == pytest.approx(
            report.drop_rate / 0.1
        )


class TestFleetSpecCache:
    def setup_method(self):
        clear_fleet_cache()

    def test_content_equal_specs_hit_the_cache(self):
        workload = FleetWorkload(50.0, 10.0, seed=1)
        registry = MetricsRegistry()
        with scoped_observability(Tracer(enabled=False), registry):
            # fresh model instances: content, not identity, must key
            first = evaluate_fleet(
                FleetSpec(
                    caffenet_time_model(),
                    caffenet_accuracy_model(),
                    (_replica("a"),),
                ),
                workload,
            )
            second = evaluate_fleet(
                FleetSpec(
                    caffenet_time_model(),
                    caffenet_accuracy_model(),
                    (_replica("a"),),
                ),
                workload,
            )
        assert first is second
        counters = registry.snapshot()["counters"]
        assert counters["fleet.cache_misses"] == 1
        assert counters["fleet.cache_hits"] == 1
        assert fleet_cache_info()["entries"] == 1

    def test_different_routing_is_a_different_key(self):
        workload = FleetWorkload(50.0, 10.0, seed=1)
        spec = FleetSpec(TM, AM, tuple(_heterogeneous()))
        jsq = FleetSpec(
            TM, AM, tuple(_heterogeneous()), routing="jsq"
        )
        assert evaluate_fleet(spec, workload) is not evaluate_fleet(
            jsq, workload
        )

    def test_workload_validation(self):
        with pytest.raises(ConfigurationError, match="arrival"):
            FleetWorkload(50.0, 10.0, arrival="constant")
        with pytest.raises(ConfigurationError, match="positive"):
            FleetWorkload(-1.0, 10.0)
        with pytest.raises(ConfigurationError, match="sum to 1"):
            FleetWorkload(50.0, 10.0, floors=((0.0, 0.5), (75.0, 0.2)))

    def test_floor_mixture_is_deterministic(self):
        workload = FleetWorkload(
            50.0, 10.0, seed=3, floors=((0.0, 0.7), (75.0, 0.3))
        )
        floors = workload.accuracy_floors(1000)
        assert np.array_equal(floors, workload.accuracy_floors(1000))
        share = (floors == 75.0).mean()
        assert 0.25 < share < 0.35

    def test_hourly_rate_sums_replica_overrides(self):
        spec = FleetSpec(
            TM,
            AM,
            (_replica("a"), _replica("b", hourly_rate=0.5)),
        )
        assert spec.hourly_rate == pytest.approx(0.9 + 0.5)


class TestCheapestFleet:
    def setup_method(self):
        clear_fleet_cache()

    def test_picks_cheapest_feasible(self):
        workload = FleetWorkload(40.0, 10.0, seed=2)
        expensive = FleetSpec(
            TM,
            AM,
            (_replica("gold", "p2.8xlarge", PruneSpec.unpruned()),),
        )
        cheap = FleetSpec(TM, AM, (_replica("cheap"),))
        spec, report = select_cheapest_fleet(
            (expensive, cheap), workload, availability=0.99
        )
        assert spec is cheap
        assert report.availability >= 0.99

    def test_p99_constraint_filters(self):
        workload = FleetWorkload(120.0, 20.0, seed=2)
        slow = FleetSpec(TM, AM, (_replica("cheap"),))
        fast = FleetSpec(
            TM,
            AM,
            (_replica("gold", "p2.8xlarge", PruneSpec.unpruned()),),
        )
        spec, report = select_cheapest_fleet(
            (slow, fast), workload, availability=0.99, p99_s=1.0
        )
        assert spec is fast
        assert report.p99 <= 1.0

    def test_infeasible_raises(self):
        workload = FleetWorkload(40.0, 10.0, seed=2)
        shed_all = FleetSpec(
            TM,
            AM,
            (_replica("a"),),
            admission=AdmissionPolicy(queue_limit=0.0),
        )
        with pytest.raises(ApiError, match="availability") as exc:
            select_cheapest_fleet((shed_all,), workload, availability=0.5)
        assert exc.value.code == "infeasible"
        with pytest.raises(ApiError, match="no candidate") as exc:
            select_cheapest_fleet((), workload)
        assert exc.value.code == "infeasible"


class TestDeterminism:
    def test_fleet_run_is_reproducible(self):
        arrivals = poisson_arrivals(100.0, 20.0, seed=9)
        floors = FleetWorkload(
            100.0, 20.0, seed=9, floors=((0.0, 0.7), (75.0, 0.3))
        ).accuracy_floors(arrivals.size)

        def run():
            return FleetRouter(
                TM, AM, _heterogeneous(), routing="tiered"
            ).run(arrivals, floors=floors)

        first, second = run(), run()
        assert first.summary() == second.summary()
        assert np.array_equal(first.latencies_s, second.latencies_s)

    def test_artefact_identical_across_jobs(self):
        """ext-fleet-routing renders identically serial vs parallel."""
        from repro.experiments.engine import run_experiments

        def render(jobs):
            run = run_experiments(
                ("ext-fleet-routing",),
                jobs=jobs,
                use_cache=False,
                cache_dir=None,
                write_manifest=False,
            )
            [result] = run.results
            assert result.ok
            return result.text

        assert render(1) == render(2)
