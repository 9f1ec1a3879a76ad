"""The ``fleet-whatif`` workload: five candidate fleet designs asked
about freshly seeded bursty workloads through :mod:`repro.api`."""

from __future__ import annotations

import time

from repro.api import (
    ApiError,
    clear_api_caches,
    fleet_report,
    goodput_accuracy_frontier,
    select_cheapest_fleet,
)
from repro.calibration import caffenet_accuracy_model, caffenet_time_model
from repro.cloud.catalog import instance_type
from repro.cloud.configuration import ResourceConfiguration
from repro.cloud.instance import CloudInstance
from repro.pruning.base import PruneSpec
from repro.serving.autoscaler import AutoscalePolicy
from repro.serving.batcher import BatchPolicy
from repro.serving.fleet import FleetSpec, FleetWorkload
from repro.serving.router import AdmissionPolicy, ReplicaSpec

from checks import (
    CheckError,
    check_cheapest,
    check_frontier,
    check_report,
    same_report,
)
from common import Counters, Outcome, peak_rss_mb, rng_for

DESIGNS = (
    "rr-bucket",
    "tiered-shed",
    "adaptive-degrade",
    "wide8-jsq",
    "elastic-tiered",
)

#: The paper's Figure 8 sweet spot (70% Top-5) for the cheap tiers.
_SWEET = {"conv1": 0.3, "conv2": 0.5}
_FLOORS = ((0.0, 0.6), (75.0, 0.4))
_DEADLINES = ((0.6, 0.5), (3.0, 0.5))
_RATE_PER_S = 100.0
_DURATION_S = 60.0
#: (availability, p99 limit) pairs a question draws from.
_CONSTRAINTS = ((0.65, None), (0.9, 3.0), (0.99, None), (0.99, 1.0))

FLEET_COUNTERS = (
    "fleet.cache_hits",
    "fleet.cache_misses",
    "router.shed",
    "router.degraded",
    "serving.events",
    "serving.batches",
)


def _replica(name, itype, pruned, policy, autoscale=None):
    return ReplicaSpec(
        name,
        ResourceConfiguration([CloudInstance(instance_type(itype))]),
        PruneSpec(_SWEET if pruned else {}),
        policy,
        autoscale=autoscale,
    )


def candidates() -> dict[str, FleetSpec]:
    """The five designs, built from fresh calibrated models."""
    tm, am = caffenet_time_model(), caffenet_accuracy_model()
    batch = BatchPolicy(max_batch=32, max_wait_s=0.05)
    trio = (
        _replica("gold", "p2.xlarge", False, batch),
        _replica("cheap-a", "p2.xlarge", True, batch),
        _replica("cheap-b", "p2.xlarge", True, batch),
    )
    wide = tuple(
        _replica(f"w{i}", "p2.xlarge", i % 2 == 1, batch) for i in range(8)
    )
    elastic = (
        trio[0],
        _replica(
            "elastic",
            "p2.xlarge",
            True,
            batch,
            AutoscalePolicy(interval_s=5.0, max_instances=4),
        ),
    )
    shed = AdmissionPolicy(queue_limit=50.0)
    return {
        "rr-bucket": FleetSpec(
            tm,
            am,
            trio,
            routing="round-robin",
            admission=AdmissionPolicy(rate_per_s=150.0, burst=64),
        ),
        "tiered-shed": FleetSpec(tm, am, trio, "tiered", shed),
        "adaptive-degrade": FleetSpec(
            tm,
            am,
            trio,
            "adaptive",
            AdmissionPolicy(queue_limit=50.0, degrade_limit=25.0),
        ),
        "wide8-jsq": FleetSpec(tm, am, wide, "jsq", shed),
        "elastic-tiered": FleetSpec(tm, am, elastic, "tiered"),
    }


def workload_for(seed: int, question: int) -> FleetWorkload:
    """A fresh bursty workload with accuracy floors and deadlines."""
    return FleetWorkload(
        _RATE_PER_S,
        _DURATION_S,
        arrival="bursty",
        seed=rng_for(seed, f"fleet-{question}").randrange(2**31),
        floors=_FLOORS,
        deadlines=_DEADLINES,
    )


def ask(designs: dict, workload: FleetWorkload, availability, p99_s):
    """One what-if question: the goodput frontier, then the cheapest
    fleet meeting the constraints (``None`` when none does)."""
    specs = list(designs.values())
    frontier = goodput_accuracy_frontier(specs, workload)
    try:
        pick = select_cheapest_fleet(
            specs, workload, availability=availability, p99_s=p99_s
        )
    except ApiError as exc:
        if exc.code != "infeasible":
            raise
        pick = None
    return frontier, pick


def check_question(designs, workload, answer, availability, p99_s) -> None:
    """Every property check of one question (outside timing)."""
    frontier, pick = answer
    reports = {n: fleet_report(s, workload) for n, s in designs.items()}
    for name, report in reports.items():
        check_report(name, report)
    check_frontier(designs, reports, frontier)
    check_cheapest(designs, reports, pick, availability, p99_s)


def check_adaptive_reduces_to_tiered(seed: int) -> None:
    """With no deadlines and no degrade limit, ``adaptive`` must
    return the same report as ``tiered``."""
    designs = candidates()
    tiered = designs["tiered-shed"]
    adaptive = FleetSpec(
        tiered.time_model,
        tiered.accuracy_model,
        tiered.replicas,
        "adaptive",
        tiered.admission,
    )
    workload = FleetWorkload(
        _RATE_PER_S,
        _DURATION_S,
        arrival="bursty",
        seed=rng_for(seed, "reduction").randrange(2**31),
        floors=_FLOORS,
    )
    if not same_report(
        fleet_report(tiered, workload), fleet_report(adaptive, workload)
    ):
        raise CheckError("adaptive without deadlines differs from tiered")


def install_fleet_spans(log, names: dict[int, str]) -> None:
    """Wrap the serving layers, labelling spans with the design."""
    import repro.serving.autoscaler as autoscaler
    import repro.serving.fleet as fleet
    import repro.serving.router as router
    import repro.serving.simulator as simulator

    evaluate = fleet.evaluate_fleet

    def labelled(spec, workload):
        log.label = names.get(id(spec), "other")
        return evaluate(spec, workload)

    log.replace(fleet, "evaluate_fleet", labelled)
    log.patch(fleet, "evaluate_fleet", "fleet.evaluate")
    log.patch(fleet.FleetWorkload, "arrivals", "fleet.arrivals")
    log.patch(router.FleetRouter, "run", lambda lg: f"router.{lg.label}")
    engine = lambda lg: f"engine.{lg.label}"  # noqa: E731
    log.patch(simulator.ServingSimulator, "run", engine)
    log.patch(autoscaler.AutoscalingSimulator, "run", engine)


def fleet_whatif(seed: int, seconds: float, speed, log=None, setups: int = 5):
    """Closed-loop what-if questions about the five designs."""
    out = Outcome("fleet-whatif")
    for s in range(setups):

        def setup():
            clear_api_caches()
            designs = candidates()
            ask(designs, workload_for(seed, -1 - s), 0.9, None)
            return designs

        designs, raw_s, scale = speed.bracket(setup)
        out.setup_s.append(raw_s * scale)
    try:
        check_adaptive_reduces_to_tiered(seed)
    except CheckError as exc:
        out.problem(str(exc))
    if log is not None:
        install_fleet_spans(log, {id(s): n for n, s in designs.items()})
    counters = Counters(*FLEET_COUNTERS)
    rng = rng_for(seed, "fleet-constraints")
    picks: dict[str, int] = {}
    offered = 0
    deadline = time.perf_counter() + seconds
    q = 0
    try:
        while True:
            workload = workload_for(seed, q)
            availability, p99_s = rng.choice(_CONSTRAINTS)
            if log is not None:
                log.op_id += 1
            counters.start()
            answer, raw_s, scale = speed.bracket(
                lambda: ask(designs, workload, availability, p99_s)
            )
            delta = counters.stop()
            out.attempted += 1
            out.record(raw_s * scale * 1e3, raw_s * 1e3)
            if delta["fleet.cache_misses"] != len(designs):
                out.problem(
                    f"question {q}: {delta['fleet.cache_misses']} fleet "
                    f"cache misses for {len(designs)} designs"
                )
            if delta["fleet.cache_hits"] != len(designs):
                out.problem(
                    f"question {q}: {delta['fleet.cache_hits']} fleet "
                    f"cache hits for {len(designs)} designs"
                )
            if log is not None:
                log.unpatch()
            try:
                check_question(designs, workload, answer, availability, p99_s)
            except CheckError as exc:
                out.problem(f"question {q}: {exc}")
            finally:
                if log is not None:
                    install_fleet_spans(
                        log, {id(s): n for n, s in designs.items()}
                    )
            pick = answer[1]
            label = "infeasible" if pick is None else next(
                n for n, s in designs.items() if s is pick[0]
            )
            picks[label] = picks.get(label, 0) + 1
            offered += len(designs) * answer[0][0][1].offered
            q += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        if log is not None:
            log.unpatch()
    out.peak_rss_mb = peak_rss_mb()
    n = out.attempted
    totals = counters.totals
    out.notes.append(
        f"{n} questions x {len(designs)} designs; cheapest picks {picks}; "
        f"fleet cache {totals['fleet.cache_misses']} misses, "
        f"{totals['fleet.cache_hits']} hits; adaptive==tiered checked"
    )
    if log is None:
        out.figures["whatif_p50_ms"] = (out.p(50), "ms")
        out.figures["sim_kreq_per_s"] = (offered / 1e3 / out.busy_s, "kreq/s")
        return out
    selfs, spans = log.self_times(), log.totals()
    arrivals_s, arrivals_n = spans.get("fleet.arrivals", (0.0, 1))
    out.layers["fleet.arrivals_ms"] = (arrivals_s / arrivals_n * 1e3, "ms")
    for name in ("fleet.cache_hits", "fleet.cache_misses"):
        out.layers[name] = (totals[name] / n, "1/op")
    for design in DESIGNS:
        out.layers[f"router.self_ms.{design}"] = (
            selfs.get(f"router.{design}", (0.0, 0))[0] / n * 1e3,
            "ms",
        )
    out.layers["router.shed"] = (totals["router.shed"] / n, "1/op")
    out.layers["router.degraded"] = (totals["router.degraded"] / n, "1/op")
    for design in DESIGNS:
        out.layers[f"engine.ms.{design}"] = (
            selfs.get(f"engine.{design}", (0.0, 0))[0] / n * 1e3,
            "ms",
        )
    out.layers["engine.events"] = (totals["serving.events"] / n, "1/op")
    out.layers["engine.batches"] = (totals["serving.batches"] / n, "1/op")
    return out
