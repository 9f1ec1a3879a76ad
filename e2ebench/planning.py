"""The in-process planning workloads: ``plan-warm`` and ``plan-cold``.

Both send JSON bodies through :meth:`PlanningService.dispatch`, one
closed-loop caller, and check every answer against a plain-Python scan
of the evaluated grid (:mod:`checks`).
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

from repro.api import PlanRequest, clear_api_caches, planning_space
from repro.service import PlanningService

from checks import CheckError, Grid, check_plan
from common import Counters, Outcome, peak_rss_mb, rng_for

#: Grids ``plan-warm`` evaluates during set-up; the first is the
#: default 43,680-point grid (60 degrees x 728 configurations).
WARM_GRIDS = (
    {"model": "caffenet", "instances_per_type": 2},
    {"model": "caffenet", "instances_per_type": 1},
    {
        "model": "caffenet",
        "instances_per_type": 2,
        "catalog": ("p2.xlarge", "p2.8xlarge", "p2.16xlarge"),
    },
    {"model": "googlenet", "instances_per_type": 1},
)

#: Variants per grid in a query pool; each variant is four queries.
WARM_VARIANTS = 4

EVAL_COUNTERS = ("evalspace.cache_hits", "evalspace.cache_misses")


def grid_of(fields: dict) -> Grid:
    """The grid a request's fields name, as plain-Python columns."""
    space = planning_space(PlanRequest(target=50.0, **fields)).space
    return Grid.from_space(space)


def query_pool(rng, grids, variants: int) -> list[dict]:
    """Seeded plan requests over ``grids`` (``(fields, Grid)`` pairs).

    Per grid and variant: one frontier query, one min-budget query
    whose deadline some point meets, one min-deadline query whose
    budget some point meets, and one min-budget query whose deadline
    is shorter than the fastest point that reaches the target (so the
    answer is ``422 infeasible``).  Constraints are drawn relative to
    the grid, so every seed yields the same mix of answer kinds.  The
    variants' targets sit at fixed steps over 55-97% of the grid's best
    accuracy: how many points clear a target sets how much a frontier
    scan costs, so the seed draws only the constraints and the order.
    """
    pool = []
    for fields, grid in grids:
        for variant in range(variants):
            metric = "top1" if variant % 4 == 2 else "top5"
            col = 4 if metric == "top1" else 5
            best = max(p[col] for p in grid.points)
            share = 0.55 + 0.42 * (variant + 0.5) / variants
            target = round(share * best, 1)
            meets = [p for p in grid.points if p[col] >= target]
            t_min = min(p[2] for p in meets) / 3600.0
            c_min = min(p[3] for p in meets)
            base = dict(fields, target=target, metric=metric)
            for extra in (
                {},
                {"deadline_h": t_min * rng.uniform(1.2, 4.0)},
                {"budget": c_min * rng.uniform(1.2, 4.0)},
                {"deadline_h": t_min * rng.uniform(0.3, 0.9)},
            ):
                pool.append(PlanRequest(**base, **extra).to_dict())
    return pool


def _encode(request: dict) -> bytes:
    return json.dumps(request).encode("utf-8")


def warm_setup(speed) -> tuple[PlanningService, float]:
    """Start from empty caches and evaluate every warm grid through
    the service; returns the service and the normalised seconds."""

    def evaluate(fields):
        body = _encode(PlanRequest(target=50.0, **fields).to_dict())
        status, _, _ = service.dispatch("POST", "/v1/plan", body)
        if status != 200:
            raise RuntimeError(f"set-up query answered {status}")

    # each grid is timed between its own calibration runs: the default
    # grid alone takes seconds, long enough for the host to change speed
    service, raw_s, scale = speed.bracket(
        lambda: (clear_api_caches(), PlanningService())[1]
    )
    total = raw_s * scale
    for fields in WARM_GRIDS:
        _, raw_s, scale = speed.bracket(lambda: evaluate(fields))
        total += raw_s * scale
    return service, total


def install_planning_spans(log) -> None:
    """Wrap the planning path's layers, codec to ``perf``."""
    import repro.api.handlers as handlers
    import repro.api.types as types
    import repro.cloud.simulator as cloud
    import repro.core.evalspace as evalspace
    import repro.core.planner as planner
    import repro.perf.latency as latency
    import repro.service.server as server

    log.patch(server.PlanningService, "dispatch", "service.dispatch")
    log.patch(server.ServiceMonitor, "record", "service.monitor")
    # the service module's JSON codec calls count as decode / encode
    codec = SimpleNamespace(
        loads=log.wrap("api.decode", json.loads),
        dumps=log.wrap("api.encode", json.dumps),
    )
    log.replace(server, "json", codec)
    log.patch(types.PlanRequest, "from_dict", "api.decode")
    log.patch(types.PlanResponse, "to_dict", "api.encode")
    log.patch(handlers, "planning_space", "api.resolve")
    log.patch(planner, "_min_budget_for", "planner.min_budget")
    log.patch(planner, "_min_deadline_for", "planner.min_deadline")
    log.patch(planner, "_iso_accuracy_frontier", "planner.frontier")
    log.patch(
        planner, "pareto_indices", "pareto.indices", size=lambda a, *_: len(a)
    )
    log.patch(evalspace, "_evaluate_uncached", "evalspace.miss")
    log.patch(cloud.CloudSimulator, "run", "cloud.run")
    log.patch(
        latency.CalibratedTimeModel, "time_fraction", "perf.time_fraction"
    )


# ----------------------------------------------------------------------
# plan-warm
# ----------------------------------------------------------------------
def plan_warm(seed: int, seconds: float, speed, log=None):
    """Warm planning queries on four grids evaluated in one set-up.

    ``run.py`` runs an untraced ``plan-warm`` as several of these, each
    in its own process."""
    out = Outcome("plan-warm")
    service, setup_s = warm_setup(speed)
    out.setup_s.append(setup_s)
    grids = [(fields, grid_of(fields)) for fields in WARM_GRIDS]
    pool = query_pool(rng_for(seed, "plan-warm"), grids, WARM_VARIANTS)
    grid_by_query = [
        grids[i // (4 * WARM_VARIANTS)][1] for i in range(len(pool))
    ]
    order = list(range(len(pool)))
    rng_for(seed, "plan-warm-order").shuffle(order)
    bodies = [_encode(q) for q in pool]
    verified: dict[int, tuple[int, bytes]] = {}
    counters = Counters(*EVAL_COUNTERS)
    kinds: dict[str, int] = {}
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    response_bytes = 0

    def one_round():
        answers = []
        for i in order:
            if log is not None:
                log.op_id += 1
            started = time.perf_counter()
            answer = service.dispatch("POST", "/v1/plan", bodies[i])
            answers.append((i, answer, time.perf_counter() - started))
        return answers

    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        traced = log is not None and rounds % 2 == 0
        if traced:
            install_planning_spans(log)
        counters.start()
        try:
            answers, _, scale = speed.bracket(one_round)
        finally:
            if traced:
                log.unpatch()
        delta = counters.stop()
        rounds += 1
        out.attempted += len(order)
        if delta["evalspace.cache_misses"]:
            out.problem(
                f"{delta['evalspace.cache_misses']} evaluation misses "
                "after set-up"
            )
        for i, (status, _, payload), raw_s in answers:
            ms = raw_s * scale * 1e3
            out.record(ms, raw_s * 1e3)
            if log is not None:
                (traced_ms if traced else untraced_ms).append(ms)
            if traced:
                response_bytes += len(payload)
            seen = verified.get(i)
            if seen is None:
                try:
                    kind = check_plan(
                        pool[i], status, payload, grid_by_query[i]
                    )
                except CheckError as exc:
                    out.problem(f"query {i}: {exc}")
                    continue
                kinds[kind] = kinds.get(kind, 0) + 1
                verified[i] = (status, payload)
            elif seen != (status, payload):
                out.problem(f"query {i}: answer changed between rounds")
        # a traced run ends on an untraced round, so both kinds exist
        if time.perf_counter() >= deadline and not traced:
            break
    out.peak_rss_mb = peak_rss_mb()
    hits = counters.totals["evalspace.cache_hits"]
    misses = counters.totals["evalspace.cache_misses"]
    if hits != out.attempted:
        out.problem(f"{hits} evaluation hits for {out.attempted} queries")
    out.notes.append(
        f"{rounds} rounds of {len(order)} queries over grids of "
        f"{', '.join(str(len(g)) for _, g in grids)} points; "
        f"distinct answers verified by scan: {kinds}; "
        f"evalspace after set-up: {hits} hits, {misses} misses"
    )
    if log is None:
        out.figures["plan_p50_ms"] = (out.p(50), "ms")
        out.figures["plan_p99_ms"] = (out.p(99), "ms")
        out.figures["plan_qps"] = (out.rate, "1/s")
        return out
    # traced run: per-layer figures from the traced rounds only
    n = len(traced_ms)
    selfs, totals = log.self_times(), log.totals()

    def per_op(name: str) -> float:
        return selfs.get(name, (0.0, 0))[0] / n * 1e6

    def per_call(name: str, scale: float = 1e6) -> float:
        total, calls = totals.get(name, (0.0, 0))
        return total / calls * scale if calls else 0.0

    out.layers.update(
        {
            "api.decode_us": (per_op("api.decode"), "us"),
            "api.encode_us": (per_op("api.encode"), "us"),
            "api.response_bytes": (response_bytes / n, "bytes"),
            "service.dispatch_self_us": (per_op("service.dispatch"), "us"),
            "service.monitor_us": (per_op("service.monitor"), "us"),
            "api.resolve_us": (per_call("api.resolve"), "us"),
            "planner.min_budget_us": (per_call("planner.min_budget"), "us"),
            "planner.min_deadline_us": (
                per_call("planner.min_deadline"),
                "us",
            ),
            "planner.frontier_us": (per_call("planner.frontier"), "us"),
            "pareto.scanned_per_call": (
                log.sizes.get("pareto.indices", 0)
                / max(1, totals.get("pareto.indices", (0, 0))[1]),
                "points",
            ),
            "trace.overhead": (
                (sum(traced_ms) / n) / (sum(untraced_ms) / len(untraced_ms)),
                "x",
            ),
        }
    )
    out.notes.append(
        f"traced {n} queries, untraced {len(untraced_ms)}: mean "
        f"{sum(traced_ms) / n:.4f} ms vs "
        f"{sum(untraced_ms) / len(untraced_ms):.4f} ms"
    )
    return out


# ----------------------------------------------------------------------
# plan-cold
# ----------------------------------------------------------------------
#: The one grid shape of ``plan-cold``: 60 caffenet degrees x the 63
#: one-instance-per-type configurations of the full catalog.
COLD_FIELDS = {"model": "caffenet", "instances_per_type": 1}


def cold_query(rng, k: int, images: int) -> dict:
    """The ``k``-th cold query: frontier, min-budget or min-deadline
    (cycled), with constraints every grid of this shape meets."""
    extra = ({}, {"deadline_h": 1e7}, {"budget": 1e9})[k % 3]
    target = round(rng.uniform(40.0, 78.0), 1)
    return PlanRequest(
        target=target, images=images, **COLD_FIELDS, **extra
    ).to_dict()


def plan_cold(seed: int, seconds: float, speed, log=None, setups: int = 5):
    """Planning queries that each name a grid not yet evaluated."""
    out = Outcome("plan-cold")
    rng = rng_for(seed, "plan-cold")
    # distinct image counts: a seeded base, then a fixed stride
    base = rng.randrange(1_000_000, 40_000_000)
    step = 7_919
    for s in range(setups):
        images = base - (s + 1) * step

        def setup():
            clear_api_caches()
            service = PlanningService()
            body = _encode(cold_query(rng, 0, images))
            status, _, _ = service.dispatch("POST", "/v1/plan", body)
            if status != 200:
                raise RuntimeError(f"set-up query answered {status}")
            return service

        service, raw_s, scale = speed.bracket(setup)
        out.setup_s.append(raw_s * scale)
    if log is not None:
        install_planning_spans(log)
    counters = Counters(
        *EVAL_COUNTERS, "cloud.simulations", "perf.time_model_evals"
    )
    kinds: dict[str, int] = {}
    deadline = time.perf_counter() + seconds
    k = 0
    try:
        while True:
            for _ in range(3):  # one round: each query kind once
                request = cold_query(rng, k, base + k * step)
                body = _encode(request)
                if log is not None:
                    log.op_id += 1
                counters.start()
                (status, _, payload), raw_s, scale = speed.bracket(
                    lambda: service.dispatch("POST", "/v1/plan", body)
                )
                delta = counters.stop()
                out.attempted += 1
                out.record(raw_s * scale * 1e3, raw_s * 1e3)
                if delta["evalspace.cache_misses"] != 1:
                    out.problem(
                        f"cold query {k}: "
                        f"{delta['evalspace.cache_misses']} misses"
                    )
                grid = grid_of({**COLD_FIELDS, "images": request["images"]})
                try:
                    kind = check_plan(request, status, payload, grid)
                    kinds[kind] = kinds.get(kind, 0) + 1
                except CheckError as exc:
                    out.problem(f"cold query {k}: {exc}")
                k += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        if log is not None:
            log.unpatch()
    out.peak_rss_mb = peak_rss_mb()
    n = out.attempted
    points = 60 * 63
    totals = counters.totals
    out.notes.append(
        f"{n} cold queries on {points}-point grids, answers verified by "
        f"scan: {kinds}; evalspace misses {totals['evalspace.cache_misses']}"
        f", cloud runs {totals['cloud.simulations']}"
    )
    if log is None:
        out.figures["cold_plan_p50_ms"] = (out.p(50), "ms")
        out.figures["grid_kpoints_per_s"] = (
            out.rate * points / 1e3,
            "kpoints/s",
        )
        return out
    totals_s = log.totals()

    def per_call(name: str, scale: float) -> float:
        total, calls = totals_s.get(name, (0.0, 0))
        return total / calls * scale if calls else 0.0

    health = json.loads(service.dispatch("GET", "/v1/healthz")[2])
    out.layers.update(
        {
            "evalspace.hits": (totals["evalspace.cache_hits"] / n, "1/op"),
            "evalspace.misses": (
                totals["evalspace.cache_misses"] / n,
                "1/op",
            ),
            "evalspace.miss_ms": (per_call("evalspace.miss", 1e3), "ms"),
            "evalspace.cached_points": (
                health["space_cache"]["points"],
                "points",
            ),
            "cloud.runs": (totals["cloud.simulations"] / n, "1/op"),
            "cloud.run_us": (per_call("cloud.run", 1e6), "us"),
            "perf.time_model_evals": (
                totals["perf.time_model_evals"] / n,
                "1/op",
            ),
            "perf.time_fraction_us": (
                per_call("perf.time_fraction", 1e6),
                "us",
            ),
        }
    )
    return out
