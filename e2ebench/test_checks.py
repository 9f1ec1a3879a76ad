"""The benchmark's answer checks reject corrupted answers.

Run from the root of a checkout::

    python3 -m pytest e2ebench/test_checks.py -q

Each test takes a true answer from the program, corrupts one thing a
faulty program could get wrong, and requires the check to refuse it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (  # noqa: E402
    CheckError,
    Grid,
    check_cheapest,
    check_frontier,
    check_plan,
    check_report,
    cheapest_name,
    same_report,
)
from fleet_whatif import ask, candidates  # noqa: E402
from planning import grid_of  # noqa: E402
from repro.api import PlanRequest, fleet_report  # noqa: E402
from repro.serving.fleet import FleetWorkload  # noqa: E402
from repro.service import PlanningService  # noqa: E402

POINT_KEYS = ("spec", "configuration", "time_s", "cost", "top1", "top5")
FIELDS = {
    "model": "caffenet",
    "instances_per_type": 2,
    "catalog": ("p2.xlarge", "p2.8xlarge", "p2.16xlarge"),
}


@pytest.fixture(scope="module")
def grid() -> Grid:
    return grid_of(FIELDS)


def answer(**extra):
    request = PlanRequest(target=60.0, **FIELDS, **extra).to_dict()
    status, _, body = PlanningService().dispatch(
        "POST", "/v1/plan", json.dumps(request).encode()
    )
    return request, status, body


def edit(body: bytes, change) -> bytes:
    payload = json.loads(body)
    change(payload)
    return json.dumps(payload).encode()


@pytest.mark.parametrize(
    "extra, kind",
    [
        ({}, "frontier"),
        ({"deadline_h": 1e6}, "min_budget"),
        ({"budget": 1e9}, "min_deadline"),
        ({"deadline_h": 1e-3}, "infeasible"),
    ],
)
def test_true_answers_pass(grid, extra, kind):
    assert check_plan(*answer(**extra), grid) == kind


def test_perturbed_cost_is_rejected(grid):
    request, status, body = answer(deadline_h=1e6)

    def bump(payload):
        payload["points"][0]["cost"] += 0.01

    with pytest.raises(CheckError, match="differ from the grid"):
        check_plan(request, status, edit(body, bump), grid)


def test_cost_off_eq1_is_rejected_even_when_the_grid_agrees(grid):
    # a program whose evaluator mis-prices one point everywhere
    request, status, body = answer(deadline_h=1e6)
    point = json.loads(body)["points"][0]
    wrong = point["cost"] * 0.5
    points = [
        p[:3] + (wrong,) + p[4:]
        if (p[0], p[1]) == (point["spec"], point["configuration"])
        else p
        for p in grid.points
    ]

    def halve(payload):
        payload["points"][0]["cost"] = wrong

    with pytest.raises(CheckError, match="Eq. 1"):
        check_plan(request, status, edit(body, halve), Grid(points))


def test_dropped_frontier_point_is_rejected(grid):
    request, status, body = answer()
    assert len(json.loads(body)["points"]) > 2

    def drop(payload):
        del payload["points"][1]

    with pytest.raises(CheckError, match="missing"):
        check_plan(request, status, edit(body, drop), grid)


def test_dominated_frontier_point_is_rejected(grid):
    request, status, body = answer()
    frontier = json.loads(body)["points"]
    slow = max(frontier, key=lambda p: p["time_s"])
    dominated = next(
        p
        for p in grid.points
        if p[5] >= 60.0 and p[2] > slow["time_s"] and p[3] > slow["cost"]
    )

    def add(payload):
        payload["points"].append(dict(zip(POINT_KEYS, dominated)))

    with pytest.raises(CheckError, match="dominated or extra"):
        check_plan(request, status, edit(body, add), grid)


def test_a_costlier_min_budget_answer_is_rejected(grid):
    request, status, body = answer(deadline_h=1e6)
    best = json.loads(body)["points"][0]
    costlier = next(
        p for p in grid.points if p[5] >= 60.0 and p[3] > best["cost"]
    )

    def swap(payload):
        payload["points"][0] = dict(zip(POINT_KEYS, costlier))

    with pytest.raises(CheckError, match="scan finds"):
        check_plan(request, status, edit(body, swap), grid)


def test_infeasible_for_a_feasible_request_is_rejected(grid):
    request, _, _ = answer(deadline_h=1e6)
    body = json.dumps(
        {"error": {"code": "infeasible", "message": "none"}}
    ).encode()
    with pytest.raises(CheckError, match="meet the request"):
        check_plan(request, 422, body, grid)


# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet():
    designs = candidates()
    workload = FleetWorkload(
        80.0,
        15.0,
        arrival="bursty",
        seed=7,
        floors=((0.0, 0.6), (75.0, 0.4)),
        deadlines=((0.6, 0.5), (3.0, 0.5)),
    )
    answer = ask(designs, workload, 0.9, None)
    reports = {n: fleet_report(s, workload) for n, s in designs.items()}
    return designs, reports, answer


def test_true_fleet_answers_pass(fleet):
    designs, reports, (frontier, pick) = fleet
    for name, report in reports.items():
        check_report(name, report)
    check_frontier(designs, reports, frontier)
    check_cheapest(designs, reports, pick, 0.9, None)


def with_first(report, outcome):
    """``report`` with its first replica outcome replaced."""
    return replace(report, outcomes=(outcome,) + report.outcomes[1:])


def shedding(reports):
    return next(
        (n, r) for n, r in reports.items() if r.shed and r.shed < r.offered
    )


def test_broken_conservation_sum_is_rejected(fleet):
    _, reports, _ = fleet
    name, report = shedding(reports)
    with pytest.raises(CheckError, match="offered"):
        check_report(name, replace(report, offered=report.offered + 1))


def test_assignments_not_summing_to_admitted_are_rejected(fleet):
    _, reports, _ = fleet
    name, report = shedding(reports)
    o = report.outcomes[0]
    bad = replace(o, assigned=o.assigned + 1)
    with pytest.raises(CheckError, match="admitted"):
        check_report(name, with_first(report, bad))


def test_at_floor_above_assigned_is_rejected(fleet):
    _, reports, _ = fleet
    name, report = shedding(reports)
    o = report.outcomes[0]
    bad = replace(o, at_floor=o.assigned + 1)
    with pytest.raises(CheckError, match="at-floor"):
        check_report(name, with_first(report, bad))


def test_negative_cost_is_rejected(fleet):
    _, reports, _ = fleet
    name, report = shedding(reports)
    bad = replace(report.outcomes[0], cost=-1.0)
    with pytest.raises(CheckError, match="cost"):
        check_report(name, with_first(report, bad))


def test_dropped_frontier_design_is_rejected(fleet):
    designs, reports, (frontier, _) = fleet
    assert len(frontier) >= 2
    with pytest.raises(CheckError, match="recomputed"):
        check_frontier(designs, reports, frontier[1:])


def test_dominated_design_on_the_frontier_is_rejected(fleet):
    designs, reports, (frontier, _) = fleet
    on = {id(spec) for spec, _ in frontier}
    name, spec = next((n, s) for n, s in designs.items() if id(s) not in on)
    padded = list(frontier) + [(spec, reports[name])]
    with pytest.raises(CheckError, match="recomputed"):
        check_frontier(designs, reports, padded)


def test_a_wrong_cheapest_pick_is_rejected(fleet):
    designs, reports, (_, pick) = fleet
    want = cheapest_name(designs, reports, 0.9, None)
    other = next(n for n in designs if n != want)
    with pytest.raises(CheckError, match="cheapest pick"):
        check_cheapest(
            designs, reports, (designs[other], reports[other]), 0.9, None
        )
    with pytest.raises(CheckError, match="cheapest pick"):
        check_cheapest(designs, reports, None, 0.9, None)


def test_report_comparison_sees_one_latency_change(fleet):
    _, reports, _ = fleet
    report = reports["tiered-shed"]
    assert same_report(report, report)
    o = next(o for o in report.outcomes if o.report is not None)
    latencies = o.report.latencies_s.copy()
    latencies[0] += 1e-9
    changed = replace(o, report=replace(o.report, latencies_s=latencies))
    outcomes = tuple(changed if x is o else x for x in report.outcomes)
    assert not same_report(report, replace(report, outcomes=outcomes))
