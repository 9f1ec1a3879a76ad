"""Answer checks computed apart from the program.

Planning answers are checked against a plain-Python scan of the
evaluated grid's columns and against Eq. 1 recomputed from the paper's
own price table (Table 3, on-demand, per-second billing).  Fleet
answers are checked against conservation properties of every
candidate's report and against a recomputed frontier and cheapest
pick.  Every check raises :class:`CheckError` with a message naming
what was wrong.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: The paper's Table 3 on-demand prices, $/hour (EC2 Oregon, 2020).
PRICE_PER_HOUR = {
    "p2.xlarge": 0.90,
    "p2.8xlarge": 7.20,
    "p2.16xlarge": 14.40,
    "g3.4xlarge": 1.14,
    "g3.8xlarge": 2.28,
    "g3.16xlarge": 4.56,
}

_REL = 1e-9


class CheckError(AssertionError):
    """An answer the independent checks reject."""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL * max(abs(a), abs(b), 1e-12)


def label_rate(label: str) -> float:
    """Summed $/hour of a configuration label like
    ``2xp2.xlarge+1xg3.4xlarge``."""
    rate = 0.0
    for part in label.split("+"):
        count, _, name = part.partition("x")
        if name not in PRICE_PER_HOUR or not count.isdigit():
            raise CheckError(f"unparseable configuration label {label!r}")
        rate += int(count) * PRICE_PER_HOUR[name]
    return rate


def eq1_cost(time_s: float, label: str) -> float:
    """Eq. 1 with per-second billing: every instance billed for the
    whole makespan, rounded up to the second."""
    return math.ceil(time_s) * label_rate(label) / 3600.0


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
class Grid:
    """Plain-Python columns of one evaluated grid.

    ``points`` is a list of ``(spec, configuration, time_s, cost, top1,
    top5)`` tuples in the grid's own order.
    """

    def __init__(self, points: list[tuple]) -> None:
        self.points = points
        self._index = {(p[0], p[1]): p for p in points}

    @classmethod
    def from_space(cls, space) -> "Grid":
        """Copy the columns of an evaluated space into Python lists."""
        n_conf = space.n_configurations
        specs = [
            space.results[i * n_conf].spec.label()
            for i in range(space.n_specs)
        ]
        confs = [
            space.results[j].configuration.label() for j in range(n_conf)
        ]
        columns = zip(
            space.time_s.tolist(),
            space.cost.tolist(),
            space.top1.tolist(),
            space.top5.tolist(),
        )
        return cls(
            [
                (specs[i // n_conf], confs[i % n_conf], t, c, a1, a5)
                for i, (t, c, a1, a5) in enumerate(columns)
            ]
        )

    def __len__(self) -> int:
        return len(self.points)

    def lookup(self, spec: str, configuration: str) -> tuple:
        try:
            return self._index[(spec, configuration)]
        except KeyError:
            raise CheckError(
                f"answered point {spec} on {configuration} is not in "
                "the grid"
            ) from None

    def feasible(self, request: dict) -> list[tuple]:
        """Points meeting the request's accuracy, deadline and budget."""
        col = 4 if request.get("metric", "top5") == "top1" else 5
        target = float(request["target"])
        deadline_h = request.get("deadline_h")
        deadline_s = None if deadline_h is None else deadline_h * 3600.0
        budget = request.get("budget")
        out = []
        for p in self.points:
            if p[col] < target:
                continue
            if deadline_s is not None and p[2] > deadline_s:
                continue
            if budget is not None and p[3] > budget:
                continue
            out.append(p)
        return out


def _frontier(points: list[tuple]) -> list[tuple[float, float]]:
    """(time, cost) pairs no other point matches or beats on both."""
    out = []
    best_cost = math.inf
    for p in sorted(points, key=lambda p: (p[2], p[3])):
        if p[3] < best_cost:
            out.append((p[2], p[3]))
            best_cost = p[3]
    return out


def expected_kind(request: dict) -> str:
    """The answer kind a plan request asks for."""
    if request.get("deadline_h") is not None:
        return "min_budget"
    if request.get("budget") is not None:
        return "min_deadline"
    return "frontier"


def check_plan(request: dict, status: int, body: bytes, grid: Grid) -> str:
    """Check one ``/v1/plan`` answer; returns its kind (or
    ``infeasible``)."""
    payload = json.loads(body.decode("utf-8"))
    feasible = grid.feasible(request)
    if status == 422:
        code = payload.get("error", {}).get("code")
        if code != "infeasible":
            raise CheckError(f"422 with error code {code!r}")
        if feasible:
            raise CheckError(
                f"answered infeasible but {len(feasible)} grid points "
                "meet the request"
            )
        return "infeasible"
    if status != 200:
        raise CheckError(f"HTTP {status}: {payload}")
    kind = expected_kind(request)
    if payload.get("kind") != kind:
        raise CheckError(f"kind {payload.get('kind')!r}, expected {kind!r}")
    answered = payload.get("points") or []
    if not answered:
        raise CheckError("answer names no point")
    if not feasible:
        raise CheckError("answered a request no grid point meets")
    col = "top1" if request.get("metric", "top5") == "top1" else "top5"
    target = float(request["target"])
    deadline_h = request.get("deadline_h")
    budget = request.get("budget")
    for point in answered:
        row = grid.lookup(point["spec"], point["configuration"])
        values = (point["time_s"], point["cost"], point["top1"], point["top5"])
        if values != row[2:]:
            raise CheckError(
                f"answered values {point} differ from the grid row {row}"
            )
        if point[col] < target:
            raise CheckError(f"{col} {point[col]} below target {target}")
        if deadline_h is not None and point["time_s"] > deadline_h * 3600.0:
            raise CheckError(f"time {point['time_s']}s past the deadline")
        if budget is not None and point["cost"] > budget:
            raise CheckError(f"cost {point['cost']} over budget {budget}")
        expected = eq1_cost(point["time_s"], point["configuration"])
        if not _close(point["cost"], expected):
            raise CheckError(
                f"cost {point['cost']} != Eq. 1 {expected} for "
                f"{point['configuration']}"
            )
    if kind == "min_budget":
        best = min((p[3], p[2]) for p in feasible)
        got = (answered[0]["cost"], answered[0]["time_s"])
        if len(answered) != 1 or got != best:
            raise CheckError(f"min-budget answer {got}, scan finds {best}")
    elif kind == "min_deadline":
        best = min((p[2], p[3]) for p in feasible)
        got = (answered[0]["time_s"], answered[0]["cost"])
        if len(answered) != 1 or got != best:
            raise CheckError(f"min-deadline answer {got}, scan finds {best}")
    else:
        got = [(p["time_s"], p["cost"]) for p in answered]
        want = _frontier(feasible)
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            raise CheckError(
                f"frontier of {len(got)} points, scan finds {len(want)} "
                f"(missing {missing[:3]}, dominated or extra {extra[:3]})"
            )
    return kind


# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------
def spec_rate(spec) -> float:
    """A fleet's $/hour from the paper's prices and replica labels."""
    return sum(
        label_rate(r.configuration.label()) for r in spec.replicas
    )


def check_report(name: str, report) -> None:
    """Conservation and sign properties of one fleet report."""
    served = sum(o.served for o in report.outcomes)
    dropped = report.shed + sum(o.dropped for o in report.outcomes)
    if report.offered != served + dropped:
        raise CheckError(
            f"{name}: offered {report.offered} != served {served} + "
            f"dropped {dropped}"
        )
    if dropped < report.shed:
        raise CheckError(f"{name}: dropped {dropped} < shed {report.shed}")
    assigned = sum(o.assigned for o in report.outcomes)
    if assigned != report.offered - report.shed:
        raise CheckError(
            f"{name}: assigned {assigned} != admitted "
            f"{report.offered - report.shed}"
        )
    for o in report.outcomes:
        if not 0 <= o.at_floor <= o.assigned:
            raise CheckError(
                f"{name}/{o.spec.name}: at-floor {o.at_floor} outside "
                f"[0, assigned {o.assigned}]"
            )
        if not o.cost >= 0:
            raise CheckError(f"{name}/{o.spec.name}: cost {o.cost}")
        if o.report is not None and o.report.latencies_s.size:
            if not float(o.report.latencies_s.min()) > 0:
                raise CheckError(
                    f"{name}/{o.spec.name}: a latency is not positive"
                )


def check_frontier(candidates: dict, reports: dict, frontier) -> None:
    """``frontier`` (``(spec, report)`` pairs) must be exactly the
    candidates no other candidate beats on cost/hour and
    goodput-at-accuracy, sorted by cost/hour."""
    axes = {}
    for name, spec in candidates.items():
        report = reports[name]
        credited = sum(
            o.served * (o.at_floor / o.assigned)
            for o in report.outcomes
            if o.assigned
        )
        axes[name] = (spec_rate(spec), credited / report.duration_s)

    def beaten(name: str) -> bool:
        rate, good = axes[name]
        return any(
            (r <= rate and g > good) or (r < rate and g >= good)
            for other, (r, g) in axes.items()
            if other != name
        )

    by_spec = {id(spec): name for name, spec in candidates.items()}
    got = [by_spec.get(id(spec)) for spec, _ in frontier]
    if None in got:
        raise CheckError("frontier names a fleet that is not a candidate")
    want = sorted(
        (name for name in candidates if not beaten(name)),
        key=lambda n: (axes[n][0], -axes[n][1]),
    )
    if sorted(got) != sorted(want):
        raise CheckError(f"frontier {got}, recomputed {want}")
    rates = [axes[n][0] for n in got]
    if rates != sorted(rates):
        raise CheckError(f"frontier {got} not sorted by cost/hour")


def cheapest_name(
    candidates: dict, reports: dict, availability: float, p99_s
):
    """The first cheapest candidate meeting the constraints, or None."""
    best = None
    for name in candidates:
        report = reports[name]
        served = sum(o.served for o in report.outcomes)
        if served / report.offered < availability:
            continue
        if p99_s is not None:
            latencies = report.latencies_s
            if latencies.size == 0:
                continue
            if float(np.percentile(latencies, 99)) > p99_s:
                continue
        cost = sum(o.cost for o in report.outcomes)
        if best is None or cost < best[1]:
            best = (name, cost)
    return None if best is None else best[0]


def check_cheapest(
    candidates: dict, reports: dict, answer, availability: float, p99_s
) -> None:
    """``answer`` is the ``(spec, report)`` pick, or ``None`` when the
    program answered infeasible."""
    want = cheapest_name(candidates, reports, availability, p99_s)
    got = None
    if answer is not None:
        got = {id(s): n for n, s in candidates.items()}.get(id(answer[0]))
        if got is None:
            raise CheckError("cheapest pick is not a candidate")
    if got != want:
        raise CheckError(f"cheapest pick {got}, recomputed {want}")


def same_report(a, b) -> bool:
    """Two fleet reports agree on every count, cost and latency."""
    if (a.offered, a.shed, a.duration_s) != (b.offered, b.shed, b.duration_s):
        return False
    if len(a.outcomes) != len(b.outcomes):
        return False
    for x, y in zip(a.outcomes, b.outcomes):
        if (x.assigned, x.at_floor, x.served, x.dropped, x.cost) != (
            y.assigned,
            y.at_floor,
            y.served,
            y.dropped,
            y.cost,
        ):
            return False
    return np.array_equal(a.latencies_s, b.latencies_s)
