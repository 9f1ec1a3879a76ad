"""The versioned request/response API surface (``repro.api``).

Covers the v1 contract: request validation with stable error codes,
lossless ``to_dict``/``from_dict`` round-trips, the wire codec's
field-path errors for malformed bodies, byte-identical parity between
``PlanResponse.render()`` and the historical ``repro plan`` CLI
output, and the source-tree grep gate that keeps callers off the
removed planner free functions.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import (
    API_SCHEMA,
    ERROR_STATUS,
    ApiError,
    FleetDesign,
    FleetReplica,
    FleetRequest,
    FleetResponse,
    FleetView,
    PlanRequest,
    PlanResponse,
    ReplicaView,
)
from repro.cli import main
from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    ReproError,
    UnknownArtefactError,
)
from repro.service import PlanningService

#: a small grid (two P2 types, 2 instances each) keeping API tests fast
SMALL = {"catalog": ("p2.16xlarge", "p2.8xlarge"), "instances_per_type": 2}


class TestApiError:
    def test_codes_map_to_canonical_statuses(self):
        assert ERROR_STATUS["invalid_request"] == 400
        assert ERROR_STATUS["unknown_model"] == 404
        assert ERROR_STATUS["not_found"] == 404
        assert ERROR_STATUS["infeasible"] == 422
        assert ERROR_STATUS["overloaded"] == 503
        assert ERROR_STATUS["internal"] == 500
        for code, status in ERROR_STATUS.items():
            assert ApiError(code, "x").http_status == status

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            ApiError("no_such_code", "x")

    def test_round_trip(self):
        err = ApiError("infeasible", "too poor", detail={"budget": 1})
        body = err.to_dict()
        assert body["schema"] == API_SCHEMA
        restored = ApiError.from_dict(json.loads(json.dumps(body)))
        assert restored.code == "infeasible"
        assert restored.http_status == 422
        assert str(restored) == "too poor"
        assert restored.detail == {"budget": 1}

    def test_from_exception_maps_the_hierarchy(self):
        assert ApiError.from_exception(InfeasibleError("x")).code == "infeasible"
        assert (
            ApiError.from_exception(
                UnknownArtefactError(["x"], ["a", "b"])
            ).code
            == "unknown_artefact"
        )
        assert (
            ApiError.from_exception(ConfigurationError("x")).code
            == "invalid_request"
        )
        assert (
            ApiError.from_exception(ReproError("x")).code == "invalid_request"
        )
        assert ApiError.from_exception(RuntimeError("x")).code == "internal"
        passthrough = ApiError("overloaded", "x")
        assert ApiError.from_exception(passthrough) is passthrough


class TestPlanRequest:
    def test_round_trips_losslessly(self):
        request = PlanRequest(
            target=78.0,
            deadline_h=6.0,
            budget=100.0,
            catalog=("p2.xlarge", "p2.8xlarge"),
        )
        body = json.loads(json.dumps(request.to_dict()))
        assert PlanRequest.from_dict(body) == request
        assert PlanRequest.from_dict(body).cache_key() == request.cache_key()

    def test_unknown_model_is_404(self):
        with pytest.raises(ApiError) as exc:
            PlanRequest(target=78.0, model="resnet")
        assert exc.value.code == "unknown_model"
        assert exc.value.http_status == 404

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target": 0.0},
            {"target": 120.0},
            {"target": True},
            {"target": 78.0, "metric": "top3"},
            {"target": 78.0, "deadline_h": -1.0},
            {"target": 78.0, "budget": 0.0},
            {"target": 78.0, "images": 0},
            {"target": 78.0, "instances_per_type": 0},
            {"target": 78.0, "catalog": ()},
        ],
    )
    def test_invalid_fields_are_400(self, kwargs):
        with pytest.raises(ApiError) as exc:
            PlanRequest(**kwargs)
        assert exc.value.code == "invalid_request"
        assert exc.value.http_status == 400

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ApiError) as exc:
            PlanRequest.from_dict({"target": 78.0, "deadline": 6.0})
        assert exc.value.code == "invalid_request"
        assert "deadline" in str(exc.value)

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ApiError, match="repro.api/v1"):
            PlanRequest.from_dict({"schema": "repro.api/v2", "target": 78.0})

    def test_from_dict_rejects_non_integer_counts(self):
        for field, value in (("images", 2.5), ("images", True),
                             ("instances_per_type", "2")):
            with pytest.raises(ApiError) as exc:
                PlanRequest.from_dict({"target": 78.0, field: value})
            assert exc.value.code == "invalid_request"

    def test_from_dict_requires_target(self):
        with pytest.raises(ApiError, match="target"):
            PlanRequest.from_dict({})


class TestPlan:
    def test_min_budget_answer(self):
        response = api.plan(
            PlanRequest(target=78.0, deadline_h=6.0, **SMALL)
        )
        assert response.kind == "min_budget"
        assert response.best.top5 >= 78.0
        assert response.best.time_h <= 6.0

    def test_response_round_trips_byte_identically(self):
        response = api.plan(
            PlanRequest(target=78.0, deadline_h=6.0, **SMALL)
        )
        wire = json.dumps(response.to_dict(), sort_keys=True)
        restored = PlanResponse.from_dict(json.loads(wire))
        assert json.dumps(restored.to_dict(), sort_keys=True) == wire
        assert restored.render() == response.render()

    def test_frontier_is_fastest_first(self):
        response = api.plan(PlanRequest(target=78.0, **SMALL))
        assert response.kind == "frontier"
        times = [p.time_s for p in response.points]
        assert times == sorted(times)

    def test_infeasible_is_422(self):
        with pytest.raises(ApiError) as exc:
            api.plan(PlanRequest(target=78.0, metric="top1", **SMALL))
        assert exc.value.code == "infeasible"
        assert exc.value.http_status == 422

    def test_budget_cap_on_deadline_query(self):
        with pytest.raises(ApiError) as exc:
            api.plan(
                PlanRequest(
                    target=78.0, deadline_h=6.0, budget=0.01, **SMALL
                )
            )
        assert exc.value.code == "infeasible"
        assert "budget $0.01" in str(exc.value)


class TestCliParity:
    """`repro plan` output must be byte-identical through the API."""

    CASES = [
        ["plan", "--target", "78", "--deadline", "6"],
        ["plan", "--target", "78", "--budget", "100"],
        ["plan", "--target", "80"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a[1:]))
    def test_render_matches_cli_stdout(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        namespace = _parse(argv)
        response = api.plan(
            PlanRequest(
                target=namespace.target,
                metric=namespace.metric,
                deadline_h=namespace.deadline,
                budget=namespace.budget,
                images=namespace.images,
                instances_per_type=namespace.instances_per_type,
            )
        )
        assert out == response.render() + "\n"

    def test_infeasible_goes_to_stderr_with_exit_1(self, capsys):
        rc = main(["plan", "--target", "80", "--metric", "top1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert (
            captured.err
            == "infeasible: no configuration reaches 80.0% top1\n"
        )

    def test_budget_capped_deadline_is_infeasible(self, capsys):
        rc = main(
            ["plan", "--target", "78", "--deadline", "6", "--budget", "40"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith(
            "infeasible: cheapest plan inside 6h costs $"
        )


def _parse(argv):
    from repro.cli import build_parser

    return build_parser().parse_args(argv)


class TestFleetRequest:
    def test_round_trips(self):
        request = FleetRequest(
            designs=(
                FleetDesign(
                    replicas=(
                        FleetReplica("p2.8xlarge"),
                        FleetReplica(
                            "p2.xlarge",
                            count=2,
                            spec=(("conv1", 0.3), ("conv2", 0.5)),
                        ),
                    ),
                    routing="tiered",
                ),
            ),
            rate_per_s=100.0,
            duration_s=30.0,
            floors=((0.0, 0.7), (75.0, 0.3)),
        )
        body = json.loads(json.dumps(request.to_dict()))
        assert FleetRequest.from_dict(body) == request

    def test_evaluate_and_cheapest(self):
        request = FleetRequest(
            designs=(
                FleetDesign(
                    replicas=(FleetReplica("p2.xlarge"),), name="solo"
                ),
            ),
            rate_per_s=20.0,
            duration_s=10.0,
        )
        evaluated = api.evaluate_fleets(request)
        assert evaluated.kind == "evaluate"
        (view,) = evaluated.views
        assert view.name == "solo"
        assert view.served > 0
        cheapest = api.cheapest_fleets(request)
        assert cheapest.chosen == "solo"

    def test_duplicate_design_names_rejected(self):
        request = FleetRequest(
            designs=(
                FleetDesign(replicas=(FleetReplica("p2.xlarge"),), name="a"),
                FleetDesign(replicas=(FleetReplica("p2.xlarge"),), name="a"),
            ),
            rate_per_s=20.0,
            duration_s=10.0,
        )
        with pytest.raises(ApiError) as exc:
            api.evaluate_fleets(request)
        assert exc.value.code == "invalid_request"

    def test_unmeetable_constraints_are_infeasible(self):
        request = FleetRequest(
            designs=(
                FleetDesign(
                    replicas=(FleetReplica("p2.xlarge"),), name="solo"
                ),
            ),
            rate_per_s=20.0,
            duration_s=10.0,
            p99_s=1e-9,
        )
        with pytest.raises(ApiError) as exc:
            api.cheapest_fleets(request)
        assert exc.value.code == "infeasible"


#: valid bodies the wrong-type cases and the fuzz start from
PLAN_BODY = {"target": 78.0, "catalog": ["p2.xlarge"], "instances_per_type": 1}
FLEET_BODY = {
    "designs": [{"replicas": [{"instance_type": "p2.xlarge"}]}],
    "rate_per_s": 10.0,
    "duration_s": 5.0,
    "floors": [[0.0, 1.0]],
}
_ROUTES = {"plan": "/v1/plan", "fleet": "/v1/fleet/evaluate"}
_DESIGN = ("designs", 0)
_REPLICA = ("designs", 0, "replicas", 0)

#: (body, key path to the field, wrong-typed value, path the error names)
WRONG_TYPES = [
    ("plan", ("target",), "78", "target"),
    ("plan", ("target",), True, "target"),
    ("plan", ("model",), 5, "model"),
    ("plan", ("metric",), ["top5"], "metric"),
    ("plan", ("deadline_h",), "6", "deadline_h"),
    ("plan", ("deadline_h",), True, "deadline_h"),
    ("plan", ("budget",), "100", "budget"),
    ("plan", ("budget",), False, "budget"),
    ("plan", ("images",), "1000", "images"),
    ("plan", ("images",), True, "images"),
    ("plan", ("images",), 2.5, "images"),
    ("plan", ("instances_per_type",), "2", "instances_per_type"),
    ("plan", ("instances_per_type",), 1.0, "instances_per_type"),
    ("plan", ("catalog",), "p2.xlarge", "catalog"),
    ("plan", ("catalog",), {"p2.xlarge": 1}, "catalog"),
    ("plan", ("catalog", 0), 5, "catalog[0]"),
    ("fleet", ("designs",), {"replicas": []}, "designs"),
    ("fleet", ("designs",), 5, "designs"),
    ("fleet", ("designs", 0), "solo", "designs[0]"),
    ("fleet", ("rate_per_s",), "10", "rate_per_s"),
    ("fleet", ("rate_per_s",), True, "rate_per_s"),
    ("fleet", ("duration_s",), "5", "duration_s"),
    ("fleet", ("duration_s",), False, "duration_s"),
    ("fleet", ("model",), 5, "model"),
    ("fleet", ("arrival",), 5, "arrival"),
    ("fleet", ("seed",), "0", "seed"),
    ("fleet", ("seed",), True, "seed"),
    ("fleet", ("seed",), 0.5, "seed"),
    ("fleet", ("floors",), 3, "floors"),
    ("fleet", ("floors",), {"0": 1.0}, "floors"),
    ("fleet", ("floors",), [[0.0, "x"]], "floors[0][1]"),
    ("fleet", ("floors",), [[0.0, 1.0, 2.0]], "floors[0]"),
    ("fleet", ("floors",), [1.0], "floors[0]"),
    ("fleet", ("availability",), "0.9", "availability"),
    ("fleet", ("availability",), True, "availability"),
    ("fleet", ("p99_s",), "1", "p99_s"),
    ("fleet", ("p99_s",), True, "p99_s"),
    ("fleet", _DESIGN + ("replicas",), 5, "designs[0].replicas"),
    ("fleet", _DESIGN + ("replicas",), {"instance_type": "p2.xlarge"},
     "designs[0].replicas"),
    ("fleet", _DESIGN + ("name",), 5, "designs[0].name"),
    ("fleet", _DESIGN + ("routing",), 5, "designs[0].routing"),
    ("fleet", _DESIGN + ("admission_rate_per_s",), "x",
     "designs[0].admission_rate_per_s"),
    ("fleet", _DESIGN + ("admission_rate_per_s",), True,
     "designs[0].admission_rate_per_s"),
    ("fleet", _DESIGN + ("admission_burst",), "x",
     "designs[0].admission_burst"),
    ("fleet", _DESIGN + ("admission_burst",), 2.5,
     "designs[0].admission_burst"),
    ("fleet", _DESIGN + ("queue_limit",), "x", "designs[0].queue_limit"),
    ("fleet", _DESIGN + ("queue_limit",), True, "designs[0].queue_limit"),
    ("fleet", _DESIGN + ("max_batch",), "x", "designs[0].max_batch"),
    ("fleet", _DESIGN + ("max_batch",), True, "designs[0].max_batch"),
    ("fleet", _DESIGN + ("max_batch",), 2.5, "designs[0].max_batch"),
    ("fleet", _DESIGN + ("max_wait_s",), "x", "designs[0].max_wait_s"),
    ("fleet", _DESIGN + ("max_wait_s",), True, "designs[0].max_wait_s"),
    ("fleet", _REPLICA, 5, "designs[0].replicas[0]"),
    ("fleet", _REPLICA + ("instance_type",), 5,
     "designs[0].replicas[0].instance_type"),
    ("fleet", _REPLICA + ("count",), "2", "designs[0].replicas[0].count"),
    ("fleet", _REPLICA + ("count",), True, "designs[0].replicas[0].count"),
    ("fleet", _REPLICA + ("count",), 1.5, "designs[0].replicas[0].count"),
    ("fleet", _REPLICA + ("spec",), [1], "designs[0].replicas[0].spec"),
    ("fleet", _REPLICA + ("spec",), "conv1", "designs[0].replicas[0].spec"),
    ("fleet", _REPLICA + ("spec",), {"conv1": "x"},
     "designs[0].replicas[0].spec.conv1"),
    ("fleet", _REPLICA + ("spec",), {"conv1": True},
     "designs[0].replicas[0].spec.conv1"),
    ("fleet", _REPLICA + ("name",), 5, "designs[0].replicas[0].name"),
    ("fleet", _REPLICA + ("weight",), "x", "designs[0].replicas[0].weight"),
    ("fleet", _REPLICA + ("weight",), True, "designs[0].replicas[0].weight"),
]


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=8), inner, max_size=3
    )


#: any JSON value, including NaN, infinities and huge integers
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    _json_containers,
    max_leaves=6,
)


def _with(body: dict, keys: tuple, value) -> dict:
    """A deep copy of ``body`` with the field at ``keys`` set."""
    body = copy.deepcopy(body)
    target = body
    for key in keys[:-1]:
        target = (
            target.setdefault(key, {})
            if isinstance(target, dict)
            else target[key]
        )
    target[keys[-1]] = value
    return body


def _post(service, kind: str, body) -> tuple[int, dict]:
    status, _, payload = service.dispatch(
        "POST", _ROUTES[kind], json.dumps(body).encode("utf-8")
    )
    return status, json.loads(payload)


class TestWireCodec:
    @pytest.mark.parametrize(
        "kind, keys, value, path",
        WRONG_TYPES,
        ids=[f"{c[3]}={c[2]!r}" for c in WRONG_TYPES],
    )
    def test_wrong_typed_field_is_400_naming_it(self, kind, keys, value, path):
        base = PLAN_BODY if kind == "plan" else FLEET_BODY
        status, payload = _post(
            PlanningService(), kind, _with(base, keys, value)
        )
        assert status == 400, payload
        assert payload["error"]["code"] == "invalid_request"
        message = payload["error"]["message"]
        assert message.startswith(f"{path} must be "), message

    def test_every_request_field_has_a_wrong_type_case(self):
        covered = {
            PlanRequest: {k[-1] for c, k, _, _ in WRONG_TYPES if c == "plan"},
            FleetRequest: {k[0] for c, k, _, _ in WRONG_TYPES if c == "fleet"},
            FleetDesign: {
                k[2] for c, k, _, _ in WRONG_TYPES if k[:2] == _DESIGN
                and len(k) == 3
            },
            FleetReplica: {
                k[4] for c, k, _, _ in WRONG_TYPES if k[:4] == _REPLICA
                and len(k) == 5
            },
        }
        for cls, names in covered.items():
            assert {f.name for f in dataclasses.fields(cls)} <= names, cls

    @pytest.mark.parametrize(
        "kind, keys, missing",
        [
            ("plan", (), "target"),
            ("fleet", (), "rate_per_s"),
            ("fleet", _DESIGN, "replicas"),
            ("fleet", _REPLICA, "instance_type"),
        ],
    )
    def test_missing_required_field_is_400(self, kind, keys, missing):
        body = copy.deepcopy(PLAN_BODY if kind == "plan" else FLEET_BODY)
        target = body
        for key in keys:
            target = target[key]
        target.pop(missing)
        status, payload = _post(PlanningService(), kind, body)
        assert status == 400
        assert repr(missing) in payload["error"]["message"]

    def test_non_finite_numbers_are_400(self):
        for value in (math.nan, math.inf, -math.inf):
            body = _with(FLEET_BODY, ("rate_per_s",), value)
            status, payload = _post(PlanningService(), "fleet", body)
            assert status == 400
            assert "rate_per_s" in payload["error"]["message"]

    def test_nested_unknown_key_rejected_with_its_path(self):
        with pytest.raises(ApiError, match=r"designs\[0\] has unknown"):
            FleetRequest.from_dict(
                _with(FLEET_BODY, _DESIGN + ("replica",), [])
            )

    def test_responses_ignore_unknown_keys_and_nan_travels_as_null(self):
        view = FleetView(
            name="solo", offered=3, shed=0, served=0, dropped=3,
            availability=0.0, goodput=0.0, cost=1.0, hourly_rate=0.9,
            p50_s=math.nan, p99_s=math.inf,
            replicas=(
                ReplicaView("r1", 0, 3, 1.0, math.nan, 80.0),
            ),
        )
        response = FleetResponse("evaluate", (view,), reports=("rich",))
        body = json.loads(json.dumps(response.to_dict()))
        assert "reports" not in body and "chosen" not in body
        assert body["views"][0]["p50_s"] is None
        assert body["views"][0]["p99_s"] is None
        body["added_later"] = 1
        body["views"][0]["replicas"][0]["added_later"] = 1
        restored = FleetResponse.from_dict(body)
        assert math.isnan(restored.views[0].p99_s)
        assert math.isnan(restored.views[0].replicas[0].p99_s)
        assert restored.views[0].served == 0

    def test_unset_optionals_are_omitted_except_the_null_sent_ones(self):
        body = PlanRequest(target=78.0).to_dict()
        assert body["deadline_h"] is None and body["budget"] is None
        assert "catalog" not in body
        fleet = FleetRequest.from_dict(FLEET_BODY).to_dict()
        assert fleet["p99_s"] is None
        assert "name" not in fleet["designs"][0]
        assert "queue_limit" not in fleet["designs"][0]
        assert "weight" not in fleet["designs"][0]["replicas"][0]
        assert fleet["designs"][0]["replicas"][0]["spec"] == {}

    @given(
        case=st.sampled_from(
            [(c, k) for c, k, _, _ in WRONG_TYPES]
            + [("fleet", _REPLICA + ("spec", "conv1")),
               ("fleet", ("floors", 0))]
        ),
        value=JSON_VALUES,
    )
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_field_values_never_answer_500(self, case, value):
        """Decoding and validation only: the handlers echo the request
        back, so accepted values never start an evaluation."""
        def echo(request):
            return request

        with mock.patch.multiple(
            "repro.service.server",
            plan=echo,
            evaluate_fleets=echo,
            cheapest_fleets=echo,
        ):
            service = PlanningService()
        kind, keys = case
        base = PLAN_BODY if kind == "plan" else FLEET_BODY
        status, payload = _post(service, kind, _with(base, keys, value))
        assert status in (200, 400, 404), payload
        if status == 200:
            request_cls = PlanRequest if kind == "plan" else FleetRequest
            assert request_cls.from_dict(payload).to_dict() == payload


class TestGoodputAccuracyFrontier:
    @staticmethod
    def _spec(routing, replicas, admission=None):
        from repro.calibration import (
            caffenet_accuracy_model,
            caffenet_time_model,
        )
        from repro.serving import FleetSpec

        return FleetSpec(
            caffenet_time_model(),
            caffenet_accuracy_model(),
            replicas,
            routing=routing,
            admission=admission,
        )

    @staticmethod
    def _replica(name, spec=None):
        from repro.cloud.catalog import instance_type
        from repro.cloud.configuration import ResourceConfiguration
        from repro.cloud.instance import CloudInstance
        from repro.pruning.base import PruneSpec
        from repro.serving import BatchPolicy, ReplicaSpec

        return ReplicaSpec(
            name,
            ResourceConfiguration(
                [CloudInstance(instance_type("p2.xlarge"))]
            ),
            spec if spec is not None else PruneSpec.unpruned(),
            BatchPolicy(max_batch=32, max_wait_s=0.05),
        )

    def test_empty_candidates_rejected(self):
        from repro.serving import FleetWorkload

        with pytest.raises(ApiError) as exc:
            api.goodput_accuracy_frontier(
                (), FleetWorkload(10.0, 5.0)
            )
        assert exc.value.code == "invalid_request"

    def test_dominated_candidate_falls_off_the_frontier(self):
        from repro.pruning.base import PruneSpec
        from repro.serving import AdmissionPolicy, FleetWorkload

        sweet = PruneSpec({"conv1": 0.3, "conv2": 0.5})
        fleet = (
            self._replica("gold"),
            self._replica("cheap", sweet),
        )
        # sustained overload of the floored tier: static sheds at the
        # queue limit, adaptive degrades and keeps serving
        workload = FleetWorkload(
            70.0,
            20.0,
            seed=3,
            floors=((0.0, 0.5), (75.0, 0.5)),
            deadlines=((0.4, 0.5), (1.2, 0.5)),
        )
        static = self._spec(
            "tiered", fleet, AdmissionPolicy(queue_limit=40.0)
        )
        adaptive = self._spec(
            "adaptive",
            fleet,
            AdmissionPolicy(queue_limit=40.0, degrade_limit=20.0),
        )
        frontier = api.goodput_accuracy_frontier(
            (static, adaptive), workload
        )
        specs = [spec for spec, _ in frontier]
        # equal hourly rate: only the higher goodput@accuracy survives
        assert len(specs) == 1
        pairs = [
            (s, api.fleet_report(s, workload))
            for s in (static, adaptive)
        ]
        best, _ = max(
            pairs, key=lambda p: p[1].goodput_at_accuracy
        )
        assert specs[0] is best
        assert best is adaptive

    def test_sorted_by_cost_and_single_candidate_survives(self):
        from repro.serving import FleetWorkload

        workload = FleetWorkload(20.0, 10.0, seed=1)
        small = self._spec("jsq", (self._replica("solo"),))
        big = self._spec(
            "jsq",
            (self._replica("a"), self._replica("b")),
        )
        frontier = api.goodput_accuracy_frontier(
            (big, small), workload
        )
        rates = [spec.hourly_rate for spec, _ in frontier]
        assert rates == sorted(rates)
        only = api.goodput_accuracy_frontier((small,), workload)
        assert only[0][0] is small


class TestDeprecatedShims:
    """The planner's deprecated free functions are gone; the API path
    they pointed to raises no deprecation warning."""

    def test_api_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.plan(PlanRequest(target=78.0, deadline_h=24.0, **SMALL))


class TestGrepGate:
    """No non-shim src module imports the deprecated free functions.

    Mirrors the CI gate so the contract is enforced locally too;
    ``repro.core.planner`` itself (definitions + shims) is the only
    file allowed to name them.
    """

    PATTERNS = [
        re.compile(
            r"from repro\.core\.planner import [^\n]*"
            r"\b(min_budget_for|min_deadline_for"
            r"|iso_accuracy_frontier|cheapest_fleet)\b"
        ),
        re.compile(
            r"\b(min_budget_for|min_deadline_for"
            r"|iso_accuracy_frontier|cheapest_fleet)\("
        ),
    ]
    ALLOWED = {"src/repro/core/planner.py"}

    def test_src_tree_is_clean(self):
        root = Path(__file__).resolve().parent.parent
        bad = []
        for path in sorted((root / "src").rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            if relative in self.ALLOWED:
                continue
            for i, line in enumerate(path.read_text().splitlines(), 1):
                if any(p.search(line) for p in self.PATTERNS):
                    bad.append(f"{relative}:{i}: {line.strip()}")
        assert not bad, (
            "deprecated planner free functions used outside the shim "
            f"module:\n" + "\n".join(bad)
        )
