"""Frozen, schema-versioned request/response types of the public API.

Every way into the planner — the ``python -m repro plan`` CLI, the
:mod:`repro.service` HTTP control plane, library callers, the load
generator — speaks these types.  They are deliberately boring:

* **requests** (:class:`PlanRequest`, :class:`FleetRequest` and its
  parts) are frozen dataclasses that validate on construction and
  round-trip losslessly through ``to_dict``/``from_dict``, so a JSON
  body over HTTP and a keyword call in a notebook build the *same*
  object and therefore hit the same content-keyed caches;
* **responses** (:class:`PlanResponse`, :class:`FleetResponse`) carry
  plain-data views plus, for library callers, the rich simulation
  objects they were built from; ``PlanResponse.render()`` reproduces
  the historical CLI text byte-for-byte;
* **errors** (:class:`ApiError`) give every failure a stable machine
  code and a canonical HTTP status, mapped from the library exception
  hierarchy by :meth:`ApiError.from_exception`.

The schema string ``repro.api/v1`` stamps every serialised payload;
compatible extensions add optional fields, incompatible ones bump the
version.

One field-driven codec derives every wire type's ``to_dict`` and
``from_dict`` from its field annotations: requests are strict,
responses ignore unknown keys, and every type or shape error is an
``invalid_request`` naming the dotted field path (e.g.
``designs[0].max_batch``).  ``docs/service.md`` sets out the rules.
"""

from __future__ import annotations

import math
import re
import reprlib
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from types import NoneType, UnionType
from typing import TYPE_CHECKING, NamedTuple, get_args, get_type_hints

from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    PruningError,
    ReproError,
    UnknownArtefactError,
)

if TYPE_CHECKING:
    from repro.cloud.simulator import SimulationResult
    from repro.serving.fleet import FleetSpec, FleetWorkload
    from repro.serving.router import FleetReport

__all__ = [
    "API_SCHEMA",
    "ERROR_STATUS",
    "ApiError",
    "FleetDesign",
    "FleetReplica",
    "FleetRequest",
    "FleetResponse",
    "FleetView",
    "PlanPoint",
    "PlanRequest",
    "PlanResponse",
    "ReplicaView",
]

API_SCHEMA = "repro.api/v1"

#: stable error code -> canonical HTTP status.  Codes are part of the
#: v1 contract: clients may switch on them, so they never change
#: meaning; new failure modes get new codes.
ERROR_STATUS: dict[str, int] = {
    "invalid_request": 400,
    "unknown_model": 404,
    "unknown_artefact": 404,
    "not_found": 404,
    "infeasible": 422,
    "overloaded": 503,
    "internal": 500,
}

_KNOWN_MODELS = ("caffenet", "googlenet")
_KNOWN_METRICS = ("top1", "top5")


class ApiError(ReproError):
    """A failure with a stable machine code and HTTP status.

    ``code`` is one of the :data:`ERROR_STATUS` keys; ``http_status``
    defaults to the canonical status for the code.  The message is the
    human-readable reason, ``detail`` an optional structured payload.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        http_status: int | None = None,
        detail: object = None,
    ) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown ApiError code {code!r}")
        super().__init__(message)
        self.code = code
        self.http_status = (
            ERROR_STATUS[code] if http_status is None else http_status
        )
        self.detail = detail

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The serialised error body every transport returns."""
        error: dict = {"code": self.code, "message": str(self)}
        if self.detail is not None:
            error["detail"] = self.detail
        return {"schema": API_SCHEMA, "error": error}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ApiError":
        """Rebuild an error a server serialised (client side)."""
        error = payload.get("error")
        if not isinstance(error, Mapping) or "code" not in error:
            raise ValueError(f"not an {API_SCHEMA} error body: {payload!r}")
        code = error["code"]
        if code not in ERROR_STATUS:
            code = "internal"
        return cls(
            code,
            str(error.get("message", "")),
            detail=error.get("detail"),
        )

    @classmethod
    def from_exception(cls, exc: Exception) -> "ApiError":
        """Map a library exception onto the stable code space.

        ``ApiError`` passes through; the planner's
        :class:`~repro.errors.InfeasibleError` becomes ``infeasible``
        (422), :class:`~repro.errors.UnknownArtefactError` becomes
        ``unknown_artefact`` (404), other validation errors become
        ``invalid_request`` (400) and anything unexpected is
        ``internal`` (500).
        """
        if isinstance(exc, cls):
            return exc
        if isinstance(exc, InfeasibleError):
            return cls("infeasible", str(exc))
        if isinstance(exc, UnknownArtefactError):
            return cls("unknown_artefact", str(exc))
        if isinstance(exc, (ConfigurationError, PruningError, ReproError)):
            return cls("invalid_request", str(exc))
        return cls("internal", f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# the field-driven wire codec
# ----------------------------------------------------------------------
# Field shapes an annotation cannot express, declared on the field:

#: ``tuple[tuple[str, float], ...]`` travelling as ``{key: number}``
_AS_OBJECT = {"wire": "object"}
#: ``tuple[tuple[float, float], ...]`` travelling as ``[[a, b], ...]``
_AS_PAIRS = {"wire": "pairs"}
#: a float whose non-finite values travel as ``null`` (decoded as nan)
_NAN_AS_NULL = {"wire": "nan_null"}
#: an optional field sent as ``null`` when unset (others are omitted)
_NULL_SENT = {"wire": "null_sent"}
#: an in-process field that is never serialised
_NOT_SENT = {"wire": "not_sent"}


def _invalid(path: str, expected: str, value: object) -> ApiError:
    return ApiError(
        "invalid_request",
        f"{path} must be {expected}, got {reprlib.repr(value)}",
    )


def _decode_float(value: object, path: str) -> float:
    # NaN and Infinity are not JSON numbers, though json.loads takes them
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise _invalid(path, "a finite number", value)


def _expect(kinds, expected: str):
    def decode(value: object, path: str):
        if isinstance(value, kinds) and not isinstance(value, bool):
            return value
        raise _invalid(path, expected, value)

    return decode


_decode_int = _expect(int, "an integer")
_decode_str = _expect(str, "a string")
_decode_list = _expect((list, tuple), "a list")
_decode_mapping = _expect(Mapping, "a JSON object")


def _tuple_of(decode_item):
    def decode(value: object, path: str) -> tuple:
        return tuple(
            decode_item(item, f"{path}[{i}]")
            for i, item in enumerate(_decode_list(value, path))
        )

    return decode


def _decode_numbers_by_key(value: object, path: str) -> tuple:
    return tuple(
        (key, _decode_float(number, f"{path}.{key}"))
        for key, number in _decode_mapping(value, path).items()
    )


def _decode_pair(value: object, path: str) -> tuple[float, float]:
    pair = _tuple_of(_decode_float)(value, path)
    if len(pair) != 2:
        raise _invalid(path, "a [floor, fraction] pair", value)
    return pair


def _decode_nan_null(value: object, path: str) -> float:
    return math.nan if value is None else _decode_float(value, path)


_SCALARS = {float: _decode_float, int: _decode_int, str: _decode_str}

#: metadata shape -> (encode, decode); ``None`` encodes a value as is
_SHAPES = {
    "object": (dict, _decode_numbers_by_key),
    "pairs": (lambda ps: [list(p) for p in ps], _tuple_of(_decode_pair)),
    "nan_null": (
        lambda value: float(value) if math.isfinite(value) else None,
        _decode_nan_null,
    ),
}


class _Plan(NamedTuple):
    """Everything the codec needs about one wire type, built once."""

    cls: type
    what: str
    strict: bool
    stamped: bool
    allowed: frozenset
    #: (name, encode or None, send null when unset) per field
    encoders: tuple
    #: (name, decode, required) per field
    decoders: tuple


_PLANS: dict[type, _Plan] = {}


def _codec(hint) -> tuple:
    """(encode, decode) for one annotation."""
    if isinstance(hint, UnionType):  # X | None
        (inner,) = (a for a in get_args(hint) if a is not NoneType)
        encode, decode = _codec(inner)
        return encode, lambda v, path: None if v is None else decode(v, path)
    if getattr(hint, "__origin__", None) is tuple:  # tuple[X, ...]
        encode, decode = _codec(get_args(hint)[0])
        if encode is None:
            return list, _tuple_of(decode)
        return (lambda items: [encode(i) for i in items]), _tuple_of(decode)
    if is_dataclass(hint):
        plan = _PLANS[hint]
        return partial(_encode, plan), partial(_decode, plan)
    return None, _SCALARS[hint]


def _encode(plan: _Plan, obj) -> dict:
    out: dict = {"schema": API_SCHEMA} if plan.stamped else {}
    for name, encode, send_null in plan.encoders:
        value = getattr(obj, name)
        if value is None:
            if send_null:
                out[name] = None
        else:
            out[name] = value if encode is None else encode(value)
    return out


def _decode(plan: _Plan, payload: object, path: str = ""):
    where = path or plan.what
    payload = _decode_mapping(payload, where)
    if plan.stamped:
        schema = payload.get("schema")
        if schema is not None and schema != API_SCHEMA:
            raise ApiError(
                "invalid_request",
                f"{where} carries schema {schema!r}; this server speaks "
                f"{API_SCHEMA}",
            )
    if plan.strict:
        unknown = payload.keys() - plan.allowed
        if unknown:
            raise ApiError(
                "invalid_request",
                f"{where} has unknown fields {sorted(unknown, key=str)}; "
                f"allowed: {sorted(n for n, _, _ in plan.decoders)}",
            )
    kwargs = {}
    for name, decode, required in plan.decoders:
        if name in payload:
            kwargs[name] = decode(
                payload[name], f"{path}.{name}" if path else name
            )
        elif required:
            raise ApiError(
                "invalid_request",
                f"{where} lacks the required field {name!r}",
            )
    return plan.cls(**kwargs)


def _wire(*, strict: bool, stamped: bool = False):
    """Class decorator installing the codec's ``to_dict``/``from_dict``.

    ``strict`` types (requests and their parts) reject unknown keys
    other than ``schema``; ``stamped`` types (top-level bodies) carry
    and check ``schema``.
    """

    def install(cls):
        hints = get_type_hints(cls)
        encoders, decoders = [], []
        for f in fields(cls):
            shape = f.metadata.get("wire")
            if shape == "not_sent":
                continue
            encode, decode = _SHAPES.get(shape) or _codec(hints[f.name])
            encoders.append((f.name, encode, shape == "null_sent"))
            required = f.default is MISSING and f.default_factory is MISSING
            decoders.append((f.name, decode, required))
        plan = _Plan(
            cls=cls,
            what=re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower(),
            strict=strict,
            stamped=stamped,
            allowed=frozenset(["schema", *(n for n, _, _ in decoders)]),
            encoders=tuple(encoders),
            decoders=tuple(decoders),
        )
        _PLANS[cls] = plan

        def to_dict(self) -> dict:
            """The JSON form of this object."""
            return _encode(plan, self)

        def from_dict(cls, payload: object):
            """Validate and build from a decoded JSON object."""
            return _decode(plan, payload)

        cls.to_dict = to_dict
        cls.from_dict = classmethod(from_dict)
        return cls

    return install


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
@_wire(strict=True, stamped=True)
@dataclass(frozen=True)
class PlanRequest:
    """One inverse planning query over the evaluation grid.

    ``deadline_h`` set — cheapest budget inside the deadline (and, if
    ``budget`` is also set, a feasibility check against it);
    ``budget`` alone — fastest deadline on the budget; neither — the
    full iso-accuracy (time, cost) frontier.  ``catalog`` optionally
    restricts the grid to a subset of instance-type names (default:
    the full EC2 catalog).
    """

    target: float
    model: str = "caffenet"
    metric: str = "top5"
    deadline_h: float | None = field(default=None, metadata=_NULL_SENT)
    budget: float | None = field(default=None, metadata=_NULL_SENT)
    images: int = 20_000_000
    instances_per_type: int = 2
    catalog: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.model not in _KNOWN_MODELS:
            raise ApiError(
                "unknown_model",
                f"unknown model {self.model!r}; "
                f"available: {list(_KNOWN_MODELS)}",
            )
        if self.metric not in _KNOWN_METRICS:
            raise ApiError(
                "invalid_request",
                f"metric must be one of {list(_KNOWN_METRICS)}, "
                f"got {self.metric!r}",
            )
        if not isinstance(self.target, (int, float)) or isinstance(
            self.target, bool
        ):
            raise ApiError(
                "invalid_request",
                f"target must be a number, got {self.target!r}",
            )
        if not 0.0 < float(self.target) <= 100.0:
            raise ApiError(
                "invalid_request",
                f"target accuracy must be in (0, 100], got {self.target}",
            )
        for name in ("deadline_h", "budget"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ApiError(
                    "invalid_request",
                    f"{name} must be positive, got {value}",
                )
        if self.images < 1:
            raise ApiError(
                "invalid_request", f"images must be >= 1, got {self.images}"
            )
        if self.instances_per_type < 1:
            raise ApiError(
                "invalid_request",
                f"instances_per_type must be >= 1, "
                f"got {self.instances_per_type}",
            )
        if self.catalog is not None:
            object.__setattr__(
                self, "catalog", tuple(str(n) for n in self.catalog)
            )
            if not self.catalog:
                raise ApiError(
                    "invalid_request", "catalog must not be empty"
                )

    def cache_key(self) -> tuple:
        """Content identity (used by tests and memoising callers)."""
        return (
            self.model,
            float(self.target),
            self.metric,
            self.deadline_h,
            self.budget,
            self.images,
            self.instances_per_type,
            self.catalog,
        )


@_wire(strict=False)
@dataclass(frozen=True)
class PlanPoint:
    """One grid point a planning answer names (a plain-data view)."""

    spec: str
    configuration: str
    time_s: float
    cost: float
    top1: float
    top5: float

    @classmethod
    def from_result(cls, result: "SimulationResult") -> "PlanPoint":
        """Project a rich simulation record onto the wire view."""
        return cls(
            spec=result.spec.label(),
            configuration=result.configuration.label(),
            time_s=float(result.time_s),
            cost=float(result.cost),
            top1=float(result.accuracy.top1),
            top5=float(result.accuracy.top5),
        )

    @property
    def time_h(self) -> float:
        """Completion time in hours."""
        return self.time_s / 3600.0


@_wire(strict=False, stamped=True)
@dataclass(frozen=True)
class PlanResponse:
    """The answer to one :class:`PlanRequest`.

    ``kind`` is ``min_budget`` / ``min_deadline`` / ``frontier``;
    ``points`` holds one point for the scalar queries and the full
    fastest-first curve for the frontier.  ``render()`` reproduces the
    historical ``repro plan`` output byte-for-byte.
    """

    kind: str
    request: PlanRequest
    points: tuple[PlanPoint, ...]

    @property
    def best(self) -> PlanPoint:
        """The headline point (the only one for scalar queries)."""
        return self.points[0]

    # ------------------------------------------------------------------
    def _show(self, p: PlanPoint) -> list[str]:
        return [
            f"degree of pruning : {p.spec}",
            f"configuration     : {p.configuration}",
            f"time              : {p.time_h:.2f} h",
            f"cost              : ${p.cost:.2f}",
            f"accuracy          : top1 {p.top1:.1f}% / "
            f"top5 {p.top5:.1f}%",
        ]

    def render(self) -> str:
        """The CLI text of this answer (no trailing newline)."""
        r = self.request
        if self.kind == "min_budget":
            lines = [
                f"minimum budget for {r.target:g}% {r.metric} "
                f"within {r.deadline_h:g}h:"
            ]
            lines.extend(self._show(self.best))
        elif self.kind == "min_deadline":
            lines = [
                f"minimum deadline for {r.target:g}% {r.metric} "
                f"within ${r.budget:.2f}:"
            ]
            lines.extend(self._show(self.best))
        else:
            lines = [
                f"iso-accuracy frontier at {r.target:g}% {r.metric} "
                f"({len(self.points)} points, fastest first):"
            ]
            lines.extend(
                f"  {p.time_h:7.2f} h  ${p.cost:8.2f}  "
                f"{p.spec}  on  {p.configuration}"
                for p in self.points
            )
        return "\n".join(lines)

# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------
@_wire(strict=True)
@dataclass(frozen=True)
class FleetReplica:
    """One replica of a declarative fleet design (JSON-able).

    ``spec`` holds the degree of pruning as ``layer -> ratio``
    (canonicalised to a sorted tuple so the dataclass hashes).
    """

    instance_type: str
    count: int = 1
    spec: tuple[tuple[str, float], ...] = field(
        default=(), metadata=_AS_OBJECT
    )
    name: str | None = None
    weight: float | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ApiError(
                "invalid_request",
                f"replica count must be >= 1, got {self.count}",
            )
        spec = (
            self.spec.items() if isinstance(self.spec, Mapping) else self.spec
        )
        object.__setattr__(
            self, "spec", tuple(sorted((str(k), float(v)) for k, v in spec))
        )


@_wire(strict=True)
@dataclass(frozen=True)
class FleetDesign:
    """A whole candidate fleet: replicas + routing + admission.

    The JSON-able counterpart of
    :class:`repro.serving.fleet.FleetSpec`; the handler layer binds it
    to a model pair to build the spec it evaluates.
    """

    replicas: tuple[FleetReplica, ...]
    name: str | None = None
    routing: str = "round-robin"
    admission_rate_per_s: float | None = None
    admission_burst: int = 32
    queue_limit: float | None = None
    max_batch: int = 32
    max_wait_s: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicas", tuple(self.replicas))
        if not self.replicas:
            raise ApiError(
                "invalid_request", "fleet design needs >= 1 replica"
            )

    def label(self, index: int) -> str:
        """This design's display name (``fleet-<n>`` when unnamed)."""
        return self.name if self.name is not None else f"fleet-{index + 1}"


@_wire(strict=True, stamped=True)
@dataclass(frozen=True)
class FleetRequest:
    """Evaluate (or pick the cheapest of) candidate fleet designs.

    ``workload`` uses the same fields as
    :class:`repro.serving.fleet.FleetWorkload`; ``availability`` and
    ``p99_s`` are the feasibility constraints of the *cheapest* query
    and are ignored by plain evaluation.
    """

    designs: tuple[FleetDesign, ...]
    rate_per_s: float
    duration_s: float
    model: str = "caffenet"
    arrival: str = "poisson"
    seed: int = 0
    floors: tuple[tuple[float, float], ...] = field(
        default=(), metadata=_AS_PAIRS
    )
    availability: float = 0.999
    p99_s: float | None = field(default=None, metadata=_NULL_SENT)

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(
            self,
            "floors",
            tuple((float(f), float(w)) for f, w in self.floors),
        )
        if self.model not in _KNOWN_MODELS:
            raise ApiError(
                "unknown_model",
                f"unknown model {self.model!r}; "
                f"available: {list(_KNOWN_MODELS)}",
            )
        if not self.designs:
            raise ApiError(
                "invalid_request", "fleet request needs >= 1 design"
            )
        if self.rate_per_s <= 0 or self.duration_s <= 0:
            raise ApiError(
                "invalid_request",
                "workload rate and duration must be positive",
            )
        if self.seed < 0:
            raise ApiError(
                "invalid_request", f"seed must be >= 0, got {self.seed}"
            )

    def workload(self) -> "FleetWorkload":
        """The reproducible offered load this request describes."""
        from repro.serving.fleet import FleetWorkload

        try:
            return FleetWorkload(
                self.rate_per_s,
                self.duration_s,
                arrival=self.arrival,
                seed=self.seed,
                floors=self.floors,
            )
        except ReproError as exc:
            raise ApiError.from_exception(exc) from exc


@_wire(strict=False)
@dataclass(frozen=True)
class ReplicaView:
    """One replica's slice of a fleet evaluation (plain data)."""

    name: str
    served: int
    dropped: int
    cost: float
    p99_s: float = field(metadata=_NAN_AS_NULL)
    top5: float


@_wire(strict=False)
@dataclass(frozen=True)
class FleetView:
    """One design's fleet-wide outcome (plain data)."""

    name: str
    offered: int
    shed: int
    served: int
    dropped: int
    availability: float
    goodput: float
    cost: float
    hourly_rate: float
    p50_s: float = field(metadata=_NAN_AS_NULL)
    p99_s: float = field(metadata=_NAN_AS_NULL)
    replicas: tuple[ReplicaView, ...]

    @classmethod
    def from_report(
        cls, name: str, spec: "FleetSpec", report: "FleetReport"
    ) -> "FleetView":
        """Project a rich :class:`FleetReport` onto the wire view."""
        replicas = []
        for outcome in report.outcomes:
            accuracy = spec.accuracy_model.accuracy(outcome.spec.spec)
            p99 = (
                outcome.report.latency_percentile(99)
                if outcome.report is not None
                else float("nan")
            )
            replicas.append(
                ReplicaView(
                    name=outcome.spec.name,
                    served=outcome.served,
                    dropped=outcome.dropped,
                    cost=float(outcome.cost),
                    p99_s=float(p99),
                    top5=float(accuracy.top5),
                )
            )
        return cls(
            name=name,
            offered=report.offered,
            shed=report.shed,
            served=report.served,
            dropped=report.dropped,
            availability=float(report.availability),
            goodput=float(report.goodput),
            cost=float(report.cost),
            hourly_rate=float(spec.hourly_rate),
            p50_s=float(report.latency_percentile(50)),
            p99_s=float(report.latency_percentile(99)),
            replicas=tuple(replicas),
        )


@_wire(strict=False, stamped=True)
@dataclass(frozen=True)
class FleetResponse:
    """The answer to one :class:`FleetRequest`.

    ``kind`` is ``evaluate`` (one view per design, request order) or
    ``cheapest`` (``chosen`` names the winner; views still cover every
    design so callers can see *why*).  ``reports`` carries the rich
    :class:`FleetReport` objects for in-process callers; it is never
    serialised.
    """

    kind: str
    views: tuple[FleetView, ...]
    chosen: str | None = None
    reports: tuple = field(
        default=(), repr=False, compare=False, metadata=_NOT_SENT
    )

    def view(self, name: str) -> FleetView:
        """The view of the design named ``name``."""
        for v in self.views:
            if v.name == name:
                return v
        raise KeyError(name)
