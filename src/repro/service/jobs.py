"""Request canonicalization: JSON bodies become engine ``SimJob``s.

This module is the service's validation boundary.  Every request body
is checked against the registries *before* any work is admitted —
unknown workloads, platforms, schemes or job kinds answer 400 with the
known names, never a traceback from deep inside a worker — and the
resulting :class:`~repro.engine.job.SimJob` content hash is what the
single-flight table and the persistent cache key on, so two requests
that mean the same computation collapse no matter how their JSON was
spelled (key order, int-vs-float scale, defaulted fields).

:data:`SERVED` declares every served job kind once.  The daemon's
``POST /v1/<kind>`` routes, the router's forwarding table, sweep
entries and the inline ``/metrics`` sections all derive from it, so a
new kind is one row plus its builder.

The reverse direction lives here too: :func:`jsonable` renders any
executor result into plain JSON, with ``KernelMetrics`` going through
:func:`~repro.gpu.metrics.canonical_metrics` so a served ``simulate``
response is *bit-comparable* to an in-process call.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import Callable

from repro.engine.executors import (
    EXECUTORS,
    bound_job,
    cluster_job,
    cotenant_job,
    estimate_job,
    simulate_job,
    tune_job,
)
from repro.engine.job import SimJob
from repro.gpu.metrics import KernelMetrics, canonical_metrics
from repro.service.httpio import HttpError
from repro.workloads.base import MAX_SCALE


def _bad(field: str, message: str) -> HttpError:
    return HttpError(400, "bad_request",
                     f"invalid {field!r}: {message}")


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise _bad(field, f"expected a JSON object, got "
                          f"{type(value).__name__}")
    return value


def _indexed(field: str, index: int, build, entry):
    """``build(entry)``, with a 4xx naming ``field[index]``."""
    try:
        return build(entry)
    except HttpError as exc:
        raise HttpError(exc.status, exc.code,
                        f"{field}[{index}]: {exc.message}",
                        detail=exc.detail) from None


def _string(payload: dict, field: str, *, required: bool = False,
            default: str = None) -> "str | None":
    value = payload.get(field, default)
    if value is None:
        if required:
            raise _bad(field, "field is required")
        return None
    if not isinstance(value, str):
        raise _bad(field, f"expected a string, got {type(value).__name__}")
    return value


def _member(payload: dict, field: str, known, *, noun: str = None,
            required: bool = False, default: str = None) -> "str | None":
    """A string field that must name one of ``known``."""
    name = _string(payload, field, required=required, default=default)
    if name is not None and name not in known:
        raise _bad(field, f"unknown {noun or field} {name!r}; "
                          f"known: {sorted(known)}")
    return name


def _number(payload: dict, field: str, default, *, cast=float,
            minimum=None, maximum=None):
    """A finite number within bounds; JSON ``null`` means ``default``."""
    value = payload.get(field)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(field, f"expected a number, got {type(value).__name__}")
    try:
        number = cast(value)
        if not math.isfinite(number):
            raise ValueError
    except (OverflowError, ValueError):
        raise _bad(field, f"expected a finite number, got {value!r}") \
            from None
    if minimum is not None and number < minimum:
        raise _bad(field, f"must be >= {minimum}, got {number}")
    if maximum is not None and number > maximum:
        raise _bad(field, f"must be <= {maximum}, got {number}")
    return number


def _scale(payload: dict) -> float:
    """``scale`` within the workload model's ``(0, MAX_SCALE]``."""
    return _number(payload, "scale", 1.0, minimum=1e-6, maximum=MAX_SCALE)


def _seed(payload: dict) -> int:
    return _number(payload, "seed", 0, cast=int, minimum=0)


def _warmups(payload: dict) -> int:
    return _number(payload, "warmups", 1, cast=int, minimum=0, maximum=8)


def _workload(payload: dict, *, required: bool = True) -> "str | None":
    from repro.workloads.registry import REGISTRY
    return _member(payload, "workload", REGISTRY, required=required)


def _gpu(payload: dict, *, required: bool = True) -> "str | None":
    from repro.gpu.config import PLATFORMS
    return _member(payload, "gpu", PLATFORMS, noun="platform",
                   required=required)


def _layout(payload: dict) -> dict:
    """The chiplet ``topology``/``placement`` pair."""
    from repro.gpu.topology import PLACEMENTS, TOPOLOGIES
    return {"topology": _member(payload, "topology", TOPOLOGIES),
            "placement": _member(payload, "placement", PLACEMENTS)}


def _run_fields(payload: dict) -> dict:
    """The request shape ``/v1/simulate`` and ``/v1/estimate`` share."""
    from repro.api import SCHEMES
    return {"workload": _workload(payload), "gpu": _gpu(payload),
            "scheme": _member(payload, "scheme", SCHEMES),
            "scale": _scale(payload), "seed": _seed(payload),
            "warmups": _warmups(payload), **_layout(payload)}


def build_simulate_job(payload: dict) -> SimJob:
    """``POST /v1/simulate`` body -> a canonical ``simulate`` job."""
    return simulate_job(**_run_fields(payload))


def build_estimate_job(payload: dict) -> SimJob:
    """``POST /v1/estimate`` body -> a canonical ``estimate`` job.

    Field-for-field the request shape of ``/v1/simulate``, through the
    same validator, so the two endpoints reject malformed input with
    identical error envelopes.
    """
    return estimate_job(**_run_fields(payload))


def build_bound_job(payload: dict) -> SimJob:
    """``POST /v1/bound`` body -> a canonical ``bound`` job.

    Deliberately the smallest request shape of the family: the
    reuse-graph bound is schedule-free, so there is no scheme, seed or
    warmup axis to validate — one (workload, gpu, scale, topology)
    quadruple is the whole configuration space.
    """
    from repro.gpu.topology import TOPOLOGIES
    return bound_job(
        _workload(payload), _gpu(payload), scale=_scale(payload),
        l2_divisor=_number(payload, "l2_divisor", 1, cast=int, minimum=1),
        topology=_member(payload, "topology", TOPOLOGIES))


def _tenant(entry) -> dict:
    from repro.tenancy import TENANT_SCHEMES
    if isinstance(entry, str):
        entry = {"workload": entry}
    if not isinstance(entry, dict):
        raise _bad("tenant", "expected an object or a workload "
                             "abbreviation")
    bypass = entry.get("bypass", False)
    if not isinstance(bypass, bool):
        raise _bad("bypass", f"expected a boolean, got "
                             f"{type(bypass).__name__}")
    # Unknown fields ride along so the tenant spec rejects them by name.
    return {**entry, "workload": _workload(entry),
            "scheme": _member(entry, "scheme", TENANT_SCHEMES,
                              noun="tenant scheme", required=True,
                              default="BSL"),
            "scale": _scale(entry), "seed": _seed(entry),
            "active_agents": _number(entry, "active_agents", None,
                                     cast=int, minimum=1),
            "bypass": bypass}


def build_cotenant_job(payload: dict) -> SimJob:
    """``POST /v1/cotenant`` body -> a canonical ``cotenant`` job."""
    from repro.tenancy import POLICIES
    gpu = _gpu(payload)
    policy = _member(payload, "policy", POLICIES, required=True,
                     default="shared")
    seed, warmups = _seed(payload), _warmups(payload)
    entries = payload.get("tenants")
    if not isinstance(entries, list) or not entries:
        raise _bad("tenants", "expected a non-empty list of tenant "
                              "descriptors")
    tenants = [_indexed("tenants", index, _tenant, entry)
               for index, entry in enumerate(entries)]
    try:
        return cotenant_job(tenants, gpu, policy=policy, seed=seed,
                            warmups=warmups)
    except (ValueError, KeyError) as exc:
        raise _bad("tenants", str(exc)) from None


def build_cluster_job(payload: dict) -> SimJob:
    """``POST /v1/cluster`` body -> a canonical ``cluster`` job."""
    from repro.api import SCHEMES
    return cluster_job(
        _workload(payload), _gpu(payload),
        scheme=_member(payload, "scheme", SCHEMES, required=True,
                       default="CLU"),
        direction=_member(payload, "direction", ("X-P", "Y-P")),
        active_agents=_number(payload, "active_agents", None, cast=int,
                              minimum=1),
        seed=_seed(payload), **_layout(payload))


def build_tune_job(payload: dict, *, max_budget: int = None) -> SimJob:
    """``POST /v1/tune`` body -> a canonical ``tune`` job.

    ``max_budget`` is the serving instance's cap on the search budget;
    ``None`` (the router) leaves the cap to the owning shard.  The job
    content hash covers strategy, objective, budget and seed, so
    identical tuning requests collapse through the single-flight table
    and the persistent cache exactly like ``simulate`` requests do —
    and the candidate evaluations the search performs inside the
    worker persist in the engine's shared result cache, so overlapping
    tunes (same workload, different strategy) share simulations.
    """
    from repro.tuner import OBJECTIVES, STRATEGIES
    return tune_job(
        _workload(payload), _gpu(payload),
        objective=_member(payload, "objective", OBJECTIVES, required=True,
                          default="cycles"),
        strategy=_member(payload, "strategy", STRATEGIES, required=True,
                         default="hillclimb"),
        budget=_number(payload, "budget", 24, cast=int, minimum=1,
                       maximum=max_budget),
        scale=_scale(payload), seed=_seed(payload),
        warmups=_warmups(payload))


@dataclasses.dataclass(frozen=True)
class ServedKind:
    """One served job kind: ``POST /v1/<name>`` and ``kind: <name>``
    sweep entries.

    ``build`` turns a validated JSON payload into the canonical job.
    ``inline`` names the ``/metrics`` section of a kind answered inline
    and pool-free; ``None`` sends the job through single-flight dedup,
    the cache, admission and the pool.  ``field`` is the envelope key
    the result is served under.  ``budgeted`` builders take the
    serving instance's ``max_budget`` cap.
    """

    name: str
    build: Callable[..., SimJob]
    inline: "str | None" = None
    field: str = "result"
    budgeted: bool = False

    @property
    def path(self) -> str:
        return f"/v1/{self.name}"

    def job(self, payload, *, max_tune_budget: int = None) -> SimJob:
        """Validate ``payload`` into this kind's canonical job."""
        payload = _object(payload, "body")
        if self.budgeted:
            return self.build(payload, max_budget=max_tune_budget)
        return self.build(payload)

    def envelope(self, job: SimJob, value, source: str) -> dict:
        return {"key": job.key, "source": source,
                self.field: jsonable(value)}


#: Every served job kind, in ``/metrics`` section order.
SERVED = {kind.name: kind for kind in (
    ServedKind("simulate", build_simulate_job),
    ServedKind("estimate", build_estimate_job, inline="estimates"),
    ServedKind("bound", build_bound_job, inline="bounds"),
    ServedKind("cotenant", build_cotenant_job),
    ServedKind("cluster", build_cluster_job, field="plan"),
    ServedKind("tune", build_tune_job, budgeted=True),
)}


def build_sweep_jobs(payload: dict, *, max_jobs: int,
                     max_tune_budget: int = None) -> "list[SimJob]":
    """``POST /v1/sweep`` body -> the canonical job list.

    An entry of a served kind takes the same shape its dedicated
    endpoint does (``kind`` defaults to ``simulate``); any other engine
    kind is a generic descriptor (``kind`` plus the shared fields and
    ``extras``).
    """
    entries = _object(payload, "body").get("jobs")
    if not isinstance(entries, list) or not entries:
        raise _bad("jobs", "expected a non-empty list of job descriptors")
    if len(entries) > max_jobs:
        raise HttpError(413, "too_many_jobs",
                        f"sweep of {len(entries)} jobs exceeds the "
                        f"{max_jobs}-job per-request limit")
    return [_indexed("jobs", index,
                     lambda entry: _build_one(entry, max_tune_budget), entry)
            for index, entry in enumerate(entries)]


def _build_one(entry, max_tune_budget: "int | None") -> SimJob:
    entry = _object(entry, "job")
    kind = _string(entry, "kind", default="simulate")
    served = SERVED.get(kind)
    if served is not None:
        if "extras" in entry:
            raise _bad("extras", f"{kind!r} entries take their fields at "
                                 f"the top level, as POST {served.path} "
                                 f"does")
        return served.job(entry, max_tune_budget=max_tune_budget)
    if kind not in EXECUTORS:
        raise _bad("kind", f"unknown job kind {kind!r}; "
                           f"known: {sorted(EXECUTORS)}")
    extras = _object(entry.get("extras", {}), "extras")
    job_fields = dict(
        workload=_workload(entry, required=False),
        gpu=_gpu(entry, required=False), scheme=_string(entry, "scheme"),
        scale=_scale(entry), seed=_seed(entry), warmups=_warmups(entry))
    try:
        job = SimJob.make(kind, **job_fields, **extras)
        json.dumps(job.descriptor(), allow_nan=False)  # finite JSON only
    except (TypeError, ValueError) as exc:
        raise _bad("extras", str(exc)) from None
    return job


def jsonable(value):
    """Render one executor result as plain JSON.

    ``KernelMetrics`` canonicalize losslessly (floats via ``repr``, so
    equality of the JSON implies bit-identity of the metrics); nested
    dataclasses, sequences and mappings recurse; anything else falls
    back to ``repr`` rather than failing the response.
    """
    if isinstance(value, KernelMetrics):
        return canonical_metrics(value)
    if isinstance(value, enum.Enum):
        return value.value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    return repr(value)
