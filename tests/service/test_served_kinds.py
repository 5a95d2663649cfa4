"""Every served kind, from the one table: boundary validation and fuzz.

Cases derive from :data:`repro.service.jobs.SERVED`, so a kind added
to the table is covered here without editing this file (its payload
in ``SERVED_PAYLOADS`` is the only per-kind line a test needs).  The
fuzz properties hold the validation boundary to its contract: any
JSON a client can send either builds a canonical ``SimJob`` or fails
as a 4xx ``HttpError`` — never another exception, which the daemon
would answer as a 500.
"""

from __future__ import annotations

import http.client
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.job import SimJob
from repro.service.httpio import HttpError
from repro.service.jobs import SERVED, build_sweep_jobs
from repro.workloads.base import MAX_SCALE
from tests.service.conftest import SERVED_PAYLOADS

KINDS = sorted(SERVED)


def raw_post(port: int, path: str, body: bytes) -> "tuple[int, dict]":
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def build(kind: str, payload, *, max_tune_budget: int = 8) -> SimJob:
    return SERVED[kind].job(payload, max_tune_budget=max_tune_budget)


class TestBoundaries:
    @pytest.mark.parametrize("body", [b"[1]", b'"x"', b"3", b"null"])
    def test_non_object_body_is_400(self, service_factory, body):
        service = service_factory(workers=0, cache=False)
        for path in [SERVED[kind].path for kind in KINDS] + ["/v1/sweep"]:
            status, document = raw_post(service.port, path, body)
            assert status == 400, (path, document)
            assert document["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_is_400(self, service_factory, literal):
        service = service_factory(workers=0, cache=False)
        for kind in KINDS:
            payload = SERVED_PAYLOADS[kind]
            for field, value in payload.items():
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)):
                    continue
                body = json.dumps({**payload, field: "@"}).replace(
                    '"@"', literal).encode()
                status, document = raw_post(service.port,
                                            SERVED[kind].path, body)
                assert status == 400, (kind, field, document)
                assert field in document["error"]["message"]
        with service.client() as client:
            assert client.metrics()["jobs"]["submitted"] == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_scale_capped_at_the_workload_limit(self, kind):
        payload = SERVED_PAYLOADS[kind]
        if "scale" in payload:
            build(kind, {**payload, "scale": MAX_SCALE})
            over = {**payload, "scale": MAX_SCALE * 2}
        elif "tenants" in payload:
            over = {**payload, "tenants": [{"workload": "NN",
                                            "scale": MAX_SCALE * 2}]}
        else:
            pytest.skip(f"{kind} takes no scale")
        with pytest.raises(HttpError) as excinfo:
            build(kind, over)
        assert excinfo.value.status == 400
        assert "scale" in excinfo.value.message

    def test_over_limit_scale_takes_no_pool_slot(self, service_factory):
        service = service_factory(workers=0, cache=False)
        body = json.dumps({**SERVED_PAYLOADS["simulate"], "scale": 8})
        status, document = raw_post(service.port, "/v1/simulate",
                                    body.encode())
        assert status == 400, document
        with service.client() as client:
            assert client.metrics()["jobs"]["submitted"] == 0


class TestSweepEntries:
    """A sweep entry of a served kind goes through that kind's builder,
    caps included."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_entry_builds_the_endpoint_job(self, kind):
        payload = SERVED_PAYLOADS[kind]
        [job] = build_sweep_jobs({"jobs": [{"kind": kind, **payload}]},
                                 max_jobs=1, max_tune_budget=8)
        assert job.key == build(kind, payload).key

    @pytest.mark.parametrize("override, needle", [
        ({"budget": 9}, "budget"),
        ({"strategy": "annealing"}, "strategy"),
    ])
    def test_tune_entry_is_validated_and_capped(self, service_factory,
                                                override, needle):
        service = service_factory(workers=0, cache=False,
                                  max_tune_budget=8)
        entry = {"kind": "tune", **SERVED_PAYLOADS["tune"], **override}
        status, document = raw_post(service.port, "/v1/sweep",
                                    json.dumps({"jobs": [entry]}).encode())
        assert status == 400, document
        assert needle in document["error"]["message"]
        with service.client() as client:
            assert client.metrics()["jobs"]["submitted"] == 0

    def test_served_kind_rejects_extras(self):
        entry = {"kind": "tune", **SERVED_PAYLOADS["tune"],
                 "extras": {"budget": 100}}
        with pytest.raises(HttpError) as excinfo:
            build_sweep_jobs({"jobs": [entry]}, max_jobs=1)
        assert "extras" in excinfo.value.message


# ----------------------------------------------------------------------
# fuzz: any JSON builds a job or fails as a 4xx
# ----------------------------------------------------------------------

#: Valid names mixed into the fuzz alphabet so cases get past the
#: first registry check and exercise the later fields.
NAMES = ["NN", "HS", "GTX980", "Tesla K40", "GTX980x4", "BSL", "CLU",
         "CLU+TOT", "PFH+TOT", "X-P", "2-chiplet", "local-first",
         "sm-split", "hillclimb", "grid", "cycles", "simulate", "tune",
         "cotenant", "bound", "table2", "reuse"]

FIELDS = sorted({field for payload in SERVED_PAYLOADS.values()
                 for field in payload}
                | {"kind", "scheme", "seed", "warmups", "topology",
                   "placement", "direction", "active_agents", "l2_divisor",
                   "policy", "objective", "strategy", "extras",
                   "deadline_s", "bypass"})

#: Numbers at and past every edge a numeric field has.
numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 1e-9,
                     MAX_SCALE, MAX_SCALE * 2, 2**63, 10**400]),
    st.integers(), st.floats())

scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6),
                    st.sampled_from(NAMES))

json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4),
                        children, max_size=4)),
    max_leaves=10)


@st.composite
def payloads(draw, kind: str):
    """A kind's valid payload with fields replaced, added or dropped —
    or, sometimes, any JSON value at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    payload = dict(SERVED_PAYLOADS[kind])
    fields = st.sampled_from(sorted(payload)) | st.sampled_from(FIELDS)
    for field in draw(st.lists(fields, min_size=1, max_size=3)):
        if draw(st.integers(0, 4)) == 0:
            payload.pop(field, None)
        else:
            payload[field] = draw(numbers | json_values)
    return payload


def builds_or_4xx(make) -> None:
    """``make()`` returns canonical jobs or raises a 4xx ``HttpError``."""
    try:
        jobs = make()
    except HttpError as exc:
        assert 400 <= exc.status < 500, exc.payload()
        return
    for job in jobs:
        assert isinstance(job, SimJob)
        # Strict JSON: no NaN/Infinity reaches a worker or a cache key.
        json.dumps(job.descriptor(), allow_nan=False)


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("kind", KINDS)
def test_fuzzed_payload_builds_or_is_4xx(kind):
    @FUZZ
    @given(payload=payloads(kind))
    def check(payload):
        builds_or_4xx(lambda: [build(kind, payload)])
        builds_or_4xx(lambda: [build(kind, payload, max_tune_budget=None)])

    check()


@st.composite
def sweep_entries(draw):
    kind = draw(st.sampled_from(KINDS + ["table2", "reuse"])
                | st.text(max_size=5))
    entry = draw(payloads(kind if kind in SERVED else "simulate"))
    if isinstance(entry, dict) and draw(st.booleans()):
        entry = {**entry, "kind": kind}
    return entry


@FUZZ
@given(entries=st.lists(sweep_entries(), max_size=3))
def test_fuzzed_sweep_builds_or_is_4xx(entries):
    builds_or_4xx(lambda: build_sweep_jobs(
        {"jobs": entries}, max_jobs=2, max_tune_budget=8))
