"""Thin stdlib client for the simulation service.

Only ``http.client`` and ``json`` — importable anywhere the package
is, with zero server machinery attached, which is why ``repro.api``
re-exports it.  One :class:`ServiceClient` wraps one keep-alive
connection (reconnecting transparently when the server or an
intermediary drops it); it is *not* thread-safe — give each thread its
own client, as ``scripts/loadgen.py`` does.

    >>> from repro.api import connect
    >>> client = connect(port=8373)
    >>> client.simulate("NN", "GTX980", scheme="CLU")["cycles"]
"""

from __future__ import annotations

import http.client
import json
import socket

from repro.service.config import DEFAULT_PORT


class ServiceError(RuntimeError):
    """A structured non-200 answer from the service."""

    def __init__(self, status: int, payload: dict):
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        message = error.get("message") or f"service answered {status}"
        super().__init__(f"[{status}/{error.get('code', 'unknown')}] "
                         f"{message}")
        self.status = status
        self.code = error.get("code", "unknown")
        self.payload = payload
        self.retry_after_s = error.get("retry_after_s")


class ServiceClient:
    """Blocking JSON-over-HTTP client for one service instance."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 120.0, cache_token: str = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Shared secret for the server's ``/v1/cache/*`` admin
        #: endpoints; sent as ``X-Repro-Cache-Token`` when set.
        self.cache_token = cache_token
        self._connection = None

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str, payload: dict = None,
                 *, _retried: bool = False) -> "tuple[int, dict]":
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.cache_token:
            headers["X-Repro-Cache-Token"] = self.cache_token
        connection = self._connect()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError,
                socket.timeout, OSError):
            # Stale keep-alive connection (server restarted, idle
            # timeout): reconnect once, then let the error out.  The
            # explicit class call keeps the retry single-endpoint even
            # under a FailoverClient, whose override owns multi-endpoint
            # retries itself.
            self.close()
            if _retried:
                raise
            return ServiceClient._request(self, method, path, payload,
                                          _retried=True)
        if response.will_close:
            self.close()
        try:
            document = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            document = {"raw": raw.decode("latin-1")}
        return response.status, document

    def _call(self, method: str, path: str, payload: dict = None) -> dict:
        status, document = self._request(method, path, payload)
        if status != 200:
            raise ServiceError(status, document)
        return document

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def _post(self, kind: str, full: bool, field: str = "result",
              **fields) -> dict:
        """``POST /v1/<kind>`` with the set (non-``None``) fields; the
        envelope's ``field``, or the whole envelope when ``full``."""
        envelope = self._call("POST", f"/v1/{kind}", {
            name: value for name, value in fields.items()
            if value is not None})
        return envelope if full else envelope[field]

    def simulate(self, workload: str, gpu: str, *, scheme: str = None,
                 scale: float = 1.0, seed: int = 0, warmups: int = 1,
                 topology: str = None, placement: str = None,
                 deadline_s: float = None, full: bool = False) -> dict:
        """One served measurement; returns the canonical metrics dict
        (bit-comparable to ``canonical_metrics(repro.api.simulate(...))``).
        ``topology``/``placement`` name a chiplet preset and binding
        policy, exactly as the facade takes them.  ``full=True``
        returns the whole envelope (``key``/``source``/``result``)
        instead.
        """
        return self._post("simulate", full, workload=workload, gpu=gpu,
                          scheme=scheme, scale=scale, seed=seed,
                          warmups=warmups, topology=topology,
                          placement=placement, deadline_s=deadline_s)

    def estimate(self, workload: str, gpu: str, *, scheme: str = None,
                 scale: float = 1.0, seed: int = 0, warmups: int = 1,
                 topology: str = None, placement: str = None,
                 deadline_s: float = None, full: bool = False) -> dict:
        """One served rung-0 analytic estimate — same request shape and
        envelope as :meth:`simulate`, answered by the service without
        touching its process pool.  Returns the
        :class:`~repro.gpu.analytic.AnalyticEstimate` as JSON;
        ``full=True`` returns the whole envelope instead.
        """
        return self._post("estimate", full, workload=workload, gpu=gpu,
                          scheme=scheme, scale=scale, seed=seed,
                          warmups=warmups, topology=topology,
                          placement=placement, deadline_s=deadline_s)

    def bound(self, workload: str, gpu: str, *, scale: float = 1.0,
              l2_divisor: int = 1, topology: str = None,
              full: bool = False) -> dict:
        """One served reuse-graph oracle bound — answered inline like
        :meth:`estimate`, without touching the process pool.  Returns
        the :class:`~repro.analysis.bound.BoundReport` as JSON;
        ``full=True`` returns the whole envelope instead.
        """
        return self._post("bound", full, workload=workload, gpu=gpu,
                          scale=scale, l2_divisor=l2_divisor,
                          topology=topology)

    def cotenant(self, tenants: "list", gpu: str, *, policy: str = "shared",
                 seed: int = 0, warmups: int = 1,
                 deadline_s: float = None, full: bool = False) -> dict:
        """One served co-tenant mix.  ``tenants`` is a list of workload
        names or tenant descriptor dicts (``workload`` plus optional
        ``scheme``/``scale``/``seed``/``active_agents``/``bypass``).
        Returns the :class:`~repro.tenancy.TenancyReport` as JSON;
        ``full=True`` returns the whole envelope instead.
        """
        return self._post("cotenant", full, tenants=list(tenants), gpu=gpu,
                          policy=policy, seed=seed, warmups=warmups,
                          deadline_s=deadline_s)

    def cluster(self, workload: str, gpu: str, *, scheme: str = "CLU",
                direction: str = None, active_agents: int = None,
                seed: int = 0, topology: str = None, placement: str = None,
                deadline_s: float = None, full: bool = False) -> dict:
        """Plan digest for one scheme (see ``ExecutionPlan.describe``)."""
        return self._post("cluster", full, "plan", workload=workload,
                          gpu=gpu, scheme=scheme, direction=direction,
                          active_agents=active_agents, seed=seed,
                          topology=topology, placement=placement,
                          deadline_s=deadline_s)

    def tune(self, workload: str, gpu: str, *, objective: str = None,
             strategy: str = None, budget: int = None, scale: float = 1.0,
             seed: int = 0, deadline_s: float = None,
             full: bool = False) -> dict:
        """One served tuning search; returns the plan-free
        :class:`~repro.tuner.TuneResult` record as JSON (winner,
        rule-based baseline, ranked leaderboard).  Identical to an
        in-process ``repro.api.tune`` with the same arguments, minus
        the live ``best_plan``."""
        return self._post("tune", full, workload=workload, gpu=gpu,
                          objective=objective, strategy=strategy,
                          budget=budget, scale=scale, seed=seed,
                          deadline_s=deadline_s)

    def sweep(self, jobs: "list[dict]", *, deadline_s: float = None,
              full: bool = False) -> list:
        """A batch of job descriptors; results in submission order."""
        return self._post("sweep", full, "results", jobs=list(jobs),
                          deadline_s=deadline_s)

    def healthz(self) -> bool:
        status, _ = self._request("GET", "/healthz")
        return status == 200

    def readyz(self) -> bool:
        status, _ = self._request("GET", "/readyz")
        return status == 200

    def metrics(self) -> dict:
        return self._call("GET", "/metrics")

    # ------------------------------------------------------------------
    # router admin (no-ops against a plain shard: it answers 404)
    # ------------------------------------------------------------------

    def admin_join(self, name: str, host: str, port: int, *,
                   warm: bool = True) -> dict:
        """Add a shard to a router's ring (``POST /v1/admin/join``)."""
        return self._call("POST", "/v1/admin/join",
                          {"name": name, "host": host, "port": port,
                           "warm": warm})

    def admin_leave(self, name: str, *, warm: bool = True) -> dict:
        """Remove a shard from a router's ring
        (``POST /v1/admin/leave``)."""
        return self._call("POST", "/v1/admin/leave",
                          {"name": name, "warm": warm})


def parse_endpoints(texts, *, default_port: int = DEFAULT_PORT
                    ) -> "list[tuple[str, int]]":
    """``["host:port", "host", ...]`` -> ``[(host, port), ...]``."""
    endpoints = []
    for text in texts:
        host, _, port = str(text).rpartition(":")
        if not host:
            host, port = port, ""
        if port and not port.isdigit():
            raise ValueError(f"bad endpoint {text!r}: expected HOST[:PORT]")
        endpoints.append((host, int(port) if port else default_port))
    return endpoints


class FailoverClient(ServiceClient):
    """A :class:`ServiceClient` over a *list* of equivalent endpoints.

    On a connection failure, timeout, or an endpoint that answers 503
    because it is draining, the client advances to the next endpoint
    and re-issues the request — safe because every served job is a
    pure function of its descriptor, so a retry can only repeat work,
    never double an effect.  The index is sticky: once an endpoint
    works, subsequent requests keep using it.

        >>> client = FailoverClient(["10.0.0.1:8373", "10.0.0.2:8373"])
        >>> client.simulate("NN", "GTX980")   # survives one dead router
    """

    #: Error codes that mean "this endpoint is going away, try another"
    #: rather than "this request is bad".
    FAILOVER_CODES = ("draining", "no_shards_ready", "no_shards")

    def __init__(self, endpoints, timeout: float = 120.0):
        if not endpoints:
            raise ValueError("FailoverClient needs at least one endpoint")
        self.endpoints = [endpoint if isinstance(endpoint, tuple)
                          else parse_endpoints([endpoint])[0]
                          for endpoint in endpoints]
        self.failovers = 0
        self._index = 0
        host, port = self.endpoints[0]
        super().__init__(host=host, port=port, timeout=timeout)

    def _advance(self) -> None:
        self.close()
        self._index = (self._index + 1) % len(self.endpoints)
        self.host, self.port = self.endpoints[self._index]
        self.failovers += 1

    def _request(self, method: str, path: str, payload: dict = None,
                 *, _retried: bool = False) -> "tuple[int, dict]":
        last_error = None
        for attempt in range(len(self.endpoints)):
            try:
                status, document = super()._request(method, path, payload)
            except (http.client.HTTPException, ConnectionError,
                    socket.timeout, OSError) as exc:
                last_error = exc
                self._advance()
                continue
            if status == 503 and attempt + 1 < len(self.endpoints) \
                    and isinstance(document, dict) \
                    and document.get("error", {}).get("code") \
                    in self.FAILOVER_CODES:
                self._advance()
                continue
            return status, document
        if last_error is not None:
            raise last_error
        return status, document


def connect(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
            timeout: float = 120.0) -> ServiceClient:
    """The one-line way to a client (re-exported by ``repro.api``)."""
    return ServiceClient(host=host, port=port, timeout=timeout)
