"""Service tunables, in one frozen dataclass.

Every knob the ``python -m repro.service`` launcher exposes (and a few
it keeps at sane defaults) lives here, so embedding the service in a
test or a notebook configures it exactly the way the daemon does.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default TCP port ("RE" + "PRO" on a phone keypad would be absurd;
#: this is just an unassigned high port).
DEFAULT_PORT = 8373


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`~repro.service.core.SimulationService` needs.

    ``workers`` is the simulation process pool size; ``0`` switches to
    a single in-process worker thread — no fork, fully monkeypatchable,
    the mode the unit tests and single-core containers use.
    ``queue_depth`` bounds *admitted-but-unfinished* jobs: admission
    beyond it answers 429 with a ``Retry-After`` hint (backpressure
    instead of unbounded memory).  ``deadline_s`` is the default
    per-request deadline (requests may ask for less via
    ``deadline_s`` in their JSON body, never for more).  Each cache
    miss waits for one of ``max(1, workers)`` pool slots and then runs
    on its own.  On SIGTERM the service stops accepting, finishes what
    it admitted, and force-closes whatever still runs after
    ``drain_timeout_s``.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 1
    queue_depth: int = 64
    deadline_s: float = 30.0
    drain_timeout_s: float = 10.0
    cache: bool = True
    cache_root: "str | None" = None
    max_body_bytes: int = 8 << 20
    max_sweep_jobs: int = 256
    #: Upper bound on the candidate-evaluation budget a ``/v1/tune``
    #: request may ask for (tuning runs whole searches per request).
    max_tune_budget: int = 64
    #: Shared secret for the ``/v1/cache/*`` admin endpoints (manifest
    #: enumeration, raw-entry export, entry import).  When set, every
    #: cache admin request must carry it in ``X-Repro-Cache-Token``;
    #: when unset, those endpoints only answer on a loopback bind —
    #: a shard reachable from the network must be given a token
    #: before peers can move cache entries to or from it.
    cache_token: "str | None" = None

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}")


@dataclass(frozen=True)
class RouterConfig:
    """Everything a :class:`~repro.service.shard.ShardRouter` needs.

    ``replication`` is the replica-set size the consistent-hash ring
    computes per key: requests always go to the primary first (so
    single-flight dedup stays exactly-once cluster-wide) and fail over
    along the set when a shard dies.  ``hot_key_threshold`` is how
    many routed requests promote a key to "hot", at which point its
    cached result is pushed to the standby replicas so a later
    failover is answered from cache instead of re-simulated.  A shard
    that fails a forward is marked dead for ``dead_retry_s`` (lazy
    circuit breaker) and skipped while other replicas are live.

    A pending forward is additionally watched by an out-of-band
    health probe: every ``probe_interval_s`` the router asks the
    shard's ``/healthz`` on a *fresh* connection with a
    ``probe_timeout_s`` deadline.  A busy shard answers instantly
    (compute runs in its pool, never on its event loop), so a probe
    failure means the shard is dead or wedged — e.g. a SIGKILLed
    process whose orphaned pool worker still holds the listening
    socket, where connections are accepted by the kernel backlog and
    then hang forever — and the forward fails over immediately
    instead of burning the full ``upstream_timeout_s``.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    replication: int = 2
    vnodes: int = 64
    hot_key_threshold: int = 8
    upstream_timeout_s: float = 120.0
    connect_timeout_s: float = 5.0
    dead_retry_s: float = 1.0
    probe_interval_s: float = 2.0
    probe_timeout_s: float = 2.0
    drain_timeout_s: float = 10.0
    max_body_bytes: int = 8 << 20
    #: Shared secret sent to the shards' ``/v1/cache/*`` endpoints on
    #: warmup and hot-key replication; must match the shards'
    #: ``cache_token`` when they bind beyond loopback.
    cache_token: "str | None" = None

    def __post_init__(self):
        if self.replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {self.replication}")
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.hot_key_threshold < 1:
            raise ValueError(f"hot_key_threshold must be >= 1, "
                             f"got {self.hot_key_threshold}")
        if self.upstream_timeout_s <= 0:
            raise ValueError(f"upstream_timeout_s must be > 0, "
                             f"got {self.upstream_timeout_s}")
        if self.probe_interval_s <= 0 or self.probe_timeout_s <= 0:
            raise ValueError(
                f"probe_interval_s and probe_timeout_s must be > 0, "
                f"got {self.probe_interval_s}/{self.probe_timeout_s}")
