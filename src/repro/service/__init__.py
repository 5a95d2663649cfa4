"""repro.service — the request/response serving layer.

A dependency-free asyncio HTTP/JSON daemon exposing the stable
:mod:`repro.api` surface (every kind in
:data:`repro.service.jobs.SERVED`, plus ``sweep``) and ``/healthz``,
``/readyz`` and ``/metrics``, layered on the machinery
the batch CLIs already use: requests canonicalize to engine
:class:`~repro.engine.job.SimJob` content hashes (single-flight dedup
+ persistent :class:`~repro.engine.cache.ResultCache`), each miss takes
one slot of a bounded worker pool, and robustness —
backpressure, deadlines, crash recovery, graceful drain — is
first-class.  See DESIGN.md "Serving architecture".

Importing this package is cheap (client + config only); the server
machinery loads on first use::

    python -m repro.service --port 8373 --workers 4      # the daemon

    from repro.api import connect                        # the client
    connect(port=8373).simulate("NN", "GTX980", scheme="CLU")

    from repro.service import EmbeddedService            # in-process
"""

from repro.service.client import (
    FailoverClient,
    ServiceClient,
    ServiceError,
    connect,
    parse_endpoints,
)
from repro.service.config import DEFAULT_PORT, RouterConfig, ServiceConfig

__all__ = [
    "DEFAULT_PORT",
    "EmbeddedCluster",
    "EmbeddedRouter",
    "EmbeddedService",
    "FailoverClient",
    "HashRing",
    "RouterConfig",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ShardRouter",
    "ShardSpec",
    "SimulationService",
    "connect",
    "parse_endpoints",
]

#: Lazily resolved server-side names, so ``from repro.api import
#: connect`` never drags the asyncio server machinery along.
_LAZY = {
    "EmbeddedCluster": ("repro.service.embed", "EmbeddedCluster"),
    "EmbeddedRouter": ("repro.service.embed", "EmbeddedRouter"),
    "EmbeddedService": ("repro.service.embed", "EmbeddedService"),
    "HashRing": ("repro.service.ring", "HashRing"),
    "ShardRouter": ("repro.service.shard", "ShardRouter"),
    "ShardSpec": ("repro.service.shard", "ShardSpec"),
    "SimulationService": ("repro.service.core", "SimulationService"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    return getattr(importlib.import_module(module_name), attr)
