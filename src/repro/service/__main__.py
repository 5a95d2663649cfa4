"""Launcher: ``python -m repro.service`` runs the serving daemon.

Usage::

    python -m repro.service --port 8373 --workers 4
    python -m repro.service --port 0 --workers 0 --queue-depth 8
    python -m repro.service --profile service_profile.json
    python -m repro.service --version

The process serves until SIGTERM/SIGINT, then drains gracefully:
``/readyz`` flips to 503, admitted requests finish, the pool shuts
down, and — when ``--profile`` was given — the run's profile summary
(phases, per-job worker spans, hottest observed cells; same schema as
the experiments CLI's ``--profile``) is written on the way out.  Exit
code 0 means every admitted request was answered.

Router mode fronts N shards with a consistent-hash router instead::

    python -m repro.service --router --spawn-shards 2 --replication 2
    python -m repro.service --router --shard 10.0.0.1:8373 \\
        --shard 10.0.0.2:8373

``--spawn-shards N`` forks N child shard processes on ephemeral ports
(each with its own cache slice under ``--cache-root``) and tears them
down after the router drains; ``--shard`` points at shards someone
else runs.  Worker/queue/deadline flags configure the *spawned*
shards; the router itself owns no simulation machinery.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import queue
import re
import signal
import subprocess
import sys
import threading

import repro
from repro.service.config import DEFAULT_PORT, RouterConfig, ServiceConfig
from repro.service.core import SimulationService
from repro.service.jobs import SERVED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=f"Serve repro.api ({'/'.join([*SERVED, 'sweep'])}) "
                    f"over HTTP/JSON with single-flight dedup, result "
                    f"caching and backpressure.")
    parser.add_argument("--version", action="version",
                        version=repro.version_line())
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port; 0 picks an ephemeral port "
                             f"(default {DEFAULT_PORT})")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="simulation worker processes; 0 = one "
                             "in-process worker thread (default 1)")
    parser.add_argument("--queue-depth", type=int, default=64, metavar="N",
                        help="max admitted-but-unfinished jobs before "
                             "admission answers 429 (default 64)")
    parser.add_argument("--deadline", type=float, default=30.0, metavar="S",
                        help="default/maximum per-request deadline in "
                             "seconds (default 30)")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        metavar="S",
                        help="max seconds to wait for in-flight work on "
                             "shutdown (default 10)")
    parser.add_argument("--no-cache", action="store_true",
                        help="serve without the persistent result cache "
                             "in .repro_cache/")
    parser.add_argument("--cache-root", default=None, metavar="DIR",
                        help="result cache directory (default: "
                             "$REPRO_CACHE_DIR or ./.repro_cache)")
    parser.add_argument("--cache-token", default=None, metavar="TOKEN",
                        help="shared secret for the /v1/cache/* admin "
                             "endpoints (default $REPRO_CACHE_TOKEN); "
                             "required for cache transfer between hosts "
                             "— without it those endpoints only answer "
                             "on a loopback bind")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="write a profile JSON summary (same schema "
                             "as the experiments CLI) at shutdown")
    sharding = parser.add_argument_group(
        "sharding", "router mode: consistent-hash N backend shards")
    sharding.add_argument("--router", action="store_true",
                          help="run the shard router instead of a "
                               "simulation shard")
    sharding.add_argument("--shard", action="append", default=[],
                          metavar="HOST:PORT",
                          help="existing shard endpoint (repeatable; "
                               "NAME=HOST:PORT to pick the ring name)")
    sharding.add_argument("--spawn-shards", type=int, default=0,
                          metavar="N",
                          help="fork N child shard processes on "
                               "ephemeral ports (torn down at exit)")
    sharding.add_argument("--replication", type=int, default=2, metavar="R",
                          help="replica-set size per key (default 2)")
    sharding.add_argument("--vnodes", type=int, default=64, metavar="N",
                          help="virtual nodes per shard on the ring "
                               "(default 64)")
    sharding.add_argument("--hot-key-threshold", type=int, default=8,
                          metavar="N",
                          help="routed requests before a key's cached "
                               "result is replicated (default 8)")
    sharding.add_argument("--upstream-timeout", type=float, default=120.0,
                          metavar="S",
                          help="per-forward shard timeout in seconds "
                               "(default 120)")
    return parser


def _cache_token_from(args) -> "str | None":
    return args.cache_token or os.environ.get("REPRO_CACHE_TOKEN") or None


def config_from_args(args) -> ServiceConfig:
    return ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth, deadline_s=args.deadline,
        drain_timeout_s=args.drain_timeout, cache=not args.no_cache,
        cache_root=args.cache_root, cache_token=_cache_token_from(args))


async def serve(config: ServiceConfig, profile_path: str = None) -> int:
    profile = None
    if profile_path:
        from repro.obs import ProfileSession
        profile = ProfileSession(label="service", argv=sys.argv[1:])
    service = SimulationService(config, profile=profile)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, service.request_shutdown)
        except NotImplementedError:  # non-Unix event loop
            signal.signal(signum,
                          lambda *_: service.request_shutdown())
    print(f"repro.service {repro.__version__} listening on "
          f"http://{config.host}:{service.port} "
          f"(workers={config.workers}, queue-depth={config.queue_depth}, "
          f"deadline={config.deadline_s:g}s, "
          f"cache={'on' if config.cache else 'off'})", flush=True)
    await service.wait_closed()
    metrics = service.metrics
    print(f"[drained: {metrics.requests_total} requests, "
          f"{metrics.jobs_submitted} jobs "
          f"({metrics.dedup_hits} deduped, {metrics.cache_hits} cached, "
          f"{metrics.executed} executed, {metrics.job_errors} failed)]",
          flush=True)
    if profile is not None:
        profile.write(profile_path)
        print(f"[profile summary written to {profile_path}]", flush=True)
    return 0


def router_config_from_args(args) -> RouterConfig:
    return RouterConfig(
        host=args.host, port=args.port, replication=args.replication,
        vnodes=args.vnodes, hot_key_threshold=args.hot_key_threshold,
        upstream_timeout_s=args.upstream_timeout,
        drain_timeout_s=args.drain_timeout,
        cache_token=_cache_token_from(args))


_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")

#: Deadline for a spawned shard to print its listening line.  A child
#: wedged before binding (cache-dir I/O, import deadlock) must fail
#: router startup loudly, not block it forever.
SPAWN_TIMEOUT_S = 30.0


def _spawn_shard(index: int, args) -> "tuple[subprocess.Popen, str, int]":
    """Fork one child shard on an ephemeral port; returns its address.

    The child's cache slice goes under ``<cache-root>/shard-<index>``
    so spawned shards never share a slice, and the child leads a
    session of its own, so :func:`_stop_children` can reap the pool
    workers it leaves behind if it dies.  A single reader thread
    scans the child's stdout for its listening line and then keeps
    pumping to ours with a ``[shard-N]`` prefix; this function waits
    on it for at most :data:`SPAWN_TIMEOUT_S` and kills the child if
    the line never appears.
    """
    cache_root = args.cache_root \
        or os.environ.get("REPRO_CACHE_DIR") or ".repro_cache"
    command = [
        sys.executable, "-m", "repro.service",
        "--host", "127.0.0.1", "--port", "0",
        "--workers", str(args.workers),
        "--queue-depth", str(args.queue_depth),
        "--deadline", str(args.deadline),
        "--drain-timeout", str(args.drain_timeout),
        "--cache-root", os.path.join(cache_root, f"shard-{index}"),
    ]
    if args.no_cache:
        command.append("--no-cache")
    env = None
    token = _cache_token_from(args)
    if token:
        # Via the environment, not argv: the secret must not show up
        # in process listings, and the child's parser reads it there.
        env = dict(os.environ, REPRO_CACHE_TOKEN=token)
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=None, text=True, env=env,
                               start_new_session=True)
    found: "queue.Queue[tuple | None]" = queue.Queue()

    def pump():
        address = None
        for line in process.stdout:
            if address is None:
                match = _LISTENING.search(line)
                if match:
                    address = (match.group(1), int(match.group(2)))
                    found.put(address)
                continue
            print(f"[shard-{index}] {line}", end="", flush=True)
        if address is None:
            found.put(None)  # EOF before the listening line: child died
    threading.Thread(target=pump, name=f"shard-{index}-stdout",
                     daemon=True).start()

    try:
        address = found.get(timeout=SPAWN_TIMEOUT_S)
    except queue.Empty:
        process.kill()
        process.wait()
        raise RuntimeError(
            f"spawned shard {index} did not report a listening address "
            f"within {SPAWN_TIMEOUT_S:g}s") from None
    if address is None:
        process.wait()
        raise RuntimeError(
            f"spawned shard {index} exited (status {process.returncode}) "
            f"before reporting its port")
    host, port = address
    return process, host, port


def _stop_children(children) -> None:
    """Drain every spawned shard, then kill what is left of its group.

    SIGTERM gives a live shard its graceful drain.  A shard that was
    SIGKILLed earlier never shut its pool down, so its workers outlive
    it in the shard's process group; killing the group reaps them.
    """
    for process in children:
        if process.poll() is None:
            process.terminate()
    for process in children:
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


async def serve_router(args, profile_path: str = None) -> int:
    from repro.service.shard import ShardRouter, ShardSpec, parse_shard_spec
    specs = [parse_shard_spec(text, index)
             for index, text in enumerate(args.shard)]
    children = []
    try:
        for _ in range(args.spawn_shards):
            index = len(specs)
            process, host, port = _spawn_shard(index, args)
            children.append(process)
            specs.append(ShardSpec(name=f"shard-{index}", host=host,
                                   port=port, pid=process.pid))
        if not specs:
            print("error: router mode needs --shard and/or --spawn-shards",
                  file=sys.stderr)
            return 2

        profile = None
        if profile_path:
            from repro.obs import ProfileSession
            profile = ProfileSession(label="router", argv=sys.argv[1:])
        config = router_config_from_args(args)
        router = ShardRouter(config, specs, profile=profile)
        await router.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, router.request_shutdown)
            except NotImplementedError:  # non-Unix event loop
                signal.signal(signum,
                              lambda *_: router.request_shutdown())
        print(f"repro.service router {repro.__version__} listening on "
              f"http://{config.host}:{router.port} "
              f"(shards={len(specs)}, replication={config.replication}, "
              f"vnodes={config.vnodes})", flush=True)
        for spec in specs:
            print(f"  shard {spec.name} -> http://{spec.address}"
                  + (f" (pid {spec.pid})" if spec.pid else ""), flush=True)
        await router.wait_closed()
        metrics = router.metrics
        print(f"[drained: {metrics.requests_total} requests, "
              f"{metrics.forwards} forwards, "
              f"{metrics.failovers} failovers, "
              f"{metrics.all_replicas_failed} unroutable]", flush=True)
        if profile is not None:
            profile.write(profile_path)
            print(f"[profile summary written to {profile_path}]",
                  flush=True)
        return 0
    finally:
        _stop_children(children)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.router:
            return asyncio.run(serve_router(args,
                                            profile_path=args.profile))
        if args.shard or args.spawn_shards:
            print("error: --shard/--spawn-shards require --router",
                  file=sys.stderr)
            return 2
        return asyncio.run(serve(config_from_args(args),
                                 profile_path=args.profile))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
