#!/usr/bin/env python
"""Closed- and open-loop load generator for the repro serving tier.

Drives a single ``repro.service`` daemon *or* a shard router — the
generator detects which from the ``/metrics`` schema and, against a
router, aggregates each shard's ``/metrics`` delta into the cluster
totals and reports per-shard traffic shares and fill ratios.

Two load modes:

* ``--mode closed`` (default): ``--concurrency`` threads each issue
  ``simulate`` requests back-to-back until ``--requests`` are spent —
  measures peak sustainable throughput.
* ``--mode open --rate R --duration S``: arrivals are scheduled at a
  fixed rate independent of completions, and every latency is measured
  from the request's *scheduled* arrival — queueing delay shows up in
  the tail instead of silently throttling the offered load (the
  coordinated-omission trap).  ``--slo-p99-ms`` asserts the tail.

``--processes N`` forks N generator processes (each with its own
threads and clients) so a multi-core load box can saturate a cluster;
latencies and errors stream back over pipes and are merged.

Requests rotate through ``--distinct`` unique job shapes (seed-varied),
so distinct/requests directly controls dedup and cache traffic.
``--check`` verifies every served result bit-for-bit against direct
``repro.api.simulate``.  ``--endpoint`` may repeat: the generator's
clients then fail over between routers.  Exit code 1 means at least
one request failed — the CI smoke jobs key off it.  ``--record``
appends the summary to ``BENCH_service.json``.

Usage::

    PYTHONPATH=src python -m repro.service --router --spawn-shards 2 &
    PYTHONPATH=src python scripts/loadgen.py --port 8373 \
        --requests 200 --concurrency 16 --check
    PYTHONPATH=src python scripts/loadgen.py --port 8373 \
        --mode open --rate 100 --duration 10 --slo-p99-ms 250
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform as _platform
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import __version__  # noqa: E402
from repro.service.client import (  # noqa: E402
    FailoverClient,
    ServiceClient,
    ServiceError,
    parse_endpoints,
)
from repro.service.metrics import percentile  # noqa: E402

#: The job shapes the generator rotates through (seed varies per slot).
WORKLOAD, GPU, SCALE = "NN", "GTX980", 0.2

#: Schema the shard router's /metrics document declares.
ROUTER_SCHEMA = "repro.service.router/1"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


class Budget:
    """Thread-safe dispenser of increasing slot indexes."""

    def __init__(self, total: int, offset: int = 0, step: int = 1):
        self._next = 0
        self._total = total
        self._offset = offset
        self._step = step
        self._lock = threading.Lock()

    def take(self):
        """Next (local, global) slot pair, or ``None`` when spent."""
        with self._lock:
            if self._next >= self._total:
                return None
            local = self._next
            self._next += 1
        return local, self._offset + local * self._step


class Worker(threading.Thread):
    """One load thread: take a slot, (maybe) wait for its arrival,
    request, record the latency, repeat."""

    def __init__(self, endpoints, budget, latencies, errors, distinct,
                 check, expected, arrivals=None, epoch: float = None):
        super().__init__(daemon=True)
        self.client = FailoverClient(endpoints, timeout=120.0)
        self.budget = budget
        self.latencies = latencies
        self.errors = errors
        self.distinct = distinct
        self.check = check
        self.expected = expected
        self.arrivals = arrivals  # local-slot -> seconds-from-epoch
        self.epoch = epoch

    def run(self):
        while True:
            slot = self.budget.take()
            if slot is None:
                break
            local, global_slot = slot
            seed = global_slot % self.distinct
            if self.arrivals is not None:
                # Open loop: latency clocks start at the *scheduled*
                # arrival, so server-side queueing is charged to the
                # tail instead of slowing the offered rate.
                started = self.epoch + self.arrivals[local]
                delay = started - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            else:
                started = time.perf_counter()
            try:
                result = self.client.simulate(WORKLOAD, GPU, scale=SCALE,
                                              seed=seed)
            except (ServiceError, OSError) as exc:
                self.errors.append(f"request {global_slot} "
                                   f"(seed {seed}): {exc}")
                continue
            finally:
                self.latencies.append(time.perf_counter() - started)
            if self.check and result != self.expected[seed]:
                self.errors.append(
                    f"request {global_slot}: served result for seed {seed} "
                    f"differs from direct repro.api.simulate")
        self.client.close()


def wait_ready(client: ServiceClient, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.readyz():
                return True
        except OSError:
            pass
        time.sleep(0.1)
    return False


# ----------------------------------------------------------------------
# cluster-aware /metrics collection
# ----------------------------------------------------------------------


def collect_metrics(control: ServiceClient) -> dict:
    """One snapshot of the whole serving tier.

    Against a plain shard this is its own document; against a router
    it is the router document *plus* every shard's own ``/metrics``
    (addresses discovered from the router's ``shards`` section).  A
    shard that cannot be reached — killed mid-run, say — snapshots as
    ``None`` and is skipped in deltas.
    """
    document = control.metrics()
    if document.get("schema") != ROUTER_SCHEMA:
        return {"router": None, "shards": {"self": document}}
    shards = {}
    for name, info in sorted(document.get("shards", {}).items()):
        host, _, port = info["address"].rpartition(":")
        try:
            with ServiceClient(host=host, port=int(port),
                               timeout=10.0) as client:
                shards[name] = client.metrics()
        except (ServiceError, OSError):
            shards[name] = None
    return {"router": document, "shards": shards}


def _section(document: dict, name: str) -> dict:
    """A /metrics section, tolerating shards that omit it.

    Estimate/bound-only traffic never reaches the pool, and a shard
    can answer with a reduced document (older build, draining snapshot)
    — aggregation must degrade to zeros, not KeyError the whole run.
    """
    section = document.get(name)
    return section if isinstance(section, dict) else {}


def _jobs_delta(before: dict, after: dict, field: str) -> int:
    return (_section(after, "jobs").get(field, 0)
            - _section(before, "jobs").get(field, 0))


def server_summary(before: dict, after: dict) -> dict:
    """Aggregate the tier's ``/metrics`` delta across every shard."""
    totals = {"jobs_submitted": 0, "dedup_hits": 0, "cache_hits": 0,
              "executed": 0, "rejected_queue_full": 0}
    per_shard = {}
    requests_total = 0
    for name, after_doc in after["shards"].items():
        before_doc = before["shards"].get(name)
        if after_doc is None or before_doc is None:
            per_shard[name] = None  # unreachable at one end of the run
            continue
        requests = (_section(after_doc, "requests").get("total", 0)
                    - _section(before_doc, "requests").get("total", 0))
        submitted = _jobs_delta(before_doc, after_doc, "submitted")
        cache_hits = _jobs_delta(before_doc, after_doc, "cache_hits")
        totals["jobs_submitted"] += submitted
        totals["dedup_hits"] += _jobs_delta(before_doc, after_doc,
                                            "dedup_hits")
        totals["cache_hits"] += cache_hits
        totals["executed"] += _jobs_delta(before_doc, after_doc, "executed")
        totals["rejected_queue_full"] += (
            _section(after_doc, "requests").get("rejected_queue_full", 0)
            - _section(before_doc, "requests").get("rejected_queue_full", 0))
        requests_total += requests
        per_shard[name] = {
            "requests": requests,
            "jobs_submitted": submitted,
            "cache_hit_ratio": (round(cache_hits / submitted, 4)
                                if submitted else 0.0),
            # The shard's cumulative `batches` fill ratio: 1.0 once it
            # ran a job (one job per pool dispatch), 0.0 before.
            "batch_fill_ratio": round(
                _section(after_doc, "batches").get("fill_ratio", 0.0), 4),
            "queue_peak": _section(after_doc, "queue").get("peak", 0),
        }
    for info in per_shard.values():
        if info is not None and requests_total:
            info["traffic_share"] = round(
                info["requests"] / requests_total, 4)
    submitted = totals["jobs_submitted"]
    summary = {
        **totals,
        "dedup_hit_ratio": (round(totals["dedup_hits"] / submitted, 4)
                            if submitted else 0.0),
        "cache_hit_ratio": (round(totals["cache_hits"] / submitted, 4)
                            if submitted else 0.0),
    }
    if after["router"] is not None and before["router"] is not None:
        routing_after = _section(after["router"], "routing")
        routing_before = _section(before["router"], "routing")
        summary["router"] = {
            field: (routing_after.get(field, 0)
                    - routing_before.get(field, 0))
            for field in ("forwards", "failovers", "upstream_errors",
                          "all_replicas_failed", "replicated_entries",
                          "warmed_entries")}
        summary["per_shard"] = per_shard
    return summary


# ----------------------------------------------------------------------
# generator processes
# ----------------------------------------------------------------------


def _run_slice(endpoints, count, offset, step, distinct, check, expected,
               concurrency, arrivals, epoch):
    """One process's share of the load; returns (latencies, errors)."""
    budget = Budget(count, offset=offset, step=step)
    latencies, errors = [], []
    workers = [Worker(endpoints, budget, latencies, errors, distinct,
                      check, expected, arrivals=arrivals, epoch=epoch)
               for _ in range(concurrency)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return latencies, errors


def _child_main(conn, kwargs):
    try:
        latencies, errors = _run_slice(**kwargs)
        conn.send((latencies, errors))
    except BaseException as exc:  # surfaced as a generator error
        conn.send(([], [f"generator process failed: {exc!r}"]))
    finally:
        conn.close()


def run_load(args) -> "tuple[dict, list[str]]":
    endpoints = args.endpoint_pairs
    control = ServiceClient(host=endpoints[0][0], port=endpoints[0][1],
                            timeout=30.0)
    if not wait_ready(control, args.ready_timeout):
        return {}, [f"service at {endpoints[0][0]}:{endpoints[0][1]} "
                    f"never became ready within {args.ready_timeout:g}s"]

    expected = {}
    if args.check:
        # Direct in-process baselines, one per distinct job shape; the
        # served results must match bit-for-bit.
        from repro.api import simulate
        from repro.gpu.metrics import canonical_metrics
        for seed in range(args.distinct):
            expected[seed] = canonical_metrics(
                simulate(WORKLOAD, GPU, scale=SCALE, seed=seed))

    if args.mode == "open":
        total = max(1, int(args.rate * args.duration))
    else:
        total = args.requests

    before = collect_metrics(control)
    processes = args.processes
    counts = [total // processes + (1 if p < total % processes else 0)
              for p in range(processes)]
    epoch = time.perf_counter() + 0.2  # shared arrival clock, small lead
    jobs = []
    for index, count in enumerate(counts):
        arrivals = None
        if args.mode == "open":
            # Process p owns global arrivals p, p+P, p+2P, ... so the
            # merged schedule is a uniform rate regardless of P.
            arrivals = [(index + i * processes) / args.rate
                        for i in range(count)]
        jobs.append(dict(
            endpoints=endpoints, count=count, offset=index, step=processes,
            distinct=args.distinct, check=args.check, expected=expected,
            concurrency=args.concurrency, arrivals=arrivals, epoch=epoch))

    started = time.perf_counter()
    latencies, errors = [], []
    if processes == 1:
        got = [_run_slice(**jobs[0])]
    else:
        got = []
        spawned = []
        for kwargs in jobs:
            parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_child_main, args=(child_conn, kwargs), daemon=True)
            process.start()
            child_conn.close()
            spawned.append((process, parent_conn))
        for process, conn in spawned:
            try:
                got.append(conn.recv())
            except EOFError:
                got.append(([], ["generator process died silently"]))
            process.join()
    for slice_latencies, slice_errors in got:
        latencies.extend(slice_latencies)
        errors.extend(slice_errors)
    wall = time.perf_counter() - started

    after = collect_metrics(control)
    if args.metrics_out:
        # Single-node runs keep the historical flat document (CI and
        # tooling read doc["batches"] etc.); cluster runs get the
        # {"router": ..., "shards": ...} snapshot.
        document = after if after["router"] is not None \
            else after["shards"]["self"]
        with open(args.metrics_out, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    control.close()

    ordered = sorted(latencies)
    p99_ms = round(percentile(ordered, 0.99) * 1e3, 2)
    summary = {
        "mode": args.mode,
        "requests": total,
        "concurrency": args.concurrency,
        "processes": processes,
        "distinct": args.distinct,
        "errors": len(errors),
        "wall_seconds": round(wall, 3),
        "requests_per_second": round(total / wall, 2) if wall else 0,
        "latency_ms": {
            "p50": round(percentile(ordered, 0.50) * 1e3, 2),
            "p95": round(percentile(ordered, 0.95) * 1e3, 2),
            "p99": p99_ms,
            "max": round(ordered[-1] * 1e3, 2) if ordered else 0.0,
        },
        "topology": describe_topology(after),
        "server": server_summary(before, after),
    }
    if args.mode == "open":
        summary["offered_rate"] = args.rate
        summary["duration_seconds"] = args.duration
    if args.slo_p99_ms is not None:
        summary["slo"] = {"p99_ms": args.slo_p99_ms,
                          "observed_p99_ms": p99_ms,
                          "met": p99_ms <= args.slo_p99_ms}
        if not summary["slo"]["met"]:
            errors.append(f"p99 latency {p99_ms}ms exceeds the "
                          f"{args.slo_p99_ms}ms SLO")
    return summary, errors


def describe_topology(snapshot: dict) -> dict:
    router = snapshot.get("router")
    if router is None:
        return {"mode": "single", "shards": 1}
    return {
        "mode": "router",
        "shards": len(router.get("shards", {})),
        "replication": router["ring"].get("replication"),
        "vnodes": router["ring"].get("vnodes"),
    }


def record(summary: dict, output: str) -> None:
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": _git_commit(),
        "version": __version__,
        "python": _platform.python_version(),
        "cpu_count": os.cpu_count(),
        "job": {"workload": WORKLOAD, "gpu": GPU, "scale": SCALE},
        **summary,
    }
    trajectory = []
    if os.path.exists(output):
        with open(output) as handle:
            trajectory = json.load(handle)
    trajectory.append(entry)
    tmp = output + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    os.replace(tmp, output)
    print(f"appended entry #{len(trajectory)} to {output}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="port the service/router is listening on")
    parser.add_argument("--endpoint", action="append", default=[],
                        metavar="HOST:PORT",
                        help="serving endpoint (repeatable; clients fail "
                             "over between them; overrides --host/--port)")
    parser.add_argument("--mode", choices=("closed", "open"),
                        default="closed",
                        help="closed loop (throughput) or open loop "
                             "(fixed arrival rate; default closed)")
    parser.add_argument("--requests", type=int, default=50,
                        help="closed-loop total requests (default 50)")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="open-loop arrivals per second (default 50)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="open-loop run length in seconds (default 10)")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="client threads per process (default 8)")
    parser.add_argument("--processes", type=int, default=1,
                        help="generator processes (default 1)")
    parser.add_argument("--distinct", type=int, default=8,
                        help="unique job shapes to rotate through; lower "
                             "means more dedup/cache traffic (default 8)")
    parser.add_argument("--check", action="store_true",
                        help="verify every served result bit-for-bit "
                             "against direct repro.api.simulate")
    parser.add_argument("--slo-p99-ms", type=float, default=None,
                        metavar="MS",
                        help="fail the run when observed p99 exceeds "
                             "this many milliseconds")
    parser.add_argument("--ready-timeout", type=float, default=30.0,
                        help="seconds to wait for /readyz (default 30)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="dump the tier's final /metrics snapshot")
    parser.add_argument("--record", action="store_true",
                        help="append the summary to BENCH_service.json")
    parser.add_argument("--output", default=None,
                        help="trajectory file for --record (default: "
                             "BENCH_service.json at the repo root)")
    args = parser.parse_args(argv)
    if args.requests < 1 or args.concurrency < 1 or args.distinct < 1 \
            or args.processes < 1:
        parser.error("--requests, --concurrency, --distinct and "
                     "--processes must be >= 1")
    if args.mode == "open" and (args.rate <= 0 or args.duration <= 0):
        parser.error("--rate and --duration must be > 0")
    if args.endpoint:
        args.endpoint_pairs = parse_endpoints(args.endpoint)
    elif args.port is not None:
        args.endpoint_pairs = [(args.host, args.port)]
    else:
        parser.error("give --port or at least one --endpoint")
    args.distinct = min(args.distinct, args.requests)

    summary, errors = run_load(args)
    if summary:
        print(json.dumps(summary, indent=2))
    for line in errors[:10]:
        print(f"ERROR: {line}", file=sys.stderr)
    if len(errors) > 10:
        print(f"... and {len(errors) - 10} more", file=sys.stderr)
    if errors:
        return 1

    if args.record:
        output = args.output or os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_service.json")
        record(summary, output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
