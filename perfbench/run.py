"""The repo benchmark: sweep, serve and tune, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-scale1 --seed 1 --seconds 40 --trace 0

Every workload runs all three operations a user of this repo waits on
-- a registry sweep, served requests and a tuning decision -- so every
run reports every end-to-end metric.  The tunes run at full size in
both workloads; the workload names which of the sweep and the served
mix also runs at full size (the other runs at a small fixed size).
``--seconds`` sizes the full-size operation: one sweep pass per 20
seconds (at least two), or half of the seconds of requests.  The run is
one interleaved list of slices -- sweep jobs, request blocks and cold
tunes -- with warm tunes after every slice.  Sweep jobs and tunes are
timed in thread CPU seconds, and every end-to-end host time is scaled
to a nominal host speed by a reference loop timed after every slice
(see hostspeed.py).  ``--trace 1`` times each layer's public calls
from this benchmark's own code, in raw wall seconds, and prints the
per-layer metrics instead (see README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness gate counts as a failed operation and makes the exit code
nonzero.  ``--record-reference`` rewrites the stored sweep reference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import serve
import spans as spanlog
import sweep
import tune

WORKLOADS = ("sweep-scale1", "serve-mixed")

#: Environment that would change which core, backend or cache the
#: program uses; recorded, then removed so every run uses the defaults.
NEUTRALIZED_ENV = ("REPRO_BACKEND", "REPRO_FAST_MODEL", "REPRO_CACHE_DIR")

#: Set-up repeats in one run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Sweep passes per second of ``--seconds`` for the full-size sweep; a
#: traced run needs two (one untraced, one traced).
SWEEP_PASSES_PER_S = 1 / 20
COMPANION_PASSES = 2

#: Share of ``--seconds`` the full-size served mix takes, and the fixed
#: size of the companion mix.
SERVE_SHARE = 0.5
COMPANION_REQUESTS = 400

#: Requests per block; blocks interleave with the other slices.
BLOCK_REQUESTS = 40

#: Warm-tune rounds (every cold-tuned pair once) after each slice.
WARM_ROUNDS = 2

SCRATCH_DIR = ".perfbench_tmp"
OUTPUT_DIR = ".perfbench_out"

END_TO_END = (("setup_s", "s"), ("sweep_jobs_per_s", "jobs/s"),
              ("clu_speedup_geomean", "ratio"), ("serve_p50_ms", "ms"),
              ("serve_p95_ms", "ms"), ("serve_goodput_rps", "req/s"),
              ("tune_cold_s", "s"), ("tune_warm_ms", "ms"),
              ("tune_speedup_vs_rule", "ratio"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="recompute perfbench/reference.json")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def prepare_checkout() -> dict:
    """Point imports at the checkout's ``src`` and neutralize the env."""
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        raise SystemExit("perfbench: src/repro not found; run from the "
                         "root of a repro checkout")
    sys.path.insert(0, os.path.abspath("src"))
    found = {name: os.environ.pop(name, None) for name in NEUTRALIZED_ENV}
    return {name: value for name, value in found.items() if value is not None}


def commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over ``src/``'s Python files, for checkouts without git."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


class Plan:
    """What one workload runs: full-size for its own operation, small
    fixed sizes for the other, the tunes in full."""

    def __init__(self, workload: str, seed: int, seconds: float):
        primary = workload.split("-")[0]
        self.primary = primary
        if primary == "sweep":
            pairs = sweep.PRIMARY_PAIRS
            self.sweep_passes = max(2, round(seconds * SWEEP_PASSES_PER_S))
            count = COMPANION_REQUESTS
        else:
            pairs = sweep.COMPANION_PAIRS
            self.sweep_passes = COMPANION_PASSES
            count = max(COMPANION_REQUESTS,
                        round(serve.RATE_RPS * seconds * SERVE_SHARE))
        self.sweep_jobs = sweep.generate(pairs,
                                         random.Random(f"{seed}:sweep"))
        self.tune_pairs = tune.generate(random.Random(f"{seed}:tune"))
        self.requests = serve.generate(count, random.Random(f"{seed}:serve"))
        self.check_rng = random.Random(f"{seed}:check")
        self.reference = sweep.load_reference()

    def kernels(self):
        """(workload, gpu, scale) of every kernel the sweep and the
        tunes simulate in this process."""
        wanted = {(w, gpu, 1.0) for w, gpu, _, _ in self.sweep_jobs}
        wanted |= {(w, gpu, scale) for w, gpu, _ in self.tune_pairs
                   for scale in tune.SCALES}
        return sorted(wanted)

    def slices(self, traced: bool) -> list:
        """The run as one interleaved list of ("sweep", (pass, job)),
        ("serve", (block, requests)) and ("cold", pair) slices.

        Each kind is spread evenly over the run, so every metric samples
        the whole run rather than one stretch of a host whose speed
        drifts.  Passes of the sweep follow one another, so a job's runs
        lie far apart -- except in a traced run, where each job's
        untraced and traced runs come one right after the other.
        """
        passes = range(self.sweep_passes)
        if traced:
            # Alternate which of the two comes first, so that running a
            # job right after itself favours neither.
            runs = [(p, job) for i, job in enumerate(self.sweep_jobs)
                    for p in (passes if i % 2 == 0 else reversed(passes))]
        else:
            runs = [(p, job) for p in passes for job in self.sweep_jobs]
        blocks = list(enumerate(
            self.requests[i:i + BLOCK_REQUESTS]
            for i in range(0, len(self.requests), BLOCK_REQUESTS)))
        placed = []
        # Cold tunes sit early in their stretch of the run, so the last
        # pair tuned still gets warm tunes over a fair share of it.
        for order, (kind, items, offset) in enumerate((
                ("cold", self.tune_pairs, 0.15), ("sweep", runs, 0.5),
                ("serve", blocks, 0.5))):
            for i, item in enumerate(items):
                placed.append(((i + offset) / len(items), order, i,
                               kind, item))
        placed.sort(key=lambda p: p[:3])
        return [(kind, item) for *_, kind, item in placed]


def set_up(plan: Plan, scratch: str, spans):
    """Import, trace and compile every kernel, start and pre-warm the
    daemon.  Returns the daemon and the trace/compile counts."""
    import repro
    import repro.analysis.bound  # noqa: F401  (lazy imports of the
    import repro.gpu.analytic  # noqa: F401    tuner and the daemon's
    import repro.tuner  # noqa: F401           pool-free endpoints)
    counts = {"ctas": 0, "ops": 0}
    for w, gpu, scale in plan.kernels():
        config = repro.platform(gpu)
        kernel = repro.workload(w).kernel(scale=scale, config=config)
        name = f"{w}|{gpu}|{scale}"
        with spans.span("workloads.trace", name):
            for cta in range(kernel.n_ctas):
                kernel.cta_trace(cta)
        with spans.span("kernels.compile", name):
            for cta in range(kernel.n_ctas):
                counts["ops"] += len(kernel.compiled_trace(
                    cta, config.l1_line, config.l2_line))
        counts["ctas"] += kernel.n_ctas
    daemon = serve.start(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    return daemon, counts


def timed_set_up(plan: Plan, scratch: str, spans):
    """:func:`set_up`, with its raw and host-speed-scaled seconds."""
    before, _ = hostspeed.sample()
    started = time.perf_counter()
    daemon, counts = set_up(plan, scratch, spans)
    raw = time.perf_counter() - started
    try:
        after, _ = hostspeed.sample()
        scaled = raw * hostspeed.NOMINAL_S / statistics.fmean((before, after))
    except BaseException:
        daemon.stop()
        raise
    return daemon, counts, (raw, scaled)


def setup_probe(args) -> None:
    """One extra set-up in a fresh process; prints its duration."""
    prepare_checkout()
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="probe-", dir=SCRATCH_DIR)
    daemon = None
    try:
        daemon, _, (raw, scaled) = timed_set_up(
            Plan(args.workload, args.seed, args.seconds), scratch,
            spanlog.OFF)
    finally:
        code = daemon.stop() if daemon is not None else None
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0:
        raise SystemExit(f"perfbench: probe daemon exited {code}")
    print(json.dumps({"raw_s": raw, "setup_s": scaled}))


def probe_setups(args, count: int) -> "list[tuple[float, float]]":
    """(raw, scaled) seconds of ``count`` set-ups in fresh processes."""
    samples = []
    for _ in range(count):
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", args.workload, "--seed", str(args.seed)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) as probe:
            try:
                out, err = probe.communicate(timeout=120)
            except BaseException:
                # SIGTERM, not SIGKILL: the probe then stops its daemon.
                probe.terminate()
                probe.communicate()
                raise
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({probe.returncode}): "
                               f"{err.strip()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        samples.append((result["raw_s"], result["setup_s"]))
    return samples


# ----------------------------------------------------------------------
# the three operations, interleaved slice by slice
# ----------------------------------------------------------------------

class Measurement:
    """Everything the slices collect, and the metrics made from it.

    A traced run splits the full-size operation: odd sweep passes and
    odd request blocks are traced, the others run untraced, so the
    traced run measures its own overhead.
    """

    def __init__(self, plan: Plan, scratch: str, spans, failures: list):
        self.plan = plan
        self.spans = spans
        self.failures = failures
        self.sweep_times: "dict[tuple, list[float]]" = {}
        self.sweep_plain: "dict[tuple, list[float]]" = {}
        self.sweep_results: dict = {}
        # Sweep jobs and tunes run serially in this thread: thread CPU
        # time, except in a traced run, whose spans are wall time.
        self.clock = time.perf_counter if spans.enabled else time.thread_time
        self.tunes = tune.TunePhase(scratch, spans, failures, self.clock)
        self.outcomes: "list" = []
        self.plain_outcomes: "list" = []
        self.served_s = 0.0
        self.reference_s: "list[tuple[float, float]]" = []

    def run(self, daemon) -> None:
        self.reference_s.append(hostspeed.sample())
        for kind, item in self.plan.slices(self.spans.enabled):
            if kind == "cold":
                self.tunes.run_cold(item)
            elif kind == "sweep":
                self._sweep(*item)
            else:
                self._serve(daemon, *item)
            self.tunes.run_warm_rounds(WARM_ROUNDS)
            self.reference_s.append(hostspeed.sample())

    def speed_factors(self) -> "tuple[float, float]":
        """Nominal over this run's median reference-loop time, for wall
        and for CPU times."""
        return tuple(hostspeed.NOMINAL_S / statistics.median(clock)
                     for clock in zip(*self.reference_s))

    def _sweep(self, index: int, job) -> None:
        if self.spans.enabled and index % 2 == 0:
            sweep.run([job], self.plan.reference, spanlog.OFF,
                      self.failures, self.sweep_plain, self.sweep_results,
                      self.clock)
        else:
            sweep.run([job], self.plan.reference, self.spans, self.failures,
                      self.sweep_times, self.sweep_results, self.clock)

    def _serve(self, daemon, index: int, requests) -> None:
        untraced = self.spans.enabled and index % 2 == 0
        outcomes = serve.drive(daemon, requests,
                               spanlog.OFF if untraced else self.spans)
        (self.plain_outcomes if untraced else self.outcomes).extend(outcomes)
        # From the block's first slot to its last answer.
        self.served_s += (max(o.done for o in outcomes)
                          - min(o.due for o in outcomes)
                          + 1.0 / serve.RATE_RPS)

    def attempted(self) -> int:
        return (sum(len(t) for t in self.sweep_times.values())
                + sum(len(t) for t in self.sweep_plain.values())
                + self.tunes.tunes + len(self.outcomes)
                + len(self.plain_outcomes))

    def end_to_end(self, wall: float, cpu: float) -> dict:
        """The end-to-end metrics, request latencies multiplied by
        ``wall`` and sweep and tune times by ``cpu`` (the
        :meth:`speed_factors`, or 1 for the raw figures)."""
        outcomes = self.outcomes
        latencies = sorted(o.latency * wall for o in outcomes)
        if len(latencies) < 200:
            raise RuntimeError(f"only {len(latencies)} timed requests; the "
                               f"p95 needs 200, so that 10 lie beyond it")
        good = sum(1 for o in outcomes if not o.error
                   and o.latency * wall <= serve.LATENCY_LIMIT_S)
        return {
            "sweep_jobs_per_s": sweep.jobs_per_second(
                self.sweep_times) / cpu,
            "clu_speedup_geomean": sweep.clu_speedup_geomean(
                self.sweep_results),
            "serve_p50_ms": statistics.median(latencies) * 1e3,
            "serve_p95_ms": statistics.quantiles(latencies, n=20)[-1] * 1e3,
            "serve_goodput_rps": good / self.served_s,
            # One cold tune per pair, spread over the run.
            "tune_cold_s": statistics.fmean(self.tunes.cold_s) * cpu,
            "tune_warm_ms": tune.per_pair_p10(self.tunes.warm_s) * cpu * 1e3,
            "tune_speedup_vs_rule": self.tunes.speedup_vs_rule(),
        }

    def per_layer(self, before: dict, after: dict) -> dict:
        spans = self.spans
        out = sweep.layer_metrics(spans, self.sweep_results,
                                  self.sweep_times, self.sweep_plain)
        out.update(self.tunes.layer_metrics())
        delta = serve.metric_delta(before, after)
        outcomes = self.outcomes + self.plain_outcomes
        hit_client = [o.done - o.sent for o in outcomes
                      if o.request.kind == "hit" and not o.error]
        lookup_each = (delta["cache_lookup_s"] / delta["lookups"]
                       if delta["lookups"] else 0.0)
        lags = sorted(o.sent - o.due for o in outcomes)
        out.update({
            "service.queue_wait_s": (delta["queue_wait_s"], "s"),
            "service.execute_s": (delta["execute_s"], "s"),
            "service.cache_lookup_s": (delta["cache_lookup_s"], "s"),
            "service.cache_store_s": (delta["cache_store_s"], "s"),
            "service.dedup_hits": (delta["dedup_hits"], "count"),
            "service.cache_hit_ratio": (
                delta["cache_hits"] / delta["submitted"]
                if delta["submitted"] else 0.0, "ratio"),
            "service.executed": (delta["executed"], "count"),
            "service.batch_fill_ratio": (delta["batch_fill_ratio"],
                                         "ratio"),
            "service.rejected_queue_full": (delta["rejected_queue_full"],
                                            "count"),
            "service.client_overhead_ms": (
                (statistics.median(hit_client) - lookup_each) * 1e3, "ms"),
            "loadgen.lag_p50_ms": (statistics.median(lags) * 1e3, "ms"),
            "loadgen.lag_max_ms": (lags[-1] * 1e3, "ms"),
        })
        if self.plan.primary == "serve":
            # Traced against untraced request blocks; the sweep's own
            # figure (traced against untraced passes) stands otherwise.
            overhead = (statistics.median(o.latency for o in self.outcomes)
                        / statistics.median(o.latency
                                            for o in self.plain_outcomes))
            out["obs.trace_overhead"] = (overhead - 1.0, "ratio")
        return out


def check_answers(plan: Plan, outcomes, failures) -> int:
    """Bound gate on every bound answer; bit-identity on a sample."""
    for outcome in outcomes:
        if outcome.error:
            failures.append(f"{outcome.request.kind} request "
                            f"{outcome.request.index}: {outcome.error}")
    ceiling = {}
    for key, entry in plan.reference.items():
        w, gpu, _, _ = key.split("|")
        rate = float(entry["l1_hit_rate"])
        ceiling[(w, gpu)] = max(ceiling.get((w, gpu), 0.0), rate)
    for outcome in outcomes:
        request = outcome.request
        if request.kind != "bound" or outcome.error:
            continue
        measured = ceiling[(request.workload, request.gpu)]
        if outcome.answer["bound_hit_rate"] + 1e-9 < measured:
            failures.append(
                f"bound {request.workload}/{request.gpu}: hit-rate bound "
                f"{outcome.answer['bound_hit_rate']} below measured "
                f"{measured}")
    checked = 0
    by_kind = {}
    for outcome in outcomes:
        if not outcome.error:
            by_kind.setdefault(outcome.request.kind, []).append(outcome)
    for kind in sorted(by_kind):
        candidates = sorted(by_kind[kind], key=lambda o: o.request.index)
        sample = plan.check_rng.sample(
            candidates, min(serve.CHECK_PER_KIND, len(candidates)))
        for outcome in sample:
            checked += 1
            expected = serve.expected_answer(outcome.request)
            if outcome.answer != expected:
                failures.append(f"served {kind} request "
                                f"{outcome.request.index} differs from the "
                                f"in-process answer")
    return checked


# ----------------------------------------------------------------------
# result assembly
# ----------------------------------------------------------------------

def per_layer_names() -> "list[str]":
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCHMARK.json")) as handle:
        return [m["name"] for m in json.load(handle)["per_layer"]]


def assemble(values: dict, trace: bool) -> dict:
    """Every declared metric, or an error naming the missing ones."""
    metrics, missing = {}, []
    if trace:
        for name in per_layer_names():
            if name not in values:
                missing.append(name)
                continue
            value, unit = values[name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in END_TO_END:
            value = values.get(name)
            if value is None or not math.isfinite(value) or value <= 0:
                missing.append(f"{name}={value!r}")
                continue
            metrics[name] = {"value": value, "unit": unit}
    if missing:
        raise RuntimeError(f"metrics missing or invalid: {missing}")
    return metrics


def benchmark(args, neutralized: dict) -> int:
    trace = bool(args.trace)
    spans = spanlog.Spans() if trace else spanlog.OFF
    plan = Plan(args.workload, args.seed, args.seconds)
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_DIR)
    failures: "list[str]" = []
    daemon = None
    try:
        samples = probe_setups(args, SETUP_SAMPLES - 1)
        daemon, counts, sample = timed_set_up(plan, scratch, spans)
        samples.append(sample)
        run = Measurement(plan, scratch, spans, failures)
        with daemon.client() as control:
            before = control.metrics()
            started = time.perf_counter()
            run.run(daemon)
            measured_s = time.perf_counter() - started
            after = control.metrics()
        attempted = run.attempted() + check_answers(
            plan, run.outcomes + run.plain_outcomes, failures)
        code = daemon.stop()
        daemon = None
        if code != 0:
            failures.append(f"service daemon drained with exit code {code}")
        if trace:
            values = run.per_layer(before, after)
            values.update({
                "workloads.trace_s": (spans.total("workloads.trace"), "s"),
                "workloads.trace_ctas": (counts["ctas"], "count"),
                "kernels.compile_s": (spans.total("kernels.compile"), "s"),
                "kernels.compiled_ops": (counts["ops"], "count"),
            })
        else:
            raw = run.end_to_end(1.0, 1.0)
            raw["setup_s"] = statistics.median(r for r, _ in samples)
            values = run.end_to_end(*run.speed_factors())
            values["setup_s"] = statistics.median(s for _, s in samples)
        metrics = assemble(values, trace)
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH_DIR)  # only if no other run still uses it
    if trace:
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        spans.dump(os.path.join(
            OUTPUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"provenance": {
        "commit": commit(), "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": int(trace),
        "setup_samples_raw_s": [r for r, _ in samples],
        "measured_s": measured_s, "cold_tunes_raw_s": run.tunes.cold_s,
        "reference_loop_s": {
            "nominal": hostspeed.NOMINAL_S,
            "wall": [f(w for w, _ in run.reference_s)
                     for f in (min, statistics.median, max)],
            "cpu": [f(c for _, c in run.reference_s)
                    for f in (min, statistics.median, max)]},
        "raw_end_to_end": None if trace else raw,
        "neutralized_env": neutralized}}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def record_reference() -> int:
    """Recompute every (pair, scheme, seed) of the sweep reference."""
    from repro import sweep as run_jobs
    from repro.engine import simulate_job
    pairs = sorted(set(sweep.PRIMARY_PAIRS) | set(sweep.COMPANION_PAIRS)
                   | set(serve.POOL_FREE_PAIRS))
    entries = {}
    for w, gpu in pairs:
        for scheme in sweep.SCHEMES:
            for seed in sweep.SEED_POOL:
                metrics = run_jobs([simulate_job(w, gpu, scheme=scheme,
                                                 scale=1.0, seed=seed)])[0]
                entries[sweep.job_id(w, gpu, scheme, seed)] = \
                    sweep.fingerprint(metrics)
    with open(sweep.REFERENCE_PATH, "w") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(entries)} entries to {sweep.REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    # A terminated run still stops its daemon and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    neutralized = prepare_checkout()
    if args.record_reference:
        return record_reference()
    return benchmark(args, neutralized)


if __name__ == "__main__":
    sys.exit(main())
