"""The tune phase: ``repro.tune(strategy="halving")`` cold, then warm.

Each (workload, platform) pair is tuned once against an empty
``ResultCache`` (cold: rung-0 triage, bound admission, simulation and
cache writes), then again and again against the filled cache, each
repeat on a new ``SweepRunner`` (warm: cache reads only).  Every pair
is tuned cold once per process, so no cold tune profits from another's
process-level memos (such as the tuner's oracle-floor memo); kernel
traces are warm from set-up.
"""

from __future__ import annotations

import math
import statistics
import tempfile
import time

#: Simulation seeds a generated tune may carry.
SEED_POOL = (0, 1)

PAIRS = (("HST", "GTX980"), ("KMN", "GTX1080"), ("NN", "GTX1080"))

#: The halving ladder simulates at these multiples of scale 1.0.
SCALES = (1.0, 0.5)


def generate(rng) -> "list[tuple[str, str, int]]":
    order = list(PAIRS)
    rng.shuffle(order)
    return [(w, gpu, rng.choice(SEED_POOL)) for w, gpu in order]


class _KindRunner:
    """Runner proxy that attributes each batch to its job kind."""

    def __init__(self, runner, spans, ledger: dict):
        self.runner = runner
        self.stats = runner.stats
        self.spans = spans
        self.ledger = ledger

    def run(self, jobs):
        jobs = list(jobs)
        kinds = {job.kind for job in jobs}
        kind = kinds.pop() if len(kinds) == 1 else "mixed"
        executed = self.stats.executed
        execute_s = self.stats.phase_seconds.get("execute", 0.0)
        with self.spans.span(f"engine.run.{kind}"):
            out = self.runner.run(jobs)
        entry = self.ledger.setdefault(kind, [0, 0.0])
        entry[0] += self.stats.executed - executed
        entry[1] += self.stats.phase_seconds.get("execute", 0.0) - execute_s
        return out


class TunePhase:
    """Cold and warm tunes of a few pairs, with their checks."""

    def __init__(self, tmp_root: str, spans, failures: list,
                 clock=time.perf_counter):
        self.tmp_root = tmp_root
        self.clock = clock
        self.spans = spans
        self.failures = failures
        self.cold: "dict[tuple, object]" = {}
        self.roots: "dict[tuple, str]" = {}
        self.cold_s: "list[float]" = []
        self.warm_s: "dict[tuple, list[float]]" = {}
        self.tunes = 0
        self.ledger: "dict[str, list]" = {}
        self.phases: "dict[str, float]" = {}
        self.cache: "dict[str, float]" = {}
        self.self_s = 0.0
        self.evaluations = 0
        self.truncated = 0

    def _tune(self, pair, spans):
        from repro import tune
        from repro.engine import ResultCache, SweepRunner
        workload, gpu, seed = pair
        cache = ResultCache(self.roots[pair])
        runner = SweepRunner(cache=cache)
        target = _KindRunner(runner, spans, self.ledger) \
            if spans.enabled else runner
        started = self.clock()
        with spans.span("tuner.tune", f"{workload}|{gpu}|{seed}"):
            result = tune(workload, gpu, strategy="halving", scale=1.0,
                          seed=seed, runner=target)
        elapsed = self.clock() - started
        self.tunes += 1
        phases = runner.stats.phase_seconds
        for name, seconds in phases.items():
            self.phases[name] = self.phases.get(name, 0.0) + seconds
        for name, value in cache.stats().items():
            if name != "hit_ratio":
                self.cache[name] = self.cache.get(name, 0.0) + value
        self.self_s += elapsed - phases.get("lookup", 0.0) \
            - phases.get("execute", 0.0)
        self.evaluations += result.evaluations
        self.truncated += result.truncated
        return result, elapsed, runner.stats.executed

    def run_cold(self, pair) -> None:
        self.roots[pair] = tempfile.mkdtemp(prefix="tune-",
                                            dir=self.tmp_root)
        result, elapsed, _ = self._tune(pair, self.spans)
        self.cold[pair] = result
        self.cold_s.append(elapsed)
        if self.spans.enabled:
            self._time_admission(pair)

    def _time_admission(self, pair) -> None:
        """The tuner's bound admission computes this floor once per
        process, outside the runner; time the same call on the same
        kernel, after the cold tune so the tune itself is unchanged."""
        import repro
        from repro.analysis.bound import bound_floor_cycles
        workload, gpu, seed = pair
        config = repro.platform(gpu)
        kernel = repro.workload(workload).kernel(scale=1.0, config=config)
        with self.spans.span("analysis.bound", f"{workload}|{gpu}|{seed}"):
            bound_floor_cycles(config, kernel)

    def run_warm(self, pair) -> None:
        result, elapsed, executed = self._tune(pair, self.spans)
        self.warm_s.setdefault(pair, []).append(elapsed)
        cold = self.cold[pair]
        name = "|".join(map(str, pair))
        if executed:
            self.failures.append(f"warm tune {name} executed {executed} "
                                 f"job(s); expected pure cache reads")
        if (result.best != cold.best
                or result.leaderboard != cold.leaderboard
                or result.best_plan.describe() != cold.best_plan.describe()):
            self.failures.append(f"warm tune {name} differs from its cold "
                                 f"tune's best plan or leaderboard")

    def run_warm_rounds(self, rounds: int) -> None:
        """Warm-tune every cold-tuned pair ``rounds`` times, round-robin."""
        for _ in range(rounds):
            for pair in self.cold:
                self.run_warm(pair)

    def speedup_vs_rule(self) -> float:
        values = [r.speedup_vs_rule for r in self.cold.values()]
        return math.exp(sum(math.log(v) for v in values) / len(values))

    def layer_metrics(self) -> dict:
        estimate = self.ledger.get("estimate", [0, 0.0])
        simulated = self.ledger.get("measure", [0, 0.0])
        lookups = self.cache["hits"] + self.cache["misses"]
        return {
            "engine.dedup_s": (self.phases.get("dedup", 0.0), "s"),
            "engine.lookup_s": (self.phases.get("lookup", 0.0), "s"),
            "engine.execute_s": (self.phases.get("execute", 0.0), "s"),
            "engine.store_s": (self.phases.get("store", 0.0), "s"),
            "engine.cache_get_s": (self.cache["get_seconds"], "s"),
            "engine.cache_put_s": (self.cache["put_seconds"], "s"),
            "engine.cache_hits": (int(self.cache["hits"]), "count"),
            "engine.cache_misses": (int(self.cache["misses"]), "count"),
            "engine.cache_writes": (int(self.cache["writes"]), "count"),
            "engine.cache_hit_ratio": (
                self.cache["hits"] / lookups if lookups else 0.0, "ratio"),
            "gpu.analytic.estimate_s": (estimate[1], "s"),
            "analysis.bound_s": (self.spans.total("analysis.bound"), "s"),
            "tuner.simulate_s": (simulated[1], "s"),
            "tuner.self_s": (self.self_s, "s"),
            "tuner.tunes": (self.tunes, "count"),
            "tuner.evaluations": (self.evaluations, "count"),
            "tuner.simulations": (simulated[0], "count"),
            "tuner.truncated": (self.truncated, "count"),
        }


def per_pair_p10(samples: dict) -> float:
    """Mean over pairs of each pair's 10th percentile.

    A warm tune is ~10 ms of cache reads, so its median follows the
    shared host's speed of the moment, which drifts by tens of percent
    over seconds; the fast tail of a few dozen tunes spread over the
    run is what repeats from run to run.
    """
    return statistics.fmean(statistics.quantiles(v, n=10)[0]
                            for v in samples.values())
