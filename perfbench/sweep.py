"""The sweep phase: a closed-loop, serial, cache-less ``repro.sweep``.

Jobs are ``simulate_job``s of registry kernels at scale 1.0 under the
schemes BSL / RD / CLU / CLU+TOT with the facade defaults
(``warmups=1``, so the modelled caches are warm when measured).  The
seed picks each (kernel, platform) pair's simulation seed from
:data:`SEED_POOL` and the job order; the stored reference holds every
pool member, so every seed's outputs are checked.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

SCHEMES = ("BSL", "RD", "CLU", "CLU+TOT")

#: Simulation seeds a generated job may carry; the reference covers all.
SEED_POOL = (0, 1)

#: Wave-loop-heavy (kernel, platform) pairs of the full-size sweep.
PRIMARY_PAIRS = (("MM", "GTX980"), ("HST", "GTX1080"), ("BKP", "GTX980"))

#: The small fixed sweep the other workloads run beside their own load.
COMPANION_PAIRS = (("NN", "GTX980"), ("HST", "GTX980"))

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def job_id(workload: str, gpu: str, scheme: str, seed: int) -> str:
    return f"{workload}|{gpu}|{scheme}|{seed}"


def generate(pairs, rng) -> "list[tuple[str, str, str, int]]":
    """(workload, gpu, scheme, sim seed) per job; one seed per pair so
    BSL and CLU of a pair are comparable."""
    order = list(pairs)
    rng.shuffle(order)
    return [(w, gpu, scheme, seed)
            for (w, gpu), seed in ((p, rng.choice(SEED_POOL)) for p in order)
            for scheme in SCHEMES]


def fingerprint(metrics) -> dict:
    """The simulated statistics a speed-only change must leave alone."""
    return {"cycles": repr(float(metrics.cycles)),
            "l1_hits": metrics.l1.hits,
            "l1_hit_rate": repr(float(metrics.l1_hit_rate)),
            "l2_transactions": metrics.l2_transactions,
            "dram_transactions": metrics.dram_transactions}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def _run_untraced(job):
    from repro import sweep
    from repro.engine import simulate_job
    workload, gpu, scheme, seed = job
    return sweep([simulate_job(workload, gpu, scheme=scheme, scale=1.0,
                               seed=seed)])[0]


def _run_traced(job, spans):
    """The same measurement, split at the layer boundaries: the plan
    (``repro.cluster``; the CLU+TOT throttling vote simulates candidate
    degrees) and the simulation (``repro.simulate``), exactly as the
    ``simulate`` job kind composes them."""
    import repro
    workload, gpu, scheme, seed = job
    op = job_id(*job)
    config = repro.platform(gpu)
    kernel = repro.workload(workload).kernel(scale=1.0, config=config)
    plan = None
    if scheme != "BSL":
        layer = "core.vote" if "TOT" in scheme else "core.plan"
        with spans.span(layer, op):
            plan = repro.cluster(kernel, scheme, gpu=config, seed=seed)
    with spans.span("gpu.simulate", op):
        return repro.simulate(kernel, config, plan=plan, seed=seed)


def run(jobs, reference: dict, spans, failures: list, times: dict,
        results: dict, clock=time.perf_counter) -> None:
    """Run ``jobs`` once each, adding to ``times`` (job -> seconds of
    ``clock``) and ``results`` (job -> metrics); check every result
    against the stored reference."""
    for job in jobs:
        op = job_id(*job)
        started = clock()
        if spans.enabled:
            with spans.span("sweep.job", op):
                metrics = _run_traced(job, spans)
        else:
            metrics = _run_untraced(job)
        times.setdefault(job, []).append(clock() - started)
        results[job] = metrics
        expected = reference.get(op)
        got = fingerprint(metrics)
        if expected is None:
            failures.append(f"sweep {op}: no stored reference")
        elif got != expected:
            failures.append(f"sweep {op}: {got} != reference {expected}")


def jobs_per_second(times) -> float:
    """Distinct jobs over the summed per-job median times."""
    return len(times) / sum(statistics.median(t) for t in times.values())


def clu_speedup_geomean(results) -> float:
    """Geomean of simulated BSL/CLU cycles over the sweep's pairs."""
    ratios = []
    for (workload, gpu, scheme, seed), metrics in results.items():
        if scheme == "CLU":
            base = results[(workload, gpu, "BSL", seed)]
            ratios.append(base.cycles / metrics.cycles)
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def layer_metrics(spans, results, times, plain) -> dict:
    """Per-layer numbers of a traced sweep.  ``times`` holds the traced
    runs, ``plain`` the untraced ``repro.sweep`` runs of the same jobs."""
    simulate_s = spans.total("gpu.simulate")
    plan_s = spans.total("core.plan")
    vote_s = spans.total("core.vote")
    runs = sum(len(t) for t in times.values())
    # Untraced sweep time of as many runs of each job as were traced.
    plain_s = sum(statistics.fmean(plain[job]) * len(t)
                  for job, t in times.items())
    per_run = {key: 0 for key in ("warp", "l1", "l2", "dram")}
    for job, metrics in results.items():
        n = len(times[job])
        per_run["warp"] += n * metrics.warp_accesses
        per_run["l1"] += n * metrics.l1.accesses
        per_run["l2"] += n * metrics.l2_transactions
        per_run["dram"] += n * metrics.dram_transactions
    # warmups=1: each simulate call runs the kernel twice (warm-up +
    # measured), and the counters cover the measured launch only.
    launches = 2
    return {
        "core.plan_s": (plan_s, "s"),
        "core.vote_s": (vote_s, "s"),
        "gpu.simulate_s": (simulate_s, "s"),
        "gpu.warp_accesses": (per_run["warp"], "count"),
        "gpu.l1_accesses": (per_run["l1"], "count"),
        "gpu.l2_transactions": (per_run["l2"], "count"),
        "gpu.dram_transactions": (per_run["dram"], "count"),
        "gpu.host_ns_per_access": (
            simulate_s * 1e9 / (launches * per_run["warp"]), "ns"),
        "sweep.jobs": (runs, "count"),
        "sweep.attributed_share": (
            (simulate_s + plan_s + vote_s) / plain_s, "ratio"),
        "obs.trace_overhead": (spans.total("sweep.job") / plain_s - 1.0,
                               "ratio"),
    }
