"""Batch occupancy: the worker-side batch loop and the ``/metrics`` view.

The micro-batcher already counts batches and jobs; this file pins the
occupancy section of the metrics snapshot (``capacity``/``fill_ratio``
against the configured ``batch_max``) and the worker function that
runs one micro-batch: outcomes in submission order, with per-job
error isolation.
"""

from __future__ import annotations

from repro.engine.executors import execute
from repro.engine.job import SimJob
from repro.gpu.metrics import metrics_fingerprint
from repro.service.core import _execute_batch
from repro.service.metrics import ServiceMetrics


def simulate_job(workload: str, scheme: str, seed: int = 0) -> SimJob:
    return SimJob.make("simulate", workload=workload, gpu="Tesla K40",
                       scheme=scheme, scale=0.3, seed=seed, warmups=1)


class TestMetricsSnapshot:
    def snapshot(self, metrics, **overrides):
        kwargs = {"queue_depth": 0, "queue_capacity": 64,
                  "draining": False, "batch_max": 8}
        kwargs.update(overrides)
        return metrics.snapshot(**kwargs)

    def test_occupancy_fields(self):
        metrics = ServiceMetrics()
        metrics.batches = 2
        metrics.batch_jobs = 12
        batches = self.snapshot(metrics)["batches"]
        assert batches["count"] == 2
        assert batches["jobs"] == 12
        assert batches["mean_size"] == 6.0
        assert batches["capacity"] == 8
        assert batches["fill_ratio"] == 12 / 16

    def test_occupancy_zero_safe(self):
        batches = self.snapshot(ServiceMetrics())["batches"]
        assert batches["fill_ratio"] == 0.0
        assert batches["capacity"] == 8

    def test_snapshot_without_batch_max(self):
        # Older callers that omit batch_max still get a document.
        batches = ServiceMetrics().snapshot(
            queue_depth=0, queue_capacity=4, draining=False)["batches"]
        assert batches["capacity"] is None
        assert batches["fill_ratio"] == 0.0


class TestWorkerGrouping:
    def test_outcomes_keep_submission_order(self):
        # Interleave two kernels so index bookkeeping is exercised.
        batch = [simulate_job("NN", "BSL"), simulate_job("ATX", "BSL"),
                 simulate_job("NN", "RD"), simulate_job("ATX", "RD")]
        outcomes = _execute_batch(batch)
        assert [o[0] for o in outcomes] == ["ok"] * 4
        for job, got in zip(batch, outcomes):
            assert metrics_fingerprint(execute(job)) == \
                metrics_fingerprint(got[1])

    def test_error_isolation_survives_grouping(self):
        bad = SimJob.make("simulate", workload="NO-SUCH-APP",
                          gpu="Tesla K40", scheme="BSL", scale=0.3,
                          seed=0, warmups=1)
        batch = [simulate_job("NN", "BSL"), bad, simulate_job("NN", "RD")]
        outcomes = _execute_batch(batch)
        assert [o[0] for o in outcomes] == ["ok", "error", "ok"]
