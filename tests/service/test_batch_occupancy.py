"""Pool dispatch: the worker-side job runner and the ``/metrics`` view.

Every cache miss is one pool dispatch of one job.  This file pins the
``batches`` section of the metrics snapshot, whose keys perfbench,
loadgen and CI read (``count`` = ``jobs`` = dispatches, ``capacity``
1), and the worker function that runs one job: its outcome equals
in-process ``execute``, and a failing job comes back as an
``"error"`` outcome instead of raising.
"""

from __future__ import annotations

from repro.engine.executors import execute
from repro.engine.job import SimJob
from repro.gpu.metrics import metrics_fingerprint
from repro.service.core import _execute_one
from repro.service.metrics import ServiceMetrics


def simulate_job(workload: str, scheme: str, seed: int = 0) -> SimJob:
    return SimJob.make("simulate", workload=workload, gpu="Tesla K40",
                       scheme=scheme, scale=0.3, seed=seed, warmups=1)


class TestMetricsSnapshot:
    def snapshot(self, metrics):
        return metrics.snapshot(queue_depth=0, queue_capacity=64,
                                draining=False)

    def test_occupancy_fields(self):
        metrics = ServiceMetrics()
        metrics.dispatches = 12
        batches = self.snapshot(metrics)["batches"]
        assert batches == {"count": 12, "jobs": 12, "mean_size": 1.0,
                           "capacity": 1, "fill_ratio": 1.0}

    def test_occupancy_zero_safe(self):
        batches = self.snapshot(ServiceMetrics())["batches"]
        assert batches == {"count": 0, "jobs": 0, "mean_size": 0.0,
                           "capacity": 1, "fill_ratio": 0.0}


class TestExecuteOne:
    def test_outcome_equals_in_process_execute(self):
        for job in (simulate_job("NN", "BSL"), simulate_job("ATX", "RD")):
            status, value, _, duration, _ = _execute_one(job)
            assert status == "ok"
            assert duration >= 0.0
            assert metrics_fingerprint(execute(job)) == \
                metrics_fingerprint(value)

    def test_bad_job_is_an_error_outcome(self):
        bad = SimJob.make("simulate", workload="NO-SUCH-APP",
                          gpu="Tesla K40", scheme="BSL", scale=0.3,
                          seed=0, warmups=1)
        status, message, *_ = _execute_one(bad)
        assert status == "error"
        assert "NO-SUCH-APP" in message
