"""Service-test fixtures: isolated caches, embedded servers."""

from __future__ import annotations

import pytest

from repro.service.embed import EmbeddedService

#: One small valid request per served kind.  Tests parametrized over
#: ``repro.service.jobs.SERVED`` look their payload up here, so a kind
#: added to the table without an entry fails them with a KeyError.
SERVED_PAYLOADS = {
    "simulate": {"workload": "NN", "gpu": "GTX980", "scale": 0.2,
                 "seed": 7},
    "estimate": {"workload": "NN", "gpu": "GTX980", "scale": 0.2,
                 "seed": 7, "scheme": "CLU"},
    "bound": {"workload": "NN", "gpu": "GTX980", "scale": 0.2},
    "cotenant": {"tenants": [{"workload": "NN", "scale": 0.2},
                             {"workload": "HS", "scale": 0.2}],
                 "gpu": "GTX980", "warmups": 0},
    "cluster": {"workload": "NN", "gpu": "GTX980", "scheme": "CLU"},
    "tune": {"workload": "NN", "gpu": "Tesla K40", "budget": 2,
             "scale": 0.2},
}


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every service test gets its own empty persistent-cache root."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture
def service_factory():
    """Start embedded services that are always drained at teardown."""
    running = []

    def start(**overrides) -> EmbeddedService:
        service = EmbeddedService(**overrides).start()
        running.append(service)
        return service

    yield start
    for service in running:
        service.stop()
