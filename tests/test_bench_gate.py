"""The CI bench guard (``scripts/bench_trajectory.py --check``).

The guard must fail loudly whenever it cannot run a floor: a floor
whose measurement is missing from the last recorded entry used to be
skipped, which left two floors dormant in CI.  Timings are stubbed out
here; only the gate's decisions are under test.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "bench_trajectory.py"


@pytest.fixture
def bench(monkeypatch):
    """The script as a module, each floor's measurement stubbed to read
    ``bench.speedups`` (twice its floor unless a test lowers it)."""
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_warm_seconds", lambda passes: 1.0)
    module.speedups = {key: floor * 2
                       for key, (floor, _m, _w) in module.FLOORS.items()}
    module.FLOORS = {
        key: (floor,
              lambda passes, key=key: {"speedup": module.speedups[key]},
              what)
        for key, (floor, _measure, what) in module.FLOORS.items()}
    return module


def write_entry(tmp_path, **entry):
    path = tmp_path / "BENCH_sweep.json"
    path.write_text(json.dumps([{"commit": "abc1234",
                                 "fastpath": {"fast_seconds": 1.0},
                                 **entry}]))
    return str(path)


def full_entry(bench):
    return {key: {"speedup": floor * 3}
            for key, (floor, _m, _w) in bench.FLOORS.items()}


def test_every_floor_present_and_met_passes(bench, tmp_path, capsys):
    output = write_entry(tmp_path, **full_entry(bench))
    assert bench._check(output, passes=1, tolerance=0.2) == 0
    out = capsys.readouterr().out
    for key in bench.FLOORS:
        assert f"bench check: {key}:" in out


@pytest.mark.parametrize("missing", ["analytic", "bound", "chiplet"])
def test_missing_floor_measurement_fails_loudly(bench, tmp_path, capsys,
                                                missing):
    entry = full_entry(bench)
    del entry[missing]
    output = write_entry(tmp_path, **entry)
    assert bench._check(output, passes=1, tolerance=0.2) == 1
    assert f"{missing}: the last entry (commit abc1234) has no " \
        f"measurement" in capsys.readouterr().out


def test_floor_below_threshold_fails(bench, tmp_path):
    bench.speedups["bound"] = 1.0
    output = write_entry(tmp_path, **full_entry(bench))
    assert bench._check(output, passes=1, tolerance=0.2) == 1


def test_no_trajectory_fails(bench, tmp_path):
    assert bench._check(str(tmp_path / "absent.json"), 1, 0.2) == 1
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert bench._check(str(empty), 1, 0.2) == 1


def test_wall_time_regression_fails(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "_warm_seconds", lambda passes: 1.5)
    output = write_entry(tmp_path, **full_entry(bench))
    assert bench._check(output, passes=1, tolerance=0.2) == 1
