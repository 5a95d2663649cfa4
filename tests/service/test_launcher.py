"""Launcher tests: the real ``python -m repro.service`` process.

One subprocess boot is slow (~1s) so the lifecycle test does the whole
journey at once: boot on an ephemeral port, parse the banner, serve a
request, SIGTERM, assert the graceful-drain exit.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.service.client import ServiceClient


def launch(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--port", "0", "--workers", "0", *extra],
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


def read_banner_port(process, timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on http://[\d.]+:(\d+)", line)
        if match:
            return int(match.group(1))
    pytest.fail("launcher never printed its listening banner")


class TestVersionFlag:
    def test_version_prints_both_versions(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.service", "--version"],
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=60)
        assert out.returncode == 0
        from repro.engine.job import ENGINE_VERSION
        assert repro.__version__ in out.stdout
        assert f"engine schema {ENGINE_VERSION}" in out.stdout


class TestDaemonLifecycle:
    def test_boot_serve_sigterm_drain(self, tmp_path):
        profile_path = tmp_path / "service_profile.json"
        process = launch(tmp_path, "--profile", str(profile_path))
        try:
            port = read_banner_port(process)
            client = ServiceClient(port=port, timeout=60.0)
            assert client.healthz()
            assert client.readyz()
            served = client.simulate("NN", "GTX980", scale=0.2, full=True)
            assert served["source"] == "executed"
            client.close()
            process.send_signal(signal.SIGTERM)
            exit_code = process.wait(timeout=30)
            output = process.stdout.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        assert exit_code == 0, output
        assert "[drained:" in output
        assert "1 executed" in output

        from repro.obs import validate_profile
        import json
        summary = json.loads(profile_path.read_text())
        validate_profile(summary)
        assert summary["job_spans"] == 1


class TestSpawnShardDeadline:
    """A child shard that wedges before printing its listening line
    must fail router startup with a clear error — never block the
    launcher forever on a stdout read."""

    def test_wedged_child_is_killed_and_raises(self, monkeypatch):
        import repro.service.__main__ as launcher

        read_fd, write_fd = os.pipe()
        events = []

        class WedgedProcess:
            # Holds its stdout open but never prints: the exact shape
            # of a child stuck on cache-dir I/O before binding.
            stdout = os.fdopen(read_fd, "r")
            returncode = None

            def kill(self):
                events.append("kill")
                os.close(write_fd)  # EOF lets the pump thread exit

            def wait(self, timeout=None):
                events.append("wait")
                self.returncode = -9
                return self.returncode

        monkeypatch.setattr(launcher.subprocess, "Popen",
                            lambda *a, **k: WedgedProcess())
        monkeypatch.setattr(launcher, "SPAWN_TIMEOUT_S", 0.2)
        args = launcher.build_parser().parse_args(
            ["--router", "--spawn-shards", "1"])
        started = time.monotonic()
        with pytest.raises(RuntimeError,
                           match="did not report a listening address"):
            launcher._spawn_shard(0, args)
        assert time.monotonic() - started < 5.0
        assert events == ["kill", "wait"]

    def test_child_death_before_banner_still_raises(self, monkeypatch):
        import repro.service.__main__ as launcher

        read_fd, write_fd = os.pipe()
        os.close(write_fd)  # immediate EOF: the child died silently

        class DeadProcess:
            stdout = os.fdopen(read_fd, "r")
            returncode = 1

            def wait(self, timeout=None):
                return self.returncode

        monkeypatch.setattr(launcher.subprocess, "Popen",
                            lambda *a, **k: DeadProcess())
        args = launcher.build_parser().parse_args(
            ["--router", "--spawn-shards", "1"])
        with pytest.raises(RuntimeError, match="exited \\(status 1\\)"):
            launcher._spawn_shard(0, args)


class TestWorkerSignals:
    """A pool worker forked after the launcher wired SIGTERM to the
    drain must still die on SIGTERM, and must not relay the signal to
    the parent's event loop."""

    def test_pool_worker_dies_on_sigterm_without_relaying_it(self):
        import asyncio
        from concurrent.futures import BrokenExecutor

        from repro.service.config import ServiceConfig
        from repro.service.core import SimulationService

        fired = []

        async def probe():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, fired.append, "TERM")
            pool = SimulationService(
                ServiceConfig(workers=1, cache=False))._make_pool()
            pid = await loop.run_in_executor(pool, os.getpid)
            try:
                pending = loop.run_in_executor(pool, time.sleep, 30)
                os.kill(pid, signal.SIGTERM)
                with pytest.raises(BrokenExecutor):
                    await asyncio.wait_for(pending, timeout=10)
                await asyncio.sleep(0.2)  # a relayed signal would land
            finally:
                loop.remove_signal_handler(signal.SIGTERM)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                pool.shutdown(wait=True, cancel_futures=True)

        asyncio.run(probe())
        assert fired == []


class TestStopChildren:
    def test_orphans_in_a_dead_shards_group_are_reaped(self):
        """A SIGKILLed shard leaves its pool workers behind in its
        process group; stopping the children must kill them too."""
        import select

        import repro.service.__main__ as launcher

        # The orphan inherits the pipe: EOF on it means the orphan died.
        child = subprocess.Popen(
            ["sh", "-c", "sleep 60 & echo $!; wait"],
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        orphan = int(child.stdout.readline())
        try:
            child.kill()
            child.wait(timeout=10)
            assert not select.select([child.stdout], [], [], 0.2)[0]
            launcher._stop_children([child])
            assert select.select([child.stdout], [], [], 10)[0], \
                "orphan survived _stop_children"
            assert child.stdout.read() == ""
        finally:
            try:
                os.kill(orphan, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.stdout.close()
