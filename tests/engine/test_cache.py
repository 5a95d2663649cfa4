"""ResultCache: roundtrip, salt rotation, and corrupt-entry recovery."""

import pickle

import pytest

from repro.engine import ResultCache, execute, reuse_job, simulate_job
from repro.engine import executors as ex
from repro.engine.cache import SAFE_ENTRY_GLOBALS, safe_loads_entry


@pytest.fixture
def job():
    return simulate_job("NN", "GTX980", scale=0.2)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestRoundtrip:
    def test_put_then_get(self, cache, job):
        assert ResultCache.is_miss(cache.get(job))
        cache.put(job, {"cycles": 42})
        assert cache.get(job) == {"cycles": 42}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["writes"] == 1

    def test_cached_none_is_not_a_miss(self, cache, job):
        cache.put(job, None)
        assert not ResultCache.is_miss(cache.get(job))

    def test_salt_rotation_invalidates(self, tmp_path, job):
        old = ResultCache(tmp_path / "cache", salt="1.1.0/2")
        old.put(job, "stale")
        new = ResultCache(tmp_path / "cache", salt="1.2.0/2")
        assert ResultCache.is_miss(new.get(job))


class TestCorruptEntries:
    """A broken pickle must read as a miss, be counted, and be deleted
    so the next lookup after the re-run overwrites a clean file —
    never an unpickling traceback inside a request handler."""

    def corrupt(self, cache, job, payload: bytes):
        path = cache.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        return path

    @pytest.mark.parametrize("payload", [
        b"",                                     # zero-length file
        b"not a pickle at all",                  # garbage bytes
        pickle.dumps({"cycles": 42})[:-4],       # truncated mid-stream
        b"\x80\x05garbage",                      # valid magic, bad body
    ])
    def test_corrupt_entry_is_miss_and_deleted(self, cache, job, payload):
        path = self.corrupt(cache, job, payload)
        assert ResultCache.is_miss(cache.get(job))
        assert cache.stats()["corrupt"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 0
        assert not path.exists(), "bad entry must not survive the miss"

    def test_recompute_overwrites_cleanly(self, cache, job):
        self.corrupt(cache, job, b"garbage")
        assert ResultCache.is_miss(cache.get(job))
        cache.put(job, {"cycles": 7})
        assert cache.get(job) == {"cycles": 7}
        assert cache.stats()["corrupt"] == 1

    def test_unreadable_entry_counts_once_per_lookup(self, cache, job):
        self.corrupt(cache, job, b"junk")
        cache.get(job)
        # The file is gone, so the second lookup is a plain miss.
        assert ResultCache.is_miss(cache.get(job))
        assert cache.stats()["corrupt"] == 1
        assert cache.stats()["misses"] == 2


class TestEntryTransfer:
    """The shard tier's warmup path: a shard enumerates its slice with
    ``manifest()``, another node pulls entries with ``export_entry``
    and installs them with ``import_entry`` — byte-for-byte."""

    def test_manifest_lists_exactly_the_salt_slice(self, tmp_path, job):
        cache = ResultCache(tmp_path / "cache", salt="1.0/now")
        other = simulate_job("CONV", "GTX980", scale=0.2)
        cache.put(job, {"cycles": 1})
        cache.put(other, {"cycles": 2})
        manifest = cache.manifest()
        assert manifest["salt_tag"] == cache.salt_tag
        assert manifest["count"] == 2
        assert sorted(manifest["keys"]) == manifest["keys"]
        assert set(manifest["keys"]) == {job.key, other.key}
        # A different salt's slice of the same root is invisible.
        rotated = ResultCache(tmp_path / "cache", salt="2.0/later")
        assert rotated.manifest()["count"] == 0

    def test_export_import_roundtrip_is_bit_identical(self, tmp_path,
                                                      job):
        source = ResultCache(tmp_path / "a")
        target = ResultCache(tmp_path / "b")
        source.put(job, {"cycles": 42, "nested": {"x": [1, 2]}})
        data = source.export_entry(job.key)
        assert data is not None
        assert target.import_entry(job.key, data)
        assert target.path_for_key(job.key).read_bytes() == data
        assert target.get(job) == {"cycles": 42, "nested": {"x": [1, 2]}}

    def test_export_absent_key_is_none(self, cache, job):
        assert cache.export_entry(job.key) is None

    def test_import_rejects_corrupt_payloads(self, cache, job):
        assert not cache.import_entry(job.key, b"not a pickle")
        assert not cache.path_for_key(job.key).exists()
        assert ResultCache.is_miss(cache.get(job))

    def test_bad_keys_are_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.path_for_key("../../etc/passwd")
        with pytest.raises(ValueError):
            cache.path_for_key("xyz")


class _Exec:
    """A classic pickle RCE gadget: unpickling calls ``os.system``."""

    def __reduce__(self):
        import os
        return (os.system, ("true",))


class TestImportSafety:
    """``import_entry`` consumes bytes that arrived over the network
    (``POST /v1/cache/push``), so it must never resolve a global
    outside the known result record types — a crafted payload whose
    reduce hook names ``os.system`` (or any other callable) has to be
    rejected before anything executes, not installed, not run."""

    def test_reduce_gadget_is_rejected_not_executed(self, cache, job):
        payload = pickle.dumps(_Exec())
        assert not cache.import_entry(job.key, payload)
        assert not cache.path_for_key(job.key).exists()
        assert ResultCache.is_miss(cache.get(job))

    def test_unlisted_repro_global_is_rejected(self, cache, job, tmp_path):
        # Even package-internal types outside the allowlist are refused
        # — the allowlist names result records, not "anything repro".
        payload = pickle.dumps(ResultCache(tmp_path / "x"))
        assert not cache.import_entry(job.key, payload)
        assert not cache.path_for_key(job.key).exists()

    def test_bad_key_raises_before_payload_is_parsed(self, cache):
        with pytest.raises(ValueError):
            cache.import_entry("../../etc/cron.d/x", pickle.dumps(_Exec()))

    def test_real_result_record_roundtrips(self, tmp_path):
        # A genuine executor result (a ReuseProfile record) must pass
        # the allowlist, or warmup could never move real entries.
        job = reuse_job("NN", scale=0.05)
        value = execute(job)
        source = ResultCache(tmp_path / "a")
        target = ResultCache(tmp_path / "b")
        source.put(job, value)
        data = source.export_entry(job.key)
        assert target.import_entry(job.key, data)
        assert target.get(job) == value

    def test_safe_loads_entry_allows_plain_containers(self):
        value = {"cycles": 42, "nested": {"x": [1, 2.5, None, "s"]}}
        assert safe_loads_entry(pickle.dumps(value)) == value

    def test_allowlist_globals_resolve(self):
        # Every allowlisted (module, name) must import — a rename in
        # the package would otherwise silently break entry transfer.
        import importlib
        for module, name in sorted(SAFE_ENTRY_GLOBALS):
            assert isinstance(
                getattr(importlib.import_module(module), name), type)


#: One cheap job per executor kind.  Keyed by kind so a new kind
#: without a case fails ``test_every_kind_has_a_case`` below instead
#: of silently escaping the transfer check.
KIND_CASES = {
    "schemes": lambda: ex.schemes_job("NN", "Tesla K40", scale=0.05,
                                      schemes=("BSL", "CLU")),
    "measure": lambda: ex.measure_job("NN", "Tesla K40", scale=0.05),
    "microbench": lambda: ex.microbench_job("Tesla K40"),
    "reuse": lambda: ex.reuse_job("NN", scale=0.05),
    "table2": lambda: ex.table2_job("NN"),
    "framework": lambda: ex.framework_job("NN", "Tesla K40", scale=0.05),
    "simulate": lambda: ex.simulate_job("NN", "GTX980", scale=0.05),
    "tune": lambda: ex.tune_job("NN", "Tesla K40", budget=2, scale=0.05),
    "estimate": lambda: ex.estimate_job("NN", "GTX980", scheme="CLU",
                                        scale=0.05),
    "bound": lambda: ex.bound_job("NN", "GTX980", scale=0.05),
    "cotenant": lambda: ex.cotenant_job(
        [{"workload": "NN", "scale": 0.05}, {"workload": "HS", "scale": 0.05}],
        "GTX980", warmups=0),
    "cluster": lambda: ex.cluster_job("NN", "GTX980"),
}


class TestEveryKindTransfers:
    """Shard warmup and hot-key replication move entries with
    ``export_entry``/``import_entry``; a result type missing from the
    unpickle allowlist makes ``import_entry`` refuse that whole kind."""

    def test_every_kind_has_a_case(self):
        assert sorted(KIND_CASES) == sorted(ex.EXECUTORS)

    @pytest.mark.parametrize("kind", sorted(KIND_CASES))
    def test_entry_roundtrips(self, tmp_path, kind):
        job = KIND_CASES[kind]()
        assert job.kind == kind
        value = execute(job)
        source = ResultCache(tmp_path / "a")
        target = ResultCache(tmp_path / "b")
        source.put(job, value)
        data = source.export_entry(job.key)
        assert target.import_entry(job.key, data), kind
        assert target.path_for_key(job.key).read_bytes() == data
        assert pickle.dumps(target.get(job)) == \
            pickle.dumps(source.get(job))
