"""Persistent on-disk result cache keyed by job hash + version salt.

Results are pickled one file per job under ``.repro_cache/`` (or
``$REPRO_CACHE_DIR``): entries live in a per-*salt* subdirectory (the
salt — by default the package version plus
:data:`~repro.engine.job.ENGINE_VERSION` — hashes to a directory tag,
so bumping either invalidates every stale entry without touching the
files), sharded by the first byte of the job key so the directory
stays listable even for full 23x4x6 sweeps.

Entry filenames *are* the job content hashes.  That makes a cache
slice enumerable and transferable: :meth:`ResultCache.manifest` lists
the keys a node holds, and :meth:`ResultCache.export_entry` /
:meth:`ResultCache.import_entry` move single entries between nodes as
opaque bytes — the primitives the sharded serving tier's
consistent-hash warmup (see ``repro.service.shard``) is built on.

Writes are atomic (temp file + ``os.replace``), which makes the cache
safe to share between the worker processes of one run and between
concurrent runs in the same checkout.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.job import ENGINE_VERSION, SimJob

#: Environment override for the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory name, created in the working directory.
DEFAULT_CACHE_DIRNAME = ".repro_cache"

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISS = object()

_HEX = set("0123456789abcdef")


def _is_hex_key(key: str) -> bool:
    """True for strings that look like SHA-256 job content hashes."""
    return (isinstance(key, str) and len(key) == 64
            and all(c in _HEX for c in key))


#: Globals a *transferred* cache entry may reference: exactly the
#: result record types the executors produce (the table in
#: :mod:`repro.engine.executors`) plus the enum/support types nested
#: inside them.  :meth:`ResultCache.import_entry` feeds bytes that
#: arrived over the network (the shard tier's ``POST /v1/cache/push``)
#: to the unpickler, so any lookup outside this list is refused —
#: ``os.system``-style reduce payloads never resolve a callable.  A
#: new job kind's result type must be added here before warmup or
#: hot-key replication can move it between nodes;
#: ``tests/engine/test_cache.py`` round-trips one entry of every
#: executor kind, so a missing type fails the suite.
SAFE_ENTRY_GLOBALS = frozenset({
    ("repro.analysis.bound", "BoundReport"),
    ("repro.analysis.reuse", "ReuseProfile"),
    ("repro.core.framework", "DecisionSummary"),
    ("repro.core.indexing", "PartitionDirection"),
    ("repro.core.indexing", "RowMajorIndexing"),
    ("repro.experiments.schemes", "SchemeResults"),
    ("repro.gpu.analytic", "AnalyticEstimate"),
    ("repro.gpu.metrics", "CtaRecord"),
    ("repro.gpu.metrics", "KernelMetrics"),
    ("repro.gpu.refmodel", "CacheStats"),
    ("repro.kernels.kernel", "LocalityCategory"),
    ("repro.kernels.microbench", "MicrobenchResult"),
    ("repro.tenancy.runner", "TenancyReport"),
    ("repro.tenancy.runner", "TenantResult"),
    ("repro.tuner.core", "TuneResult"),
    ("repro.tuner.space", "Candidate"),
    ("repro.tuner.space", "ConfigPoint"),
})


class _EntryUnpickler(pickle.Unpickler):
    """Unpickler for network-supplied entry bytes: allowlisted globals
    only.  Containers of scalars need no global lookups at all, so the
    common metrics payloads pass untouched."""

    def find_class(self, module, name):
        if (module, name) in SAFE_ENTRY_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"cache entry references forbidden global {module}.{name}")


def safe_loads_entry(data: bytes):
    """Unpickle transferred entry bytes under the allowlist.

    Raises (``pickle.UnpicklingError`` among others) on anything a
    cache entry could not legitimately contain.
    """
    return _EntryUnpickler(io.BytesIO(data)).load()


def default_cache_root() -> Path:
    """Cache location: ``$REPRO_CACHE_DIR`` or ``./.repro_cache``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(DEFAULT_CACHE_DIRNAME)


def default_salt() -> str:
    """Version salt: package release + engine schema version."""
    import repro
    return f"{repro.__version__}/{ENGINE_VERSION}"


@dataclass
class CacheStats:
    """Hit/miss accounting (and wall time) for one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Corrupt/truncated entries found (counted in ``misses`` too) and
    #: deleted so they can never poison a later lookup.
    corrupt: int = 0
    get_seconds: float = 0.0
    put_seconds: float = 0.0

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that hit (0.0 when the cache is idle)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass
class ResultCache:
    """Pickle-per-job result store under ``root``.

    A corrupt or unreadable entry is treated as a miss and re-run —
    the cache can always be deleted wholesale without losing anything
    but time.  Counters live behind :meth:`stats`, the supported
    read-only view — consumers (tuner, ``/metrics``, profiles) never
    touch the private accounting object.
    """

    root: Path = field(default_factory=default_cache_root)
    salt: str = field(default_factory=default_salt)

    def __post_init__(self):
        self.root = Path(self.root)
        self._stats = CacheStats()

    def stats(self) -> dict:
        """Cheap snapshot of the hit/miss accounting as plain scalars."""
        s = self._stats
        return {"hits": s.hits, "misses": s.misses, "writes": s.writes,
                "corrupt": s.corrupt, "hit_ratio": s.hit_ratio,
                "get_seconds": s.get_seconds, "put_seconds": s.put_seconds}

    @property
    def salt_tag(self) -> str:
        """Directory tag for this salt's slice of the cache."""
        return hashlib.sha256(self.salt.encode("utf-8")).hexdigest()[:12]

    def path_for_key(self, key: str) -> Path:
        """Entry path for a raw job content hash (validated hex)."""
        if not _is_hex_key(key):
            raise ValueError(f"not a job content hash: {key!r}")
        return self.root / self.salt_tag / key[:2] / f"{key}.pkl"

    def path_for(self, job: SimJob) -> Path:
        return self.path_for_key(job.key)

    def get(self, job: SimJob):
        """Cached result for ``job``, or the module's miss sentinel.

        A corrupt or truncated entry (killed writer on a filesystem
        without atomic replace, disk-full half-write, stale format) is
        treated as a miss *and the bad file is deleted*, so a serving
        request never sees the same broken entry twice and nothing
        propagates an unpickling exception up into a request handler.
        """
        started = time.perf_counter()
        path = self.path_for(job)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            # The common miss: never computed (or salt rotated).
            self._stats.misses += 1
            self._stats.get_seconds += time.perf_counter() - started
            return _MISS
        except Exception:
            # Unpickling corrupt bytes can raise nearly any exception
            # type — count it, drop the bad entry, and miss so the job
            # simply re-runs and overwrites it.
            self._stats.misses += 1
            self._stats.corrupt += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            self._stats.get_seconds += time.perf_counter() - started
            return _MISS
        self._stats.hits += 1
        self._stats.get_seconds += time.perf_counter() - started
        return value

    def put(self, job: SimJob, value) -> None:
        """Atomically persist one job result."""
        started = time.perf_counter()
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._stats.writes += 1
        self._stats.put_seconds += time.perf_counter() - started

    @staticmethod
    def is_miss(value) -> bool:
        return value is _MISS

    # ------------------------------------------------------------------
    # slice manifest + raw-entry transfer (shard warmup primitives)
    # ------------------------------------------------------------------

    def manifest(self) -> dict:
        """Enumerate this salt slice: every cached job content hash.

        The listing is sorted and cheap (directory walk, no entry is
        read), so a router can ask each shard for its manifest and
        compute — via the same consistent-hash ring it routes with —
        which entries must move when a shard joins or leaves.
        """
        base = self.root / self.salt_tag
        keys = []
        if base.is_dir():
            for shard_dir in base.iterdir():
                if not shard_dir.is_dir():
                    continue
                for path in shard_dir.glob("*.pkl"):
                    if _is_hex_key(path.stem):
                        keys.append(path.stem)
        keys.sort()
        return {"salt_tag": self.salt_tag, "count": len(keys), "keys": keys}

    def export_entry(self, key: str) -> "bytes | None":
        """Raw pickled bytes for one entry (``None`` when absent).

        The bytes are opaque to the caller: importing them unmodified
        on another node yields a bit-identical cache entry, which is
        what keeps replicated/warmed results byte-equal to locally
        computed ones.
        """
        try:
            return self.path_for_key(key).read_bytes()
        except (FileNotFoundError, OSError):
            return None

    def import_entry(self, key: str, data: bytes) -> bool:
        """Atomically install one exported entry; ``False`` on bad data.

        The payload arrives from *another node* (the shard tier's
        warmup and hot-key replication push raw entry bytes over
        HTTP), so it is never trusted: the key is validated before the
        payload is even parsed, and the payload must unpickle under
        the :data:`SAFE_ENTRY_GLOBALS` allowlist — a truncated or
        corrupt transfer, or a payload referencing any global outside
        the known result record types (the arbitrary-code-execution
        vector of plain ``pickle.loads``), is rejected here rather
        than installed.
        """
        path = self.path_for_key(key)  # ValueError before parsing data
        try:
            safe_loads_entry(data)
        except Exception:
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._stats.writes += 1
        return True
