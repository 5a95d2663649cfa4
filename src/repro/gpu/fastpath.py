"""Fast-path cache models and the one fused wave executor.

This module is the production hot path of the simulator.  It exists to
make sweeps fast while staying **bit-identical** to the reference
models in :mod:`repro.gpu.refmodel` — every counter exact, every float
produced by the same arithmetic in the same order.  The differential
harness in ``tests/differential/`` fuzzes that equivalence on every CI
run; if you change behaviour here, change the reference model too (or
you will find out within one pytest run).

Where the speed comes from:

* **Hash-resident caches.**  One dict per cache maps each resident
  line number to the cycle its fill completes, so a hit or a miss is
  one ``dict.get``.  Per-set tag lists keep the reference model's
  dict-key order (the LRU order, and the index space of the
  pseudo-random victim pick), so an LRU touch is a ``remove``/
  ``append`` on at most ``assoc`` ints, skipped outright when the line
  is already most recent, and an eviction is one ``pop``.

* **Precompiled access streams.**  The reference path re-coalesces
  every warp access into L1 segments and L2 sub-transactions on every
  wave of every launch.  The fast path compiles a CTA's trace once per
  ``(l1_line, l2_line)`` geometry into flat op tuples (see
  :func:`repro.kernels.access.compile_trace`) that are memoized and
  interned on the :class:`~repro.kernels.kernel.KernelSpec`, so the
  coalescer runs once per CTA per cache geometry for a whole sweep.

* **A memoized chunk schedule.**  Which CTA runs which ops in what
  order is a pure function of the co-resident trace lengths, the
  interleave chunk and the join stagger; :func:`chunk_schedule`
  computes it once as ``(slot, start, stop)`` chunks, and full waves
  of a kernel share one schedule for a whole sweep.

* **One fused wave loop.**  :func:`execute_wave` inlines the L1 and
  L2 logic into the schedule walk.  Config scalars and every counter
  live in locals and are flushed once per wave; counters that follow
  from others are never kept (each L2 miss is one DRAM transaction,
  each L2 access a read or a write transaction), and when the L1 and
  L2 lines are the same size an L1 miss fills with one L2 read of the
  same line number instead of a loop.
"""

from __future__ import annotations

import dataclasses

from repro.gpu.refmodel import CacheStats
from repro.gpu.config import WritePolicy

#: Same LCG as the reference model's pseudo-random replacement.
_LCG_MUL = 1103515245
_LCG_ADD = 12345
_LCG_MASK = 0xFFFFFFFF


class FastSetAssociativeCache:
    """Hash-resident twin of :class:`repro.gpu.refmodel.SetAssociativeCache`.

    Residency and fill times live in one dict per cache, ``_ready``,
    mapping each resident line number to the cycle its fill completes,
    so a hit or miss is one ``dict.get``.  Each set also keeps a
    ``_tags`` list of its lines in the reference model's dict-key
    order (insertion order, with LRU touches moving a line to the
    back).  That order is what makes the two models bit-identical: the
    LRU victim is ``tags[0]`` exactly when the reference evicts its
    first dict key, and the pseudo-random victim at position ``k``
    names the same line in both.
    """

    __slots__ = ("line_size", "n_sets", "assoc", "write_policy",
                 "_tags", "_ready", "stats", "_random_replacement",
                 "_rng_state", "_tracer", "_level")

    def __init__(self, size: int, line_size: int, assoc: int,
                 write_policy: WritePolicy = WritePolicy.WRITE_EVICT,
                 random_replacement: bool = False, seed: int = 0x5EED):
        if size % (line_size * assoc) != 0:
            raise ValueError(
                f"cache size {size} not divisible by line*assoc "
                f"({line_size}*{assoc})"
            )
        self.line_size = line_size
        self.n_sets = size // (line_size * assoc)
        self.assoc = assoc
        self.write_policy = write_policy
        self._tags = [[] for _ in range(self.n_sets)]
        self._ready = {}
        self.stats = CacheStats()
        self._random_replacement = random_replacement
        self._rng_state = seed & _LCG_MASK
        self._tracer = None
        self._level = "cache"

    def set_tracer(self, tracer, level: str = None) -> None:
        """Attach (or with ``None`` detach) an event tracer."""
        self._tracer = tracer
        if level is not None:
            self._level = level

    def _evict(self, tags, now: float) -> None:
        """Drop one line from a full set (LRU front or an LCG pick)."""
        if self._random_replacement:
            self._rng_state = (self._rng_state * _LCG_MUL
                               + _LCG_ADD) & _LCG_MASK
            victim = tags.pop((self._rng_state >> 16) % self.assoc)
        else:
            victim = tags.pop(0)
        del self._ready[victim]
        if self._tracer is not None:
            self._tracer.cache_event(self._level, "eviction", now)

    def access(self, addr: int, now: float, miss_fill_latency: float,
               is_write: bool = False) -> "tuple[bool, float]":
        """Access one line; same contract as the reference model."""
        stats = self.stats
        stats.accesses += 1
        line = addr // self.line_size
        resident = self._ready
        ready = resident.get(line)

        if is_write and self.write_policy is WritePolicy.WRITE_EVICT:
            if ready is not None:
                self._tags[line % self.n_sets].remove(line)
                del resident[line]
                stats.write_evictions += 1
                if self._tracer is not None:
                    self._tracer.cache_event(self._level, "write_eviction",
                                             now)
            stats.misses += 1
            return False, now

        if ready is not None:
            stats.hits += 1
            if not self._random_replacement:
                tags = self._tags[line % self.n_sets]
                tags.remove(line)
                tags.append(line)  # LRU touch
            if ready > now:
                stats.reserved_hits += 1
                if self._tracer is not None:
                    self._tracer.cache_event(self._level, "reserved_hit",
                                             now)
                return True, ready
            return True, now

        stats.misses += 1
        if self._tracer is not None:
            self._tracer.cache_event(self._level, "miss", now)
        tags = self._tags[line % self.n_sets]
        if len(tags) >= self.assoc:
            self._evict(tags, now)
        tags.append(line)
        resident[line] = now + miss_fill_latency
        return False, now + miss_fill_latency

    def contains(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is resident (no LRU touch)."""
        return addr // self.line_size in self._ready

    def install(self, addr: int, ready_at: float) -> None:
        """Install a line without counting an access (prefetch fills)."""
        line = addr // self.line_size
        tags = self._tags[line % self.n_sets]
        if line in self._ready:
            tags.remove(line)
        elif len(tags) >= self.assoc:
            self._evict(tags, ready_at)
        tags.append(line)
        self._ready[line] = ready_at

    def flush(self) -> None:
        """Drop all resident lines (counters are preserved)."""
        for tags in self._tags:
            tags.clear()
        self._ready.clear()

    def reset_stats(self) -> None:
        """Zero the counters without disturbing resident lines."""
        self.stats = CacheStats()

    def settle(self) -> None:
        """Mark every pending fill as complete."""
        self._ready = dict.fromkeys(self._ready, 0.0)


class FastSectoredCache:
    """Twin of :class:`repro.gpu.refmodel.SectoredCache`.

    The sectors keep private lines but share one :class:`CacheStats`:
    the aggregate is the only view either model exposes, and one shared
    counter set lets the fused wave loop credit a whole wave's L1
    traffic without tracking which sector each access went through.
    """

    def __init__(self, size: int, line_size: int, assoc: int, sectors: int,
                 write_policy: WritePolicy = WritePolicy.WRITE_EVICT):
        if sectors < 1:
            raise ValueError("sectors must be >= 1")
        if size % sectors != 0:
            raise ValueError(f"cache size {size} not divisible into {sectors} sectors")
        self.sectors = sectors
        self._parts = [
            FastSetAssociativeCache(size // sectors, line_size, assoc,
                                    write_policy)
            for _ in range(sectors)
        ]
        self.line_size = line_size
        self.reset_stats()

    def access(self, addr: int, now: float, miss_fill_latency: float,
               is_write: bool = False, sector: int = 0) -> "tuple[bool, float]":
        part = self._parts[sector % self.sectors]
        return part.access(addr, now, miss_fill_latency, is_write)

    def install(self, addr: int, ready_at: float, sector: int = 0) -> None:
        self._parts[sector % self.sectors].install(addr, ready_at)

    def contains(self, addr: int, sector: int = 0) -> bool:
        return self._parts[sector % self.sectors].contains(addr)

    def set_tracer(self, tracer, level: str = None) -> None:
        for part in self._parts:
            part.set_tracer(tracer, level)

    def flush(self) -> None:
        for part in self._parts:
            part.flush()

    def reset_stats(self) -> None:
        self._stats = CacheStats()
        for part in self._parts:
            part.stats = self._stats

    def settle(self) -> None:
        for part in self._parts:
            part.settle()

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the counters summed over every sector."""
        return dataclasses.replace(self._stats)


def is_fast_caches(l1s, l2) -> bool:
    """Whether a ``(l1s, l2)`` cache pair can take the fused wave loop."""
    return (isinstance(l2, FastSetAssociativeCache)
            and all(isinstance(l1, FastSectoredCache) for l1 in l1s))


#: Chunk-schedule memo: ``(lengths, interleave, join_stagger)`` -> chunks.
#: Full waves of a kernel share one length tuple, so a sweep needs a
#: handful of entries per kernel; cleared wholesale at the cap.
_SCHEDULES: dict = {}
_SCHEDULES_CAP = 1024


def chunk_schedule(lengths: tuple, interleave: int,
                   join_stagger: int) -> tuple:
    """The interleave order of one wave as ``(slot, start, stop)`` chunks.

    Co-resident traces run chunk-round-robin, ``interleave`` ops per
    turn, and slot ``k`` joins ``join_stagger`` ops after slot ``k-1``
    (or at once, when every active slot has finished).  The order is a
    pure function of the trace lengths, so it is computed once per
    distinct ``lengths`` and memoized.
    """
    key = (lengths, interleave, join_stagger)
    chunks = _SCHEDULES.get(key)
    if chunks is not None:
        return chunks
    n = len(lengths)
    indices = [0] * n
    remaining = sum(lengths)
    out = []
    active = 1
    since_join = 0
    while remaining:
        progressed = False
        for slot in range(active):
            i = indices[slot]
            length = lengths[slot]
            if i >= length:
                continue
            progressed = True
            stop = i + interleave
            if stop > length:
                stop = length
            out.append((slot, i, stop))
            indices[slot] = stop
            remaining -= stop - i
            since_join += stop - i
        if active < n and (since_join >= join_stagger or not progressed):
            active += 1
            since_join = 0
    if len(_SCHEDULES) >= _SCHEDULES_CAP:
        _SCHEDULES.clear()
    chunks = _SCHEDULES[key] = tuple(out)
    return chunks


def execute_wave(sim, kernel, cta_ids, start, l1, l2, metrics,
                 record_per_cta, sm_id, turnaround, prefetch_targets,
                 plan, tracer=None):
    """Fused twin of ``GpuSimulator._execute_wave``.

    Consumes precompiled access ops (see
    :meth:`repro.kernels.kernel.KernelSpec.compiled_trace`) in the
    memoized :func:`chunk_schedule` order and inlines both cache levels
    into one loop.  Arithmetic order is identical to the reference
    executor access by access, so cursors, per-CTA cycles and every
    counter match bit for bit.
    """
    from repro.gpu.metrics import CtaRecord

    config = sim.config
    n = len(cta_ids)
    warps = kernel.warps_per_cta
    resident_warps = n * warps
    hiding = max(1.0, min(resident_warps * config.mlp_per_warp,
                          sim.hiding_cap))
    issue_width = config.issue_width
    alu_step = kernel.compute_cycles_per_access / issue_width
    bypass = plan.bypass_streams
    sectors = config.l1_sectors
    l1_enabled = sim.l1_enabled
    reserved_exposure = sim.reserved_exposure

    # --- constants hoisted out of the access loop ---------------------
    l1_latency = config.l1_latency
    l2_latency = config.l2_latency
    dram_latency = config.dram_latency
    l2_fill = dram_latency - l2_latency
    # An L1 line filled from DRAM waits for whichever is slower.
    miss_latency = max(l2_latency, dram_latency)
    l2_service = config.l2_service_cycles
    dram_service = config.dram_service_cycles

    # --- raw L2 structure (random replacement, write-back-allocate) ---
    # Every L2 miss is exactly one DRAM transaction, and every L2
    # access is a read or a write transaction, so misses and the two
    # transaction counts are the only L2 counters the loop keeps.
    l2_line_size = l2.line_size
    l2_n_sets = l2.n_sets
    l2_assoc = l2.assoc
    l2_tags = l2._tags
    l2_ready = l2._ready
    l2_rng = l2._rng_state
    l2_misses = l2_reserved = l2_read_txn = l2_write_txn = 0

    # --- multi-chiplet NUMA constants (inert on a flat die) -----------
    # Ownership is pure address arithmetic over L2 line numbers; with
    # ``topo_on`` False every guard below short-circuits on one local
    # bool and the loop is bit-identical to the single-die fast path.
    topo = sim._topo
    topo_on = topo is not None
    if topo_on:
        home = topo.chiplet_of_sm(sm_id, config.num_sms)
        n_chiplets = topo.chiplets
        lines_per_block = topo.block_bytes // l2_line_size
        hop_service = topo.hop_service
        dram_latency_remote = dram_latency + topo.hop_latency
        l2_fill_remote = l2_fill + topo.hop_latency
    dram_remote = 0

    # --- raw L1 structure (LRU, write-evict), one part per sector ----
    # Every part has the same geometry, and the parts share one stats
    # object, so only the tag lists and the resident map differ by slot.
    parts = l1._parts
    l1_line_size = l1.line_size
    l1_n_sets = parts[0].n_sets
    l1_assoc = parts[0].assoc
    sub_per_line = l1_line_size // l2_line_size
    n_parts = len(parts)
    l1_acc = l1_misses = l1_reserved = l1_write_evictions = 0

    traces = [kernel.compiled_trace(v, l1_line_size, l2_line_size)
              for v in cta_ids]
    lengths = tuple([len(t) for t in traces])
    schedule = chunk_schedule(lengths, sim.interleave_chunk,
                              sim.join_stagger)

    # The sector (and hence L1 part) a CTA's accesses hit depends only
    # on its slot, so resolve it once per slot instead of once per chunk.
    slot_states = []
    for slot in range(n):
        part = parts[((slot * sectors) // n) % n_parts]
        slot_states.append((traces[slot], part._tags, part._ready))

    trace_on = tracer is not None
    # Reads skip the L1 when it is disabled, and streaming accesses skip
    # it under a bypass plan; writes then skip the L1 invalidation too.
    maybe_bypass = (not l1_enabled) or bypass
    need_cycles = record_per_cta or trace_on
    single_fill = sub_per_line == 1
    _len = len  # LOAD_FAST beats a builtin lookup on the hot path

    cursor = start
    cta_cycles = [0.0] * n
    metrics.warp_accesses += sum(lengths)
    for slot, i, stop in schedule:
        trace, p_tags, p_ready = slot_states[slot]
        for is_write, is_stream, l1_ops, l2_lines in trace[i:stop]:
            if is_write or (maybe_bypass
                            and (not l1_enabled or (bypass and is_stream))):
                # ----------------------------------------------------
                # straight to the L2: a write (the L1 is write-evict:
                # it drops its copies and forwards the data) or a read
                # that bypasses the L1
                # ----------------------------------------------------
                worst = l2_latency
                service = 0.0
                if is_write:
                    l2_write_txn += _len(l2_lines)
                    if l1_enabled and not (bypass and is_stream):
                        nsegs = _len(l1_ops)
                        l1_acc += nsegs
                        l1_misses += nsegs
                        for line, _subs in l1_ops:
                            if line in p_ready:
                                p_tags[line % l1_n_sets].remove(line)
                                del p_ready[line]
                                l1_write_evictions += 1
                                if trace_on:
                                    tracer.cache_event("L1", "write_eviction",
                                                       cursor)
                else:
                    l2_read_txn += _len(l2_lines)
                for line in l2_lines:
                    ready = l2_ready.get(line)
                    if ready is not None:
                        service += l2_service
                        if ready > cursor:
                            l2_reserved += 1
                            if trace_on:
                                tracer.cache_event("L2", "reserved_hit",
                                                   cursor)
                            candidate = l2_latency \
                                + (ready - cursor) * reserved_exposure
                            if candidate > worst:
                                worst = candidate
                        continue
                    l2_misses += 1
                    if trace_on:
                        tracer.cache_event("L2", "miss", cursor)
                    tags = l2_tags[line % l2_n_sets]
                    if _len(tags) >= l2_assoc:
                        l2_rng = (l2_rng * _LCG_MUL + _LCG_ADD) & _LCG_MASK
                        del l2_ready[tags.pop((l2_rng >> 16) % l2_assoc)]
                        if trace_on:
                            tracer.cache_event("L2", "eviction", cursor)
                    tags.append(line)
                    if topo_on and (line // lines_per_block) \
                            % n_chiplets != home:
                        l2_ready[line] = cursor + l2_fill_remote
                        service = (service + l2_service + dram_service
                                   + hop_service)
                        dram_remote += 1
                        if dram_latency_remote > worst:
                            worst = dram_latency_remote
                    else:
                        l2_ready[line] = cursor + l2_fill
                        service = service + l2_service + dram_service
                        if dram_latency > worst:
                            worst = dram_latency
                # stores do not stall the warp
                latency = 0.0 if is_write else worst
            else:
                # ----------------------------------------------------
                # a read through the L1; each miss fills the L1 line
                # from ``sub_per_line`` consecutive L2 lines
                # ----------------------------------------------------
                worst = l1_latency
                service = 0.0
                l1_acc += _len(l1_ops)
                for line, subs in l1_ops:
                    ready = p_ready.get(line)
                    if ready is not None:
                        # LRU touch: move to the back, unless it is
                        # already there -- the common case under
                        # clustering, where ganged CTAs re-read each
                        # other's lines.
                        tags = p_tags[line % l1_n_sets]
                        if tags[-1] != line:
                            tags.remove(line)
                            tags.append(line)
                        if ready > cursor:
                            l1_reserved += 1
                            if trace_on:
                                tracer.cache_event("L1", "reserved_hit",
                                                   cursor)
                            candidate = l1_latency \
                                + (ready - cursor) * reserved_exposure
                            if candidate > worst:
                                worst = candidate
                        continue
                    l1_misses += 1
                    if trace_on:
                        tracer.cache_event("L1", "miss", cursor)
                    tags = p_tags[line % l1_n_sets]
                    if _len(tags) >= l1_assoc:
                        del p_ready[tags.pop(0)]
                        if trace_on:
                            tracer.cache_event("L1", "eviction", cursor)
                    tags.append(line)
                    l2_read_txn += sub_per_line
                    if single_fill:
                        # Equal line sizes (Maxwell/Pascal): the fill is
                        # one L2 read, of the L2 line numbered ``line``.
                        ready = l2_ready.get(line)
                        if ready is not None:
                            service += l2_service
                            line_latency = l2_latency
                            if ready > cursor:
                                l2_reserved += 1
                                if trace_on:
                                    tracer.cache_event("L2", "reserved_hit",
                                                       cursor)
                        else:
                            l2_misses += 1
                            if trace_on:
                                tracer.cache_event("L2", "miss", cursor)
                            tags = l2_tags[line % l2_n_sets]
                            if _len(tags) >= l2_assoc:
                                l2_rng = (l2_rng * _LCG_MUL
                                          + _LCG_ADD) & _LCG_MASK
                                del l2_ready[tags.pop((l2_rng >> 16)
                                                      % l2_assoc)]
                                if trace_on:
                                    tracer.cache_event("L2", "eviction",
                                                       cursor)
                            tags.append(line)
                            if topo_on and (line // lines_per_block) \
                                    % n_chiplets != home:
                                l2_ready[line] = cursor + l2_fill_remote
                                service = (service + l2_service
                                           + dram_service + hop_service)
                                dram_remote += 1
                                line_latency = dram_latency_remote
                            else:
                                l2_ready[line] = cursor + l2_fill
                                service = (service + l2_service
                                           + dram_service)
                                line_latency = miss_latency
                    else:
                        line_latency = l2_latency
                        for sline in subs:
                            ready = l2_ready.get(sline)
                            if ready is not None:
                                service += l2_service
                                if ready > cursor:
                                    l2_reserved += 1
                                    if trace_on:
                                        tracer.cache_event(
                                            "L2", "reserved_hit", cursor)
                                continue
                            l2_misses += 1
                            if trace_on:
                                tracer.cache_event("L2", "miss", cursor)
                            tags = l2_tags[sline % l2_n_sets]
                            if _len(tags) >= l2_assoc:
                                l2_rng = (l2_rng * _LCG_MUL
                                          + _LCG_ADD) & _LCG_MASK
                                del l2_ready[tags.pop((l2_rng >> 16)
                                                      % l2_assoc)]
                                if trace_on:
                                    tracer.cache_event("L2", "eviction",
                                                       cursor)
                            tags.append(sline)
                            if topo_on and (sline // lines_per_block) \
                                    % n_chiplets != home:
                                l2_ready[sline] = cursor + l2_fill_remote
                                service = (service + l2_service
                                           + dram_service + hop_service)
                                dram_remote += 1
                                line_latency = dram_latency_remote
                            else:
                                l2_ready[sline] = cursor + l2_fill
                                service = (service + l2_service
                                           + dram_service)
                                if line_latency < miss_latency:
                                    line_latency = miss_latency
                    # The reference inserts at fill time ``cursor``,
                    # then installs the real completion over it; the
                    # final value is all anyone observes.
                    p_ready[line] = cursor + line_latency
                    if line_latency > worst:
                        worst = line_latency
                latency = worst
            if need_cycles:
                step = alu_step + latency / hiding + service
                cursor += step
                cta_cycles[slot] += step
            else:
                cursor += alu_step + latency / hiding + service

    # flush local counters back to the stat objects
    l2._rng_state = l2_rng
    l2_acc = l2_read_txn + l2_write_txn
    l2s = l2.stats
    l2s.accesses += l2_acc
    l2s.hits += l2_acc - l2_misses
    l2s.misses += l2_misses
    l2s.reserved_hits += l2_reserved
    l1s = l1._stats
    l1s.accesses += l1_acc
    l1s.hits += l1_acc - l1_misses
    l1s.misses += l1_misses
    l1s.reserved_hits += l1_reserved
    l1s.write_evictions += l1_write_evictions
    metrics.l2_read_transactions += l2_read_txn
    metrics.l2_write_transactions += l2_write_txn
    metrics.dram_transactions += l2_misses
    metrics.dram_remote_transactions += dram_remote

    # prefetch the head of each agent's next task (Section 4.3-III):
    # cold code, shared with the reference executor
    if prefetch_targets:
        cursor += sim._issue_prefetches(kernel, prefetch_targets, l1, l2,
                                        cursor, metrics, hiding, plan,
                                        home if topo_on else -1)

    fixed = kernel.fixed_compute_cycles * n / issue_width
    duration = (cursor - start) + fixed
    metrics.occupancy_weighted_warps += resident_warps * duration
    if trace_on:
        for slot, v in enumerate(cta_ids):
            tracer.cta(sm_id, v, turnaround, cta_cycles[slot])
    if record_per_cta:
        for slot, v in enumerate(cta_ids):
            metrics.cta_records.append(CtaRecord(
                original_id=v, sm_id=sm_id, turnaround=turnaround,
                access_cycles=cta_cycles[slot]))
    return duration
