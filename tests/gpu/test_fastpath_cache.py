"""Hand-computed cases for the fast-path cache layout and chunk schedule.

:class:`~repro.gpu.fastpath.FastSetAssociativeCache` keeps one dict per
cache (resident line -> fill-ready time) beside per-set tag lists whose
order is the recency order.  The differential suites prove it matches
the reference model on random streams; these cases pin the layout
itself on streams small enough to work out by hand, so a regression
names the exact set and line that went wrong.

Geometry used throughout: 32-byte lines, 4 ways, 2 sets (256 bytes).
Line ``x`` lives at address ``32 * x`` and maps to set ``x % 2``, so
lines 0, 2, 4, 6, 8 all compete for set 0.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import fastpath
from repro.gpu.config import WritePolicy
from repro.gpu.fastpath import FastSetAssociativeCache, chunk_schedule
from repro.gpu.refmodel import SetAssociativeCache

LINE = 32
ASSOC = 4
SIZE = LINE * ASSOC * 2


def addr(line: int) -> int:
    return line * LINE


def make(policy=WritePolicy.WRITE_EVICT, random_replacement=False):
    return FastSetAssociativeCache(SIZE, LINE, ASSOC, policy,
                                   random_replacement=random_replacement)


def fill(cache, lines, now=0.0, latency=10.0):
    for line in lines:
        cache.access(addr(line), now, latency)


def sets(cache):
    return [list(tags) for tags in cache._tags]


class TestLruLayout:
    def test_misses_append_in_order(self):
        cache = make()
        fill(cache, [0, 2, 4, 1])
        assert sets(cache) == [[0, 2, 4], [1]]
        assert cache._ready == {0: 10.0, 2: 10.0, 4: 10.0, 1: 10.0}

    def test_touch_at_non_mru_position_moves_line_to_back(self):
        cache = make()
        fill(cache, [0, 2, 4, 6])
        assert cache.access(addr(2), 20.0, 10.0) == (True, 20.0)
        assert sets(cache) == [[0, 4, 6, 2], []]
        # The next miss in set 0 evicts the LRU front (line 0), not the
        # line that was inserted first among the survivors.
        assert cache.access(addr(8), 30.0, 10.0) == (False, 40.0)
        assert sets(cache) == [[4, 6, 2, 8], []]
        assert sorted(cache._ready) == [2, 4, 6, 8]
        assert cache._ready[8] == 40.0

    def test_touch_at_mru_position_keeps_order(self):
        cache = make()
        fill(cache, [0, 2, 4])
        cache.access(addr(4), 20.0, 10.0)
        assert sets(cache) == [[0, 2, 4], []]

    def test_reserved_hit_waits_for_the_fill(self):
        cache = make()
        assert cache.access(addr(3), 0.0, 100.0) == (False, 100.0)
        assert cache.access(addr(3), 40.0, 100.0) == (True, 100.0)
        assert cache.access(addr(3), 150.0, 100.0) == (True, 150.0)
        stats = cache.stats
        assert (stats.accesses, stats.hits, stats.misses,
                stats.reserved_hits) == (3, 2, 1, 1)

    def test_write_evicts_a_resident_line(self):
        cache = make()
        fill(cache, [1, 3, 0])
        assert cache.access(addr(3), 20.0, 10.0, is_write=True) == \
            (False, 20.0)
        assert sets(cache) == [[0], [1]]
        assert 3 not in cache._ready
        stats = cache.stats
        assert (stats.misses, stats.write_evictions) == (4, 1)

    def test_write_to_an_absent_line_changes_nothing_resident(self):
        cache = make()
        fill(cache, [1])
        cache.access(addr(5), 20.0, 10.0, is_write=True)
        assert sets(cache) == [[], [1]]
        assert cache.stats.write_evictions == 0

    def test_write_back_allocate_fills_like_a_read(self):
        cache = make(WritePolicy.WRITE_BACK_ALLOCATE)
        assert cache.access(addr(2), 5.0, 10.0, is_write=True) == \
            (False, 15.0)
        assert sets(cache) == [[2], []]


class TestInstallContainsSettleFlush:
    def test_install_over_a_resident_line_moves_it_and_resets_ready(self):
        cache = make()
        fill(cache, [0, 2, 4])
        cache.install(addr(0), 7.0)
        assert sets(cache) == [[2, 4, 0], []]
        assert cache._ready[0] == 7.0
        assert cache.stats.accesses == 3  # installs are not accesses

    def test_install_into_a_full_set_evicts_the_lru_line(self):
        cache = make()
        fill(cache, [0, 2, 4, 6])
        cache.install(addr(8), 50.0)
        assert sets(cache) == [[2, 4, 6, 8], []]
        assert 0 not in cache._ready

    def test_contains_does_not_touch(self):
        cache = make()
        fill(cache, [0, 2, 4, 6])
        assert cache.contains(addr(0))
        assert not cache.contains(addr(1))
        cache.access(addr(8), 20.0, 10.0)
        # Line 0 was still the LRU victim: contains() left the order.
        assert not cache.contains(addr(0))
        assert sets(cache) == [[2, 4, 6, 8], []]

    def test_settle_completes_fills_and_keeps_order(self):
        cache = make()
        fill(cache, [0, 2, 1], now=0.0, latency=500.0)
        cache.settle()
        assert sets(cache) == [[0, 2], [1]]
        assert cache._ready == {0: 0.0, 2: 0.0, 1: 0.0}
        assert cache.access(addr(2), 1.0, 500.0) == (True, 1.0)
        assert cache.stats.reserved_hits == 0

    def test_flush_drops_lines_and_keeps_counters(self):
        cache = make()
        fill(cache, [0, 1, 2])
        cache.flush()
        assert sets(cache) == [[], []]
        assert cache._ready == {}
        assert cache.stats.accesses == 3
        assert cache.access(addr(0), 0.0, 10.0) == (False, 10.0)


class TestRandomReplacement:
    """The L2's pseudo-random victim picks index the set's insertion
    order, so the fast model must evict exactly the reference's lines."""

    def set0_orders(self, cache, lines):
        """Set 0's lines, in recency order, after each access."""
        out = []
        for step, line in enumerate(lines):
            cache.access(addr(line), float(step), 10.0)
            if isinstance(cache, FastSetAssociativeCache):
                out.append(list(cache._tags[0]))
            else:
                out.append(list(cache._sets[0]))
        return out

    def test_victim_sequence_matches_the_reference(self):
        rng = random.Random(1234)
        # Set-0 lines only, so every miss past the fourth evicts.
        stream = [2 * rng.randrange(12) for _ in range(200)]
        fast = FastSetAssociativeCache(SIZE, LINE, ASSOC,
                                       WritePolicy.WRITE_BACK_ALLOCATE,
                                       random_replacement=True, seed=99)
        ref = SetAssociativeCache(SIZE, LINE, ASSOC,
                                  WritePolicy.WRITE_BACK_ALLOCATE,
                                  random_replacement=True, seed=99)
        assert self.set0_orders(fast, stream) == \
            self.set0_orders(ref, stream)
        assert fast.stats.misses > 50
        assert fast._rng_state == ref._rng_state

    def test_first_victims_are_pinned(self):
        # Lines 0, 2, 4, 6 fill set 0; then 8, 10, 12 each evict the
        # way the default-seed LCG names: (state >> 16) % 4.
        cache = make(WritePolicy.WRITE_BACK_ALLOCATE,
                     random_replacement=True)
        fill(cache, [0, 2, 4, 6])
        state = 0x5EED
        expected = [0, 2, 4, 6]
        for line in (8, 10, 12):
            state = (state * 1103515245 + 12345) & 0xFFFFFFFF
            del expected[(state >> 16) % ASSOC]
            expected.append(line)
            cache.access(addr(line), 0.0, 10.0)
            assert cache._tags[0] == expected


def interleave_order(lengths, interleave, join_stagger):
    """The reference executor's interleave loop, one ``(slot, op)`` per
    access: chunk-round-robin over the active slots, one more slot
    joining every ``join_stagger`` ops (or at once when all active
    slots are done)."""
    n = len(lengths)
    indices = [0] * n
    remaining = sum(lengths)
    order = []
    active = 1
    since_join = 0
    while remaining:
        progressed = False
        for slot in range(active):
            i = indices[slot]
            if i >= lengths[slot]:
                continue
            progressed = True
            stop = min(i + interleave, lengths[slot])
            order.extend((slot, j) for j in range(i, stop))
            indices[slot] = stop
            remaining -= stop - i
            since_join += stop - i
        if active < n and (since_join >= join_stagger or not progressed):
            active += 1
            since_join = 0
    return order


def flatten(schedule):
    return [(slot, j) for slot, start, stop in schedule
            for j in range(start, stop)]


class TestChunkSchedule:
    @given(lengths=st.lists(st.integers(0, 40), min_size=1, max_size=10),
           interleave=st.integers(1, 5), join_stagger=st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_memoized_schedule_equals_the_interleave_loop(
            self, lengths, interleave, join_stagger):
        lengths = tuple(lengths)
        expected = interleave_order(lengths, interleave, join_stagger)
        first = chunk_schedule(lengths, interleave, join_stagger)
        assert flatten(first) == expected
        # A memo hit returns the same schedule, not a recomputation.
        assert chunk_schedule(lengths, interleave, join_stagger) is first

    def test_known_schedule(self):
        # Two 3-op CTAs, chunk 2, stagger 2: slot 1 joins after slot 0's
        # first chunk, then both alternate.
        assert chunk_schedule((3, 3), 2, 2) == (
            (0, 0, 2), (0, 2, 3), (1, 0, 2), (1, 2, 3))

    def test_memo_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(fastpath, "_SCHEDULES", {})
        monkeypatch.setattr(fastpath, "_SCHEDULES_CAP", 8)
        for k in range(50):
            lengths = (k + 1, 3)
            schedule = chunk_schedule(lengths, 2, 6)
            assert len(fastpath._SCHEDULES) <= 8
            assert flatten(schedule) == interleave_order(lengths, 2, 6)
