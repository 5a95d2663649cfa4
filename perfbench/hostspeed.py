"""Host-speed reference: a fixed loop timed between the measured slices.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent over seconds to minutes: other tenants take the
CPU away for a while (on a VM, steal time) and, while it runs, compete
for its caches and memory bandwidth.  Such drift moves every host time
of a run together and hides a program's own change.  The benchmark
removes it in two steps.

* Serial in-process work (sweep jobs, tunes) is timed in thread CPU
  seconds, which leave out the time the thread waited for a CPU; with
  paravirtual steal-time accounting, as on common VMs, the guest kernel
  keeps steal time out of every task's CPU time.
* A reference loop -- a miniature of the simulator's hot loop, frozen
  here so that no change to the program can speed it up -- is timed in
  wall and in thread CPU seconds after every measured slice of a run
  and around every set-up.  A run's host times are reported scaled to
  a host on which one reference loop takes :data:`NOMINAL_S`:
  ``raw * NOMINAL_S / reference``, with ``reference`` the median of
  the run's samples on the raw time's clock (for a set-up, the mean of
  the two wall samples around it).  A slower CPU slows the loop about
  as much as the program and cancels; a slower program does not touch
  the loop.

The loop walks a fixed pseudo-random trace of warp accesses through an
LRU L1 (per-set lists, ``list.index``, ``del``/``append``) and a large
random-replacement L2 whose tag lists span a few megabytes, as the
simulator's fused wave loop does, so that cache and memory contention
slow it about as much as they slow the simulator.
"""

from __future__ import annotations

import statistics
import time

#: Reference-loop time of the host the scaled figures speak for.
NOMINAL_S = 0.005

#: Reference loops per sample; a sample is their median.
LOOPS = 3

L1_SETS, L1_WAYS = 32, 4
L2_SETS, L2_WAYS = 4096, 16
TRACE_OPS = 6000
_LCG_MUL, _LCG_ADD, _LCG_MASK = 1103515245, 12345, 0x7FFFFFFF


def _trace() -> "list[tuple]":
    """(is_write, l1 lines, l2 lines) per access: a hot set that mostly
    hits in L1 plus a wide stream that lives in L2 or goes past it."""
    x = 0x5EED
    ops = []
    for i in range(TRACE_OPS):
        x = (x * _LCG_MUL + _LCG_ADD) & _LCG_MASK
        if x % 5 < 3:
            base = (x >> 8) % 96
        else:
            base = 4096 + (x >> 8) % (L2_SETS * L2_WAYS * 2)
        l1 = tuple(base * 4 + k for k in range(1 + x % 2))
        l2 = tuple(line * 4 + k for line in l1 for k in range(2))
        ops.append((x % 11 == 0, l1, l2))
    return ops


class _Model:
    def __init__(self):
        self.trace = _trace()
        self.l1 = [[] for _ in range(L1_SETS)]
        self.l1_ready = [[] for _ in range(L1_SETS)]
        self.l2 = [[] for _ in range(L2_SETS)]
        self.l2_ready = [[] for _ in range(L2_SETS)]
        self.rng = 0x5EED

    def run(self) -> float:
        l1, l1_ready, l2, l2_ready = (self.l1, self.l1_ready, self.l2,
                                      self.l2_ready)
        rng = self.rng
        cursor = 0.0
        hits = 0
        for is_write, l1_lines, l2_lines in self.trace:
            for line in l1_lines:
                s = line % L1_SETS
                tags = l1[s]
                if line in tags:
                    k = tags.index(line)
                    ready = l1_ready[s][k]
                    del tags[k]
                    del l1_ready[s][k]
                    if not is_write:
                        hits += 1
                        tags.append(line)
                        l1_ready[s].append(ready)
                        cursor += 1.0 if ready <= cursor else ready - cursor
                        continue
                elif not is_write:
                    if len(tags) >= L1_WAYS:
                        del tags[0]
                        del l1_ready[s][0]
                    tags.append(line)
                    l1_ready[s].append(cursor + 28.0)
                for sub in l2_lines:
                    s2 = sub % L2_SETS
                    tags2 = l2[s2]
                    if sub in tags2:
                        cursor += 0.5
                        continue
                    if len(tags2) >= L2_WAYS:
                        rng = (rng * _LCG_MUL + _LCG_ADD) & _LCG_MASK
                        v = (rng >> 16) % len(tags2)
                        del tags2[v]
                        del l2_ready[s2][v]
                    tags2.append(sub)
                    l2_ready[s2].append(cursor + 220.0)
                    cursor += 2.0
        self.rng = rng
        return cursor + hits


_MODEL = None


def sample() -> "tuple[float, float]":
    """Median wall and median thread CPU seconds of :data:`LOOPS`
    reference loops."""
    global _MODEL
    if _MODEL is None:
        _MODEL = _Model()
        _MODEL.run()  # fill the caches once, so every sample is alike
    walls, cpus = [], []
    for _ in range(LOOPS):
        wall, cpu = time.perf_counter(), time.thread_time()
        _MODEL.run()
        cpus.append(time.thread_time() - cpu)
        walls.append(time.perf_counter() - wall)
    return statistics.median(walls), statistics.median(cpus)
