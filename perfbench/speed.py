"""The speed probe: a fixed piece of work that tells how fast the host runs now.

The benchmark gets a few cores of a shared host, and the host's speed changes
every few seconds: the same call may take 1.7 times as long a moment later, in
CPU time as well as in wall time.  So the worker keeps taking the probe, also
in the middle of a long call, and scales each call's time by REF_PROBE_S over
the probes around it (see ``Probes``).  The times it reports are thus seconds
at the speed at which the probe takes REF_PROBE_S, which is about that of a
2-vCPU Xeon VM with Python 3.11 when its host is quiet.

The probe is plain Python written apart from qnull, so no change to the
program moves it.  It mixes the kinds of work qnull does, because kinds of
work slow down by different amounts when the host is busy: row reduction of
small-int lists mod p, Fraction elimination, and look-ups in a dict larger
than the CPU caches.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

REF_PROBE_S = 0.015

ROWS_P = 7
ROWS_N = 40
FRAC_N = 12
TABLE_SIZE = 100_000


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        top = rows[rank] = [x * inv % p for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = row[c]
                rows[i] = [(x - f * y) % p for x, y in zip(row, top)]
        rank += 1
    return rank


def _rank_fractions(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _lookups(table: dict[int, int], keys: list[int]) -> int:
    total = 0
    seen = set()
    for k in keys:
        total += table[k]
        seen.add((k & 255, k >> 20))
    return total + len(seen)


class Probes:
    """The speed probes of one process, and the scaling of call times by them.

    While started, a probe is also taken from a SIGVTALRM handler every
    ``every`` seconds of the process's user CPU time, so in the middle of long
    calls too (a long numpy call holds the probe until it returns).  A timer
    on CPU time does not fire while the process waits for a subprocess.  The
    time spent on probes is kept in ``spent``, so that callers can take it out
    of the times they measure.
    """

    def __init__(self):
        w0, c0 = time.perf_counter(), time.process_time()
        rng = random.Random(1)
        self._residues = [[rng.randrange(ROWS_P) for _ in range(ROWS_N)] for _ in range(ROWS_N)]
        self._fractions = [[Fraction(rng.randrange(-3, 4)) for _ in range(FRAC_N)]
                           for _ in range(FRAC_N)]
        self._table = {(i * 2654435761) & 0xFFFFFFF: i for i in range(TABLE_SIZE)}
        self._keys = list(self._table)[::4]
        self.samples: list[tuple[float, float, float]] = []  # (time stamp, wall, cpu), in order
        # wall, cpu of building the probe's data and of every probe taken
        self.spent = [time.perf_counter() - w0, time.process_time() - c0]
        self._busy = False

    def _probe(self) -> tuple[float, float, float]:
        """(time stamp, wall s, cpu s) of one probe, with the garbage collector held off."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            _rank_mod_p(self._residues, ROWS_P)
            _rank_fractions(self._fractions)
            _lookups(self._table, self._keys)
            w1, c1 = time.perf_counter(), time.process_time()
        finally:
            if was_enabled:
                gc.enable()
        return (w0 + w1) / 2, w1 - w0, c1 - c0

    def take(self) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        try:
            sample = self._probe()
        finally:
            self._busy = False
        self.samples.append(sample)
        self.spent[0] += sample[1]
        self.spent[1] += sample[2]

    def start(self, every: float) -> None:
        signal.signal(signal.SIGVTALRM, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_VIRTUAL, every, every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """The factor to reference speed for a call that ran from start to end.

        The probes that count are the last one before the call, the first one
        after it, and every one within half the call's length of it, so a long
        call is judged by the host's speed over about its own span.  The
        factor is REF_PROBE_S over their mean wall time.  It serves for CPU time
        as well: the kernel may count CPU time in ticks of several ms, too
        coarse for one probe.
        """
        half = (end - start) / 2
        stamps = [p[0] for p in self.samples]
        lo = min(bisect.bisect_left(stamps, start) - 1, bisect.bisect_left(stamps, start - half))
        hi = max(bisect.bisect_right(stamps, end) + 1, bisect.bisect_right(stamps, end + half))
        near = self.samples[max(0, lo):hi]
        return REF_PROBE_S / statistics.fmean(p[1] for p in near)
