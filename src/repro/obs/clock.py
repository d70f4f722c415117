"""Injectable wall-clock for all campaign timing.

Every duration the pipelines measure — shard wall clocks, stage latency
histograms, span start/end stamps — is read from the *process-wide obs
clock* instead of :func:`time.perf_counter` directly. Real runs keep the
default :class:`PerfClock`; tests install a :class:`TickClock`, whose
reads advance by a fixed quantum, making ``ShardMetrics.domains_per_sec``
and ``CampaignMetrics.parallel_efficiency`` exactly reproducible (the
wall-clock nondeterminism that previously made them untestable).

The clock is installed with :func:`set_clock` or, scoped, with the
:func:`use_clock` context manager. Forked process-pool workers inherit
the parent's installed clock (``TickClock`` is also lock-protected, so
reads from several threads stay strictly monotonic).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class PerfClock:
    """The real monotonic high-resolution clock."""

    __slots__ = ()

    def now(self) -> float:
        return time.perf_counter()

    def __repr__(self) -> str:
        return "PerfClock()"


class TickClock:
    """Deterministic clock: every read advances time by a fixed tick.

    Under a single thread, the N-th read always returns
    ``start + N * tick``, so any quantity derived from paired reads
    (durations, rates, efficiencies) is a pure function of the work done
    — identical across runs. Reads are serialized by a lock, so the clock
    stays strictly monotonic when several threads read it too (though
    their interleaving, and hence their durations, is scheduler-dependent).
    """

    __slots__ = ("_now", "tick", "_lock")

    def __init__(self, start: float = 0.0, tick: float = 0.001) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        self._now = float(start)
        self.tick = float(tick)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            self._now += self.tick
            return self._now

    @property
    def reads(self) -> int:
        """Number of reads so far (for zero-overhead assertions)."""
        with self._lock:
            return round(self._now / self.tick)

    def __repr__(self) -> str:
        return f"TickClock(now={self._now:.3f}, tick={self.tick})"


_default_clock = PerfClock()


def get_clock():
    """The currently installed obs clock."""
    return _default_clock


def set_clock(clock):
    """Install ``clock`` process-wide; returns the previously installed one."""
    global _default_clock
    previous = _default_clock
    _default_clock = clock
    return previous


@contextmanager
def use_clock(clock):
    """Scoped clock install (tests): restores the previous clock on exit."""
    previous = set_clock(clock)
    try:
        yield clock
    finally:
        set_clock(previous)
