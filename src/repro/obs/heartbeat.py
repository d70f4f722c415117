"""Live campaign heartbeats.

A :class:`ProgressReporter` turns the parallel executor's per-site (or
per-shard) completions into periodic one-line snapshots — domains
done/total, completion rate, ETA, open breakers, fault counts — without
the campaign code knowing when (or whether) a line is due. All timing
flows through the injectable obs clock, so under a
:class:`~repro.obs.clock.TickClock` the emitted lines are exactly
reproducible: same work, same lines, byte for byte.

Thread-safety: a single lock guards the counters and the emission
decision, so callers may ``advance()`` from several threads. The sharded
executor calls it from one: per site in serial mode, per shard from the
parent in process mode.
Cost when idle: campaigns run with ``progress=None`` by default, so the
no-``--heartbeat`` path performs zero clock reads and zero allocations.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, Optional

from repro.obs.clock import get_clock


class ProgressReporter:
    """Rate-limited campaign progress snapshots driven by the obs clock."""

    def __init__(
        self,
        interval: float,
        emit: Optional[Callable[[str], None]] = None,
        label: str = "campaign",
        health: Optional[Callable[[], dict]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be positive, got {interval!r}")
        self.interval = float(interval)
        self.label = label
        self._emit = emit
        #: optional live-health provider: its key=value pairs (e.g. queue
        #: depth, shed rate, degradation tier) are appended to every line
        self._health = health
        #: timestamps default to the obs clock; the verdict service passes
        #: its sim clock so service heartbeats tick in simulated seconds
        self._now = clock if clock is not None else (lambda: get_clock().now())
        self._lock = threading.Lock()
        self._active = False
        self._started = 0.0
        self._last_emit = 0.0
        self.done = 0
        self.total = 0
        self.failed = 0
        self.faults = 0
        self.breakers_opened = 0
        self.breakers_closed = 0

    # -- lifecycle ----------------------------------------------------------------

    def begin(self, total: int, label: Optional[str] = None) -> None:
        """Arm the reporter for one campaign leg of ``total`` units."""
        with self._lock:
            if label is not None:
                self.label = label
            self.total = total
            self.done = 0
            self.failed = 0
            self.faults = 0
            self.breakers_opened = 0
            self.breakers_closed = 0
            self._started = self._now()
            self._last_emit = self._started
            self._active = True

    def advance(
        self,
        n: int = 1,
        failed: int = 0,
        faults: int = 0,
        breakers_opened: int = 0,
        breakers_closed: int = 0,
    ) -> None:
        """Record ``n`` completed units; emit a line if the interval elapsed."""
        with self._lock:
            if not self._active:
                return
            self.done += n
            self.failed += failed
            self.faults += faults
            self.breakers_opened += breakers_opened
            self.breakers_closed += breakers_closed
            now = self._now()
            if now - self._last_emit >= self.interval:
                self._last_emit = now
                self._out(self._line(now))

    def finish(self) -> None:
        """Disarm and emit the final summary line."""
        with self._lock:
            if not self._active:
                return
            self._active = False
            self._out(self._line(self._now(), final=True))

    # -- formatting ---------------------------------------------------------------

    def _out(self, line: str) -> None:
        if self._emit is not None:
            self._emit(line)
        else:
            print(line, file=sys.stderr, flush=True)

    def _line(self, now: float, final: bool = False) -> str:
        elapsed = max(now - self._started, 0.0)
        rate = self.done / elapsed if elapsed > 0 else 0.0
        open_breakers = max(self.breakers_opened - self.breakers_closed, 0)
        parts = [
            f"[hb] {self.label}",
            f"{self.done}/{self.total}",
            f"rate={rate:.1f}/s",
        ]
        if final:
            parts.append(f"elapsed={elapsed:.2f}s done")
        else:
            remaining = max(self.total - self.done, 0)
            eta = f"{remaining / rate:.1f}s" if rate > 0 else "?"
            parts.append(f"eta={eta}")
        parts.append(f"failed={self.failed}")
        parts.append(f"faults={self.faults}")
        parts.append(f"breakers_open={open_breakers}")
        if self._health is not None:
            parts.extend(f"{key}={value}" for key, value in self._health().items())
        return " ".join(parts)
