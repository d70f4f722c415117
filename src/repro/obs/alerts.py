"""Multi-window SLO burn-rate alerting over windowed telemetry.

An :class:`AlertRule` is one ``--fail-on``-style threshold expression
(``shed_rate>0.2``, ``p99>1.0``, ``error_rate>0.5``) evaluated over
*two or more* trailing windows of tick records, SRE burn-rate style: the
rule **fires** only when the condition holds in *every* window (the
short window proves the problem is happening now, the long window proves
it is burning real error budget rather than blipping), and **resolves**
as soon as the short window recovers. Firings and resolutions are
recorded as structured :class:`AlertEvent`\\ s — evidence-style objects
citing each window's length, the observed value, the threshold, and the
degradation tier in force — and persist inside ``timeseries.jsonl``.

:mod:`repro.obs.gates` parses each expression and resolves it over a
window (a :class:`~repro.obs.gates.WindowView`). Rules are evaluated
only once their longest window is fully populated with ticks, so a
15-second budget never fires off 2 seconds of data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs import gates

#: Degradation tiers, most degraded first — mirrors (and is pinned
#: against) ``repro.core.detector.DEGRADATION_TIERS``; duplicated here so
#: the obs layer stays importable without the detection stack.
TIER_SEVERITY = ("static-only", "no-classifier", "no-dynamic", "full")


@dataclass(frozen=True)
class AlertRule:
    """One burn-rate rule: a gate that must hold in every window."""

    name: str
    gate: gates.Gate
    #: trailing window lengths in seconds, shortest first
    windows: tuple

    @classmethod
    def parse(cls, name: str, expression: str, windows: Iterable[float]) -> "AlertRule":
        gate = gates.parse(expression)
        # an alert has no base run: rejects a relative gate up front, with
        # the same error every command gives
        gates.evaluate(gate, gates.WindowView((), 1.0))
        windows = tuple(sorted(float(w) for w in windows))
        if not windows:
            raise ValueError(f"alert rule {name!r} needs at least one window")
        if any(w <= 0 for w in windows):
            raise ValueError(f"alert windows must be positive, got {windows}")
        return cls(name=name, gate=gate, windows=windows)

    @property
    def expr(self) -> str:
        return f"{self.gate.target}{self.gate.op}{self.gate.value:g}"


@dataclass(frozen=True)
class AlertEvent:
    """One firing or resolution, with the evidence that justified it."""

    rule: str
    kind: str  # fire | resolve
    tick: int
    time: float
    expr: str
    tier: str
    #: per-window readings: (seconds, observed, threshold, op) tuples
    windows: tuple = ()
    summary: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "tick": self.tick,
            "time": self.time,
            "expr": self.expr,
            "tier": self.tier,
            "windows": [
                {
                    "seconds": seconds,
                    "observed": observed,
                    "threshold": threshold,
                    "op": op,
                }
                for seconds, observed, threshold, op in self.windows
            ],
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AlertEvent":
        return cls(
            rule=payload["rule"],
            kind=payload["kind"],
            tick=payload["tick"],
            time=payload["time"],
            expr=payload.get("expr", ""),
            tier=payload.get("tier", "n/a"),
            windows=tuple(
                (w["seconds"], w["observed"], w["threshold"], w["op"])
                for w in payload.get("windows", [])
            ),
            summary=payload.get("summary", ""),
        )


def worst_tier(records) -> str:
    """Most degraded tier with traffic in the window ('n/a' if none)."""
    for tier in TIER_SEVERITY:
        name = f"service.tier.{tier}"
        if sum(record.counters.get(name, 0) for record in records):
            return tier
    return "n/a"


# ---------------------------------------------------------------------------
# rule sets


@dataclass(frozen=True)
class AlertRuleSet:
    """The rules a recorder evaluates after every completed tick."""

    rules: tuple = ()

    def __iter__(self):
        return iter(self.rules)

    def __bool__(self) -> bool:
        return bool(self.rules)

    def ticks(self, window_seconds: float, interval: float) -> int:
        return max(1, int(round(window_seconds / interval)))

    def max_window_ticks(self, interval: float) -> int:
        longest = max((w for rule in self.rules for w in rule.windows), default=0.0)
        return self.ticks(longest, interval) if longest else 0

    def evaluate(self, records: list, interval: float, firing: dict) -> list:
        """One tick's fire/resolve decisions; mutates ``firing`` state.

        ``records`` must be the ring's retained ticks in ascending order;
        ``firing`` maps rule name → currently-firing bool and carries the
        hysteresis between calls.
        """
        if not records:
            return []
        latest = records[-1]
        events = []
        for rule in self.rules:
            readings = []
            populated = True
            violated_all = True
            for window_seconds in rule.windows:
                k = self.ticks(window_seconds, interval)
                if len(records) < k:
                    populated = False
                    break
                verdict = gates.evaluate(rule.gate, gates.WindowView(records[-k:], interval))
                readings.append(
                    (window_seconds, verdict.measured, rule.gate.value, rule.gate.op)
                )
                if not verdict.violated:
                    violated_all = False
                    break
            if firing.get(rule.name):
                # resolve on short-window recovery: the condition no
                # longer holds over the most recent window
                short_k = self.ticks(rule.windows[0], interval)
                verdict = gates.evaluate(
                    rule.gate, gates.WindowView(records[-short_k:], interval)
                )
                if not verdict.violated:
                    firing[rule.name] = False
                    observed = verdict.measured
                    reading = (rule.windows[0], observed, rule.gate.value, rule.gate.op)
                    events.append(
                        AlertEvent(
                            rule=rule.name,
                            kind="resolve",
                            tick=latest.tick,
                            time=latest.time,
                            expr=rule.expr,
                            tier=worst_tier(records[-short_k:]),
                            windows=(reading,),
                            summary=(
                                f"{rule.name} resolved: {rule.expr} no longer holds "
                                f"over {rule.windows[0]:g}s (observed {observed:.4g})"
                            ),
                        )
                    )
                continue
            if populated and violated_all:
                firing[rule.name] = True
                short_k = self.ticks(rule.windows[0], interval)
                tier = worst_tier(records[-short_k:])
                cited = "; ".join(
                    f"{seconds:g}s window observed {observed:.4g}"
                    for seconds, observed, _, _ in readings
                )
                events.append(
                    AlertEvent(
                        rule=rule.name,
                        kind="fire",
                        tick=latest.tick,
                        time=latest.time,
                        expr=rule.expr,
                        tier=tier,
                        windows=tuple(readings),
                        summary=(
                            f"{rule.name} firing: {rule.expr} held in every window "
                            f"({cited}; tier {tier})"
                        ),
                    )
                )
        return events


def default_service_rules() -> AlertRuleSet:
    """The burn-rate rules `serve`/`loadgen` evaluate by default.

    Windows are sized for the simulated service (nominal capacity ~24 r/s,
    request deadlines of 2 s): 5 s proves "now", 15 s proves sustained
    budget burn. A 2×-capacity overload fires ``shed-burn`` within the
    first long window; a ¼×-capacity run stays silent on every rule.
    """
    return AlertRuleSet(
        rules=(
            AlertRule.parse("shed-burn", "shed_rate>0.2", windows=(5.0, 15.0)),
            AlertRule.parse("latency-burn", "p99>1.0", windows=(5.0, 15.0)),
            AlertRule.parse("error-burn", "error_rate>0.5", windows=(5.0, 15.0)),
        )
    )
