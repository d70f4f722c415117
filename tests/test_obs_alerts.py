"""Multi-window burn-rate alerting: rules, windows, and the fire/resolve
state machine — plus the issue's acceptance scenario end to end.

The synthetic-feed tests drive :meth:`AlertRuleSet.evaluate` with
hand-built tick records so every transition (unpopulated window, short
window violated but long not, fire, hysteresis while firing, resolve on
short-window recovery) is pinned without a service in the loop. The
acceptance tests then run the real seeded loadgen: a 2x-capacity
overload MUST fire a burn-rate alert citing window, threshold, observed
value, and degradation tier; the same seed at quarter capacity fires
none; and twin runs serialize byte-identically.
"""

from __future__ import annotations

import pytest

from repro.obs.alerts import (
    AlertRule,
    AlertRuleSet,
    default_service_rules,
    worst_tier,
)
from repro.obs.gates import WindowView
from repro.obs.metrics import DEFAULT_BOUNDS
from repro.obs.timeseries import HistogramWindow, TickRecord


def _tick(tick, counters=None, latency=None):
    histograms = {}
    if latency is not None:
        counts = [0] * (len(DEFAULT_BOUNDS) + 1)
        for seconds, n in latency:
            bucket = len(DEFAULT_BOUNDS)
            for i, bound in enumerate(DEFAULT_BOUNDS):
                if seconds <= bound:
                    bucket = i
                    break
            counts[bucket] += n
        histograms["service.latency"] = HistogramWindow(
            bounds=DEFAULT_BOUNDS,
            counts=counts,
            count=sum(counts),
            total_ns=sum(int(s * 1e9) * n for s, n in latency),
        )
    return TickRecord(
        tick=tick, time=float(tick + 1), counters=counters or {}, histograms=histograms
    )


def _shed_tick(tick, offered=10, rejected=8):
    return _tick(
        tick,
        counters={
            "service.requests.offered": offered,
            "service.rejected.queue_full": rejected,
            "service.tier.static-only": offered - rejected,
        },
    )


def _quiet_tick(tick, offered=10):
    return _tick(
        tick,
        counters={
            "service.requests.offered": offered,
            "service.requests.completed": offered,
            "service.tier.full": offered,
        },
    )


class TestRuleParsing:
    def test_parse_builds_sorted_windows(self):
        rule = AlertRule.parse("r", "shed_rate>0.2", windows=(15.0, 5.0))
        assert rule.windows == (5.0, 15.0)
        assert rule.gate.target == "shed_rate"
        assert rule.gate.op == ">"
        assert rule.gate.value == 0.2
        assert rule.expr == "shed_rate>0.2"

    def test_relative_expressions_are_rejected(self):
        with pytest.raises(ValueError, match="absolute"):
            AlertRule.parse("r", "p99>1.5x", windows=(5.0,))

    def test_garbage_expression_is_rejected(self):
        with pytest.raises(ValueError, match="bad gate expression"):
            AlertRule.parse("r", "p99 is large", windows=(5.0,))

    def test_windows_must_be_positive_and_nonempty(self):
        with pytest.raises(ValueError, match="at least one window"):
            AlertRule.parse("r", "p99>1", windows=())
        with pytest.raises(ValueError, match="positive"):
            AlertRule.parse("r", "p99>1", windows=(0.0, 5.0))

    def test_default_rules_cover_shed_latency_error(self):
        rules = default_service_rules()
        assert {rule.name for rule in rules} == {
            "shed-burn", "latency-burn", "error-burn",
        }
        assert all(rule.windows == (5.0, 15.0) for rule in rules)


class TestWindowedValue:
    def test_counter_resolves_to_per_second_rate(self):
        records = [_tick(0, {"work.done": 4}), _tick(1, {"work.done": 6})]
        assert WindowView(records, 1.0).value("work.done") == 5.0

    def test_shed_rate_is_ratio_of_window_deltas(self):
        records = [_shed_tick(0), _shed_tick(1, offered=10, rejected=0)]
        assert WindowView(records, 1.0).value("shed_rate") == pytest.approx(0.4)

    def test_latency_shorthand_reads_windowed_histogram(self):
        records = [_tick(0, latency=[(0.004, 9), (2.0, 1)])]
        assert WindowView(records, 1.0).value("p50") == 0.005
        # window quantiles are bucket-resolution: 2.0s is covered by the
        # 5.0s bucket, and a window has no exact max to clamp to
        assert WindowView(records, 1.0).value("p99") == 5.0

    def test_explicit_histogram_stat(self):
        records = [_tick(0, latency=[(0.004, 2)])]
        assert WindowView(records, 1.0).value("service.latency.count") == 2.0

    def test_empty_window_is_zero(self):
        assert WindowView([], 1.0).value("p99") == 0.0
        assert WindowView([_tick(0)], 1.0).value("shed_rate") == 0.0

    def test_worst_tier_prefers_most_degraded(self):
        records = [
            _tick(0, {"service.tier.full": 5, "service.tier.no-dynamic": 1}),
        ]
        assert worst_tier(records) == "no-dynamic"
        assert worst_tier([_tick(0)]) == "n/a"


class TestFireResolveStateMachine:
    def _rules(self):
        return AlertRuleSet(
            rules=(AlertRule.parse("shed-burn", "shed_rate>0.2", windows=(2.0, 4.0)),)
        )

    def test_no_fire_until_longest_window_populated(self):
        rules = self._rules()
        firing = {}
        records = [_shed_tick(0)]
        assert rules.evaluate(records, 1.0, firing) == []
        records.append(_shed_tick(1))
        records.append(_shed_tick(2))
        assert rules.evaluate(records, 1.0, firing) == []
        assert not firing.get("shed-burn")

    def test_fires_once_every_window_violates(self):
        rules = self._rules()
        firing = {}
        records = [_shed_tick(t) for t in range(4)]
        events = rules.evaluate(records, 1.0, firing)
        assert [event.kind for event in events] == ["fire"]
        event = events[0]
        assert event.rule == "shed-burn"
        assert event.tier == "static-only"
        # evidence cites both windows with observed value and threshold
        assert [w[0] for w in event.windows] == [2.0, 4.0]
        assert all(observed == pytest.approx(0.8) for _, observed, _, _ in event.windows)
        assert all(threshold == 0.2 for _, _, threshold, _ in event.windows)
        assert "2s window observed 0.8" in event.summary
        assert "static-only" in event.summary
        assert firing["shed-burn"] is True

    def test_short_window_violation_alone_does_not_fire(self):
        rules = self._rules()
        firing = {}
        # three quiet ticks then one bad one: short window (2 ticks) is at
        # 0.4 but the long window (4 ticks) is only 0.2 — not > 0.2
        records = [_quiet_tick(t) for t in range(3)] + [_shed_tick(3)]
        assert rules.evaluate(records, 1.0, firing) == []

    def test_no_refire_while_still_firing(self):
        rules = self._rules()
        firing = {}
        records = [_shed_tick(t) for t in range(4)]
        rules.evaluate(records, 1.0, firing)
        records.append(_shed_tick(4))
        assert rules.evaluate(records, 1.0, firing) == []

    def test_resolves_when_short_window_recovers(self):
        rules = self._rules()
        firing = {}
        records = [_shed_tick(t) for t in range(4)]
        rules.evaluate(records, 1.0, firing)
        records.append(_quiet_tick(4))
        assert rules.evaluate(records, 1.0, firing) == []  # one good tick isn't enough
        records.append(_quiet_tick(5))
        events = rules.evaluate(records, 1.0, firing)
        assert [event.kind for event in events] == ["resolve"]
        assert events[0].windows[0][0] == 2.0
        assert firing["shed-burn"] is False

    def test_refires_after_resolution(self):
        rules = self._rules()
        firing = {}
        records = [_shed_tick(t) for t in range(4)]
        rules.evaluate(records, 1.0, firing)
        records += [_quiet_tick(4), _quiet_tick(5)]
        rules.evaluate(records, 1.0, firing)
        records += [_shed_tick(6), _shed_tick(7)]
        # long window: ticks 4-7 = quiet,quiet,shed,shed → 0.4 > 0.2; fires again
        events = rules.evaluate(records[-4:], 1.0, firing)
        assert [event.kind for event in events] == ["fire"]


# ---------------------------------------------------------------------------
# acceptance: the seeded overload fires, quarter capacity stays silent


OVERLOAD = dict(
    seed=11, dataset="alexa", scale=0.1, duration=20.0, tenants=4,
    timeseries_interval=0.5, cooldown=10.0,
)


@pytest.fixture(scope="module")
def overload_report():
    from repro.service.loadgen import LoadgenConfig, run_loadgen

    # ~2x the server's nominal capacity (~24 r/s)
    return run_loadgen(LoadgenConfig(rate=48.0, fault_profile="heavy", **OVERLOAD))


class TestAcceptance:
    def test_overload_fires_shed_burn_with_full_evidence(self, overload_report):
        series = overload_report.timeseries
        fired = series.fired("shed-burn")
        assert fired, "2x-capacity overload must fire the shed-burn alert"
        event = fired[0]
        assert event.expr == "shed_rate>0.2"
        # the event cites every window with observed value and threshold
        assert [w[0] for w in event.windows] == [5.0, 15.0]
        for _, observed, threshold, op in event.windows:
            assert observed > threshold
            assert op == ">"
        # and the degradation tier in force
        assert event.tier in ("static-only", "no-classifier", "no-dynamic", "full")
        assert event.tier != "full", "an overloaded server should be degrading"

    def test_overload_alert_resolves_during_cooldown(self, overload_report):
        series = overload_report.timeseries
        resolved = series.resolved("shed-burn")
        assert resolved, "cooldown must let the shed-burn alert resolve on tape"
        assert resolved[0].tick > series.fired("shed-burn")[0].tick
        assert overload_report.alerts_fired >= 1
        assert overload_report.alerts_resolved >= 1

    def test_quarter_capacity_fires_nothing(self):
        from repro.service.loadgen import LoadgenConfig, run_loadgen

        report = run_loadgen(LoadgenConfig(rate=6.0, **OVERLOAD))
        assert report.timeseries.alerts == []
        assert report.alerts_fired == 0

    def test_twin_runs_serialize_byte_identically(self, overload_report):
        from repro.service.loadgen import LoadgenConfig, run_loadgen

        twin = run_loadgen(LoadgenConfig(rate=48.0, fault_profile="heavy", **OVERLOAD))
        assert twin.timeseries.to_jsonl() == overload_report.timeseries.to_jsonl()

    def test_summary_rows_report_ticks_and_alerts(self, overload_report):
        rows = dict(
            (row[0], row[1]) for row in overload_report.summary_rows()
        )
        assert rows["timeseries ticks"] == len(overload_report.recorder.records)
        fired = overload_report.alerts_fired
        resolved = overload_report.alerts_resolved
        assert rows["alerts fired/resolved"] == f"{fired}/{resolved}"
