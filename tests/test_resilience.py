"""Resilience layer: retries with seeded jitter, circuit breakers,
checkpoint journals — plus the fetcher-level regression tests riding on
this PR (narrowed exception handling, hang/timeout and redirect budgets).
"""

from __future__ import annotations

import ast
import base64
import json
import os
import pathlib
import pickle
import threading

import pytest

import repro.faults
from repro.analysis.crawl import ChromeSiteOutcome, ZgrabSiteOutcome
from repro.analysis.parallel import ParallelConfig, ShardedChromeCampaign, ShardedZgrabCampaign
from repro.core.signatures import SignatureDatabase
from repro.faults.checkpoint import (
    CheckpointCorruptError,
    CheckpointJournal,
    shard_journal,
)
from repro.faults.ledger import FaultLedger
from repro.faults.plan import build_fault_plan
from repro.faults.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    BreakerRegistry,
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
    run_with_retry,
)
from repro.internet.population import DATASETS, build_population
from repro.internet.streaming import StreamingPopulation, parse_strata
from repro.obs.profile import NULL_OBS, make_obs
from repro.web.http import FetchError, Resource, SyntheticWeb
from repro.web.zgrab import ZgrabFetcher


class TestRetryPolicy:
    def test_zero_jitter_reproduces_legacy_schedule(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.01)
        assert [policy.delay(a) for a in (1, 2, 3)] == [0.01, 0.02, 0.04]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.5, seed=3)
        first = [policy.delay(a, key=("k",)) for a in (1, 2, 3)]
        second = [policy.delay(a, key=("k",)) for a in (1, 2, 3)]
        assert first == second
        for attempt, delay in zip((1, 2, 3), first):
            base = 2.0 ** (attempt - 1)
            assert base <= delay <= base * 1.5

    def test_jitter_scoped_by_key(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.9, seed=3)
        assert policy.delay(1, key=("a",)) != policy.delay(1, key=("b",))

    def test_run_with_retry_counts_retries(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("nope")
            return 42

        result, retries = run_with_retry(
            flaky, RetryPolicy(max_attempts=5, backoff_base=0), sleep=lambda _: None
        )
        assert (result, retries) == (42, 2)

    def test_run_with_retry_reraises(self):
        with pytest.raises(ValueError):
            run_with_retry(
                lambda: (_ for _ in ()).throw(ValueError("bad")),
                RetryPolicy(max_attempts=2, backoff_base=0),
                sleep=lambda _: None,
            )


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(policy=BreakerPolicy(failure_threshold=3))
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(policy=BreakerPolicy(failure_threshold=2))
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_after_cooldown_rejections(self):
        ledger = FaultLedger()
        breaker = CircuitBreaker(
            policy=BreakerPolicy(failure_threshold=1, cooldown_rejections=2),
            ledger=ledger,
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # rejection 1
        assert not breaker.allow()  # rejection 2
        assert breaker.allow()      # the half-open probe
        assert breaker.state == HALF_OPEN
        assert ledger.breaker_opened == 1
        assert ledger.breaker_half_open == 1

    def test_successful_probe_closes(self):
        breaker = CircuitBreaker(policy=BreakerPolicy(failure_threshold=1, cooldown_rejections=0))
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(policy=BreakerPolicy(failure_threshold=3, cooldown_rejections=0))
        for _ in range(3):
            breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()  # single failure re-opens from half-open
        assert breaker.state == OPEN

    def test_registry_keys_are_independent(self):
        registry = BreakerRegistry(policy=BreakerPolicy(failure_threshold=1))
        registry.get("a").record_failure()
        assert registry.get("a").state == OPEN
        assert registry.get("b").state == CLOSED
        assert registry.open_keys() == ["a"]


class TestHalfOpenConcurrency:
    """The half-open window must admit exactly one probe, even when many
    threads hammer the same breaker."""

    def test_exactly_one_probe_admitted_per_half_open_window(self):
        breaker = CircuitBreaker(
            policy=BreakerPolicy(failure_threshold=1, cooldown_rejections=0)
        )
        breaker.record_failure()
        assert breaker.state == OPEN

        workers = 16
        barrier = threading.Barrier(workers)
        admitted = []

        def contend() -> None:
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=contend) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1
        assert breaker.state == HALF_OPEN

        # a failed probe re-opens; the next window again admits exactly one
        breaker.record_failure()
        assert breaker.state == OPEN
        assert [breaker.allow() for _ in range(8)].count(True) == 1

    def test_window_stays_occupied_until_probe_outcome_recorded(self):
        breaker = CircuitBreaker(
            policy=BreakerPolicy(failure_threshold=1, cooldown_rejections=0)
        )
        breaker.record_failure()
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # window occupied: probe still in flight
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow() and breaker.allow()  # closed: calls flow freely


class TestCheckpointJournal:
    def test_roundtrip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "shard.journal")
        journal.record(3, {"x": 1})
        journal.record(7, {"labels": ["a", "b"], "nested": {"ok": True}})
        journal.close()
        assert CheckpointJournal(tmp_path / "shard.journal").load() == {
            3: {"x": 1},
            7: {"labels": ["a", "b"], "nested": {"ok": True}},
        }

    def test_record_rejects_non_dict_payloads(self, tmp_path):
        with CheckpointJournal(tmp_path / "shard.journal") as journal:
            with pytest.raises(TypeError):
                journal.record(1, ("a", "b"))

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "shard.journal"
        journal = CheckpointJournal(path)
        journal.record(1, {"done": True})
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"i": 2, "d": {"trunc')  # the kill mid-write
        assert CheckpointJournal(path).load() == {1: {"done": True}}

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "absent.journal").load() == {}

    def test_fingerprint_mismatch_discards_journal(self, tmp_path):
        """A journal written under one configuration must not replay into
        a run with another: the stale file loads empty and is truncated
        under the new header by the next record."""
        path = tmp_path / "shard.journal"
        with CheckpointJournal(path, fingerprint="config-a") as journal:
            journal.record(1, {"from": "config a"})
        stale = CheckpointJournal(path, fingerprint="config-b")
        assert stale.load() == {}
        stale.record(2, {"from": "config b"})
        stale.close()
        assert CheckpointJournal(path, fingerprint="config-b").load() == {
            2: {"from": "config b"}
        }
        assert CheckpointJournal(path, fingerprint="config-a").load() == {}

    def test_headerless_file_is_stale_not_replayed(self, tmp_path):
        path = tmp_path / "shard.journal"
        path.write_text('{"i": 1, "d": {"x": 1}}\n')
        assert CheckpointJournal(path).load() == {}

    def test_version_1_header_is_stale(self, tmp_path):
        path = tmp_path / "shard.journal"
        path.write_text('{"v": 1, "fp": "abc"}\n{"i": 1, "d": {"x": 1}}\n')
        assert CheckpointJournal(path, fingerprint="abc").load() == {}

    def test_mid_file_corruption_raises(self, tmp_path):
        """Append-and-flush can only tear the tail; damage before the
        final line is genuine corruption and must surface, not be skipped
        (a skipped line would merge a partial replay as complete)."""
        path = tmp_path / "shard.journal"
        journal = CheckpointJournal(path)
        journal.record(1, {"n": "one"})
        journal.record(2, {"n": "two"})
        journal.close()
        lines = path.read_text().splitlines()
        lines[1] = '{"i": 1, "d": {"gar'  # damage a non-final record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError):
            CheckpointJournal(path).load()

    @pytest.mark.parametrize(
        "bad",
        [
            "version-1 payload",
            "list",
            "keys missing",
            "key too many",
            "malformed ledger",
            "ledger without its counters",
            "malformed evidence",
        ],
    )
    def test_malformed_outcome_is_undecodable(self, tmp_path, bad):
        """A well-framed line whose payload is not an outcome dict is
        handled like a torn one: dropped as the tail, fatal before it."""
        good = ZgrabSiteOutcome(nocoin_hit=True, labels=("coinhive",))
        payload = good.to_dict()
        payload = {
            "version-1 payload": "gASVCwAAAAAAAACMB2Jhc2U2NJQu",
            "list": ["failed", False],
            "keys missing": {"failed": False},
            "key too many": {**payload, "extra": 1},
            "malformed ledger": {**payload, "ledger": "x"},
            "ledger without its counters": {**payload, "ledger": {}},
            "malformed evidence": {**payload, "evidence": [{"verdict": "hit"}]},
        }[bad]
        decode = ZgrabSiteOutcome.from_dict
        path = tmp_path / "shard.journal"
        with CheckpointJournal(path) as journal:
            journal.record(1, good.to_dict())
        with open(path, "a") as handle:
            handle.write(json.dumps({"i": 2, "d": payload}) + "\n")
        assert CheckpointJournal(path).load(decode) == {1: good}
        with CheckpointJournal(path) as journal:
            journal.record(3, good.to_dict())
        with pytest.raises(CheckpointCorruptError):
            CheckpointJournal(path).load(decode)

    def test_shard_journal_naming(self, tmp_path):
        journal = shard_journal(str(tmp_path), "alexa-zgrab0", 7, fingerprint="abc")
        assert journal.path.name == "alexa-zgrab0-shard0007.journal"
        assert journal.fingerprint == "abc"
        assert shard_journal(None, "alexa-zgrab0", 7) is None


# ---------------------------------------------------------------------------
# journal payloads: typed outcome codecs, never code


class _PlantsMarker:
    """Deserializing this with ``pickle`` calls ``os.mkdir(path)``."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _as_version_1(journal_path, marker) -> None:
    """Rewrite a journal the way version 1 wrote it — base64 pickles as
    payloads — with the first payload planting ``marker`` when loaded."""
    lines = journal_path.read_text().splitlines()
    header = json.loads(lines[0])
    rewritten = [json.dumps({"v": 1, "fp": header["fp"]})]
    for position, line in enumerate(lines[1:]):
        record = json.loads(line)
        payload = _PlantsMarker(marker) if position == 0 else record["d"]
        data = base64.b64encode(pickle.dumps(payload)).decode("ascii")
        rewritten.append(json.dumps({"i": record["i"], "d": data}))
    journal_path.write_text("\n".join(rewritten) + "\n")


class TestJournalHostility:
    def test_version_1_journal_reruns_and_runs_no_code(self, tmp_path):
        """A journal holding pickles is stale: resuming from it re-runs
        every site, matches the fresh result and never deserializes one."""
        checkpoint_dir = tmp_path / "ckpt"
        marker = tmp_path / "marker"

        def scan():
            campaign = ShardedZgrabCampaign(
                population=build_population("alexa", seed=2018, scale=0.05),
                config=ParallelConfig(shards=2, checkpoint_dir=str(checkpoint_dir)),
            )
            return campaign.scan(0), campaign.metrics.fault_ledger

        fresh, fresh_ledger = scan()
        journals = sorted(checkpoint_dir.glob("*.journal"))
        assert len(journals) == 2
        for path in journals:
            _as_version_1(path, marker)

        resumed, ledger = scan()
        assert not marker.exists()
        assert resumed == fresh
        assert ledger.checkpoint_resumed == 0
        assert ledger.checkpoint_recorded == fresh_ledger.checkpoint_recorded > 0


def _journaled_outcomes(monkeypatch, outcome_type, run) -> list:
    """The outcomes ``run()`` journals, captured as they are encoded."""
    captured = []
    encode = outcome_type.to_dict

    def spy(outcome):
        captured.append(outcome)
        return encode(outcome)

    monkeypatch.setattr(outcome_type, "to_dict", spy)
    run()
    monkeypatch.setattr(outcome_type, "to_dict", encode)
    return captured


def _roundtrip(outcome):
    payload = json.loads(json.dumps(outcome.to_dict()))
    return type(outcome).from_dict(payload)


class TestOutcomeCodec:
    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("dataset", ["alexa", "com-stream"])
    def test_zgrab_outcomes_roundtrip(self, tmp_path, monkeypatch, dataset, observed):
        if dataset == "com-stream":
            strata = parse_strata("top:40:0.5,mid:160:0.25,tail:-:0.1", DATASETS["com"])
            population = StreamingPopulation("com", seed=2018, size=300, strata=strata)
        else:
            population = build_population(dataset, seed=2018, scale=0.05)
        population.attach_fault_plan(build_fault_plan("heavy", seed=2018))
        campaign = ShardedZgrabCampaign(
            population=population,
            config=ParallelConfig(
                shards=2, resilience=ResiliencePolicy(), checkpoint_dir=str(tmp_path)
            ),
            obs=make_obs(prefix="codec") if observed else NULL_OBS,
        )
        outcomes = _journaled_outcomes(
            monkeypatch, ZgrabSiteOutcome, lambda: campaign.scan(0)
        )
        assert len(outcomes) == len(population.sites)
        assert any(outcome.failed for outcome in outcomes)
        assert any(outcome.labels for outcome in outcomes)
        assert any(outcome.ledger.retries for outcome in outcomes)
        assert any(outcome.evidence for outcome in outcomes) == observed
        assert any(outcome.stage_spans for outcome in outcomes) == observed
        for outcome in outcomes:
            decoded = _roundtrip(outcome)
            assert decoded == outcome
            assert decoded.evidence == outcome.evidence
            assert decoded.stage_spans == outcome.stage_spans

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("catalogue", ["reference", "empty"])
    def test_chrome_outcomes_roundtrip(self, tmp_path, monkeypatch, catalogue, observed):
        """With an empty signature catalogue every verdict comes from the
        feature cascade, so the reports carry ``WasmFeatures``."""
        signature_db_path = None
        if catalogue == "empty":
            signature_db_path = tmp_path / "signatures.json"
            signature_db_path.write_text(SignatureDatabase().to_json())
        population = build_population("alexa", seed=2018, scale=0.05)
        population.attach_fault_plan(build_fault_plan("heavy", seed=2018))
        campaign = ShardedChromeCampaign(
            population=population,
            config=ParallelConfig(shards=2, checkpoint_dir=str(tmp_path / "ckpt")),
            signature_db_path=signature_db_path and str(signature_db_path),
            obs=make_obs(prefix="codec") if observed else NULL_OBS,
        )
        outcomes = _journaled_outcomes(monkeypatch, ChromeSiteOutcome, campaign.run)
        assert len(outcomes) == len(population.sites)
        reports = [outcome.report for outcome in outcomes]
        assert any(report.is_miner for report in reports)
        assert any(report.miner and report.miner.features for report in reports) == (
            catalogue == "empty"
        )
        assert any(report.status == "error" for report in reports)
        assert any(outcome.ledger.has_events() for outcome in outcomes)
        assert any(report.evidence for report in reports) == observed
        for outcome in outcomes:
            decoded = _roundtrip(outcome)
            assert decoded == outcome
            assert decoded.report.evidence == outcome.report.evidence  # not compared by ==


def test_fault_modules_do_not_import_pickle():
    faults = pathlib.Path(repro.faults.__file__).parent
    for path in sorted(faults.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(
                module.split(".")[0] in ("pickle", "_pickle") for module in modules
            ), f"{path.name}:{node.lineno} imports pickle"


# ---------------------------------------------------------------------------
# fetcher-level regressions


def _single_site_web(url: str, resource: Resource) -> SyntheticWeb:
    web = SyntheticWeb()
    web.register(url, resource)
    return web


class TestFetcherExceptionNarrowing:
    def test_simulation_bugs_propagate(self):
        """Only FetchError is a transfer failure; a ValueError out of a
        content provider is a bug and must not be booked as one."""

        def buggy_content() -> bytes:
            raise ValueError("broken content provider")

        web = _single_site_web(
            "https://www.bug.example/", Resource(content=buggy_content)
        )
        fetcher = ZgrabFetcher(web)
        with pytest.raises(ValueError, match="broken content provider"):
            fetcher.fetch_domain("bug.example")

    def test_fetch_errors_still_reported_not_raised(self):
        fetcher = ZgrabFetcher(SyntheticWeb())
        result = fetcher.fetch_domain("nowhere.example")
        assert not result.ok
        assert result.error_class == "dns"


class TestHangAndTimeout:
    def test_hanging_origin_times_out_with_budgeted_elapsed(self):
        web = _single_site_web("https://www.slow.example/", Resource(hang=True))
        with pytest.raises(FetchError) as info:
            web.fetch("https://www.slow.example/", timeout=4.0)
        assert info.value.error_class.value == "timeout"
        assert info.value.elapsed == 4.0

    def test_accumulated_latency_exceeding_timeout(self):
        web = SyntheticWeb()
        web.register(
            "https://www.a.example/",
            Resource(redirect_to="https://www.b.example/", latency=3.0),
        )
        web.register("https://www.b.example/", Resource(content=b"hi", latency=3.0))
        with pytest.raises(FetchError) as info:
            web.fetch("https://www.a.example/", timeout=5.0)
        assert info.value.error_class.value == "timeout"

    def test_fetcher_deadline_beats_hang(self):
        web = _single_site_web("https://www.hang.example/", Resource(hang=True))
        fetcher = ZgrabFetcher(
            web,
            timeout=10.0,
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=5, backoff_base=0.0),
                breaker=None,
                deadline=25.0,
            ),
        )
        result = fetcher.fetch_domain("hang.example")
        assert not result.ok
        assert result.error_class == "deadline"
        # 10 s + 10 s + (5 s remaining) — the deadline shrank attempt 3
        assert result.attempts == 3

    def test_backoff_past_deadline_is_not_a_ledger_retry(self):
        """A retry whose backoff wait already outlives the deadline never
        executes, so it must not be booked in the ledger."""
        web = _single_site_web("https://www.hang.example/", Resource(hang=True))
        ledger = FaultLedger()
        fetcher = ZgrabFetcher(
            web,
            timeout=10.0,
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=5, backoff_base=5.0),
                breaker=None,
                deadline=21.0,
            ),
        )
        result = fetcher.fetch_domain("hang.example", ledger=ledger)
        assert not result.ok
        assert result.error_class == "deadline"
        # attempt 1 (10 s) + backoff (5 s) + attempt 2 (6 s remaining);
        # the next backoff (10 s) blows the deadline, so only one retry ran
        assert result.attempts == 2
        assert ledger.retries == 1

    def test_deadline_smaller_than_minimum_backoff_books_no_retry(self):
        """When even the first backoff outlives the remaining deadline,
        the failure is reported as a deadline immediately: one attempt,
        no sleep booked, no ledger retry recorded."""
        web = _single_site_web("https://www.hang.example/", Resource(hang=True))
        ledger = FaultLedger()
        fetcher = ZgrabFetcher(
            web,
            timeout=10.0,
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=3, backoff_base=30.0),
                breaker=None,
                deadline=12.0,
            ),
        )
        result = fetcher.fetch_domain("hang.example", ledger=ledger)
        assert not result.ok
        assert result.error_class == "deadline"
        # attempt 1 (10 s) left 2 s of budget; the minimum backoff is 30 s
        assert result.attempts == 1
        assert ledger.retries == 0
        assert ledger.balanced()


class TestRedirectBudgets:
    def test_redirect_loop_hits_max_redirects(self):
        web = SyntheticWeb(max_redirects=3)
        web.register(
            "https://www.ping.example/", Resource(redirect_to="https://www.pong.example/")
        )
        web.register(
            "https://www.pong.example/", Resource(redirect_to="https://www.ping.example/")
        )
        with pytest.raises(FetchError) as info:
            web.fetch("https://www.ping.example/")
        assert info.value.error_class.value == "redirect-loop"

    def test_chain_at_the_limit_succeeds(self):
        web = SyntheticWeb(max_redirects=3)
        for i in range(3):
            web.register(
                f"https://www.r{i}.example/",
                Resource(redirect_to=f"https://www.r{i + 1}.example/"),
            )
        web.register("https://www.r3.example/", Resource(content=b"landed"))
        response = web.fetch("https://www.r0.example/")
        assert response.body == b"landed"
        assert len(response.redirects) == 3

    def test_byte_budget_applies_to_final_hop(self):
        web = SyntheticWeb()
        web.register(
            "https://www.start.example/", Resource(redirect_to="https://www.end.example/")
        )
        web.register("https://www.end.example/", Resource(content=b"x" * 1000))
        response = web.fetch("https://www.start.example/", max_bytes=64)
        assert len(response.body) == 64
        assert response.url == "https://www.end.example/"
