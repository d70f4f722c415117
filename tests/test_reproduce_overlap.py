"""`run_reproduction` runs the network study beside the crawls.

The study (Figure 5 + Table 6) shares no input with the crawls, so with a
second CPU it runs in one forked worker while the parent crawls. The
overlapped and inline paths must give the same report and, under
``TickClock``, byte-identical run directories; no worker may outlive the
call, whether it returns or raises; a failing worker fails the call; and
every fork, the study's and the crawl pools', happens while the process
has one thread.
"""

from __future__ import annotations

import filecmp
import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import runner
from repro.analysis.parallel import ForkedCall, executor_mode
from repro.analysis.runner import ReproductionConfig, run_reproduction
from repro.obs.clock import TickClock, use_clock

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


def small_config(**overrides) -> ReproductionConfig:
    fields = dict(
        seed=7,
        datasets=("alexa", "net"),
        crawl_scale=0.02,
        shortlink_scale=0.0005,
        network_days=1,
    )
    fields.update(overrides)
    return ReproductionConfig(**fields)


def overlapped(config) -> ForkedCall:
    return ForkedCall(runner._network_study_in_worker, config)


def inline(config) -> None:
    return None


@pytest.fixture(params=["overlapped", "inline"])
def path(request, monkeypatch):
    """Force one path whatever this host's CPU count."""
    monkeypatch.setattr(runner, "_network_worker", globals()[request.param])
    return request.param


def _reproduce(config):
    with use_clock(TickClock()):
        return run_reproduction(config, log=lambda *_args: None)


def _same_tree(left, right) -> bool:
    compared = filecmp.dircmp(left, right)
    if compared.left_only or compared.right_only or compared.funny_files:
        return False
    _match, mismatch, errors = filecmp.cmpfiles(
        left, right, compared.common_files, shallow=False
    )
    return not mismatch and not errors and all(
        _same_tree(os.path.join(left, name), os.path.join(right, name))
        for name in compared.common_dirs
    )


class TestSameOutputs:
    def test_overlapped_and_inline_reports_and_run_dirs_match(self, tmp_path, monkeypatch):
        reports = {}
        for name, worker in (("overlapped", overlapped), ("inline", inline)):
            monkeypatch.setattr(runner, "_network_worker", worker)
            config = small_config(run_dir=str(tmp_path / name), profile=True)
            reports[name] = _reproduce(config)
        assert reports["overlapped"].sections == reports["inline"].sections
        assert "Table 6 — economics" in reports["inline"].sections
        assert "network-sim" in reports["inline"].sections["Stage profile"]
        assert _same_tree(tmp_path / "overlapped", tmp_path / "inline")

    def test_unobserved_reports_match(self, monkeypatch):
        sections = []
        for worker in (overlapped, inline):
            monkeypatch.setattr(runner, "_network_worker", worker)
            sections.append(_reproduce(small_config()).sections)
        assert sections[0] == sections[1]


class TestWhichPath:
    def test_two_cpus_fork_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        worker = runner._network_worker(small_config())
        try:
            assert isinstance(worker, ForkedCall)
        finally:
            worker.close()

    def test_one_cpu_runs_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert runner._network_worker(small_config()) is None

    def test_no_fork_runs_it_inline_and_crawls_serially(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert runner._network_worker(small_config(crawl_workers=2)) is None
        assert executor_mode(2) == "serial"

    def test_two_crawl_workers_fork_the_study_and_every_pool_single_threaded(self):
        """With ``crawl_workers=2`` the study still runs in its worker, and
        the crawls' process pools fork after it from a one-thread parent."""
        completed = _run_script("""
            import os, threading
            from repro.analysis import runner
            from repro.analysis.runner import ReproductionConfig, run_reproduction

            parent = os.getpid()
            events = []
            real_fork, real_crawl = os.fork, runner.crawl_dataset
            real_simulate = runner.simulate_network

            def fork():
                events.append(("fork", threading.active_count()))
                return real_fork()

            def crawl(*args, **kwargs):
                events.append(("crawl",))
                return real_crawl(*args, **kwargs)

            def simulate(*args, **kwargs):
                assert os.getpid() != parent, "the network study ran in the parent"
                return real_simulate(*args, **kwargs)

            os.fork = fork
            os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs on any host
            runner.crawl_dataset = crawl
            runner.simulate_network = simulate
            config = ReproductionConfig(
                seed=7, datasets=("alexa", "net"), crawl_scale=0.02,
                shortlink_scale=0.0005, network_days=1, crawl_workers=2, heartbeat=0.5,
            )
            run_reproduction(config, log=lambda *args: None)
            forks = [event for event in events if event[0] == "fork"]
            assert events[0] == ("fork", 1), events
            assert len(forks) > 1 and set(forks) == {("fork", 1)}, events
            print(f"{len(forks)} forks, each single-threaded")
        """)
        assert completed.returncode == 0, completed.stderr[-3000:]
        assert "forks, each single-threaded" in completed.stdout


class TestNoLeftovers:
    def test_a_crawl_that_raises_leaves_no_child(self, path, monkeypatch):
        def broken_crawl(*_args, **_kwargs):
            raise RuntimeError("crawl failed")

        monkeypatch.setattr(runner, "crawl_dataset", broken_crawl)
        with pytest.raises(RuntimeError, match="crawl failed"):
            _reproduce(small_config())
        assert multiprocessing.active_children() == []

    def test_a_worker_that_raises_reraises_in_the_parent(self, path, monkeypatch):
        def broken_simulation(*_args, **_kwargs):
            raise ValueError("simulation failed")

        monkeypatch.setattr(runner, "simulate_network", broken_simulation)
        with pytest.raises(ValueError, match="simulation failed"):
            _reproduce(small_config())
        assert multiprocessing.active_children() == []

    def test_the_worker_runs_at_a_lower_priority(self, monkeypatch):
        monkeypatch.setattr(runner, "_network_worker", overlapped)

        def report_priority(*_args, **_kwargs):
            raise ValueError(f"niceness {os.nice(0)}")

        monkeypatch.setattr(runner, "simulate_network", report_priority)
        expected = min(os.nice(0) + 10, 19)
        with pytest.raises(ValueError, match=f"^niceness {expected}$"):
            _reproduce(small_config())

    def test_a_returning_run_leaves_no_child(self, path):
        _reproduce(small_config(datasets=("net",)))
        assert multiprocessing.active_children() == []


def _run_script(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter that turns DeprecationWarning
    into an error; the timeout turns a hang into a failure."""
    return subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", textwrap.dedent(body)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestFreshProcess:
    def test_reproduce_forks_once_single_threaded_before_the_crawls(self, tmp_path):
        """The fork precedes the heartbeat, the recorder and the crawl
        threads (Python 3.12 warns on forking a threaded process)."""
        completed = _run_script(f"""
            import os, threading
            from repro.analysis import runner
            from repro.cli import main

            events = []
            real_fork, real_crawl = os.fork, runner.crawl_dataset

            def fork():
                events.append(("fork", threading.active_count()))
                return real_fork()

            def crawl(*args, **kwargs):
                events.append(("crawl",))
                return real_crawl(*args, **kwargs)

            os.fork = fork
            os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs on any host
            runner.crawl_dataset = crawl
            status = main([
                "--seed", "7", "reproduce", "--crawl-scale", "0.02",
                "--shortlink-scale", "0.0005", "--days", "1", "--heartbeat", "0.5",
                "--timeseries-interval", "0.05",
                "--run-dir", {str(tmp_path / "run")!r},
                "--out", {str(tmp_path / "report.md")!r},
            ])
            assert status == 0
            forks = [event for event in events if event[0] == "fork"]
            assert events[0] == ("fork", 1) and len(forks) == 1, events
            print("forked once, single-threaded, before the crawls")
        """)
        assert completed.returncode == 0, completed.stderr[-3000:]
        assert "forked once, single-threaded, before the crawls" in completed.stdout

    def test_a_worker_that_dies_raises_instead_of_hanging(self):
        completed = _run_script("""
            import multiprocessing, os
            from repro.analysis import runner
            from repro.analysis.runner import ReproductionConfig, run_reproduction

            os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs on any host
            runner.simulate_network = lambda config: os._exit(3)
            config = ReproductionConfig(
                seed=7, datasets=("net",), crawl_scale=0.02,
                shortlink_scale=0.0005, network_days=1,
            )
            try:
                run_reproduction(config, log=lambda *args: None)
            except RuntimeError as exc:
                assert "exit code 3" in str(exc), exc
                print("dead worker raised")
            assert multiprocessing.active_children() == []
        """)
        assert completed.returncode == 0, completed.stderr[-3000:]
        assert "dead worker raised" in completed.stdout
