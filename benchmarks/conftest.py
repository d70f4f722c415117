"""Shared fixtures for the reproduction benchmarks.

Expensive artifacts (full-calibration populations, the Chrome crawls, the
three-month network simulation) are computed once per session and shared;
the benchmark that owns an artifact times its construction, the others time
their own aggregation step on top of it.

Every benchmark prints the regenerated table/figure and appends it to
``benchmarks/results/<name>.txt`` so paper-vs-measured comparisons survive
the run. Benchmarks with machine-readable payloads additionally call
:func:`emit_json`; at session end every ``results/*.json`` (plus the
pytest-benchmark timing stats collected by the autouse fixture) is merged
into ``results/BENCH_SUMMARY.json`` — one artifact CI or ``repro obs
diff``-style tooling can consume without scraping tables.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis.network import NetworkSimConfig, simulate_network
from repro.analysis.parallel import ShardedChromeCampaign, ShardedZgrabCampaign
from repro.analysis.shortlink import ShortLinkStudy
from repro.core.signatures import build_reference_database
from repro.internet.population import build_population
from repro.internet.shortlinks import build_shortlink_population

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SEED = 2018
#: Full calibration scale for the Chrome datasets; .com's zgrab-only zone is
#: large, so it runs at 1.0 too but has no browser layer.
SCALE = 1.0


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload: dict) -> None:
    """Persist a machine-readable result under benchmarks/results/<name>.json."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


#: test name → pytest-benchmark timing stats, collected by the autouse
#: fixture below and folded into BENCH_SUMMARY.json at session end
_BENCH_TIMINGS: dict = {}


@pytest.fixture(autouse=True)
def _capture_benchmark_timings(request):
    yield
    benchmark = getattr(request.node, "funcargs", {}).get("benchmark")
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is None:
        return
    try:
        _BENCH_TIMINGS[request.node.name] = {
            "mean_s": stats.mean,
            "min_s": stats.min,
            "max_s": stats.max,
            "stddev_s": stats.stddev,
            "rounds": stats.rounds,
        }
    except (AttributeError, ValueError):  # fewer rounds than a stat needs
        pass


def _read_result(path: pathlib.Path):
    """A results JSON file's payload; ``None`` when missing or unreadable."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def pytest_sessionfinish(session, exitstatus):
    if _BENCH_TIMINGS:
        # merge, not overwrite: a session that ran one benchmark file
        # keeps every other file's recorded timings
        recorded = _read_result(RESULTS_DIR / "bench_timings.json") or {}
        timings = {**recorded.get("benchmarks", {}), **_BENCH_TIMINGS}
        emit_json("bench_timings", {"benchmarks": dict(sorted(timings.items()))})
    merged = {}
    for path in sorted(RESULTS_DIR.glob("*.json")) if RESULTS_DIR.exists() else []:
        if path.name == "BENCH_SUMMARY.json":
            continue
        payload = _read_result(path)
        if payload is not None:
            merged[path.stem] = payload
    if merged:
        (RESULTS_DIR / "BENCH_SUMMARY.json").write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n"
        )


@pytest.fixture(scope="session")
def signature_db():
    return build_reference_database()


@pytest.fixture(scope="session")
def populations():
    return {
        name: build_population(name, seed=SEED, scale=SCALE)
        for name in ("alexa", "com", "net", "org")
    }


def both_scans(population) -> list:
    """Both zgrab scan dates of ``population``, one serial shard each."""
    campaign = ShardedZgrabCampaign(population=population)
    return [campaign.scan(0), campaign.scan(1)]


@pytest.fixture(scope="session")
def zgrab_scans(populations):
    return {
        name: both_scans(populations[name]) for name in ("alexa", "com", "net", "org")
    }


@pytest.fixture(scope="session")
def chrome_results(populations):
    return {
        name: ShardedChromeCampaign(population=populations[name]).run()
        for name in ("alexa", "org")
    }


@pytest.fixture(scope="session")
def shortlink_study():
    population = build_shortlink_population(seed=SEED, scale=0.01)
    return ShortLinkStudy(population=population, sample_per_top_user=1000)


@pytest.fixture(scope="session")
def network_observation():
    return simulate_network(NetworkSimConfig(seed=SEED))
