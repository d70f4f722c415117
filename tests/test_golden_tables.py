"""Golden-snapshot tests for the paper's headline tables.

Small-scale, seeded versions of the benchmark-suite artifacts behind
Figure 2 and Tables 1, 2, and 6 are rendered and compared byte-for-byte
against ``tests/golden/*.txt``. The pipelines are deterministic given
``(seed, scale)``, so any drift in these tables is a real behaviour
change — the failure shows a unified diff; refresh intentionally changed
snapshots with ``pytest --update-golden``.
"""

from __future__ import annotations

import pytest

from repro.analysis.network import NetworkSimConfig, simulate_network
from repro.analysis.reporting import render_table
from repro.core.detector import cross_tabulate
from repro.internet.population import build_population
from repro.sim.clock import utc_timestamp
from tests.oracles.crawl import SequentialChromeCampaign, SequentialZgrabCampaign

SEED = 2018
SCALE = 0.05
DATASETS = ("alexa", "com", "net", "org")


@pytest.fixture(scope="session")
def golden_populations():
    return {name: build_population(name, seed=SEED, scale=SCALE) for name in DATASETS}


@pytest.fixture(scope="session")
def golden_zgrab_scans(golden_populations):
    return {
        name: SequentialZgrabCampaign(population=golden_populations[name]).both_scans()
        for name in DATASETS
    }


@pytest.fixture(scope="session")
def golden_chrome_results(golden_populations):
    return {
        name: SequentialChromeCampaign(population=golden_populations[name]).run()
        for name in ("alexa", "org")
    }


@pytest.fixture(scope="session")
def golden_network_observation():
    # April 26 through June 1: covers all of May for the monthly rows
    start = utc_timestamp(2018, 4, 26)
    end = utc_timestamp(2018, 6, 1)
    return simulate_network(NetworkSimConfig(seed=SEED, start=start, end=end))


def test_golden_fig2_nocoin_prevalence(golden, golden_zgrab_scans):
    rows = []
    for name, scans in golden_zgrab_scans.items():
        for scan in scans:
            top = ", ".join(
                f"{label} {share:.0%}"
                for label, share in list(scan.script_shares.items())[:5]
            )
            rows.append(
                [name, scan.scan_date, scan.nocoin_domains, f"{scan.prevalence:.4%}", top]
            )
    golden(
        "fig2_nocoin_prevalence",
        render_table(
            ["dataset", "scan", "NoCoin domains", "prevalence", "top-5 script shares"],
            rows,
        ),
    )


def test_golden_table1_wasm_signatures(golden, golden_chrome_results):
    blocks = []
    for name, result in golden_chrome_results.items():
        rows = [
            [rank, family, count]
            for rank, (family, count) in enumerate(
                result.signature_counts.most_common(5), start=1
            )
        ]
        rows.append(["", "Total WebAssembly", result.total_wasm_sites])
        rows.append(["", "of which miners", result.miner_wasm_sites])
        blocks.append(
            render_table(
                ["rank", "classification", "sites"],
                rows,
                title=f"{name} top WebAssembly signatures",
            )
        )
    golden("table1_wasm_signatures", "\n\n".join(blocks) + "\n")


def test_golden_table2_detector_overlap(golden, golden_chrome_results):
    rows = []
    for name, result in golden_chrome_results.items():
        tab = cross_tabulate(result.reports)
        rows.append(
            [
                name,
                tab.nocoin_hits,
                tab.nocoin_hits_with_miner_wasm,
                tab.wasm_miner_hits,
                tab.miners_blocked_by_nocoin,
                tab.miners_missed_by_nocoin,
                f"{tab.missed_fraction:.0%}",
                f"{tab.detection_factor:.1f}x",
            ]
        )
    golden(
        "table2_detector_overlap",
        render_table(
            [
                "dataset", "NoCoin hits", "having Wasm miner", "Wasm hits",
                "blocked by NoCoin", "missed by NoCoin", "missed %", "factor",
            ],
            rows,
        ),
    )


def test_golden_table6_monthly_stats(golden, golden_network_observation):
    observation = golden_network_observation
    rows = []
    for row in observation.monthly_stats(months=((2018, 5),)):
        rows.append(
            [
                row["month"],
                f"{row['median_blocks_per_day']:.1f}",
                f"{row['avg_blocks_per_day']:.1f}",
                f"{row['pool_hashrate_mhs']:.2f}",
                f"{row['network_hashrate_mhs']:.1f}",
                f"{row['xmr']:.1f}",
                f"{row['share']:.2%}",
            ]
        )
    rows.append(
        [
            "overall",
            "",
            "",
            "",
            "",
            f"{len(observation.attributed)} blocks",
            f"{observation.overall_share():.2%}",
        ]
    )
    golden(
        "table6_monthly_stats",
        render_table(
            ["month", "med blocks/day", "avg", "pool MH/s", "net MH/s", "XMR", "share"],
            rows,
        ),
    )
