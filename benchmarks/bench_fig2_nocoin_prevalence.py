"""Figure 2 — NoCoin-detected miners on Alexa Top 1M and .com/.net/.org.

Paper's series (detected potential mining domains per scan):

    Alexa 710 / 621, .com 6676 / 5744, .net 618 / 553, .org 473 / 399

with per-script shares dominated by coinhive (>75%), then authedmine,
wp-monero, cryptoloot, cpmstar, other.
"""

from __future__ import annotations

from conftest import both_scans, emit
from repro.analysis.reporting import render_table

PAPER_COUNTS = {
    "alexa": (710, 621),
    "com": (6676, 5744),
    "net": (618, 553),
    "org": (473, 399),
}


def test_fig2_nocoin_prevalence(benchmark, populations):
    """Times the full two-scan zgrab campaign over all four datasets."""

    def run():
        return {
            name: both_scans(populations[name]) for name in ("alexa", "com", "net", "org")
        }

    scans = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, results in scans.items():
        for i, scan in enumerate(results):
            top = ", ".join(
                f"{label} {share:.0%}" for label, share in list(scan.script_shares.items())[:5]
            )
            rows.append(
                [
                    name,
                    scan.scan_date,
                    scan.nocoin_domains,
                    PAPER_COUNTS[name][i],
                    f"{scan.prevalence:.4%}",
                    top,
                ]
            )
    table = render_table(
        ["dataset", "scan", "measured", "paper", "prevalence", "top-5 script shares"],
        rows,
        title="Figure 2: NoCoin detections per dataset and scan date",
    )
    emit("fig2_nocoin_prevalence", table)

    # shape assertions: coinhive dominates everywhere; prevalence < 0.08%
    for name, results in scans.items():
        for scan in results:
            assert scan.script_shares.get("coinhive", 0) > 0.5
            assert scan.prevalence < 0.0008
    # second scan always smaller (churn)
    for name, results in scans.items():
        assert results[1].nocoin_domains < results[0].nocoin_domains
