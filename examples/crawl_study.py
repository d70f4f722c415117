#!/usr/bin/env python3
"""Prevalence study: a scaled-down rerun of the paper's Section 3.

Generates calibrated Alexa and .org populations (at 20% of the paper's
detection counts to keep this example snappy), runs both measurement
pipelines — the zgrab/NoCoin pass (Figure 2) and the instrumented Chrome
pass (Tables 1 and 2) — and prints paper-style tables.

Run:  python examples/crawl_study.py
"""

from repro.analysis.parallel import ShardedChromeCampaign, ShardedZgrabCampaign
from repro.analysis.reporting import render_table
from repro.internet.population import build_population


def main() -> None:
    for dataset in ("alexa", "org"):
        population = build_population(dataset, seed=7, scale=0.2)
        print(f"\n######## dataset: {dataset} "
              f"({len(population.sites)} crawled sites, scale 0.2) ########")

        # --- Section 3.1: zgrab + NoCoin (Figure 2) ---
        zgrab = ShardedZgrabCampaign(population=population)
        scans = [zgrab.scan(0), zgrab.scan(1)]
        rows = [
            [scan.scan_date, scan.nocoin_domains,
             ", ".join(f"{k} {v:.0%}" for k, v in list(scan.script_shares.items())[:4])]
            for scan in scans
        ]
        print(render_table(["scan", "NoCoin domains", "top script shares"], rows,
                           title="\nFigure 2 style: NoCoin hits per scan"))

        # --- Section 3.2: Chrome crawl (Tables 1 + 2) ---
        result = ShardedChromeCampaign(population=population).run()
        rows = [[family, count] for family, count in result.signature_counts.most_common(5)]
        rows.append(["Total WebAssembly", result.total_wasm_sites])
        print(render_table(["classification", "count"], rows,
                           title="\nTable 1 style: top Wasm signatures"))

        tab = result.cross_tab
        print(render_table(
            ["metric", "value"],
            [
                ["NoCoin hits (post-JS HTML)", tab.nocoin_hits],
                ["…of which actually mining", tab.nocoin_hits_with_miner_wasm],
                ["Wasm-signature miners", tab.wasm_miner_hits],
                ["missed by NoCoin", f"{tab.miners_missed_by_nocoin} ({tab.missed_fraction:.0%})"],
                ["signature advantage", f"{tab.detection_factor:.1f}x"],
            ],
            title="\nTable 2 style: detector comparison",
        ))


if __name__ == "__main__":
    main()
