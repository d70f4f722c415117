"""Extension — feeding fingerprint results back into the block list.

The paper's operational takeaway is that lists lag the ecosystem. This
bench closes the loop: generate one Adblock host rule per mining
WebSocket endpoint of the signature-detected miners of the Alexa and .org
crawls, and measure how far the NoCoin gap (82% / 67% missed) closes.
"""

from __future__ import annotations

from conftest import emit
from repro.analysis.defense import augmented_list, evaluate_coverage, generate_rules
from repro.analysis.reporting import render_table


def test_ext_blocklist_generation(benchmark, chrome_results):
    def run():
        out = {}
        for name, result in chrome_results.items():
            generated = generate_rules(result.reports)
            combined = augmented_list(generated)
            out[name] = (generated, evaluate_coverage(result.reports, combined))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, (generated, comparison) in results.items():
        rows.append(
            [
                name,
                comparison.miners_total,
                len(generated),
                f"{comparison.base_missed_fraction:.0%}",
                f"{comparison.augmented_missed_fraction:.0%}",
            ]
        )
    emit(
        "ext_blocklist_generation",
        render_table(
            ["dataset", "miners", "generated rules", "missed (NoCoin)", "missed (augmented)"],
            rows,
            title="Extension: block-list rules generated from fingerprint results",
        ),
    )

    for name, (_generated, comparison) in results.items():
        assert comparison.augmented_missed_fraction < comparison.base_missed_fraction / 3
