"""Table 1 — top-5 WebAssembly signatures on Alexa and .org.

Paper:

    Alexa: coinhive 311, skencituer 123, cryptoloot 103, UnknownWSS 56,
           notgiven688 46 — total Wasm 796 (~96% miners)
    .org:  coinhive 711, cryptoloot 183, web.stati.bid 120,
           freecontent.date 108, notgiven688 92 — total Wasm 1491
"""

from __future__ import annotations

from conftest import emit
from repro.analysis.parallel import ShardedChromeCampaign
from repro.analysis.reporting import render_table

PAPER_TOP5 = {
    "alexa": [
        ("coinhive", 311), ("skencituer", 123), ("cryptoloot", 103),
        ("UnknownWSS", 56), ("notgiven688", 46),
    ],
    "org": [
        ("coinhive", 711), ("cryptoloot", 183), ("web.stati.bid", 120),
        ("freecontent.date", 108), ("notgiven688", 92),
    ],
}
PAPER_TOTAL_WASM = {"alexa": 796, "org": 1491}


def test_table1_wasm_signatures(benchmark, populations):
    """Times the instrumented Chrome crawls of Alexa and .org."""

    def run():
        return {
            name: ShardedChromeCampaign(population=populations[name]).run()
            for name in ("alexa", "org")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    for name, result in results.items():
        rows = []
        for rank, ((family, count), (paper_family, paper_count)) in enumerate(
            zip(result.signature_counts.most_common(5), PAPER_TOP5[name]), start=1
        ):
            rows.append([rank, family, count, f"{paper_family} {paper_count}"])
        rows.append(["", "Total WebAssembly", result.total_wasm_sites, PAPER_TOTAL_WASM[name]])
        miner_share = result.miner_wasm_sites / max(1, result.total_wasm_sites)
        rows.append(["", "miner share of Wasm", f"{miner_share:.0%}", "~96%"])
        emit(
            f"table1_wasm_signatures_{name}",
            render_table(
                ["rank", "classification (measured)", "count", "paper"],
                rows,
                title=f"Table 1 ({name}): top WebAssembly signatures",
            ),
        )

        assert result.signature_counts.most_common(1)[0][0] == "coinhive"
        assert miner_share > 0.85
