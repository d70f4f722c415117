"""Generating block-list rules from crawl results.

The paper's conclusion is that static lists lag the ecosystem ("the public
NoCoin filter list [is] insufficient") while Wasm fingerprinting sees
through URL churn. The obvious operational consequence — feed the
fingerprint pipeline's findings *back into* a block list — is implemented
here:

1. run the Chrome campaign,
2. for every signature-detected miner page, emit an Adblock rule for each
   mining WebSocket endpoint host the page connected to,
3. measure how much of the signature-detected population the augmented
   list now covers, counting a page as covered when the list matches its
   script URLs (the NoCoin hit) or one of its WebSocket endpoints.

This quantifies how much of the NoCoin gap a list fed by fingerprint
results closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.nocoin import FilterList, default_nocoin_list, parse_rule


def _host_of(url: str) -> str:
    return url.split("://", 1)[-1].split("/", 1)[0].lower()


@dataclass
class GeneratedRules:
    """Rules distilled from one crawl's miner reports."""

    websocket_hosts: set[str] = field(default_factory=set)

    def to_lines(self) -> list[str]:
        return [f"||{host}^" for host in sorted(self.websocket_hosts)]

    def __len__(self) -> int:
        return len(self.websocket_hosts)


def generate_rules(reports) -> GeneratedRules:
    """One host rule per WebSocket endpoint of the miner reports."""
    generated = GeneratedRules()
    for report in reports:
        if not report.is_miner:
            continue
        for ws_url in report.websocket_urls:
            generated.websocket_hosts.add(_host_of(ws_url))
    return generated


def augmented_list(generated: GeneratedRules, base: FilterList = None) -> FilterList:
    """The NoCoin list plus the generated rules."""
    combined = base if base is not None else default_nocoin_list()
    for line in generated.to_lines():
        rule = parse_rule(line, label="generated")
        if rule is not None:
            combined.add(rule)
    return combined


@dataclass(frozen=True)
class CoverageComparison:
    """Before/after coverage of the miner population."""

    miners_total: int
    covered_by_base: int
    covered_by_augmented: int

    @property
    def base_missed_fraction(self) -> float:
        return 1 - self.covered_by_base / self.miners_total if self.miners_total else 0.0

    @property
    def augmented_missed_fraction(self) -> float:
        return 1 - self.covered_by_augmented / self.miners_total if self.miners_total else 0.0


def evaluate_coverage(reports, augmented: FilterList) -> CoverageComparison:
    """How many signature-detected miners would each list block?

    A miner page counts as *covered* when the list matches any of its
    observables: a script URL in its final HTML (already recorded in
    ``report.nocoin_hit`` for the base list) or one of its WebSocket
    endpoints (which blockers can also filter).
    """
    total = base = aug = 0
    for report in reports:
        if not report.is_miner:
            continue
        total += 1
        if report.nocoin_hit:
            base += 1
            aug += 1
            continue
        if any(augmented.match_url(url) for url in report.websocket_urls):
            aug += 1
    return CoverageComparison(
        miners_total=total, covered_by_base=base, covered_by_augmented=aug
    )
