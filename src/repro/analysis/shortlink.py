"""The short-link study (Section 4.1).

Reproduces, against a :class:`~repro.internet.shortlinks.ShortLinkPopulation`:

- **Figure 3** — links-per-token distribution (rank curve + CDF),
- **Figure 4** — required-hash distribution, with and without the
  heavy-user bias, plus the duration axis at 20 H/s,
- **Table 4** — top destination domains of the top-10 creators (resolved
  by actually computing hashes through the resolver),
- **Table 5** — RuleSpace categories of the unbiased <10K-hash dataset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.coinhive.resolver import LinkResolver
from repro.coinhive.service import CoinhiveService
from repro.internet.shortlinks import ShortLinkPopulation
from repro.rulespace.engine import RuleSpaceEngine
from repro.sim.rng import RngStream


@dataclass
class LinksPerTokenResult:
    """Figure 3's data: link counts by token rank."""

    counts_by_rank: list[int]  # descending link counts
    total_links: int

    @property
    def top1_share(self) -> float:
        return self.counts_by_rank[0] / self.total_links if self.total_links else 0.0

    def topn_share(self, n: int = 10) -> float:
        return sum(self.counts_by_rank[:n]) / self.total_links if self.total_links else 0.0

    def cdf_points(self) -> list[tuple[int, float]]:
        """(rank, cumulative share) pairs."""
        out = []
        acc = 0
        for rank, count in enumerate(self.counts_by_rank, start=1):
            acc += count
            out.append((rank, acc / self.total_links))
        return out


@dataclass
class HashRequirementResult:
    """Figure 4's data: hash requirements, biased and unbiased."""

    all_links: list[int]           # required hashes, one per link
    user_bias_removed: list[int]   # one per (user, required-hash value)

    def share_resolvable_within(self, max_hashes: int, unbiased: bool = True) -> float:
        data = self.user_bias_removed if unbiased else self.all_links
        if not data:
            return 0.0
        return sum(1 for v in data if v <= max_hashes) / len(data)

    def histogram(self, unbiased: bool = False) -> Counter:
        data = self.user_bias_removed if unbiased else self.all_links
        return Counter(data)


@dataclass
class DestinationResult:
    """Tables 4 and 5."""

    top_user_domains: Counter      # destination domain → sampled count
    top_user_sample_size: int
    unbiased_categories: Counter   # category → count (multi-label)
    unbiased_urls: int
    unbiased_unclassified: int
    hashes_computed: int


@dataclass
class ShortLinkStudy:
    """Runs the full Section 4.1 analysis."""

    population: ShortLinkPopulation
    coinhive: Optional[CoinhiveService] = None
    rulespace: RuleSpaceEngine = field(default_factory=RuleSpaceEngine)
    resolver: Optional[LinkResolver] = None
    sample_per_top_user: int = 1000
    unbiased_hash_cutoff: int = 10_000

    def __post_init__(self) -> None:
        if self.resolver is None:
            self.resolver = LinkResolver(
                shortlinks=self.population.service, coinhive=self.coinhive
            )

    # -- Figure 3 -------------------------------------------------------------

    def links_per_token(self) -> LinksPerTokenResult:
        counts = sorted(self.population.links_per_token().values(), reverse=True)
        return LinksPerTokenResult(counts_by_rank=counts, total_links=sum(counts))

    # -- Figure 4 -------------------------------------------------------------

    def hash_requirements(self) -> HashRequirementResult:
        all_links = [link.required_hashes for link in self.population.service.links]
        per_user_values: set[tuple[str, int]] = set()
        for link in self.population.service.links:
            per_user_values.add((link.token, link.required_hashes))
        return HashRequirementResult(
            all_links=all_links,
            user_bias_removed=[value for _token, value in per_user_values],
        )

    # -- Tables 4 and 5 ----------------------------------------------------------

    def destinations(self, seed: int = 7) -> DestinationResult:
        """Resolve samples and categorize destinations.

        Top-10 users: a random sample of up to ``sample_per_top_user``
        links each. Unbiased set: every link under the hash cutoff, one
        per (user, hash-value) pair — the paper's bias removal.
        """
        rng = RngStream(seed, "shortlink-study")
        service = self.population.service
        # keep the ranked order for iteration: sampling consumes the RNG per
        # token, so iterating the *set* would tie the draws to the process
        # hash seed and break cross-run determinism
        ranked_top = self.population.top_tokens(10)
        top_tokens = set(ranked_top)

        by_token: dict[str, list] = {}
        for link in service.links:
            by_token.setdefault(link.token, []).append(link)

        top_domains: Counter = Counter()
        top_sample = 0
        for token in ranked_top:
            links = by_token.get(token, [])
            sample = links if len(links) <= self.sample_per_top_user else rng.sample(
                links, self.sample_per_top_user
            )
            for link in sample:
                resolved = self.resolver.resolve(link.link_id)
                top_domains[_domain_of(resolved.target_url)] += 1
                top_sample += 1

        # unbiased: dedup per (token, required) and cap at the cutoff
        seen: set[tuple[str, int]] = set()
        unbiased_cats: Counter = Counter()
        unbiased_urls = 0
        unclassified = 0
        for link in service.links:
            if link.token in top_tokens:
                continue
            key = (link.token, link.required_hashes)
            if key in seen or link.required_hashes >= self.unbiased_hash_cutoff:
                continue
            seen.add(key)
            resolved = self.resolver.resolve(link.link_id)
            unbiased_urls += 1
            labels = self.rulespace.classify_url(resolved.target_url)
            if labels:
                unbiased_cats.update(labels)
            else:
                unclassified += 1

        return DestinationResult(
            top_user_domains=top_domains,
            top_user_sample_size=top_sample,
            unbiased_categories=unbiased_cats,
            unbiased_urls=unbiased_urls,
            unbiased_unclassified=unclassified,
            hashes_computed=self.resolver.total_hashes_computed,
        )


def _domain_of(url: str) -> str:
    host = url.split("://", 1)[-1].split("/", 1)[0]
    return host[4:] if host.startswith("www.") else host
