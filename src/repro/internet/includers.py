"""Deterministic third-party script-inclusion edge layer.

Musch et al. observe that real cryptojacking spreads through shared
third-party *includers* — ad networks, plugin CDNs, compromised widget
hosts — whose script tags appear across many otherwise-unrelated sites.
This module seeds a small population of such includer domains and decides,
per site, which includer script URLs appear in that site's landing page.

Every decision is a pure function of ``(seed, dataset, site.domain,
includer.name)`` via :func:`repro.sim.rng.hash_unit`, so the edge set is
identical whether sites are materialized up front, streamed through
``StreamingPopulation``, or rebuilt inside a worker shard — and it never
consumes the shared population RNG, so adding the layer perturbs nothing
else.

Includer script URLs are deliberately *not* registered on the synthetic
web: browsers treat them as harmless unresolvable third-party fetches
(exactly how the crawler sees a dead ad-network tag), and none of the
domains contain NoCoin-listed substrings, so the layer is detection-neutral
by construction — it adds provenance edges, not signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.sim.rng import hash_unit
from repro.web.scripts import ScriptTag

#: Opaque syllables for includer host names. Deliberately hyphen-free (the
#: streaming index round-trip treats ``-<digits>.<tld>`` suffixes as site
#: indices) and free of any NoCoin-listed substring.
_SYLLABLES = (
    "zam", "vor", "qel", "lun", "dap", "pim", "nux", "tov",
    "bex", "ryk", "kol", "mis", "jat", "wub", "fen", "gur",
)

#: Host suffixes marking the domain as an infrastructure host. None of
#: these appear in the opaque/categorized site-domain generators, so an
#: includer domain can never collide with a population site domain.
_CAMPAIGN_SUFFIXES = ("cdn", "tags", "static", "push")
_BENIGN_NAMES = ("metrics", "widgets", "fonts")

#: Probability a campaign includer's tag appears on a site of its family.
#: Campaign includers never appear off-campaign: a single stray tag would
#: transitively merge two unrelated campaigns into one component.
CAMPAIGN_RATE = 0.65
#: Probability a benign infrastructure includer appears on any site.
BENIGN_RATE = 0.22

#: Site roles that count as part of a mining campaign for seeding purposes.
_CAMPAIGN_ROLES = frozenset(
    {"miner", "dead-miner", "listed-tag", "cpmstar", "consent-declined"}
)


@dataclass(frozen=True)
class IncluderSpec:
    """One third-party includer domain and its script URL."""

    name: str
    domain: str
    url: str
    #: ``campaign`` includers seed one miner family; ``benign`` includers
    #: are ordinary infrastructure shared across the population.
    kind: str
    family: str = ""


@dataclass(frozen=True)
class IncluderLayer:
    """The seeded inclusion edge layer for one ``(dataset, seed)`` pair."""

    dataset: str
    seed: int
    includers: Tuple[IncluderSpec, ...]

    def rate_for(self, includer: IncluderSpec, site) -> float:
        if includer.kind == "campaign":
            if site.family == includer.family and site.role in _CAMPAIGN_ROLES:
                return CAMPAIGN_RATE
            return 0.0
        return BENIGN_RATE

    def includers_for(self, site) -> Tuple[IncluderSpec, ...]:
        """The includers whose script tags appear on ``site``.

        Keyed by the site *domain* (not its index or draw order), so the
        same site gets the same includers no matter which code path built
        it. A draw is hashed only where the rate is non-zero: a campaign
        includer's draw can never hit off its campaign.
        """
        chosen = []
        for includer in self.includers:
            rate = self.rate_for(includer, site)
            if rate and hash_unit(
                self.seed, "includer", self.dataset, site.domain, includer.name
            ) < rate:
                chosen.append(includer)
        return tuple(chosen)

    def tags_for(self, site) -> Tuple[ScriptTag, ...]:
        """The ``<script src=...>`` tags to embed in the site's HTML."""
        return tuple(
            ScriptTag(src=includer.url) for includer in self.includers_for(site)
        )


def _host_body(seed: int, dataset: str, name: str) -> str:
    """Two opaque syllables, a pure function of the includer identity."""
    first = _SYLLABLES[
        int(hash_unit(seed, "includer-host", dataset, name, "a") * len(_SYLLABLES))
    ]
    second = _SYLLABLES[
        int(hash_unit(seed, "includer-host", dataset, name, "b") * len(_SYLLABLES))
    ]
    return first + second


def build_includer_layer(
    dataset: str, seed: int, families: Iterable[str] = ()
) -> IncluderLayer:
    """Seed the includer population for one dataset.

    One campaign includer per miner family (sorted for determinism) plus a
    fixed trio of benign infrastructure includers. Pure function of
    ``(dataset, seed, families)``.
    """
    includers = []
    used: set = set()

    def unique(domain: str, name: str) -> str:
        while domain in used:  # hash collision between includer identities
            domain = f"{_SYLLABLES[len(used) % len(_SYLLABLES)]}{domain}"
        used.add(domain)
        return domain

    for i, family in enumerate(sorted(set(families))):
        name = f"{family}-seeder"
        suffix = _CAMPAIGN_SUFFIXES[i % len(_CAMPAIGN_SUFFIXES)]
        domain = unique(f"{_host_body(seed, dataset, name)}{suffix}.io", name)
        includers.append(
            IncluderSpec(
                name=name,
                domain=domain,
                url=f"https://{domain}/t/loader.js",
                kind="campaign",
                family=family,
            )
        )
    for name in _BENIGN_NAMES:
        domain = unique(f"{_host_body(seed, dataset, name)}{name}.io", name)
        includers.append(
            IncluderSpec(
                name=name,
                domain=domain,
                url=f"https://{domain}/v1/{name}.js",
                kind="benign",
            )
        )
    return IncluderLayer(dataset=dataset, seed=seed, includers=tuple(includers))


def layer_for_spec(spec, seed: int) -> IncluderLayer:
    """The includer layer for a :class:`DatasetSpec`.

    Campaign includers are seeded for the dataset's miner families —
    ``miner_counts`` for Chrome-crawled datasets, ``official_counts`` for
    zgrab-only ones (where listed tags are the only family signal).
    """
    families = spec.miner_counts if spec.chrome_crawl else spec.official_counts
    return build_includer_layer(spec.name, seed, families.keys())
