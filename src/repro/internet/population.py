"""Calibrated website populations per dataset.

The paper's four datasets (Alexa 1M, .com 116M, .net 12M, .org 9M) are
reproduced as seeded populations whose *detectable* composition matches the
paper's measured counts while the non-signal bulk (clean sites) is scaled
down. Calibration targets, per dataset:

========  ======================  =====================================
Dataset   zgrab NoCoin hits        Chrome layer
========  ======================  =====================================
Alexa     710 / 621 (two scans)   993 NoCoin, 737 Wasm miners, 129 both
.com      6676 / 5744             (not Chrome-crawled in the paper)
.net      618 / 553               (not Chrome-crawled in the paper)
.org      473 / 399               978 NoCoin, 1372 Wasm miners, 450 both
========  ======================  =====================================

Site roles:

- ``miner`` — actually mines (Wasm + pool WebSocket). Only a subset uses
  the official third-party script URL (NoCoin-visible); the rest
  self-host or inject dynamically.
- ``dead-miner`` — the Coinhive snippet is present but the Wasm no longer
  loads (dead account): a NoCoin hit without mining (false positive).
- ``cpmstar`` — gaming ad network matched by an overbroad list rule.
- ``consent-declined`` — Authedmine embed whose visitor said no.
- ``benign-wasm`` — games/codecs (the non-miner Wasm of Table 1).
- ``clean`` — nothing of interest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.blockchain.chain import Blockchain
from repro.blockchain.difficulty import DifficultyAdjuster
from repro.blockchain.hashing import FAST_PARAMS
from repro.coinhive.miner_script import CoinhiveMinerKit
from repro.coinhive.service import CoinhiveService, make_token
from repro.internet.deployments import BenignWasmKit, FamilyMinerKit
from repro.internet.domains import DomainGenerator
from repro.rulespace.categories import BY_NAME
from repro.sim.rng import RngStream
from repro.wasm.builder import FAMILY_PROFILES, WasmCorpusBuilder
from repro.web.http import Resource, SyntheticWeb
from repro.internet.includers import IncluderLayer, layer_for_spec
from repro.web.scripts import InjectScriptBehavior, ScriptTag, inline_key


@dataclass(frozen=True)
class DatasetSpec:
    """Calibration of one dataset population."""

    name: str
    tld: str
    paper_total_domains: int
    scan_dates: tuple
    chrome_crawl: bool
    #: family → number of actually mining sites (Chrome datasets)
    miner_counts: dict
    #: family → number of miners using the official (listed) script URL
    official_counts: dict
    dead_tag_sites: int
    cpmstar_sites: int
    consent_declined_sites: int
    benign_wasm_sites: int
    clean_sites: int
    #: P(site reachable via TLS) for NoCoin-visible sites
    https_fraction: float
    #: P(miner tag present in static HTML) — rest inject dynamically
    static_fraction: float
    #: P(a scan-1 zgrab hit still present at scan 2)
    scan2_retention: float
    miner_category_weights: dict
    miner_classified_fraction: float
    fp_category_weights: dict
    fp_classified_fraction: float
    #: rank-stratum name → multiplier on the dataset's base signal-role
    #: rates (streaming populations; the paper's Alexa-vs-zone-file split
    #: shows mining under-represented at the very top of the rank order)
    stratum_rate_multipliers: dict = field(default_factory=dict)
    #: rank-stratum name → miner category-weight override for that stratum
    stratum_category_weights: dict = field(default_factory=dict)


ALEXA = DatasetSpec(
    name="alexa",
    tld="com",
    paper_total_domains=950_000,
    scan_dates=("11.01.18", "11.03.18"),
    chrome_crawl=True,
    miner_counts={
        "coinhive": 311, "skencituer": 123, "cryptoloot": 103, "unknown-wss": 56,
        "notgiven688": 46, "authedmine": 30, "wp-monero": 25, "web.stati.bid": 18,
        "freecontent.date": 15, "jsminer": 10,
    },
    official_counts={"coinhive": 85, "cryptoloot": 25, "authedmine": 12, "wp-monero": 7},
    dead_tag_sites=600,
    cpmstar_sites=200,
    consent_declined_sites=64,
    benign_wasm_sites=59,
    clean_sites=1200,
    https_fraction=0.85,
    static_fraction=0.84,
    scan2_retention=0.875,
    miner_category_weights={
        "Pornography": 0.23, "Technology & Telecommunication": 0.10,
        "Filesharing": 0.10, "Educational Site": 0.06,
        "Entertainment & Music": 0.06, "Gaming": 0.05, "Shopping": 0.04,
        "Business": 0.04, "Dynamic Site": 0.03,
    },
    miner_classified_fraction=0.74,
    fp_category_weights={
        "Gaming": 0.16, "Educational Site": 0.11, "Shopping": 0.10,
        "Pornography": 0.07, "Technology & Telecommunication": 0.07,
        "Business": 0.06, "Entertainment & Music": 0.05, "Hosting": 0.03,
    },
    fp_classified_fraction=0.79,
    stratum_rate_multipliers={
        "top1k": 0.25, "top10k": 0.6, "top100k": 1.0, "top1m": 1.3, "tail": 0.9,
    },
    stratum_category_weights={
        "tail": {
            "Pornography": 0.35, "Filesharing": 0.15, "Gaming": 0.08,
            "Technology & Telecommunication": 0.06, "Entertainment & Music": 0.05,
        },
    },
)

ORG = DatasetSpec(
    name="org",
    tld="org",
    paper_total_domains=9_000_000,
    scan_dates=("28.02.18", "09.05.18"),
    chrome_crawl=True,
    miner_counts={
        "coinhive": 711, "cryptoloot": 183, "web.stati.bid": 120,
        "freecontent.date": 108, "notgiven688": 92, "skencituer": 60,
        "unknown-wss": 40, "authedmine": 25, "wp-monero": 20, "jsminer": 13,
    },
    official_counts={"coinhive": 330, "cryptoloot": 80, "authedmine": 22, "wp-monero": 18},
    dead_tag_sites=350,
    cpmstar_sites=120,
    consent_declined_sites=58,
    benign_wasm_sites=119,
    clean_sites=1200,
    https_fraction=0.62,
    static_fraction=0.78,
    scan2_retention=0.844,
    miner_category_weights={
        "Religion": 0.11, "Business": 0.09, "Educational Site": 0.09,
        "Health Site": 0.08, "Technology & Telecommunication": 0.07,
        "Gaming": 0.04, "Pornography": 0.04, "Shopping": 0.03,
    },
    miner_classified_fraction=0.42,
    fp_category_weights={
        "Gaming": 0.27, "Business": 0.08, "Educational Site": 0.06,
        "Pornography": 0.05, "Shopping": 0.04,
        "Technology & Telecommunication": 0.04,
    },
    fp_classified_fraction=0.54,
    stratum_rate_multipliers={
        "top1k": 0.35, "top10k": 0.7, "top100k": 1.0, "top1m": 1.2, "tail": 1.0,
    },
)

COM = DatasetSpec(
    name="com",
    tld="com",
    paper_total_domains=116_000_000,
    scan_dates=("02.03.18", "11.05.18"),
    chrome_crawl=False,
    miner_counts={},
    official_counts={
        "coinhive": 5200, "authedmine": 420, "wp-monero": 330,
        "cryptoloot": 280, "cpmstar": 270, "jsminer": 176,
    },
    dead_tag_sites=0,
    cpmstar_sites=0,
    consent_declined_sites=0,
    benign_wasm_sites=0,
    clean_sites=1500,
    https_fraction=1.0,
    static_fraction=1.0,
    scan2_retention=0.860,
    miner_category_weights={"Business": 0.12, "Shopping": 0.10, "Gaming": 0.10},
    miner_classified_fraction=0.6,
    fp_category_weights={"Gaming": 0.2, "Business": 0.1},
    fp_classified_fraction=0.6,
)

NET = DatasetSpec(
    name="net",
    tld="net",
    paper_total_domains=12_000_000,
    scan_dates=("27.02.18", "08.05.18"),
    chrome_crawl=False,
    miner_counts={},
    official_counts={
        "coinhive": 478, "authedmine": 40, "wp-monero": 32,
        "cryptoloot": 28, "cpmstar": 24, "jsminer": 16,
    },
    dead_tag_sites=0,
    cpmstar_sites=0,
    consent_declined_sites=0,
    benign_wasm_sites=0,
    clean_sites=1200,
    https_fraction=1.0,
    static_fraction=1.0,
    scan2_retention=0.895,
    miner_category_weights={"Technology & Telecommunication": 0.15, "Hosting": 0.1},
    miner_classified_fraction=0.6,
    fp_category_weights={"Gaming": 0.15, "Hosting": 0.1},
    fp_classified_fraction=0.6,
)

DATASETS: dict = {spec.name: spec for spec in (ALEXA, COM, NET, ORG)}

#: Benign wasm family cycle for benign-wasm sites.
_BENIGN_FAMILIES = ("game-engine", "video-codec", "math-lib", "image-filter", "compression")


@dataclass
class SiteSpec:
    """Ground truth for one generated website."""

    domain: str
    role: str
    category: Optional[str] = None
    family: Optional[str] = None
    wasm_variant: int = 0
    https: bool = True
    static_tags: bool = True
    present_scan2: bool = True
    official_url: bool = False
    #: rank stratum the site was drawn in (streaming populations; "" legacy)
    stratum: str = ""
    #: 1-based popularity rank (streaming populations; 0 for legacy builds)
    rank: int = 0


@runtime_checkable
class Population(Protocol):
    """What a campaign reads from a population: satisfied by the
    materialized :class:`WebPopulation` and by the index-addressable
    :class:`~repro.internet.streaming.StreamingPopulation`."""

    spec: DatasetSpec
    sites: Sequence[SiteSpec]
    includer_layer: IncluderLayer
    #: rank strata the sites were drawn in; empty when unstratified
    strata: tuple

    @property
    def web(self) -> SyntheticWeb: ...

    def stratum_sizes(self) -> dict: ...  # stratum name → its rank range's size

    def shard_plan(self, num_shards: int) -> Sequence[Sequence[int]]: ...

    def checkpoint_identity(self, indices: Sequence[int]) -> object: ...

    def attach_fault_plan(self, plan) -> "Population": ...


def stable_shard(domain: str, num_shards: int) -> int:
    """Deterministic shard id for a domain.

    SHA-256 based, so the assignment is stable across Python versions,
    processes, and hash randomization — resumable pipelines depend on a
    domain always landing in the same shard.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    digest = hashlib.sha256(domain.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def partition_indices(sites: Sequence[SiteSpec], num_shards: int) -> list[list[int]]:
    """Population indices per shard, by stable hash of each site's domain."""
    shards: list[list[int]] = [[] for _ in range(num_shards)]
    for index, site in enumerate(sites):
        shards[stable_shard(site.domain, num_shards)].append(index)
    return shards


@dataclass
class WebPopulation:
    """A built population: sites registered on a synthetic web."""

    spec: DatasetSpec
    web: SyntheticWeb
    #: seeded third-party script-inclusion edge layer
    includer_layer: IncluderLayer
    sites: list = field(default_factory=list)
    behavior_registry: dict = field(default_factory=dict)
    coinhive: Optional[CoinhiveService] = None
    scale: float = 1.0
    strata = ()  # a materialized build draws no rank strata

    def stratum_sizes(self) -> dict:
        return {}

    def shard_plan(self, num_shards: int) -> list[list[int]]:
        """Shards by stable hash of each site's domain."""
        return partition_indices(self.sites, num_shards)

    def checkpoint_identity(self, indices: Sequence[int]) -> list:
        """The shard's ``(index, domain)`` pairs, as journals have always
        been fingerprinted."""
        return [(i, self.sites[i].domain) for i in indices]

    def domains(self) -> list:
        return [site.domain for site in self.sites]

    def attach_fault_plan(self, plan) -> "WebPopulation":
        """Install a :class:`~repro.faults.plan.FaultPlan` on every surface
        this population exposes: HTTP/WS transfers and the Coinhive pool.
        ``None`` detaches injection entirely."""
        self.web.fault_plan = plan
        if self.coinhive is not None:
            self.coinhive.pool.fault_plan = plan
        return self

    def ground_truth_miners(self) -> set:
        return {site.domain for site in self.sites if site.role == "miner"}

    def sites_by_role(self, role: str) -> list:
        return [site for site in self.sites if site.role == role]


def _scaled(count: int, scale: float) -> int:
    if count == 0 or scale >= 1.0:
        return int(count * scale) if scale < 1.0 else count
    return max(1, round(count * scale))


def build_population(
    dataset: str = "alexa",
    seed: int = 2018,
    scale: float = 1.0,
    web: Optional[SyntheticWeb] = None,
    coinhive: Optional[CoinhiveService] = None,
    corpus: Optional[WasmCorpusBuilder] = None,
) -> WebPopulation:
    """Generate one dataset population onto a :class:`SyntheticWeb`.

    ``scale`` shrinks every calibrated count proportionally (tests use
    small scales); shares and rates are scale-invariant.
    """
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    spec = DATASETS[dataset]
    web = web if web is not None else SyntheticWeb()
    corpus = corpus if corpus is not None else WasmCorpusBuilder()
    rng = RngStream(seed, "population", dataset)
    namer = DomainGenerator(rng.substream("names"))
    population = WebPopulation(
        spec=spec, web=web, scale=scale, includer_layer=layer_for_spec(spec, seed)
    )

    if coinhive is None and spec.chrome_crawl:
        chain = Blockchain(
            pow_params=FAST_PARAMS,
            adjuster=DifficultyAdjuster(window=60, cut=5, initial_difficulty=200_000),
            genesis_timestamp=1_514_764_800,  # 2018-01-01 UTC
        )
        coinhive = CoinhiveService(chain=chain)
    population.coinhive = coinhive

    coinhive_kit = None
    authedmine_kit = None
    family_kits: dict = {}
    benign_kit = BenignWasmKit(web=web, corpus=corpus)
    if coinhive is not None:
        coinhive_kit = CoinhiveMinerKit(service=coinhive, web=web, corpus=corpus)
        coinhive_kit.install()
        authedmine_kit = CoinhiveMinerKit(
            service=coinhive, web=web, corpus=corpus, consent_banner=True
        )
        authedmine_kit.install()

    def family_kit(family: str) -> FamilyMinerKit:
        if family not in family_kits:
            family_kits[family] = FamilyMinerKit(
                family=family, web=web, rng=rng.substream("kit", family), corpus=corpus
            )
        return family_kits[family]

    def miner_tags(site: SiteSpec, token: str) -> list:
        endpoint_index = rng.randint(1, 32)
        if site.family in ("coinhive", "authedmine") and coinhive_kit is not None:
            kit = authedmine_kit if site.family == "authedmine" else coinhive_kit
            if site.official_url:
                return kit.official_tags(token, endpoint_index, wasm_variant=site.wasm_variant)
            return kit.self_hosted_tags(
                token, f"www.{site.domain}", endpoint_index, wasm_variant=site.wasm_variant
            )
        kit = family_kit(site.family)
        return kit.tags(
            token,
            variant=site.wasm_variant,
            self_host=None if site.official_url else f"www.{site.domain}",
            endpoint_index=endpoint_index,
            official_js=site.official_url,
        )

    # ---- role generation -------------------------------------------------------

    def draw_site(role: str, category_weights: dict, classified_fraction: float) -> SiteSpec:
        domain, category = namer.draw(
            spec.tld, category_weights or None, classified_fraction
        )
        return SiteSpec(domain=domain, role=role, category=category)

    # miners (Chrome datasets)
    for family, count in spec.miner_counts.items():
        count = _scaled(count, scale)
        officials = _scaled(spec.official_counts.get(family, 0), scale)
        officials = min(officials, count)
        num_variants = FAMILY_PROFILES[family].num_variants
        for i in range(count):
            site = draw_site("miner", spec.miner_category_weights, spec.miner_classified_fraction)
            site.family = family
            site.wasm_variant = rng.randint(0, num_variants - 1)
            site.official_url = i < officials
            site.https = rng.random() < spec.https_fraction
            site.static_tags = rng.random() < spec.static_fraction
            site.present_scan2 = rng.random() < spec.scan2_retention
            population.sites.append(site)

    # zgrab-only datasets: listed tags without execution semantics
    if not spec.chrome_crawl:
        for family, count in spec.official_counts.items():
            for _ in range(_scaled(count, scale)):
                site = draw_site(
                    "listed-tag", spec.fp_category_weights, spec.fp_classified_fraction
                )
                site.family = family
                site.official_url = True
                site.present_scan2 = rng.random() < spec.scan2_retention
                population.sites.append(site)

    # false-positive roles
    for _ in range(_scaled(spec.dead_tag_sites, scale)):
        site = draw_site("dead-miner", spec.fp_category_weights, spec.fp_classified_fraction)
        site.family = "coinhive"
        site.official_url = True
        site.https = rng.random() < spec.https_fraction
        site.static_tags = rng.random() < spec.static_fraction
        site.present_scan2 = rng.random() < spec.scan2_retention
        population.sites.append(site)
    for _ in range(_scaled(spec.cpmstar_sites, scale)):
        site = draw_site("cpmstar", {"Gaming": 0.9}, 0.9)
        site.family = "cpmstar"
        site.official_url = True
        site.https = rng.random() < spec.https_fraction
        site.static_tags = rng.random() < spec.static_fraction
        site.present_scan2 = rng.random() < spec.scan2_retention
        population.sites.append(site)
    for _ in range(_scaled(spec.consent_declined_sites, scale)):
        site = draw_site(
            "consent-declined", spec.fp_category_weights, spec.fp_classified_fraction
        )
        site.family = "authedmine"
        site.official_url = True
        site.https = rng.random() < spec.https_fraction
        site.static_tags = rng.random() < spec.static_fraction
        site.present_scan2 = rng.random() < spec.scan2_retention
        population.sites.append(site)

    # benign wasm + clean
    for i in range(_scaled(spec.benign_wasm_sites, scale)):
        site = draw_site("benign-wasm", spec.fp_category_weights, spec.fp_classified_fraction)
        site.family = _BENIGN_FAMILIES[i % len(_BENIGN_FAMILIES)]
        site.wasm_variant = rng.randint(0, FAMILY_PROFILES[site.family].num_variants - 1)
        population.sites.append(site)
    for _ in range(_scaled(spec.clean_sites, scale)):
        population.sites.append(
            draw_site("clean", spec.fp_category_weights, spec.fp_classified_fraction)
        )

    rng.shuffle(population.sites)

    # ---- materialize sites on the web -------------------------------------------
    for site in population.sites:
        _materialize(site, spec, population, rng, miner_tags, benign_kit)
    return population


_DEAD_COINHIVE_INLINE = "var miner=new CoinHive.Anonymous('%s');miner.start();"


def _materialize(site: SiteSpec, spec: DatasetSpec, population: WebPopulation, rng: RngStream, miner_tags, benign_kit: BenignWasmKit) -> None:
    """Build the site's HTML and register it (plus behaviours) on the web."""
    web = population.web
    token = make_token(f"{spec.name}/{site.domain}")
    role_tags: list[ScriptTag] = []

    if site.role == "miner":
        role_tags.extend(miner_tags(site, token))
    elif site.role in ("dead-miner", "listed-tag"):
        src_url = {
            "coinhive": "https://coinhive.com/lib/coinhive.min.js",
            "authedmine": "https://authedmine.com/lib/authedmine.min.js",
            "cryptoloot": "https://crypto-loot.com/lib/crypto-loot.min.js",
            "wp-monero": "https://wp-monero-miner.de/js/wp-monero-miner.js",
            "cpmstar": "https://ssl.cpmstar.com/cached/js/cpmstar.js",
            "jsminer": "https://jsminer.example/jsminer.js",
        }.get(site.family or "coinhive", "https://coinhive.com/lib/coinhive.min.js")
        role_tags.append(ScriptTag(src=src_url))
        role_tags.append(ScriptTag(inline=_DEAD_COINHIVE_INLINE % token))
    elif site.role == "cpmstar":
        role_tags.append(ScriptTag(src="https://ssl.cpmstar.com/cached/js/cpmstar.js"))
    elif site.role == "consent-declined":
        from repro.web.scripts import ConsentMinerBehavior

        role_tags.append(ScriptTag(src="https://authedmine.com/lib/authedmine.min.js"))
        role_tags.append(
            ScriptTag(
                inline=f"var m=new CoinHive.Anonymous('{token}');m.askAndStart();",
                # accept_rate 0: the dialog renders, the visitor declines,
                # nothing mines — a NoCoin hit with no Wasm (Table 2 FP)
                behavior=ConsentMinerBehavior(miner=None, accept_rate=0.0),
            )
        )
    elif site.role == "benign-wasm":
        role_tags.extend(benign_kit.tags(site.family, site.wasm_variant, f"www.{site.domain}"))

    # static_tags=False: the role's tags are injected by a first-party loader
    # at runtime, so static HTML (and thus the zgrab/NoCoin pass) never sees
    # them, while the browser's post-execution HTML does.
    if site.static_tags or not role_tags:
        static_tags, dynamic_tags = list(role_tags), []
    else:
        static_tags, dynamic_tags = [], list(role_tags)

    host = f"www.{site.domain}"
    scheme = "https" if site.https else "http"

    # every site gets an ordinary first-party script and body content
    site_js = f"{scheme}://{host}/js/site.js"
    static_tags.append(ScriptTag(src=site_js))
    web.register(site_js, Resource(content=b"/*site*/", content_type="text/javascript"))

    # third-party includer tags: keyed by (seed, dataset, domain) only, so
    # the shared population rng is never consumed here
    static_tags.extend(population.includer_layer.tags_for(site))

    if dynamic_tags:
        loader_url = f"{scheme}://{host}/js/loader.js"
        web.register(loader_url, Resource(content=b"/*ldr*/", content_type="text/javascript"))
        population.behavior_registry[loader_url] = _CompositeInjector(
            [InjectScriptBehavior(script=t, delay=0.2 + 0.1 * i) for i, t in enumerate(dynamic_tags)]
        )
        static_tags.append(ScriptTag(src=loader_url))

    html = _render_html(site, static_tags, rng)
    if site.https:
        web.register_page(f"https://{host}/", html.encode("utf-8"))
        web.register(f"http://{host}/", Resource(redirect_to=f"https://{host}/"))
    else:
        web.register_page(f"http://{host}/", html.encode("utf-8"))

    # behaviours of static tags, keyed by src or inline text
    for tag in static_tags:
        if tag.behavior is None:
            continue
        key = tag.src if tag.src else inline_key(tag.inline)
        population.behavior_registry[key] = tag.behavior


class _CompositeInjector:
    """Runs several injectors from one loader script."""

    def __init__(self, injectors) -> None:
        self.injectors = injectors

    def run(self, ctx) -> None:
        for injector in self.injectors:
            injector.run(ctx)


def _render_html(site: SiteSpec, tags, rng: RngStream) -> str:
    head_scripts = "".join(tag.html() for tag in tags)
    keywords = ""
    if site.category and site.category in BY_NAME:
        words = BY_NAME[site.category].content_keywords
        keywords = " ".join(words[: 1 + rng.randint(1, len(words) - 1)])
    filler_words = " ".join(
        rng.choice(("welcome", "updates", "news", "about", "community", "home"))
        for _ in range(6)
    )
    return (
        "<!DOCTYPE html><html><head>"
        f"<title>{site.domain}</title>{head_scripts}</head>"
        f"<body><h1>{site.domain}</h1><p>{keywords}</p><p>{filler_words}</p></body></html>"
    )
