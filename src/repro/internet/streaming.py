"""Lazy, seeded, index-addressable population streams (internet scale).

The paper's headline scan covers the full .com/.net/.org zone files —
138M domains — a regime where *materializing* the site list is the
bottleneck, not crawling it. :class:`StreamingPopulation` removes the
materialization step entirely: site *i* of a dataset is a pure function
of ``(seed, dataset, i)``, which buys

- O(1) population state per campaign shard at any population size,
- shards that derive disjoint index ranges with no shared generator,
- resumed campaigns that re-derive exactly the sites they journaled,
- the same seed meaning the same internet whether streamed or
  materialized, sharded or serial.

Sites are drawn in **rank strata** (top-1k/10k/100k/1M/tail) with
per-stratum signal-role prevalence and category mix — the shape of the
paper's Alexa-vs-zone-file split (Table 2): mining skews away from the
very top of the popularity order. ``sample_per_stratum`` turns a full
scan into a stratified rank sample whose per-stratum hit rates
extrapolate back to the whole population.

Web content comes from a lazy :class:`~repro.web.http.SyntheticWeb`
subclass that materializes one site's resources on first touch and
LRU-evicts them, so per-shard memory is bounded by the cache size, not
the population. :meth:`StreamingPopulation.materialize` builds the
equivalent eager :class:`~repro.internet.population.WebPopulation`
through the *same* per-site registration function, which is what makes
stream == materialized a structural identity; the equivalence suite
(``tests/test_internet_streaming.py``) pins it byte-for-byte.

The streaming plane serves the zgrab (static-HTML) pipeline — the only
one the paper ran at zone scale. Chrome-layer behaviours are not wired
on streamed sites; Chrome experiments stay on
:func:`~repro.internet.population.build_population` scales.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.coinhive.miner_script import AUTHEDMINE_JS_URL, OFFICIAL_JS_URL
from repro.coinhive.service import make_token
from repro.internet.domains import index_of_domain, indexed_draw
from repro.internet.population import (
    DATASETS,
    DatasetSpec,
    SiteSpec,
    WebPopulation,
    _BENIGN_FAMILIES,
    _DEAD_COINHIVE_INLINE,
    _render_html,
)
from repro.sim.rng import RngStream
from repro.wasm.builder import FAMILY_PROFILES
from repro.web.http import Resource, SyntheticWeb, split_url
from repro.internet.includers import layer_for_spec
from repro.web.scripts import ScriptTag

#: default rank-bucket upper bounds (1-based, inclusive); ``None`` extends
#: the final bucket to the end of the population
DEFAULT_STRATUM_BOUNDS = (
    ("top1k", 1_000),
    ("top10k", 10_000),
    ("top100k", 100_000),
    ("top1m", 1_000_000),
    ("tail", None),
)

#: fallback popularity-skew multipliers for datasets that do not calibrate
#: their own (``DatasetSpec.stratum_rate_multipliers``)
_DEFAULT_RATE_MULTIPLIERS = {
    "top1k": 0.3,
    "top10k": 0.6,
    "top100k": 1.0,
    "top1m": 1.25,
    "tail": 0.9,
}

#: third-party script URLs for roles carrying a listed (or listed-adjacent)
#: tag — mirrors the legacy ``_materialize`` map
_LISTED_SRC = {
    "coinhive": OFFICIAL_JS_URL,
    "authedmine": AUTHEDMINE_JS_URL,
    "cryptoloot": "https://crypto-loot.com/lib/crypto-loot.min.js",
    "wp-monero": "https://wp-monero-miner.de/js/wp-monero-miner.js",
    "cpmstar": "https://ssl.cpmstar.com/cached/js/cpmstar.js",
    "jsminer": "https://jsminer.example/jsminer.js",
}


@dataclass(frozen=True)
class RankStratum:
    """One rank bucket of a streaming population.

    ``lo``/``hi`` are 1-based ranks, inclusive; ``hi=None`` extends the
    bucket to the end of the population. ``role_rates`` are per-site draw
    probabilities for the signal roles (the remainder draws ``clean``),
    stored as an ordered tuple so the cumulative walk — and therefore
    every derived site — is pinned by the stratum value itself.
    """

    name: str
    lo: int
    hi: Optional[int]
    role_rates: tuple = ()
    miner_category_weights: tuple = ()
    miner_classified_fraction: float = 0.7
    fp_category_weights: tuple = ()
    fp_classified_fraction: float = 0.7

    def contains(self, rank: int) -> bool:
        return rank >= self.lo and (self.hi is None or rank <= self.hi)

    def size_within(self, population_size: int) -> int:
        if self.lo > population_size:
            return 0
        hi = population_size if self.hi is None else min(self.hi, population_size)
        return max(0, hi - self.lo + 1)

    def signal_rate(self) -> float:
        return sum(rate for _, rate in self.role_rates)


def base_role_rates(spec: DatasetSpec) -> tuple:
    """Dataset-level signal-role rates against the paper's zone size."""
    total = spec.paper_total_domains
    rates = []
    miner_total = sum(spec.miner_counts.values())
    if miner_total:
        rates.append(("miner", miner_total / total))
    if not spec.chrome_crawl:
        listed = sum(spec.official_counts.values())
        if listed:
            rates.append(("listed-tag", listed / total))
    for role, count in (
        ("dead-miner", spec.dead_tag_sites),
        ("cpmstar", spec.cpmstar_sites),
        ("consent-declined", spec.consent_declined_sites),
        ("benign-wasm", spec.benign_wasm_sites),
    ):
        if count:
            rates.append((role, count / total))
    return tuple(rates)


def default_strata(spec: DatasetSpec) -> tuple:
    """The dataset's calibrated rank strata (top-1k … tail)."""
    base = base_role_rates(spec)
    strata = []
    lo = 1
    for name, bound in DEFAULT_STRATUM_BOUNDS:
        multiplier = spec.stratum_rate_multipliers.get(
            name, _DEFAULT_RATE_MULTIPLIERS[name]
        )
        category_weights = spec.stratum_category_weights.get(
            name, spec.miner_category_weights
        )
        strata.append(
            RankStratum(
                name=name,
                lo=lo,
                hi=bound,
                role_rates=tuple((role, rate * multiplier) for role, rate in base),
                miner_category_weights=tuple(sorted(category_weights.items())),
                miner_classified_fraction=spec.miner_classified_fraction,
                fp_category_weights=tuple(sorted(spec.fp_category_weights.items())),
                fp_classified_fraction=spec.fp_classified_fraction,
            )
        )
        if bound is None:
            break
        lo = bound + 1
    return tuple(strata)


def parse_strata(text: str, spec: DatasetSpec) -> tuple:
    """Parse a ``--strata`` spec: comma-separated ``name:hi_rank:rate``.

    ``hi_rank`` may be empty on the last entry (unbounded tail); ``rate``
    is the stratum's total signal-role probability, split across the
    dataset's signal roles proportionally to their base composition.
    """
    base = base_role_rates(spec)
    base_total = sum(rate for _, rate in base) or 1.0
    strata = []
    lo = 1
    entries = [entry.strip() for entry in text.split(",") if entry.strip()]
    if not entries:
        raise ValueError("empty --strata spec")
    for position, entry in enumerate(entries):
        parts = entry.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"malformed stratum {entry!r} (want name:hi_rank:signal_rate)"
            )
        name, hi_text, rate_text = parts
        hi = None if hi_text in ("", "-") else int(hi_text)
        if hi is not None and hi < lo:
            raise ValueError(
                f"stratum {name!r} ends at rank {hi} before it starts ({lo})"
            )
        if hi is None and position != len(entries) - 1:
            raise ValueError(f"only the last stratum may be unbounded ({name!r} is not last)")
        scale = float(rate_text) / base_total
        strata.append(
            RankStratum(
                name=name,
                lo=lo,
                hi=hi,
                role_rates=tuple((role, rate * scale) for role, rate in base),
                miner_category_weights=tuple(sorted(spec.miner_category_weights.items())),
                miner_classified_fraction=spec.miner_classified_fraction,
                fp_category_weights=tuple(sorted(spec.fp_category_weights.items())),
                fp_classified_fraction=spec.fp_classified_fraction,
            )
        )
        if hi is not None:
            lo = hi + 1
    return tuple(strata)


def _validated_strata(strata: tuple) -> tuple:
    if not strata:
        raise ValueError("a streaming population needs at least one stratum")
    names = [stratum.name for stratum in strata]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate stratum names: {names}")
    expected_lo = 1
    for stratum in strata:
        if stratum.lo != expected_lo:
            raise ValueError(
                f"stratum {stratum.name!r} starts at rank {stratum.lo}, "
                f"expected {expected_lo} (strata must tile the rank order)"
            )
        if stratum.signal_rate() > 1.0:
            raise ValueError(
                f"stratum {stratum.name!r} signal rates sum past 1.0"
            )
        if stratum.hi is None:
            if stratum is not strata[-1]:
                raise ValueError("only the last stratum may be unbounded")
            break
        expected_lo = stratum.hi + 1
    return strata


class _LazySites(Sequence):
    """Indexable view over a streaming population's sites.

    ``population.sites[i]`` derives site *i* on demand, with a small LRU
    so shard loops that touch a site a few times pay one derivation. This
    is what lets the sharded campaigns run unchanged against a streaming
    population — they only ever do ``len(sites)`` and ``sites[i]``.
    """

    def __init__(self, population: "StreamingPopulation", cache: int = 512) -> None:
        self._population = population
        self._cache_limit = max(1, cache)
        self._cache: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._population.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        with self._lock:
            cached = self._cache.get(index)
            if cached is not None:
                self._cache.move_to_end(index)
                return cached
        site = self._population.site(index)
        with self._lock:
            self._cache[index] = site
            while len(self._cache) > self._cache_limit:
                self._cache.popitem(last=False)
        return site


class _StreamWeb(SyntheticWeb):
    """A :class:`SyntheticWeb` that materializes sites on demand.

    Any URL on a ``www.<indexed-domain>`` host triggers registration of
    exactly that site's resources; least-recently-touched sites are
    evicted wholesale (a site's resources live only on its own host, so
    eviction removes exactly its keys). The population keeps one; a
    forked shard worker mutates its own copy-on-write copy of it.
    """

    def __init__(self, population: "StreamingPopulation", cache_limit: int = 64) -> None:
        super().__init__()
        self._population = population
        self._cache_limit = max(1, cache_limit)
        self._site_keys: OrderedDict = OrderedDict()
        self.fault_plan = population.fault_plan

    def _ensure_site(self, host: str) -> None:
        name = host[4:] if host.startswith("www.") else host
        index = self._population.index_of_domain(name)
        if index is None:
            return
        if index in self._site_keys:
            self._site_keys.move_to_end(index)
            return
        keys, https_host = self._population.register_site(self, index)
        self._site_keys[index] = (tuple(keys), https_host)
        while len(self._site_keys) > self._cache_limit:
            _, (old_keys, old_host) = self._site_keys.popitem(last=False)
            for key in old_keys:
                self.unregister(key)
            if old_host is not None:
                self.https_hosts.discard(old_host)

    def has_host(self, host: str) -> bool:
        host = host.lower()
        self._ensure_site(host)
        return super().has_host(host)

    def lookup(self, url: str):
        _scheme, host, _path = split_url(url)
        self._ensure_site(host)
        return super().lookup(url)


class StreamingPopulation:
    """An index-addressable population: site *i* ≡ f(seed, dataset, *i*).

    Drop-in for :class:`~repro.internet.population.WebPopulation` on the
    zgrab path: both satisfy the
    :class:`~repro.internet.population.Population` protocol, here with
    contiguous-range ``shard_plan``, O(1) ``checkpoint_identity`` and
    rank ``strata``.
    """

    def __init__(
        self,
        dataset: str = "alexa",
        seed: int = 2018,
        size: int = 1_000_000,
        strata: Optional[tuple] = None,
        sample_per_stratum: int = 0,
        site_cache: int = 512,
        web_cache: int = 64,
    ) -> None:
        if size < 0:
            raise ValueError("population size must be >= 0")
        if sample_per_stratum < 0:
            raise ValueError("sample_per_stratum must be >= 0")
        self.spec: DatasetSpec = DATASETS[dataset]
        self.seed = int(seed)
        self.size = int(size)
        self.strata = _validated_strata(
            tuple(strata) if strata is not None else default_strata(self.spec)
        )
        self.sample_per_stratum = int(sample_per_stratum)
        self.fault_plan = None
        self.includer_layer = layer_for_spec(self.spec, self.seed)
        self.sites = _LazySites(self, cache=site_cache)
        self._web_cache = web_cache
        self._web: Optional[_StreamWeb] = None

    # -- identity -----------------------------------------------------------

    def fingerprint_parts(self) -> tuple:
        """Everything that pins which internet this population streams."""
        return (
            "stream",
            self.spec.name,
            self.seed,
            self.size,
            self.strata,
            self.sample_per_stratum,
        )

    def checkpoint_identity(self, indices) -> tuple:
        """Journal-fingerprint material for a shard's index assignment.

        O(1) in the range length for contiguous ranges: the population
        identity plus the bounds pin the same information as the legacy
        per-domain list, because every domain is a pure function of them.
        """
        if isinstance(indices, range):
            bounds: tuple = ("range", indices.start, indices.stop, indices.step)
        else:
            bounds = ("list", tuple(indices))
        return self.fingerprint_parts() + bounds

    # -- per-site derivation ------------------------------------------------

    def _site_rng(self, index: int, *names: str) -> RngStream:
        return RngStream(self.seed, "stream", self.spec.name, str(index), *names)

    def stratum_of_rank(self, rank: int) -> RankStratum:
        for stratum in self.strata:
            if stratum.contains(rank):
                return stratum
        return self.strata[-1]

    def stratum_sizes(self) -> dict:
        return {s.name: s.size_within(self.size) for s in self.strata}

    def site(self, index: int) -> SiteSpec:
        """Derive site ``index`` from scratch — no other site is touched."""
        if not 0 <= index < self.size:
            raise IndexError(f"site index {index} out of range [0, {self.size})")
        rank = index + 1
        stratum = self.stratum_of_rank(rank)
        rng = self._site_rng(index)
        spec = self.spec

        role = "clean"
        role_draw = rng.random()
        cumulative = 0.0
        for candidate, rate in stratum.role_rates:
            cumulative += rate
            if role_draw < cumulative:
                role = candidate
                break

        if role == "miner":
            weights = dict(stratum.miner_category_weights)
            fraction = stratum.miner_classified_fraction
        elif role == "cpmstar":
            weights, fraction = {"Gaming": 0.9}, 0.9
        else:
            weights = dict(stratum.fp_category_weights)
            fraction = stratum.fp_classified_fraction
        domain, category = indexed_draw(rng, index, spec.tld, weights or None, fraction)

        site = SiteSpec(
            domain=domain,
            role=role,
            category=category,
            stratum=stratum.name,
            rank=rank,
        )
        if role == "miner":
            families = tuple(spec.miner_counts) or ("coinhive",)
            counts = tuple(spec.miner_counts.values()) or (1,)
            site.family = rng.choices(families, counts)[0]
            site.wasm_variant = rng.randint(
                0, FAMILY_PROFILES[site.family].num_variants - 1
            )
            official_share = spec.official_counts.get(site.family, 0) / max(
                spec.miner_counts.get(site.family, 1), 1
            )
            site.official_url = rng.random() < official_share
            site.https = rng.random() < spec.https_fraction
            site.static_tags = rng.random() < spec.static_fraction
            site.present_scan2 = rng.random() < spec.scan2_retention
        elif role == "listed-tag":
            families = tuple(spec.official_counts) or ("coinhive",)
            counts = tuple(spec.official_counts.values()) or (1,)
            site.family = rng.choices(families, counts)[0]
            site.official_url = True
            site.present_scan2 = rng.random() < spec.scan2_retention
        elif role in ("dead-miner", "cpmstar", "consent-declined"):
            site.family = {
                "dead-miner": "coinhive",
                "cpmstar": "cpmstar",
                "consent-declined": "authedmine",
            }[role]
            site.official_url = True
            site.https = rng.random() < spec.https_fraction
            site.static_tags = rng.random() < spec.static_fraction
            site.present_scan2 = rng.random() < spec.scan2_retention
        elif role == "benign-wasm":
            site.family = _BENIGN_FAMILIES[index % len(_BENIGN_FAMILIES)]
            site.wasm_variant = rng.randint(
                0, FAMILY_PROFILES[site.family].num_variants - 1
            )
        return site

    def iter_sites(self, indices: Optional[Iterable[int]] = None) -> Iterator[SiteSpec]:
        """Stream sites over ``indices`` (default: the whole population)."""
        source = indices if indices is not None else range(self.size)
        for index in source:
            yield self.site(index)

    # -- ground truth -------------------------------------------------------

    def index_of_domain(self, domain: str) -> Optional[int]:
        """Decode and *verify* a streamed domain back to its site index."""
        index = index_of_domain(domain)
        if index is None or not 0 <= index < self.size:
            return None
        return index if self.sites[index].domain == domain else None

    def is_true_miner(self, domain: str) -> bool:
        """O(1) ground-truth membership: decode the index, re-derive."""
        index = self.index_of_domain(domain)
        return index is not None and self.sites[index].role == "miner"

    def ground_truth_miners(self, indices: Optional[Iterable[int]] = None) -> set:
        """Domains of true miners — O(n) in the range, for small scales
        and the equivalence tests. Zone-scale scorecards use
        :meth:`is_true_miner` (O(1) per verdict) instead."""
        miners = set()
        for site in self.iter_sites(indices):
            if site.role == "miner":
                miners.add(site.domain)
        return miners

    def sites_by_role(self, role: str) -> list:
        return [site for site in self.iter_sites() if site.role == role]

    # -- web plane ----------------------------------------------------------

    @property
    def web(self) -> SyntheticWeb:
        """The population's lazy web, built on first use."""
        if self._web is None:
            self._web = _StreamWeb(self, cache_limit=self._web_cache)
        return self._web

    def attach_fault_plan(self, plan) -> "StreamingPopulation":
        self.fault_plan = plan
        if self._web is not None:
            self._web.fault_plan = plan
        return self

    def register_site(self, web: SyntheticWeb, index: int) -> tuple:
        """Register site ``index``'s first-party resources on ``web``.

        Returns ``(keys, https_host_or_None)`` so the lazy web can evict
        precisely. The same function feeds :meth:`materialize`, which is
        what makes stream == materialized a structural identity. Only the
        static-HTML observables the zgrab pipeline can see are built;
        third-party script URLs appear in the HTML text but are never
        registered (zgrab fetches only the landing page).
        """
        site = self.sites[index]
        host = f"www.{site.domain}"
        scheme = "https" if site.https else "http"
        keys = []

        role_tags, own_resources = _role_assets(site, self.spec.name, host)
        static_tags = list(role_tags) if site.static_tags or not role_tags else []
        for url, resource in own_resources:
            web.register(url, resource)
            keys.append(url)

        site_js = f"{scheme}://{host}/js/site.js"
        static_tags.append(ScriptTag(src=site_js))
        web.register(site_js, Resource(content=b"/*site*/", content_type="text/javascript"))
        keys.append(site_js)

        # third-party includer tags: domain-keyed pure function, so the
        # streamed HTML is byte-identical to the materialized build
        static_tags.extend(self.includer_layer.tags_for(site))

        if role_tags and not site.static_tags:
            # dynamic injection: static HTML shows only the first-party
            # loader, so the zgrab/NoCoin pass sees nothing — same blind
            # spot the legacy builder models
            loader_url = f"{scheme}://{host}/js/loader.js"
            web.register(loader_url, Resource(content=b"/*ldr*/", content_type="text/javascript"))
            keys.append(loader_url)
            static_tags.append(ScriptTag(src=loader_url))

        html = _render_html(site, static_tags, self._site_rng(index, "web"))
        if site.https:
            web.register_page(f"https://{host}/", html.encode("utf-8"))
            web.register(f"http://{host}/", Resource(redirect_to=f"https://{host}/"))
            keys.extend([f"https://{host}/", f"http://{host}/"])
        else:
            web.register_page(f"http://{host}/", html.encode("utf-8"))
            keys.append(f"http://{host}/")
        # self-hosted https assets can mark even an http-only landing host
        # as TLS-capable; evict whatever this site actually added
        https_host = host if host in web.https_hosts else None
        return keys, https_host

    # -- sharding / sampling ------------------------------------------------

    def sample_indices(self) -> list:
        """Deterministic stratified rank sample, sorted ascending.

        Each stratum contributes ``min(sample_per_stratum, |stratum|)``
        uniform ranks from its own substream, so a stratum's sample does
        not depend on the other strata, the shard count, or visit order.
        """
        if self.sample_per_stratum <= 0:
            return []
        chosen: list = []
        for stratum in self.strata:
            count = stratum.size_within(self.size)
            if count == 0:
                continue
            lo_index = stratum.lo - 1
            k = min(self.sample_per_stratum, count)
            rng = RngStream(self.seed, "sample", self.spec.name, stratum.name)
            chosen.extend(sorted(rng.sample(range(lo_index, lo_index + count), k)))
        return chosen

    def scan_indices(self):
        """The index set a campaign covers: the full range, or the sample."""
        if self.sample_per_stratum > 0:
            return self.sample_indices()
        return range(self.size)

    def shard_plan(self, num_shards: int) -> list:
        """Contiguous per-shard slices of :meth:`scan_indices`.

        Contiguity keeps per-shard memory O(1): a shard walks its range
        deriving each site in order. The slices are disjoint and their
        union is exactly ``scan_indices()`` for every shard count —
        pinned by the property suite.
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        indices = self.scan_indices()
        total = len(indices)
        base, extra = divmod(total, num_shards)
        plan = []
        lo = 0
        for shard_id in range(num_shards):
            count = base + (1 if shard_id < extra else 0)
            plan.append(indices[lo : lo + count])
            lo += count
        return plan

    # -- materialization ----------------------------------------------------

    def materialize(self, limit: Optional[int] = None) -> WebPopulation:
        """Build the equivalent eager :class:`WebPopulation`.

        For overlapping-scale equivalence checks and small experiments;
        materializing 10M sites defeats the point. ``limit`` caps the
        build to the first ``limit`` sites of the stream.
        """
        count = self.size if limit is None else min(limit, self.size)
        web = SyntheticWeb()
        web.fault_plan = self.fault_plan
        population = WebPopulation(
            spec=self.spec, web=web, scale=1.0, includer_layer=self.includer_layer
        )
        for index in range(count):
            population.sites.append(self.site(index))
            self.register_site(web, index)
        return population


#: roles whose assets embed the site token
_TOKEN_ROLES = frozenset({"miner", "dead-miner", "listed-tag", "consent-declined"})


def _role_assets(site: SiteSpec, dataset: str, host: str) -> tuple:
    """``(script tags, first-party resources)`` for one streamed site.

    URL and inline shapes mirror the deployment kits exactly, so the
    NoCoin list and the static detector see the same observables on a
    streamed site as on a legacy-built one.
    """
    tags: list = []
    resources: list = []
    token = make_token(f"{dataset}/{site.domain}") if site.role in _TOKEN_ROLES else ""
    if site.role == "miner":
        family = site.family or "coinhive"
        if site.official_url:
            if family in ("coinhive", "authedmine"):
                start = "start" if family == "coinhive" else "askAndStart"
                tags.append(ScriptTag(src=_LISTED_SRC[family]))
                tags.append(
                    ScriptTag(inline=f"var miner=new CoinHive.Anonymous('{token}');miner.{start}();")
                )
            else:
                tags.append(ScriptTag(src=_family_official_js(family)))
                tags.append(ScriptTag(inline=f"startMiner('{token}');"))
        elif family in ("coinhive", "authedmine"):
            js_url = f"https://{host}/assets/app-support.js"
            resources.append(
                (
                    js_url,
                    Resource(
                        content=b"/*bundle*/(function(){var m;})();",
                        content_type="text/javascript",
                    ),
                )
            )
            tags.append(ScriptTag(src=js_url))
            tags.append(ScriptTag(inline=f"window.__rt&&__rt.init('{token[:12]}');"))
        else:
            js_url = f"https://{host}/js/app-{token[:6].lower()}.js"
            resources.append(
                (js_url, Resource(content=b"/*app*/", content_type="text/javascript"))
            )
            tags.append(ScriptTag(src=js_url))
            tags.append(ScriptTag(inline=f"(function(){{init('{token}');}})();"))
    elif site.role in ("dead-miner", "listed-tag"):
        src_url = _LISTED_SRC.get(site.family or "coinhive", _LISTED_SRC["coinhive"])
        tags.append(ScriptTag(src=src_url))
        tags.append(ScriptTag(inline=_DEAD_COINHIVE_INLINE % token))
    elif site.role == "cpmstar":
        tags.append(ScriptTag(src=_LISTED_SRC["cpmstar"]))
    elif site.role == "consent-declined":
        tags.append(ScriptTag(src=_LISTED_SRC["authedmine"]))
        tags.append(
            ScriptTag(inline=f"var m=new CoinHive.Anonymous('{token}');m.askAndStart();")
        )
    elif site.role == "benign-wasm":
        family = site.family or _BENIGN_FAMILIES[0]
        js_url = f"https://{host}/static/{family}-loader.js"
        resources.append(
            (js_url, Resource(content=b"/*loader*/", content_type="text/javascript"))
        )
        tags.append(ScriptTag(src=js_url))
        tags.append(
            ScriptTag(inline=f"loadRuntime('{family}-v{site.wasm_variant}@{host}');")
        )
    return tags, resources


def _family_official_js(family: str) -> str:
    profile = FAMILY_PROFILES[family]
    if profile.backend is None:
        return f"https://{family}/lib/{family.replace('.', '-')}.min.js"
    base_host = (profile.backend % 1).split("://", 1)[1].split("/")[0]
    return f"https://{base_host}/lib/{family.replace('.', '-')}.min.js"
