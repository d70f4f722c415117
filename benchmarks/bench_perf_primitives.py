"""Performance benchmarks of the substrate primitives.

These are classic pytest-benchmark microbenchmarks (multiple rounds), so
regressions in the hot paths — the PoW hash, module decoding, signature
computation, HTML parsing, filter matching — are visible across runs.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys
from unittest import mock

import pytest

from repro.blockchain.hashing import DEFAULT_PARAMS, FAST_PARAMS, cryptonight
from repro.blockchain.merkle import tree_hash
from repro.core.nocoin import default_nocoin_list
from repro.core.signatures import wasm_signature
from repro.wasm.builder import ModuleBlueprint, WasmCorpusBuilder
from repro.wasm.decoder import decode_module
from repro.web.html import parse_html

_BUILDER = WasmCorpusBuilder()
_WASM = _BUILDER.build(ModuleBlueprint("coinhive", 0))
_HTML = (
    "<html><head><title>t</title>"
    + '<script src="https://coinhive.com/lib/coinhive.min.js"></script>' * 3
    + "</head><body>"
    + "<div><p>paragraph text</p></div>" * 200
    + "</body></html>"
)


def test_perf_cryptonight_fast(benchmark):
    benchmark(cryptonight, b"blob" * 19, FAST_PARAMS)


def test_perf_cryptonight_default(benchmark):
    benchmark(cryptonight, b"blob" * 19, DEFAULT_PARAMS)


def test_perf_tree_hash_16(benchmark):
    import hashlib

    leaves = [hashlib.sha3_256(bytes([i])).digest() for i in range(16)]
    benchmark(tree_hash, leaves)


def test_perf_wasm_decode(benchmark):
    benchmark(decode_module, _WASM)


def test_perf_wasm_signature(benchmark):
    benchmark(wasm_signature, _WASM)


def test_perf_html_parse(benchmark):
    benchmark(parse_html, _HTML)


def test_perf_nocoin_matching(benchmark):
    nocoin = default_nocoin_list()
    scripts = parse_html(_HTML).scripts()
    benchmark(nocoin.match_scripts, scripts)


def test_perf_interpreter_kernel(benchmark):
    from repro.wasm.decoder import decode_module
    from repro.wasm.interp import Instance

    module = decode_module(_WASM)
    export = next(e.name for e in module.exports if e.kind == 0)

    def invoke():
        return Instance(module).invoke(export, 16, 7)

    benchmark(invoke)


def test_perf_dynamic_profile(benchmark):
    from repro.core.dynamic import profile_execution

    benchmark(profile_execution, _WASM, 16)


def test_perf_obs_span_disabled(benchmark):
    """The guarded no-op path: observability off must cost ~nothing.

    ``NULL_OBS.span()`` returns one shared pre-built context manager —
    the benchmark pins that, and the TickClock assertion proves the
    disabled path performs zero clock reads (the expensive part).
    """
    from repro.obs.clock import TickClock, use_clock
    from repro.obs.profile import NULL_OBS

    def spin():
        for _ in range(1000):
            with NULL_OBS.span("fetch", domain="example.org"):
                pass

    clock = TickClock()
    with use_clock(clock):
        benchmark(spin)
    assert clock.reads == 0, "disabled obs path read the clock"


@contextlib.contextmanager
def _count_evidence():
    """Count :class:`~repro.obs.evidence.Evidence` constructions in the block."""
    from repro.obs.evidence import Evidence

    built = []
    original = Evidence.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    with mock.patch.object(Evidence, "__init__", counting):
        yield built


def test_perf_campaign_without_run_dir_reads_no_clock(benchmark):
    """The no-``--run-dir``/no-heartbeat campaign path stays zero-cost.

    A one-shard scan with the disabled obs singleton and no progress
    reporter reads the obs clock only for the executor's wall timings —
    one start/stop pair for the campaign and one for its shard — and
    **never** per site: persisting run artifacts and heartbeats are
    strictly opt-in overhead.
    """
    from repro.analysis.parallel import ShardedZgrabCampaign
    from repro.internet.population import build_population
    from repro.obs.clock import TickClock, use_clock

    population = build_population("net", seed=7, scale=0.02)
    campaign = ShardedZgrabCampaign(population=population)
    clock = TickClock()
    with use_clock(clock), _count_evidence() as evidence:
        result = benchmark.pedantic(lambda: campaign.scan(0), rounds=1, iterations=1)
    assert result.domains_probed > 4  # so a read per site would show
    assert clock.reads == 4, "no-run-dir campaign path read the obs clock per site"
    # ... and zero evidence work: the detector never flips into its
    # evidence-collecting mode, builds no Evidence, and no verdicts are
    # built or serialized.
    assert result.nocoin_domains > 0, "no NoCoin hit: nothing to explain"
    assert not evidence, f"NULL_OBS campaign built {len(evidence)} Evidence records"
    assert result.verdicts == (), "NULL_OBS campaign built verdict records"
    assert result.graph is None, "NULL_OBS campaign built an attribution graph"


@pytest.mark.parametrize("collect_evidence", [True, False])
def test_perf_loadgen_without_timeseries_reads_no_clock(benchmark, collect_evidence):
    """The no-``--timeseries-interval`` service path stays zero-cost.

    The verdict server runs entirely on seeded simulated time; with no
    recorder and no heartbeat attached, a full loadgen campaign must
    perform **zero** obs-clock reads — windowed telemetry is strictly
    opt-in overhead. That holds for the default config (evidence on, as
    ``loadgen --run-dir`` runs it) and for the evidence-free config
    ``loadgen`` without ``--run-dir`` runs, which must also build no
    Evidence for the full cascade, dynamic profiling included.
    """
    from repro.obs.clock import TickClock, use_clock
    from repro.service.loadgen import LoadgenConfig, run_loadgen

    # collect_evidence=True is the LoadgenConfig default
    config = LoadgenConfig(
        seed=11, scale=0.05, rate=20.0, duration=4.0, collect_evidence=collect_evidence
    )
    clock = TickClock()
    with use_clock(clock), _count_evidence() as evidence:
        report = benchmark.pedantic(
            lambda: run_loadgen(config), rounds=1, iterations=1
        )
    assert clock.reads == 0, "no-timeseries loadgen path read the obs clock"
    assert report.recorder is None
    assert report.timeseries is None
    if not collect_evidence:
        assert report.counter("service.verdict.miner") > 0, "no miner: nothing to explain"
        assert not evidence, f"evidence-free loadgen built {len(evidence)} Evidence records"


def test_perf_obs_span_enabled(benchmark):
    """The enabled path, for comparison against the disabled baseline."""
    from repro.obs.profile import make_obs

    obs = make_obs(prefix="bench")

    def spin():
        for _ in range(1000):
            with obs.span("fetch", domain="example.org"):
                pass

    benchmark(spin)


def test_perf_browser_visit(benchmark):
    from repro.web.browser import HeadlessBrowser
    from repro.web.http import SyntheticWeb

    web = SyntheticWeb()
    web.register_page("http://www.bench.com/", _HTML.encode())

    def visit():
        return HeadlessBrowser(web).visit("http://www.bench.com/")

    result = benchmark(visit)
    assert result.status == "ok"


# -- production vs reference detection hot paths -----------------------------
#
# Same workload through production and the reference oracle in
# tests/oracles, so every row in the summary has a visible twin and
# BENCH_SUMMARY.json carries the speedup CI gates on.

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.core import fastpath  # noqa: E402
from tests import oracles  # noqa: E402
from tests.oracles import web as web_oracle  # noqa: E402
from repro.core.signatures import unordered_signature, whole_module_signature  # noqa: E402
from repro.web.html import scan_scripts  # noqa: E402

_NOCOIN = default_nocoin_list().warm()
#: ~500 mostly-clean URLs with a sprinkle of hits — the shape of a real
#: crawl, where nearly every URL walks the whole rule list before "clean"
_URLS = [
    f"https://site-{i}.example/assets/app-{i % 17}.js" for i in range(480)
] + [
    "https://coinhive.com/lib/coinhive.min.js",
    "https://cdn.example/static/coinhive.min.js",
    "https://authedmine.com/lib/authedmine.min.js",
    "https://crypto-loot.com/lib/miner.js",
] * 5


def _match_all_urls():
    return [_NOCOIN.match_url(url) for url in _URLS]


def _match_all_urls_reference():
    return [oracles.match_url(_NOCOIN, url) for url in _URLS]


def test_perf_filter_urls_fastpath(benchmark):
    benchmark(_match_all_urls)


def test_perf_filter_urls_reference(benchmark):
    benchmark(_match_all_urls_reference)


def test_perf_wasm_signature_memoized(benchmark):
    cache = fastpath.WasmCache()
    cache.ordered_signature(_WASM)  # warm: steady state is all hits

    def lookup():
        return (
            cache.ordered_signature(_WASM),
            cache.unordered_signature(_WASM),
            cache.whole_module_signature(_WASM),
        )

    benchmark(lookup)


def test_perf_wasm_signature_reference(benchmark):
    def recompute():
        return (
            wasm_signature(_WASM),
            unordered_signature(_WASM),
            whole_module_signature(_WASM),
        )

    benchmark(recompute)


def test_perf_html_scan_fastpath(benchmark):
    benchmark(scan_scripts, _HTML)


def test_perf_html_scan_reference(benchmark):
    benchmark(web_oracle.extract_scripts, _HTML)


def test_fastpath_speedup_summary():
    """Measure both implementations head-to-head and persist the ratios.

    Min-of-repeats wall time over the reference workload (the bundled
    NoCoin list at its full rule count, the crawl-shaped URL batch, the
    benchmark page, the coinhive module); the script scan is timed
    against the DOM parser on the character-loop tag scans of
    ``tests/oracles/web.py``. The acceptance gate pins the
    filter-matching speedup at >= 3x and CI reads the emitted JSON (and
    pins the scan speedup at >= 3x from it).
    """
    import time

    from conftest import emit, emit_json

    def best_of(fn, repeats=7):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    fast_urls = best_of(_match_all_urls)
    ref_urls = best_of(_match_all_urls_reference)

    fast_scan = best_of(lambda: scan_scripts(_HTML))
    ref_scan = best_of(lambda: web_oracle.extract_scripts(_HTML))

    cache = fastpath.WasmCache()
    cache.ordered_signature(_WASM)
    fast_sig = best_of(
        lambda: (cache.ordered_signature(_WASM), cache.unordered_signature(_WASM))
    )
    ref_sig = best_of(lambda: (wasm_signature(_WASM), unordered_signature(_WASM)))

    payload = {
        "rule_count": len(_NOCOIN),
        "url_batch": len(_URLS),
        "filter_match_speedup": round(ref_urls / fast_urls, 2),
        "static_scan_speedup": round(ref_scan / fast_scan, 2),
        "signature_memo_speedup": round(ref_sig / fast_sig, 2),
        "filter_match_us_per_url": {
            "fastpath": round(fast_urls / len(_URLS) * 1e6, 3),
            "reference": round(ref_urls / len(_URLS) * 1e6, 3),
        },
        "static_scan_us_per_page": {
            "scanner": round(fast_scan * 1e6, 1),
            "oracle": round(ref_scan * 1e6, 1),
        },
    }
    emit_json("fastpath", payload)
    emit(
        "fastpath",
        "\n".join(
            [
                f"filter-list matching ({len(_NOCOIN)} rules, {len(_URLS)} URLs): "
                f"{payload['filter_match_speedup']}x",
                f"static HTML script scan: {payload['static_scan_speedup']}x",
                f"wasm signature memo (warm): {payload['signature_memo_speedup']}x",
            ]
        ),
    )
    assert payload["filter_match_speedup"] >= 3.0, payload
    assert payload["static_scan_speedup"] >= 1.0, payload
    assert payload["signature_memo_speedup"] >= 1.0, payload


# -- compiled interpreter vs the name-dispatch oracle -------------------------


def test_interpreter_speedup_summary():
    """Dynamic profiling of the coinhive kernel, compiled vs oracle.

    Min-of-7 wall time of ``profile_execution`` (decode excluded, compile
    included: each run builds a fresh instance, as the detector does) on
    the coinhive module, against the name-dispatch interpreter in
    ``tests/oracles/wasm_interp.py``. Both must report the same profile;
    the acceptance gate pins the speedup at >= 3x and CI reads the
    emitted JSON.
    """
    import time

    from conftest import emit, emit_json

    from repro.core.dynamic import profile_execution
    from tests.oracles import wasm_interp

    module = decode_module(_WASM)
    iterations = 16

    def best_of(fn, repeats=7):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    profile = profile_execution(module, iterations)
    assert profile == wasm_interp.profile_execution(module, iterations)[0]
    compiled = best_of(lambda: profile_execution(module, iterations))
    reference = best_of(lambda: wasm_interp.profile_execution(module, iterations))

    payload = {
        "module": "coinhive/0",
        "iterations": iterations,
        "executed": profile.executed,
        "interpreter_speedup": round(reference / compiled, 2),
        "instructions_per_s": {
            "compiled": round(profile.executed / compiled),
            "oracle": round(profile.executed / reference),
        },
    }
    emit_json("interpreter", payload)
    emit(
        "interpreter",
        f"dynamic profile of coinhive/0 ({profile.executed} executed instructions): "
        f"{payload['interpreter_speedup']}x — compiled "
        f"{payload['instructions_per_s']['compiled']:,}/s, oracle "
        f"{payload['instructions_per_s']['oracle']:,}/s",
    )
    assert payload["interpreter_speedup"] >= 3.0, payload


# -- table-driven decoder vs the per-instruction oracle ------------------------


def test_decoder_speedup_summary():
    """Module decoding over the whole corpus, table-driven vs oracle.

    Min-of-7 wall time of ``decode_module`` over every corpus module (one
    per blueprint), against the same module decoder on the
    per-instruction expression decoder in ``tests/oracles/wasm_decoder.py``.
    Both must decode every module to the same value; the acceptance gate
    pins the speedup at >= 1.3x and CI reads the emitted JSON.
    """
    import time

    from conftest import emit, emit_json

    from repro.wasm.builder import all_blueprints
    from tests.oracles import wasm_decoder

    modules = [_BUILDER.build(blueprint) for blueprint in all_blueprints()]

    def best_of(decode, repeats=7):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for wasm in modules:
                decode(wasm)
            times.append(time.perf_counter() - start)
        return min(times)

    decoded = [decode_module(wasm) for wasm in modules]
    assert decoded == [wasm_decoder.decode_module(wasm) for wasm in modules]
    instructions = sum(len(code.body) for module in decoded for code in module.codes)
    table = best_of(decode_module)
    reference = best_of(wasm_decoder.decode_module)

    payload = {
        "modules": len(modules),
        "instructions": instructions,
        "decoder_speedup": round(reference / table, 2),
        "ns_per_instruction": {
            "table": round(table / instructions * 1e9, 1),
            "oracle": round(reference / instructions * 1e9, 1),
        },
    }
    emit_json("decoder", payload)
    emit(
        "decoder",
        f"decode_module over {len(modules)} corpus modules ({instructions} instructions): "
        f"{payload['decoder_speedup']}x — table "
        f"{payload['ns_per_instruction']['table']} ns/instruction, oracle "
        f"{payload['ns_per_instruction']['oracle']} ns/instruction",
    )
    assert payload["decoder_speedup"] >= 1.3, payload
