"""In-memory span tracing of the program's layer boundaries.

The wrappers live here, in the benchmark, not in the program: each
boundary is a public function or method that :func:`install` replaces, at
the place its caller looks it up, with a wrapper that records one span.
A span is ``[name, start_ns, end_ns, parent_index]``; spans stay in a list
in memory and :meth:`Tracer.spans_payload` hands them out for writing once
the run is over.

Self time is a span's duration minus the time its child spans cover. The
program runs on one thread here, so children never overlap and that cover
is the sum of their durations.
"""

from __future__ import annotations

import importlib
import statistics
import time

#: boundary → (ratio name, outcome predicate): ``<boundary>.<ratio name>``
#: is the share of calls whose result satisfies the predicate (0 when the
#: boundary had no calls).
RATIOS = {
    "web.fetch_domain": ("ok_ratio", lambda result: bool(result.ok)),
    "core.match_scripts": ("hit_ratio", bool),
    "core.explain_scripts": ("hit_ratio", bool),
    "core.signature_lookup": ("hit_ratio", lambda result: result is not None),
    "core.dynamic": (
        "positive_ratio",
        lambda result: bool(result[0] if isinstance(result, tuple) else result),
    ),
}

#: boundary → (layer, [(module, attribute path), ...]). A dotted attribute
#: path ``Class.method`` patches the method on the class; a bare name
#: patches the module-level function in that module, which is where the
#: caller looks it up.
BOUNDARIES = {
    "internet.build_population": ("internet", [
        ("repro.analysis.runner", "build_population"),
        ("repro.internet.population", "build_population"),
    ]),
    "internet.derive_site": ("internet", [
        ("repro.internet.streaming", "StreamingPopulation.site"),
    ]),
    "internet.register_site": ("internet", [
        ("repro.internet.streaming", "StreamingPopulation.register_site"),
    ]),
    "internet.includer_tags": ("internet", [
        ("repro.internet.includers", "IncluderLayer.tags_for"),
    ]),
    "web.fetch_domain": ("web", [("repro.web.zgrab", "ZgrabFetcher.fetch_domain")]),
    "web.lookup": ("web", [("repro.web.http", "SyntheticWeb.lookup")]),
    "web.visit": ("web", [("repro.web.browser", "HeadlessBrowser.visit")]),
    "web.scan_scripts": ("web", [("repro.core.detector", "scan_scripts")]),
    "core.detect_static": ("core", [("repro.core.detector", "PageDetector.detect_static")]),
    "core.detect_page": ("core", [("repro.core.detector", "PageDetector.detect_page")]),
    "core.detect_request": ("core", [("repro.core.detector", "PageDetector.detect_request")]),
    "core.match_scripts": ("core", [("repro.core.nocoin", "FilterList.match_scripts")]),
    "core.explain_scripts": ("core", [("repro.core.nocoin", "FilterList.explain_scripts")]),
    "core.classify_page": ("core", [("repro.core.classifier", "MinerClassifier.classify_page")]),
    "core.classify_wasm": ("core", [("repro.core.classifier", "MinerClassifier.classify_wasm")]),
    "core.extract_features": ("core", [
        ("repro.core.classifier", "extract_features"),
        ("repro.core.features", "extract_features"),
    ]),
    "core.signature_lookup": ("core", [("repro.core.signatures", "SignatureDatabase.lookup")]),
    "core.dynamic": ("core", [
        ("repro.core.dynamic", "DynamicMinerDetector.is_miner"),
        ("repro.core.dynamic", "DynamicMinerDetector.explain"),
    ]),
    "core.attribute": ("core", [("repro.core.pool_association", "BlockAttributor.attribute")]),
    "wasm.decode_module": ("wasm", [
        ("repro.core.fastpath", "decode_module"),
        ("repro.core.dynamic", "decode_module"),
        ("repro.core.features", "decode_module"),
        ("repro.wasm.decoder", "decode_module"),
    ]),
    "wasm.function_body_bytes": ("wasm", [
        ("repro.core.fastpath", "function_body_bytes"),
        ("repro.core.signatures", "function_body_bytes"),
        ("repro.core.classifier", "function_body_bytes"),
        ("repro.wasm.decoder", "function_body_bytes"),
    ]),
    "wasm.invoke_index": ("wasm", [("repro.wasm.interp", "Instance.invoke_index")]),
    "rulespace.classify_domain": ("rulespace", [
        ("repro.rulespace.engine", "RuleSpaceEngine.classify_domain"),
    ]),
    "analysis.simulate_network": ("blockchain", [("repro.analysis.runner", "simulate_network")]),
    "pool.build_template": ("pool", [
        ("repro.analysis.network", "build_template"),
        ("repro.pool.server", "build_template"),
    ]),
    "blockchain.force_append": ("blockchain", [("repro.blockchain.chain", "Blockchain.force_append")]),
    "blockchain.make_tx": ("blockchain", [("repro.blockchain.transactions", "TransferFactory.make")]),
    "blockchain.remove_included": ("blockchain", [("repro.blockchain.chain", "Mempool.remove_included")]),
    "analysis.shortlink_study": ("coinhive", [
        ("repro.analysis.shortlink", "ShortLinkStudy.links_per_token"),
        ("repro.analysis.shortlink", "ShortLinkStudy.hash_requirements"),
        ("repro.analysis.shortlink", "ShortLinkStudy.destinations"),
    ]),
    "analysis.zgrab_scan": ("analysis", [("repro.analysis.crawl", "ZgrabCampaign.scan_sites_indexed")]),
    "analysis.chrome_run": ("analysis", [("repro.analysis.crawl", "ChromeCampaign.run_sites")]),
    "service.submit": ("service", [("repro.service.server", "VerdictServer.submit")]),
    "service.drain_until": ("service", [("repro.service.server", "VerdictServer.drain_until")]),
    "service.build_requests": ("service", [("repro.service.loadgen", "build_requests")]),
    "service.bundle_build": ("service", [("repro.service.bundles", "DetectionBundle.build")]),
    "obs.recorder_poll": ("obs", [("repro.obs.timeseries", "TimeSeriesRecorder.poll")]),
    "obs.recorder_flush": ("obs", [("repro.obs.timeseries", "TimeSeriesRecorder.flush")]),
    "obs.write_run": ("obs", [("repro.obs.ledger", "write_run")]),
    "graph.from_verdicts": ("graph", [("repro.graph.build", "graph_from_verdicts")]),
}

#: boundaries called once or a handful of times per run: a median of their
#: span durations says nothing, so they report calls and self time only
FEW_CALLS = frozenset({
    "internet.build_population",
    "core.attribute",
    "analysis.simulate_network",
    "analysis.shortlink_study",
    "analysis.zgrab_scan",
    "analysis.chrome_run",
    "service.build_requests",
    "service.bundle_build",
    "obs.write_run",
    "graph.from_verdicts",
})


def boundary_metric_names() -> list:
    """Every per-boundary metric name, in table order."""
    names = []
    for boundary in BOUNDARIES:
        names += [f"{boundary}.calls", f"{boundary}.self_s"]
        if boundary not in FEW_CALLS:
            names.append(f"{boundary}.p50_us")
        if boundary in RATIOS:
            names.append(f"{boundary}.{RATIOS[boundary][0]}")
    return names


class Tracer:
    """Records one span per boundary call while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.positives: dict = {}
        self._stack: list = []
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, function):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        ratio = RATIOS.get(name)
        positives = self.positives
        positives.setdefault(name, 0)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if ratio is not None and ratio[1](result):
                positives[name] += 1
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Patch every boundary until :meth:`uninstall`."""
        for name, (_layer, targets) in BOUNDARIES.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *owner_path, attribute = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                if isinstance(owner, type):
                    original = owner.__dict__[attribute]
                    if isinstance(original, classmethod):
                        replacement = classmethod(self.wrap(name, original.__func__))
                    else:
                        replacement = self.wrap(name, original)
                else:
                    original = getattr(owner, attribute)
                    replacement = self.wrap(name, original)
                setattr(owner, attribute, replacement)
                self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- reduction ------------------------------------------------------------

    def self_times_ns(self) -> list:
        """Per-span self time: duration minus the children's durations."""
        self_ns = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        return self_ns

    def boundary_metrics(self) -> dict:
        """``calls``/``self_s``/``p50_us``/ratio for every boundary."""
        self_ns = self.self_times_ns()
        calls: dict = {name: 0 for name in BOUNDARIES}
        self_total: dict = {name: 0 for name in BOUNDARIES}
        durations: dict = {name: [] for name in BOUNDARIES}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            self_total[name] += self_ns[index]
            durations[name].append(end - start)
        metrics = {}
        for name in BOUNDARIES:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_total[name] / 1e9, "s")
            if name not in FEW_CALLS:
                p50 = statistics.median(durations[name]) / 1e3 if durations[name] else 0.0
                metrics[f"{name}.p50_us"] = (p50, "us")
            if name in RATIOS:
                share = self.positives.get(name, 0) / calls[name] if calls[name] else 0.0
                metrics[f"{name}.{RATIOS[name][0]}"] = (share, "share")
        return metrics

    def subtree_table(self) -> list:
        """Rows ``(boundary, layer, calls, self_s, subtree_s)``, largest
        self time first. Subtree time counts only outermost spans of a
        boundary, so a boundary nested in itself is not counted twice."""
        self_ns = self.self_times_ns()
        names = [span[0] for span in self.spans]
        rows: dict = {name: [0, 0, 0] for name in BOUNDARIES}
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = rows[name]
            row[0] += 1
            row[1] += self_ns[index]
            ancestor = parent
            while ancestor >= 0 and names[ancestor] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row[2] += end - start
        return sorted(
            (
                (name, BOUNDARIES[name][0], calls, self_sum / 1e9, subtree / 1e9)
                for name, (calls, self_sum, subtree) in rows.items()
                if calls
            ),
            key=lambda row: -row[3],
        )

    def spans_payload(self) -> list:
        return [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
