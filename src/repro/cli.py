"""Command-line interface.

Installed as ``repro-mining``. Subcommands mirror the paper's workflows:

- ``fingerprint`` — signature + features + classification of .wasm files,
- ``nocoin``      — match an HTML file's script tags against the list,
- ``crawl``       — run a scaled zgrab+Chrome campaign over a dataset,
- ``reproduce``   — run every experiment and emit the markdown report
  (the crawl half runs the same driver as ``crawl``, per dataset),
- ``serve``       — one-shot verdict-server demo over specific domains, or
  with ``--duration`` a seeded load run like ``loadgen``,
- ``loadgen``     — seeded open-loop load run against the verdict server,
- ``shortlinks``  — the cnhv.co study summary,
- ``attribute``   — simulate the network and attribute Coinhive blocks,
- ``corpus``      — dump the synthetic Wasm corpus to disk,
- ``disasm``      — disassemble .wasm files to WAT-style text,
- ``obs``         — analyze persisted run directories: ``report``, ``diff``
  (with ``--fail-on`` gates), ``explain`` (one verdict's evidence chain),
  ``scorecard`` and ``slo`` (quality and service gates), ``timeline`` and
  ``top`` (windowed telemetry; ``top --watch`` follows a live run),
  ``export`` (Prometheus text) and ``graph neighbors|path|clusters|query``.

Flags shared between subcommands are each declared once, by the
``_add_*`` helpers of :func:`build_parser`.

Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    from repro.core.classifier import MinerClassifier
    from repro.core.features import extract_features
    from repro.core.signatures import build_reference_database, wasm_signature
    from repro.wasm.decoder import WasmDecodeError

    classifier = MinerClassifier(database=build_reference_database())
    status = 0
    for path in args.files:
        data = pathlib.Path(path).read_bytes()
        try:
            signature = wasm_signature(data)
        except WasmDecodeError as exc:
            print(f"{path}: not a decodable wasm module ({exc})")
            status = 1
            continue
        features = extract_features(data)
        verdict = classifier.classify_wasm(data)
        marker = "MINER" if verdict.is_miner else "benign"
        print(f"{path}: {marker} family={verdict.family} via={verdict.method}")
        print(f"  signature : {signature}")
        print(
            f"  features  : instrs={features.total_instructions}"
            f" xor={features.xor_count} shift={features.shift_count}"
            f" rot={features.rotate_count} load={features.load_count}"
            f" float={features.float_count} mem={features.memory_pages}p"
        )
        if features.name_hints:
            print(f"  name hints: {', '.join(features.name_hints[:5])}")
    return status


def _cmd_nocoin(args: argparse.Namespace) -> int:
    from repro.core.nocoin import default_nocoin_list, FilterList
    from repro.web.html import scan_scripts

    if args.list:
        lines = pathlib.Path(args.list).read_text().splitlines()
        nocoin = FilterList.from_lines(lines)
    else:
        nocoin = default_nocoin_list()
    status = 0
    for path in args.files:
        html = pathlib.Path(path).read_text(errors="replace")
        hits = nocoin.match_scripts(scan_scripts(html))
        if hits:
            labels = sorted({rule.label or rule.raw for rule in hits})
            print(f"{path}: HIT ({', '.join(labels)})")
            status = 2
        else:
            print(f"{path}: clean")
    return status


def _print_shard_metrics(metrics, title: str) -> None:
    from repro.analysis.metrics import CampaignMetrics
    from repro.analysis.reporting import render_table

    print(render_table(CampaignMetrics.SUMMARY_HEADER, metrics.summary_rows(), title=title))
    print(
        f"wall={metrics.wall_seconds:.2f}s mode={metrics.mode} workers={metrics.workers} "
        f"rate={metrics.aggregate_rate:.0f} domains/s "
        f"efficiency={metrics.parallel_efficiency:.0%}"
        + (f" FAILED SHARDS: {metrics.failed_shards}" if metrics.failed_shards else "")
    )


def _print_fault_ledger(ledger) -> None:
    from repro.analysis.reporting import render_table
    from repro.faults.ledger import FaultLedger

    if not ledger.has_events():
        return
    print(render_table(FaultLedger.SUMMARY_HEADER, ledger.summary_rows(), title="\nfault ledger"))
    print(ledger.status_line())


def _campaign_config(args: argparse.Namespace, **fields):
    """The ``ReproductionConfig`` of the shared crawl flags, plus ``fields``."""
    from repro.analysis.runner import ReproductionConfig

    return ReproductionConfig(
        seed=args.seed,
        population_size=args.population_size,
        strata=args.strata,
        sample_per_stratum=args.sample_per_stratum,
        crawl_shards=args.shards,
        crawl_workers=args.workers,
        fault_profile=args.fault_profile,
        checkpoint_dir=args.resume_from,
        trace_out=args.trace_out,
        profile=args.profile,
        run_dir=args.run_dir,
        heartbeat=args.heartbeat,
        timeseries_interval=args.timeseries_interval,
        **fields,
    )


def _cmd_crawl(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_table
    from repro.analysis.runner import (
        STRATUM_HEADER,
        ObservedRun,
        crawl_dataset,
        stratum_cells,
    )
    from repro.internet.population import DATASETS
    from repro.obs.profile import render_profile

    streaming = args.population_size > 0
    if streaming and DATASETS[args.dataset].chrome_crawl and not args.zgrab_only:
        # refuse rather than silently skip the Chrome plane: a streamed
        # chrome-crawl dataset would produce tables missing half the
        # paper's numbers without saying so
        print(
            f"error: --population-size streams the zgrab plane only, but "
            f"dataset {args.dataset!r} includes a Chrome pass; pass "
            f"--zgrab-only to run just the zgrab plane, or drop "
            f"--population-size and use --scale for Chrome experiments",
            file=sys.stderr,
        )
        return 2
    config = _campaign_config(args, crawl_scale=args.scale, datasets=(args.dataset,))
    chaos = config.fault_plan() is not None
    run = ObservedRun.start(config, prefix="crawl")

    def announce(population) -> None:
        if chaos:
            print(f"fault profile: {args.fault_profile} (seed={args.seed})")
        if args.signature_db:
            print(f"signature db: {args.signature_db}")
        if streaming:
            print(
                f"dataset={args.dataset} population={population.size} "
                f"scanned={len(population.scan_indices())} strata="
                + ",".join(s.name for s in population.strata)
            )
        else:
            print(f"dataset={args.dataset} sites={len(population.sites)} scale={args.scale}")

    crawl = crawl_dataset(
        args.dataset, run,
        counter_prefix="crawl", signature_db=args.signature_db, announce=announce,
    )
    rows = [[s.scan_date, s.nocoin_domains, f"{s.prevalence:.4%}"] for s in crawl.scans]
    print(render_table(["scan", "NoCoin domains", "prevalence"], rows, title="\nzgrab pass"))
    for scan_index, scan in enumerate(crawl.scans):
        if scan.stratum_rows:
            rows = [stratum_cells(row) for row in scan.stratum_rows]
            title = f"\nper-stratum prevalence (scan {scan_index})"
            print(render_table(STRATUM_HEADER, rows, title=title))
    _print_shard_metrics(crawl.zgrab_metrics, "\nzgrab shard metrics (second scan)")
    if crawl.chrome is not None:
        tab = crawl.chrome.cross_tab
        rows = [
            ["Wasm miner sites", tab.wasm_miner_hits],
            ["NoCoin hits", tab.nocoin_hits],
            ["missed by NoCoin", f"{tab.miners_missed_by_nocoin} ({tab.missed_fraction:.0%})"],
            ["detection factor", f"{tab.detection_factor:.1f}x"],
        ]
        print(render_table(["metric", "value"], rows, title="\nChrome pass"))
        rows = list(crawl.chrome.signature_counts.most_common(5))
        print(render_table(["family", "sites"], rows, title="\ntop signatures"))
        _print_shard_metrics(crawl.chrome_metrics, "\nChrome shard metrics")
    if chaos or args.resume_from is not None:
        _print_fault_ledger(run.fault_ledger)
    if args.profile:
        print()
        print(render_profile(run.obs.registry))
    manifest = run.finish(
        "crawl",
        {
            "dataset": args.dataset,
            "scale": args.scale,
            "signature_db": args.signature_db or "",
        },
    )
    if args.trace_out:
        print(f"trace: {len(run.obs.tracer.spans)} spans -> {args.trace_out}")
    if run.recorder is not None:
        fired = sum(1 for event in run.recorder.alerts if event.kind == "fire")
        print(
            f"timeseries: {len(run.recorder.records)} ticks at "
            f"{args.timeseries_interval:g}s, alerts fired {fired}"
        )
    if manifest is not None:
        print(f"run artifacts ({manifest.run_id}) -> {args.run_dir}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_table
    from repro.faults.plan import build_fault_plan
    from repro.internet.population import build_population
    from repro.service.loadgen import (
        LoadgenConfig,
        LoadReport,
        build_requests,
        run_loadgen,
        schedule_requests,
        synthesize_capture,
    )
    from repro.service.server import VerdictServer
    from repro.wasm.builder import WasmCorpusBuilder

    interval = args.timeseries_interval
    if interval > 0 and args.duration <= 0:
        print(
            "error: --timeseries-interval needs --duration; the recorder ticks "
            "along the simulated arrival schedule",
            file=sys.stderr,
        )
        return 2
    if args.heartbeat > 0 and args.duration <= 0:
        print(
            "error: --heartbeat needs --duration; progress lines follow the "
            "simulated arrival schedule",
            file=sys.stderr,
        )
        return 2
    if args.duration > 0 and args.domains:
        print(
            "error: --duration runs a seeded arrival schedule and cannot be "
            "combined with explicit domains",
            file=sys.stderr,
        )
        return 2
    if interval > 0 and interval >= args.duration:
        print(
            f"error: --timeseries-interval ({interval:g}s) must be smaller than "
            f"--duration ({args.duration:g}s) — otherwise the run records at "
            f"most one tick and every burn-rate window is unpopulated",
            file=sys.stderr,
        )
        return 2
    duration_mode = args.duration > 0
    if duration_mode:
        config = LoadgenConfig(
            seed=args.seed,
            dataset=args.dataset,
            scale=args.scale,
            rate=args.rate,
            duration=args.duration,
            fault_profile=args.fault_profile,
            timeseries_interval=interval,
            heartbeat=args.heartbeat,
        )
        print(
            f"dataset={args.dataset} offered={args.rate:g}r/s x "
            f"{args.duration:g}s capacity~{config.policy.nominal_capacity:.0f}r/s"
        )
        report = run_loadgen(config, run_dir=args.run_dir, label="serve")
    else:
        config = LoadgenConfig(seed=args.seed, dataset=args.dataset, scale=args.scale)
        population = build_population(args.dataset, seed=args.seed, scale=args.scale)
        server = VerdictServer(
            population=population,
            fault_plan=build_fault_plan(args.fault_profile, seed=args.seed),
        )
        if args.domains:
            sites = {site.domain: site for site in population.sites}
            corpus = WasmCorpusBuilder(root_seed=args.seed)
            cache: dict = {}
            arrivals = []
            for index, domain in enumerate(args.domains):
                site = sites.get(domain)
                if site is None:
                    print(
                        f"error: {domain!r} is not in the {args.dataset} population "
                        f"(scale={args.scale})",
                        file=sys.stderr,
                    )
                    return 2
                capture = synthesize_capture(site, corpus, cache)
                # spaced arrivals: a demo, not a load test
                arrivals.append((index * 0.1, "cli", domain, *capture))
            requests = schedule_requests(arrivals, server.policy.request_deadline)
        else:
            requests = build_requests(config, population)[: args.requests]
        report = LoadReport(config=config, server=server, responses=server.run(requests))
        # the per-domain verdict table is a demo view; a --duration run
        # serves rate x duration requests and summarizes instead
        rows = []
        for response in report.responses:
            if response.status == "ok":
                verdict = "MINER" if response.is_miner else "clean"
                detail = response.method if response.is_miner else ""
            else:
                verdict = response.status.upper()
                detail = response.reason
            rows.append(
                [
                    response.request.domain,
                    verdict,
                    detail,
                    response.tier,
                    f"{response.latency * 1000:.0f}ms",
                    response.bundle_version,
                ]
            )
        print(
            render_table(
                ["domain", "verdict", "via", "tier", "latency", "bundle"],
                rows,
                title="verdicts",
            )
        )
    print(
        f"offered={report.offered} completed={report.completed} "
        f"miners={report.counter('service.verdict.miner')} "
        f"errors={report.counter('service.fetch.errors')}"
    )
    if report.recorder is not None:
        print(
            f"timeseries: {len(report.recorder.records)} ticks at {interval:g}s, "
            f"alerts fired/resolved {report.alerts_fired}/{report.alerts_resolved}"
        )
        for event in report.recorder.alerts:
            print(f"  [{event.kind}] {event.summary}")
    _print_fault_ledger(report.server.ledger)
    if args.run_dir is not None:
        manifest = report.persist(
            args.run_dir,
            "serve",
            {
                "dataset": args.dataset,
                "seed": args.seed,
                "scale": args.scale,
                "rate": args.rate,
                "duration": args.duration,
                "requests": 0 if duration_mode else len(report.responses),
                "domains": ",".join(args.domains),
                "fault_profile": args.fault_profile,
                "timeseries_interval": interval,
                "heartbeat": args.heartbeat,
            },
        )
        print(f"run artifacts ({manifest.run_id}) -> {args.run_dir}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_table
    from repro.service.loadgen import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        seed=args.seed,
        dataset=args.dataset,
        scale=args.scale,
        rate=args.rate,
        duration=args.duration,
        tenants=args.tenants,
        fault_profile=args.fault_profile,
        reload_at=tuple(args.reload_at),
        bad_reload_at=tuple(args.bad_reload_at),
        timeseries_interval=args.timeseries_interval,
        cooldown=args.cooldown,
        heartbeat=args.heartbeat,
        # verdicts are only persisted into a run dir; without one, skip them
        collect_evidence=args.run_dir is not None,
    )
    print(
        f"dataset={config.dataset} offered={config.rate:.0f}r/s x "
        f"{config.duration:.0f}s tenants={config.tenants} "
        f"capacity~{config.policy.nominal_capacity:.0f}r/s"
        + (f" faults={config.fault_profile}" if config.fault_profile else "")
    )
    report = run_loadgen(config, run_dir=args.run_dir)
    print(render_table(["metric", "value"], report.summary_rows(), title="\nload report"))
    if report.recorder is not None:
        for event in report.recorder.alerts:
            print(f"[{event.kind}] {event.summary}")
    _print_fault_ledger(report.server.ledger)
    if args.run_dir is not None:
        manifest = report.persist(
            args.run_dir,
            "loadgen",
            {
                "dataset": config.dataset,
                "seed": config.seed,
                "scale": config.scale,
                "rate": config.rate,
                "duration": config.duration,
                "tenants": config.tenants,
                "fault_profile": config.fault_profile,
                "reload_at": ",".join(str(t) for t in config.reload_at),
                "bad_reload_at": ",".join(str(t) for t in config.bad_reload_at),
                "timeseries_interval": config.timeseries_interval,
                "cooldown": config.cooldown,
                "heartbeat": config.heartbeat,
            },
        )
        print(f"run artifacts ({manifest.run_id}) -> {args.run_dir}")
    return 0


def _cmd_shortlinks(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_table
    from repro.analysis.shortlink import ShortLinkStudy
    from repro.internet.shortlinks import build_shortlink_population

    population = build_shortlink_population(seed=args.seed, scale=args.scale)
    study = ShortLinkStudy(population=population, sample_per_top_user=args.sample)
    ranks = study.links_per_token()
    hashes = study.hash_requirements()
    rows = [
        ["links", ranks.total_links],
        ["tokens", len(ranks.counts_by_rank)],
        ["top-1 share", f"{ranks.top1_share:.1%}"],
        ["top-10 share", f"{ranks.topn_share(10):.1%}"],
        ["≤1024 hashes (unbiased)", f"{hashes.share_resolvable_within(1024):.0%}"],
        ["max required hashes", max(hashes.all_links)],
    ]
    print(render_table(["metric", "value"], rows, title="cnhv.co study"))
    if args.resolve:
        destinations = study.destinations()
        rows = list(destinations.top_user_domains.most_common(10))
        print(render_table(["destination", "count"], rows, title="\ntop-creator destinations"))
    return 0


def _cmd_attribute(args: argparse.Namespace) -> int:
    from repro.analysis.network import NetworkSimConfig, simulate_network
    from repro.analysis.reporting import render_table
    from repro.sim.clock import utc_timestamp

    start = utc_timestamp(2018, 4, 26)
    config = NetworkSimConfig(seed=args.seed, start=start, end=start + args.days * 86400)
    observation = simulate_network(config)
    rows = [
        ["chain blocks", observation.chain.height],
        ["attributed to Coinhive", len(observation.attributed)],
        ["recall vs ground truth", f"{observation.attribution_recall():.1%}"],
        ["share of all blocks", f"{observation.overall_share():.2%}"],
        ["median difficulty", f"{observation.chain.median_difficulty(last=5000) / 1e9:.1f}G"],
    ]
    print(render_table(["metric", "value"], rows, title=f"{args.days}-day observation"))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.analysis.runner import run_reproduction

    config = _campaign_config(
        args,
        crawl_scale=args.crawl_scale,
        shortlink_scale=args.shortlink_scale,
        network_days=args.days,
    )
    report = run_reproduction(config)
    markdown = report.to_markdown()
    if args.out:
        pathlib.Path(args.out).write_text(markdown)
        print(f"report written to {args.out} ({report.elapsed_seconds:.1f}s)")
    else:
        print(markdown)
    return 0


def _fmt_ns(ns: int) -> str:
    if abs(ns) >= 1_000_000_000:
        return f"{ns / 1e9:.3f}s"
    return f"{ns / 1e6:.2f}ms"


def _load_run(run, allow_torn: bool = False):
    """The run's ``RunArtifacts``, or ``None`` after printing why not."""
    from repro.obs.ledger import TornRunError, load_run

    try:
        return load_run(run, allow_torn=allow_torn)
    except (TornRunError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}")
        return None


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.reporting import render_table
    from repro.faults.ledger import FaultLedger
    from repro.obs import analyze

    artifacts = _load_run(args.run, args.allow_torn)
    if artifacts is None:
        return 1
    manifest = artifacts.manifest
    print(
        f"run {manifest.run_id} command={manifest.command} "
        f"git={manifest.git_describe} spans={len(artifacts.spans)}"
    )
    print("  " + " ".join(f"{k}={v}" for k, v in sorted(manifest.params.items())))
    if not artifacts.complete:
        print("WARNING: torn run (no COMPLETE marker) — artifacts may be partial")

    # which shard bounded each campaign, and which stage bounded that shard
    path_rows = []
    for path in analyze.critical_paths(artifacts.spans):
        root_label = path.root.tags.get("kind", path.root.name)
        dataset = path.root.tags.get("dataset", "")
        if dataset:
            root_label = f"{dataset}/{root_label}"
        bounding_label = (
            f"shard {path.bounding.tags.get('shard', '?')}"
            if path.bounding is not None
            else "(unsharded)"
        )
        share = path.path_ns / path.wall_ns if path.wall_ns else 0.0
        path_rows.append(
            [
                root_label,
                _fmt_ns(path.wall_ns),
                bounding_label,
                _fmt_ns(path.path_ns),
                f"{share:.0%}",
                path.bounding_stage,
            ]
        )
    if path_rows:
        print(
            render_table(
                ["campaign", "wall", "critical path", "path time", "share", "bounded by"],
                path_rows,
                title="\ncritical paths",
            )
        )

    attribution = analyze.stage_attribution(artifacts.spans)
    total_ns = sum(attribution.values())
    stage_rows = [
        [stage, _fmt_ns(ns), f"{ns / total_ns:.1%}" if total_ns else "-"]
        for stage, ns in sorted(attribution.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    if stage_rows:
        print(
            render_table(
                ["stage", "self time", "share"], stage_rows, title="\nstage attribution"
            )
        )

    slow_rows = [
        [span.tags.get("domain", span.span_id), _fmt_ns(analyze.span_ns(span)), span.span_id]
        for span in analyze.slowest_spans(artifacts.spans, name="site", k=args.top)
    ]
    if slow_rows:
        print(
            render_table(
                ["domain", "duration", "span"], slow_rows,
                title=f"\nslowest sites (top {args.top})",
            )
        )

    error_rows = analyze.error_breakdown(artifacts.spans, artifacts.registry)
    if error_rows:
        print(
            render_table(
                ["error class", "spans", "observed", "injected", "unrecovered"],
                error_rows,
                title="\nerror classes",
            )
        )
    if artifacts.fault_ledger.has_events():
        print(
            render_table(
                FaultLedger.SUMMARY_HEADER,
                artifacts.fault_ledger.summary_rows(),
                title="\nfault ledger",
            )
        )

    if artifacts.profile:
        profile_rows = [
            [
                entry["stage"], entry["count"], entry["errors"],
                _fmt_ns(entry["total_ns"]), _fmt_ns(entry["mean_ns"]),
                _fmt_ns(entry["p50_ns"]), _fmt_ns(entry["p90_ns"]),
                _fmt_ns(entry["max_ns"]),
            ]
            for entry in artifacts.profile
        ]
        print(
            render_table(
                ["stage", "count", "errors", "total", "mean", "p50", "p90", "max"],
                profile_rows,
                title="\nstage profile",
            )
        )

    if args.chrome_trace:
        payload = analyze.chrome_trace(artifacts.spans, run_id=manifest.run_id)
        pathlib.Path(args.chrome_trace).write_text(json.dumps(payload, sort_keys=True))
        print(
            f"\nchrome trace: {len(payload['traceEvents'])} events -> "
            f"{args.chrome_trace} (open in chrome://tracing or ui.perfetto.dev)"
        )
    return 0


def _run_gates(expressions, head, base=None) -> int:
    """Print each ``--fail-on`` verdict: exit 0 ok, 1 violated, 2 bad expression."""
    from repro.obs import gates

    violations = 0
    for expression in expressions or []:
        try:
            verdict = gates.evaluate(gates.parse(expression), head, base)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        print(verdict.detail)
        violations += verdict.violated
    if violations:
        print(f"{violations} threshold(s) violated")
        return 1
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_table
    from repro.obs import analyze

    base = _load_run(args.base)
    head = _load_run(args.head) if base is not None else None
    if head is None:
        return 1

    mismatches = [
        f"  {key}: {base_value!r} != {head_value!r}"
        for key, (base_value, head_value) in _identity_mismatches(
            base.manifest.identity(), head.manifest.identity()
        ).items()
    ]
    if mismatches and not args.force:
        print(
            f"error: runs are not comparable "
            f"({base.manifest.run_id} vs {head.manifest.run_id}):"
        )
        print("\n".join(mismatches))
        print("pass --force to diff anyway")
        return 2

    diff = analyze.diff_runs(
        base.registry, head.registry,
        base_id=base.manifest.run_id, head_id=head.manifest.run_id,
    )
    print(f"diff {diff.base_id} (base) vs {diff.head_id} (head)")
    if diff.counter_deltas:
        rows = [
            [name, base_n, head_n, head_n - base_n]
            for name, base_n, head_n in diff.counter_deltas
        ]
        print(render_table(["counter", "base", "head", "delta"], rows, title="\ncounter deltas"))
    else:
        print("(no counter deltas)")
    if diff.histogram_count_deltas:
        rows = [
            [name, base_n, head_n, head_n - base_n]
            for name, base_n, head_n in diff.histogram_count_deltas
        ]
        print(
            render_table(
                ["histogram", "base obs", "head obs", "delta"], rows,
                title="\nhistogram count deltas",
            )
        )
    if diff.stage_shifts:
        rows = [
            [
                shift.stage,
                f"{shift.base_count}->{shift.head_count}",
                f"{_fmt_ns(shift.base_mean_ns)}->{_fmt_ns(shift.head_mean_ns)}",
                f"{_fmt_ns(shift.base_p50_ns)}->{_fmt_ns(shift.head_p50_ns)}",
                f"{_fmt_ns(shift.base_p90_ns)}->{_fmt_ns(shift.head_p90_ns)}",
            ]
            for shift in diff.stage_shifts
        ]
        print(
            render_table(
                ["stage", "count", "mean", "p50", "p90"], rows, title="\nstage shifts"
            )
        )
    if diff.new_error_classes:
        print(f"\nnew error classes: {', '.join(diff.new_error_classes)}")
    if diff.vanished_error_classes:
        print(f"vanished error classes: {', '.join(diff.vanished_error_classes)}")

    return _run_gates(args.fail_on, head.registry, base.registry)


def _cmd_obs_explain(args: argparse.Namespace) -> int:
    from repro.obs.evidence import render_verdict

    artifacts = _load_run(args.run, args.allow_torn)
    if artifacts is None:
        return 1
    if not artifacts.verdicts:
        print(
            f"error: {artifacts.path} has no verdicts.jsonl — re-run the "
            f"campaign with --run-dir under this version to record verdicts"
        )
        return 1
    matches = [v for v in artifacts.verdicts if v.subject == args.subject]
    if not matches:
        near = sorted(
            {v.subject for v in artifacts.verdicts if args.subject in v.subject}
        )[:5]
        hint = f" (close: {', '.join(near)})" if near else ""
        print(f"error: no verdict for {args.subject!r} in {artifacts.path}{hint}")
        return 1
    # one verdict per pipeline that saw the subject (zgrab0/zgrab1/chrome)
    from repro.graph.build import evidence_node_id

    for index, verdict in enumerate(matches):
        if index:
            print()
        print(render_verdict(verdict))
        node_ids = []
        for evidence in verdict.evidence:
            nid = evidence_node_id(evidence)
            if nid is not None and nid not in node_ids:
                node_ids.append(nid)
        for nid in node_ids:
            print(f"  graph node: {nid}")
    if matches[0].kind == "block":
        subject_node = f"block:{args.subject}"
    else:
        # domain nodes are dataset-qualified in the graph
        dataset = matches[0].dataset
        subject_node = f"domain:{dataset}/{args.subject}" if dataset else f"domain:{args.subject}"
    print(f"\nexplore: repro obs graph neighbors {args.run} {subject_node}")
    return 0


def _load_run_graph(args: argparse.Namespace):
    """``RunArtifacts`` with a graph, or ``None`` after printing the error."""
    artifacts = _load_run(args.run, args.allow_torn)
    if artifacts is None:
        return None
    if artifacts.graph is None:
        print(
            f"error: {artifacts.path} has no graph.jsonl — re-run the campaign "
            f"with --run-dir under this version to record the attribution graph"
        )
        return None
    return artifacts


def _resolve_graph_node(graph, raw: str):
    """A node id from user input; tolerates a bare domain/subject name.

    Domain, includer, and stratum keys are dataset-qualified
    (``domain:alexa/shop.com``); a bare ``shop.com`` resolves when it
    names exactly one node across datasets.
    """
    if raw in graph.nodes:
        return raw
    bare = raw.split(":", 1)[1] if ":" in raw else raw
    if ":" not in raw:
        for kind in ("domain", "includer", "family", "block"):
            candidate = f"{kind}:{raw}"
            if candidate in graph.nodes:
                return candidate
    qualified = sorted(
        nid
        for nid in graph.nodes
        if nid.split(":", 1)[-1].split("/", 1)[-1] == bare
        and (":" not in raw or nid.startswith(raw.split(":", 1)[0] + ":"))
    )
    if len(qualified) == 1:
        return qualified[0]
    if qualified:
        print(
            f"error: {raw!r} is ambiguous across datasets: "
            f"{', '.join(qualified)}"
        )
        return None
    near = sorted(nid for nid in graph.nodes if raw in nid)[:5]
    hint = f" (close: {', '.join(near)})" if near else ""
    print(f"error: no graph node {raw!r}{hint}")
    return None


def _attrs_text(attrs: dict) -> str:
    return " ".join(f"{name}={value}" for name, value in sorted(attrs.items()))


def _cmd_obs_graph_neighbors(args: argparse.Namespace) -> int:
    from repro.graph.query import neighbors

    artifacts = _load_run_graph(args)
    if artifacts is None:
        return 1
    graph = artifacts.graph
    nid = _resolve_graph_node(graph, args.node)
    if nid is None:
        return 1
    kind = graph.nodes[nid][0]
    print(f"{nid}  [{kind}]  {_attrs_text(graph.node_attrs(nid))}".rstrip())
    rows = neighbors(graph, nid)
    for edge_kind, direction, other, attrs in rows:
        line = f"  {direction} {edge_kind} {other}"
        if attrs:
            line += f"  ({_attrs_text(attrs)})"
        print(line)
    print(f"{len(rows)} edge(s)")
    return 0


def _cmd_obs_graph_path(args: argparse.Namespace) -> int:
    from repro.graph.model import NODE_KINDS
    from repro.graph.query import find_path

    artifacts = _load_run_graph(args)
    if artifacts is None:
        return 1
    graph = artifacts.graph
    start = _resolve_graph_node(graph, args.node)
    if start is None:
        return 1
    to = args.to
    if ":" not in to and to not in NODE_KINDS:
        print(f"error: --to wants a node id or one of: {', '.join(NODE_KINDS)}")
        return 2
    steps = find_path(graph, start, to)
    if steps is None:
        print(f"no path from {start} to {to!r}")
        return 1
    print(f"path: {start} to {steps[-1].node} ({len(steps) - 1} hop(s))")
    for step in steps:
        if step is not steps[0]:
            via = f"    {step.direction} {step.edge_kind}"
            if step.attrs:
                via += f"  ({_attrs_text(step.attrs)})"
            print(via)
        node_attrs = graph.node_attrs(step.node)
        line = f"  {step.node}"
        if node_attrs:
            line += f"  [{_attrs_text(node_attrs)}]"
        print(line)
    return 0


def _cmd_obs_graph_clusters(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_table
    from repro.graph.query import clusters

    artifacts = _load_run_graph(args)
    if artifacts is None:
        return 1
    parts = clusters(artifacts.graph)
    if not parts:
        print("no campaign clusters (graph has no includes/attributed-to edges)")
        return 0
    rows = [
        [
            part.label,
            part.size,
            len(part.domains),
            part.miners,
            f"{part.miner_share:.1%}",
            part.wasm_hits,
            part.blocked,
            f"{part.detection_factor:.1f}x" if part.blocked else (
                "inf" if part.wasm_hits else "-"
            ),
        ]
        for part in parts[: args.top]
    ]
    print(
        render_table(
            ["cluster", "nodes", "domains", "miners", "miner share",
             "wasm", "blocked", "factor"],
            rows,
            title="campaign clusters",
        )
    )
    if len(parts) > args.top:
        print(f"({len(parts) - args.top} smaller cluster(s) not shown)")
    return 0


def _cmd_obs_graph_query(args: argparse.Namespace) -> int:
    from repro.graph.query import graph_metrics
    from repro.obs.gates import ClosedView

    artifacts = _load_run_graph(args)
    if artifacts is None:
        return 1
    metrics = graph_metrics(artifacts.graph)
    for name in sorted(metrics):
        value = metrics[name]
        print(f"{name} = {value:g}")
    return _run_gates(args.fail_on, ClosedView(metrics, "graph"))


def _cmd_obs_scorecard(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_table
    from repro.obs import scorecard
    from repro.obs.gates import ClosedView

    artifacts = _load_run(args.run, args.allow_torn)
    if artifacts is None:
        return 1
    try:
        card = scorecard.build_scorecard(artifacts)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    print(scorecard.render_scorecard_summary(card))
    print(
        render_table(
            scorecard.SCORECARD_HEADER,
            scorecard.scorecard_rows(card),
            title="\nper-detector scorecard",
        )
    )
    if card.clusters:
        print(
            render_table(
                scorecard.CLUSTER_HEADER,
                scorecard.cluster_score_rows(card),
                title="\nper-includer-cluster detection",
            )
        )
    return _run_gates(args.fail_on, ClosedView(card.metrics(), "scorecard"))


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_table
    from repro.service.slo import slo_summary_rows

    artifacts = _load_run(args.run, args.allow_torn)
    if artifacts is None:
        return 1
    registry = artifacts.registry
    if "service.requests.offered" not in registry.counters:
        print(
            f"error: {artifacts.path} records no service.* metrics — "
            f"`obs slo` gates runs written by `loadgen --run-dir`"
        )
        return 1
    print(render_table(["metric", "value"], slo_summary_rows(registry), title="service SLOs"))
    return _run_gates(args.fail_on, registry)


_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values) -> str:
    """Render a value series as unicode block characters (peak-scaled)."""
    peak = max(values, default=0)
    if peak <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    chars = []
    for value in values:
        if value <= 0:
            chars.append(_SPARK_BLOCKS[0])
        else:
            index = 1 + int(value / peak * (len(_SPARK_BLOCKS) - 2) + 0.5)
            chars.append(_SPARK_BLOCKS[min(index, len(_SPARK_BLOCKS) - 1)])
    return "".join(chars)


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    import fnmatch

    artifacts = _load_run(args.run, args.allow_torn)
    if artifacts is None:
        return 1
    series = artifacts.timeseries
    if series is None:
        print(
            f"error: {artifacts.path} has no timeseries.jsonl — re-run with "
            f"--timeseries-interval to record windowed telemetry"
        )
        return 1
    print(
        f"timeseries: {len(series.records)} ticks at {series.interval:g}s "
        f"({artifacts.manifest.run_id})"
    )
    counter_series = series.counter_series()
    names = sorted(counter_series)
    if args.metric:
        names = [name for name in names if fnmatch.fnmatch(name, args.metric)]
    if args.limit > 0 and len(names) > args.limit:
        names = sorted(
            names, key=lambda name: (-sum(counter_series[name]), name)
        )[: args.limit]
        names.sort()
    width = max((len(name) for name in names), default=0)
    for name in names:
        deltas = counter_series[name]
        total = sum(deltas)
        peak = max(deltas, default=0) / series.interval
        print(
            f"  {name:<{width}} {_sparkline(deltas)} "
            f"total={total} peak={peak:g}/s"
        )
    histogram_names = sorted({
        name for record in series.records for name in record.histograms
    })
    if args.metric:
        histogram_names = [
            name for name in histogram_names if fnmatch.fnmatch(name, args.metric)
        ]
    for name in histogram_names:
        p99s = [
            record.histograms[name].quantile(0.99)
            if name in record.histograms
            else 0.0
            for record in series.records
        ]
        print(
            f"  {name + '.p99':<{width}} {_sparkline(p99s)} "
            f"peak={max(p99s, default=0.0):g}s"
        )
    if series.alerts:
        print("\nalerts:")
        for event in series.alerts:
            mark = "!!" if event.kind == "fire" else "ok"
            print(f"  [{mark}] t={event.time:g}s {event.summary}")
    failures = []
    for rule in args.assert_fired or []:
        if not series.fired(rule):
            failures.append(f"expected alert {rule!r} to fire, but it never did")
    for rule in args.assert_not_fired or []:
        if series.fired(rule):
            failures.append(f"expected alert {rule!r} to stay silent, but it fired")
    for failure in failures:
        print(f"assertion failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _render_top(series, window_ticks: int, limit: int) -> str:
    from repro.obs.alerts import worst_tier
    from repro.obs.gates import WindowView

    records = series.records[-max(1, window_ticks):]
    window = WindowView(records, series.interval)
    span = max(len(records) * series.interval, series.interval)
    latest = series.records[-1]
    lines = [
        f"tick {latest.tick} t={latest.time:g}s "
        f"(window {span:g}s, {len(series.records)} ticks retained)"
    ]
    if any("service.requests.offered" in record.counters for record in records):
        lines.append(
            "service: "
            f"offered={window.value('service.requests.offered'):.1f}/s "
            f"shed={window.value('shed_rate'):.1%} "
            f"p50={window.value('p50') * 1000:.0f}ms "
            f"p99={window.value('p99') * 1000:.0f}ms "
            f"tier={worst_tier(records)}"
        )
    firing_state: dict = {}
    for event in series.alerts:
        firing_state[event.rule] = event.kind == "fire"
    active = sorted(rule for rule, firing in firing_state.items() if firing)
    lines.append("alerts firing: " + (", ".join(active) if active else "none"))
    totals: dict = {}
    for record in records:
        for name, delta in record.counters.items():
            totals[name] = totals.get(name, 0) + delta
    busiest = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    if limit > 0:
        busiest = busiest[:limit]
    for name, total in busiest:
        lines.append(f"  {total / span:8.1f}/s  {name}")
    return "\n".join(lines)


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.obs.artifact import ArtifactSchemaError
    from repro.obs.timeseries import read_timeseries_jsonl

    path = pathlib.Path(args.run)
    if path.is_dir():
        path = path / "timeseries.jsonl"
    passes = 0
    while True:
        if path.exists():
            try:
                series = read_timeseries_jsonl(path)
            except ArtifactSchemaError as exc:
                if args.watch <= 0:
                    print(f"error: {exc}")
                    return 1
                # a tail can catch the flusher mid-write; torn reads are
                # transient in watch mode, so keep polling
                print(f"(waiting) {exc}")
            else:
                if series.records:
                    print(_render_top(series, args.window, args.limit))
                elif args.watch <= 0:
                    print(f"error: {path} holds no tick records yet")
                    return 1
                else:
                    print(f"(waiting) {path} holds no tick records yet")
        elif args.watch <= 0:
            print(
                f"error: {path} does not exist — run with "
                f"--run-dir and --timeseries-interval"
            )
            return 1
        else:
            # watch mode tails a run that may not have flushed yet
            print(f"(waiting) {path} does not exist yet")
        # waiting passes count toward --iterations too: a bounded watch on
        # a run that never produces ticks must still terminate
        passes += 1
        if args.watch <= 0:
            break
        if args.iterations and passes >= args.iterations:
            break
        time_module.sleep(args.watch)
        print()
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs.prom import registry_to_prom

    artifacts = _load_run(args.run, args.allow_torn)
    if artifacts is None:
        return 1
    text = registry_to_prom(artifacts.registry)
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {len(text.splitlines())} exposition lines -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _identity_mismatches(base_identity: dict, head_identity: dict) -> dict:
    mismatches = {}
    for key in sorted(set(base_identity) | set(head_identity)):
        base_value = base_identity.get(key)
        head_value = head_identity.get(key)
        if base_value != head_value:
            mismatches[key] = (base_value, head_value)
    return mismatches


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.wasm.decoder import WasmDecodeError
    from repro.wasm.wat import disassemble

    status = 0
    for path in args.files:
        data = pathlib.Path(path).read_bytes()
        try:
            print(disassemble(data, max_functions=args.max_functions))
        except WasmDecodeError as exc:
            print(f";; {path}: {exc}")
            status = 1
    return status


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.wasm.builder import WasmCorpusBuilder, all_blueprints

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    builder = WasmCorpusBuilder(root_seed=args.seed)
    count = 0
    for blueprint in all_blueprints():
        if args.family and blueprint.family != args.family:
            continue
        name = f"{blueprint.family.replace('.', '_')}-v{blueprint.variant}.wasm"
        (out / name).write_bytes(builder.build(blueprint))
        count += 1
    print(f"wrote {count} modules to {out}")
    return 0


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=("alexa", "com", "net", "org"), default="alexa")
    p.add_argument("--scale", type=float, default=0.1)


def _add_campaign_flags(p: argparse.ArgumentParser) -> None:
    """How the crawl campaigns of ``crawl`` and ``reproduce`` run."""
    p.add_argument(
        "--population-size",
        type=int,
        default=0,
        metavar="N",
        help="stream N-domain index-addressable populations instead of "
        "materializing scaled ones (zgrab plane only; constant memory per shard)",
    )
    p.add_argument(
        "--strata",
        default="",
        help="rank strata for --population-size as name:hi_rank:signal_rate,... "
        "(empty hi_rank = tail); default: the dataset's calibrated "
        "top1k/top10k/top100k/top1m/tail buckets",
    )
    p.add_argument(
        "--sample-per-stratum",
        type=int,
        default=0,
        metavar="K",
        help="scan only K uniformly-sampled ranks per stratum instead of the "
        "full population (0 = full scan); prevalence tables extrapolate",
    )
    p.add_argument("--shards", type=_positive_int, default=1, help="split each population into N shards")
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="forked worker processes, at least one shard each "
        "(one worker, or no fork on this platform, runs the shards serially)",
    )
    p.add_argument(
        "--resume-from",
        default=None,
        metavar="DIR",
        help="checkpoint-journal directory; a rerun resumes completed sites from it",
    )


def _add_fault_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fault-profile",
        default="",
        help="chaos profile: none | mild | heavy | kind=rate,... (e.g. reset=0.2)",
    )


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """``--run-dir`` and the live telemetry flags of every long-running command."""
    p.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="persist run artifacts (manifest, metrics, trace, ledger, verdicts, "
        "graph, timeseries) here for the `repro-mining obs` commands; serve "
        "--duration and loadgen append each recorded tick to timeseries.jsonl "
        "so `obs top --watch` can follow the run live",
    )
    p.add_argument(
        "--timeseries-interval",
        type=float,
        default=0.0,
        metavar="SECS",
        help="record windowed per-tick telemetry (counter rates, windowed "
        "latency quantiles; burn-rate alerts for serve/loadgen) every SECS "
        "seconds, simulated for serve/loadgen, into timeseries.jsonl for "
        "`obs timeline` / `obs top` (0 = off; serve needs --duration)",
    )
    p.add_argument(
        "--heartbeat",
        type=float,
        default=0.0,
        metavar="SECS",
        help="emit a live progress line every SECS seconds (0 = off); serve "
        "--duration and loadgen add queue depth, shed rate and degradation "
        "tier, every SECS simulated seconds",
    )


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the campaign trace (one span per line, JSONL) here",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage latency table after the run",
    )
    _add_run_flags(p)


def _add_fail_on(p: argparse.ArgumentParser, examples: str) -> None:
    p.add_argument(
        "--fail-on",
        action="append",
        default=[],
        metavar="EXPR",
        help=f"exit non-zero when EXPR holds, e.g. {examples}; repeatable",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_run_argument(
    parser: argparse.ArgumentParser,
    torn_help: str,
    run_help: str = "run directory written by --run-dir",
) -> None:
    """The ``RUN`` positional plus ``--allow-torn`` of the run-reading obs commands."""
    parser.add_argument("run", metavar="RUN", help=run_help)
    parser.add_argument("--allow-torn", action="store_true", help=torn_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mining",
        description="Reproduction toolkit for 'Digging into Browser-based Crypto Mining' (IMC 2018)",
    )
    parser.add_argument("--seed", type=int, default=2018, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fingerprint", help="fingerprint .wasm files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("nocoin", help="match HTML files against the NoCoin list")
    p.add_argument("files", nargs="+")
    p.add_argument("--list", help="custom filter list file (Adblock syntax)")
    p.set_defaults(func=_cmd_nocoin)

    p = sub.add_parser("crawl", help="run a scaled crawl campaign")
    _add_dataset_flags(p)
    _add_campaign_flags(p)
    p.add_argument(
        "--zgrab-only",
        action="store_true",
        help="with --population-size on a Chrome-crawl dataset, explicitly "
        "run only the zgrab plane (otherwise that combination is an error)",
    )
    _add_fault_flag(p)
    p.add_argument(
        "--signature-db",
        default=None,
        metavar="PATH",
        help="use this signature catalogue (SignatureDatabase JSON) for the "
        "Chrome pass instead of building the reference database",
    )
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_crawl)

    p = sub.add_parser("serve", help="one-shot verdict-server demo")
    p.add_argument(
        "domains",
        nargs="*",
        metavar="DOMAIN",
        help="domains to ask about (default: a seeded request sample)",
    )
    _add_dataset_flags(p)
    p.add_argument(
        "--requests",
        type=_positive_int,
        default=12,
        metavar="N",
        help="seeded requests to serve when no domains are given",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=0.0,
        metavar="SECS",
        help="serve a seeded open-loop arrival schedule for SECS simulated "
        "seconds instead of the N-request demo (enables --timeseries-interval)",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=40.0,
        help="offered load for --duration mode, requests/second",
    )
    _add_run_flags(p)
    _add_fault_flag(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen", help="seeded open-loop load run against the verdict server"
    )
    _add_dataset_flags(p)
    p.add_argument(
        "--rate", type=float, default=40.0,
        help="aggregate offered load, requests/second split over tenants",
    )
    p.add_argument(
        "--duration", type=float, default=30.0, help="simulated seconds of arrivals"
    )
    p.add_argument("--tenants", type=_positive_int, default=4)
    _add_fault_flag(p)
    p.add_argument(
        "--reload-at",
        type=float,
        action="append",
        default=[],
        metavar="T",
        help="hot-swap a refreshed detection bundle at simulated time T (repeatable)",
    )
    p.add_argument(
        "--bad-reload-at",
        type=float,
        action="append",
        default=[],
        metavar="T",
        help="offer an invalid bundle at simulated time T — rollback demo (repeatable)",
    )
    p.add_argument(
        "--cooldown",
        type=float,
        default=0.0,
        metavar="SECS",
        help="keep observing SECS simulated seconds after the last arrival "
        "drains, so recovered burn-rate alerts resolve on tape",
    )
    _add_run_flags(p)
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser("shortlinks", help="run the cnhv.co study")
    p.add_argument("--scale", type=float, default=0.002)
    p.add_argument("--sample", type=int, default=50)
    p.add_argument("--resolve", action="store_true", help="also resolve destinations")
    p.set_defaults(func=_cmd_shortlinks)

    p = sub.add_parser("attribute", help="simulate the network and attribute blocks")
    p.add_argument("--days", type=int, default=7)
    p.set_defaults(func=_cmd_attribute)

    p = sub.add_parser("reproduce", help="run every experiment, emit a markdown report")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--crawl-scale", type=float, default=0.25)
    p.add_argument("--shortlink-scale", type=float, default=0.004)
    p.add_argument("--days", type=int, default=28)
    _add_campaign_flags(p)
    _add_fault_flag(p)
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("obs", help="analyze persisted run directories")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    p_report = obs_sub.add_parser("report", help="critical paths, slowest sites, errors")
    _add_run_argument(p_report, "analyze a run directory without a COMPLETE marker")
    p_report.add_argument("--top", type=_positive_int, default=10, help="top-K slowest sites")
    p_report.add_argument(
        "--chrome-trace",
        default=None,
        metavar="PATH",
        help="export the span tree as Chrome trace_event JSON (chrome://tracing, Perfetto)",
    )
    p_report.set_defaults(func=_cmd_obs_report)

    p_diff = obs_sub.add_parser("diff", help="compare two runs; optional CI perf gates")
    p_diff.add_argument("base", metavar="BASE", help="baseline run directory")
    p_diff.add_argument("head", metavar="HEAD", help="candidate run directory")
    p_diff.add_argument(
        "--force",
        action="store_true",
        help="diff even when the run identities (seed, dataset, scale...) differ",
    )
    _add_fail_on(
        p_diff,
        "'stage.fetch.p90>1.2x' (trailing x = head/base ratio) or "
        "'fault.observed.timeout>10' (absolute)",
    )
    p_diff.set_defaults(func=_cmd_obs_diff)

    p_explain = obs_sub.add_parser(
        "explain", help="show the evidence chain behind one subject's verdicts"
    )
    _add_run_argument(
        p_explain, "read verdicts from a run directory without a COMPLETE marker"
    )
    p_explain.add_argument(
        "subject",
        metavar="SUBJECT",
        help="crawled domain (or block-<height> for pool attributions)",
    )
    p_explain.set_defaults(func=_cmd_obs_explain)

    p_score = obs_sub.add_parser(
        "scorecard",
        help="per-detector precision/recall vs the synthetic ground truth",
    )
    _add_run_argument(p_score, "score a run directory without a COMPLETE marker")
    _add_fail_on(
        p_score,
        "'detector.wasm.recall<0.95' or 'detection_factor<2'; absolute values only",
    )
    p_score.set_defaults(func=_cmd_obs_scorecard)

    p_slo = obs_sub.add_parser(
        "slo", help="service SLO gates over a `loadgen --run-dir` run"
    )
    _add_run_argument(
        p_slo,
        "gate a run directory without a COMPLETE marker",
        run_help="run directory written by `loadgen --run-dir`",
    )
    _add_fail_on(
        p_slo,
        "'p99>0.5' (latency seconds), 'shed_rate>0.25', "
        "'service.reload.mixed_bundle>0'; absolute values only",
    )
    p_slo.set_defaults(func=_cmd_obs_slo)

    p_timeline = obs_sub.add_parser(
        "timeline",
        help="per-metric sparklines over the run's timeseries, with "
        "burn-rate alert annotations",
    )
    _add_run_argument(
        p_timeline,
        "read a run directory without a COMPLETE marker",
        run_help="run directory written with --timeseries-interval",
    )
    p_timeline.add_argument(
        "--metric",
        default="",
        metavar="GLOB",
        help="only metrics matching this glob (e.g. 'service.rejected.*')",
    )
    p_timeline.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="show only the N busiest counter series (0 = all)",
    )
    p_timeline.add_argument(
        "--assert-fired",
        action="append",
        default=[],
        metavar="RULE",
        help="exit non-zero unless alert RULE fired during the run "
        "(repeatable; CI gate)",
    )
    p_timeline.add_argument(
        "--assert-not-fired",
        action="append",
        default=[],
        metavar="RULE",
        help="exit non-zero if alert RULE fired during the run (repeatable)",
    )
    p_timeline.set_defaults(func=_cmd_obs_timeline)

    p_top = obs_sub.add_parser(
        "top",
        help="live windowed service/campaign view off a (possibly still "
        "in-flight) run directory",
    )
    p_top.add_argument(
        "run",
        metavar="RUN",
        help="run directory (or a timeseries.jsonl path); reads the "
        "tick-flushed artifact directly, no COMPLETE marker needed",
    )
    p_top.add_argument(
        "--watch",
        type=float,
        default=0.0,
        metavar="SECS",
        help="re-read and re-render every SECS wall seconds (0 = render once)",
    )
    p_top.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="with --watch: stop after N refreshes, rendered or waiting "
        "(0 = until interrupted)",
    )
    p_top.add_argument(
        "--window",
        type=int,
        default=10,
        metavar="K",
        help="trailing ticks per windowed stat",
    )
    p_top.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="busiest counters to show (0 = all)",
    )
    p_top.set_defaults(func=_cmd_obs_top)

    p_export = obs_sub.add_parser(
        "export", help="export run metrics for external dashboard stacks"
    )
    _add_run_argument(p_export, "export a run directory without a COMPLETE marker")
    p_export.add_argument(
        "--format",
        choices=("prom",),
        default="prom",
        help="output format (prom = Prometheus text exposition)",
    )
    p_export.add_argument(
        "--out", default=None, metavar="PATH", help="write here instead of stdout"
    )
    p_export.set_defaults(func=_cmd_obs_export)

    p_graph = obs_sub.add_parser(
        "graph", help="walk the campaign attribution graph (graph.jsonl)"
    )
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)

    def graph_parser(name: str, help_text: str):
        sub_p = graph_sub.add_parser(name, help=help_text)
        _add_run_argument(sub_p, "read a run directory without a COMPLETE marker")
        return sub_p

    pg = graph_parser("neighbors", "one node's edges, both directions")
    pg.add_argument(
        "node",
        metavar="NODE",
        help="node id like domain:shop.com (a bare name resolves if unambiguous)",
    )
    pg.set_defaults(func=_cmd_obs_graph_neighbors)

    pg = graph_parser(
        "path", "shortest evidence path, e.g. which includer seeded this miner"
    )
    pg.add_argument("node", metavar="NODE", help="start node id (or bare domain)")
    pg.add_argument(
        "--to",
        default="includer",
        metavar="TARGET",
        help="goal node id, or a node kind (default: includer)",
    )
    pg.set_defaults(func=_cmd_obs_graph_path)

    pg = graph_parser(
        "clusters", "campaign components over includes/attributed-to edges"
    )
    pg.add_argument(
        "--top",
        type=_positive_int,
        default=20,
        metavar="N",
        help="largest clusters to show (default 20)",
    )
    pg.set_defaults(func=_cmd_obs_graph_clusters)

    pg = graph_parser("query", "print graph metrics; gate them with --fail-on")
    _add_fail_on(
        pg,
        "'clusters.max_miner_share>0.5' or 'edges.includes<1'; absolute values only",
    )
    pg.set_defaults(func=_cmd_obs_graph_query)

    p = sub.add_parser("disasm", help="disassemble .wasm files to WAT-style text")
    p.add_argument("files", nargs="+")
    p.add_argument("--max-functions", type=int, default=None)
    p.set_defaults(func=_cmd_disasm)

    p = sub.add_parser("corpus", help="dump the synthetic wasm corpus")
    p.add_argument("--out", default="wasm-corpus")
    p.add_argument("--family", help="only this family")
    p.set_defaults(func=_cmd_corpus)
    return parser


#: numeric flags shared by several commands, and the bound each must meet
_POSITIVE_FLAGS = ("scale", "crawl_scale", "shortlink_scale")
_NON_NEGATIVE_FLAGS = ("population_size", "sample_per_stratum", "timeseries_interval")


def _bad_shared_value(args: argparse.Namespace) -> str | None:
    """Why a shared flag's value cannot run, or None when every one can."""
    for name in _POSITIVE_FLAGS:
        if name in args and getattr(args, name) <= 0:
            return f"--{name.replace('_', '-')} must be > 0"
    for name in _NON_NEGATIVE_FLAGS:
        if name in args and getattr(args, name) < 0:
            return f"--{name.replace('_', '-')} must be >= 0"
    for name in ("strata", "sample_per_stratum"):
        # only streamed populations have rank strata to sample
        if getattr(args, name, None) and not args.population_size:
            return f"--{name.replace('_', '-')} needs --population-size"
    if getattr(args, "strata", ""):
        from repro.internet.population import DATASETS
        from repro.internet.streaming import parse_strata

        try:
            for spec in DATASETS.values():
                parse_strata(args.strata, spec)
        except ValueError as exc:
            return f"--strata: {exc}"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # checked here, next to the one declaration of the shared flags
    problem = _bad_shared_value(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
