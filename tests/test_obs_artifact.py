"""The versioned-JSONL artifact contract, checked once per run-dir format.

Every format — ``trace.jsonl``, ``verdicts.jsonl``, ``graph.jsonl``,
``timeseries.jsonl`` — goes through :mod:`repro.obs.artifact`, so each
clause of the contract is one test parametrized over all four (and, for
the version check, over ``manifest.json`` too): byte-exact round-trips,
headerless legacy files, malformed and future versions, bad record lines
naming their file and line, atomic writes, and files written by an
earlier release that must still decode to the same bytes.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.model import (
    GRAPH,
    Graph,
    graph_to_jsonl,
    parse_graph_jsonl,
    read_graph_jsonl,
    write_graph_jsonl,
)
from repro.obs.alerts import AlertEvent
from repro.obs.artifact import ArtifactFormat, ArtifactSchemaError, dumps
from repro.obs.evidence import (
    VERDICTS,
    Evidence,
    VerdictRecord,
    parse_verdicts_jsonl,
    read_verdicts_jsonl,
    verdicts_to_jsonl,
    write_verdicts_jsonl,
)
from repro.obs.ledger import OBS_SCHEMA_VERSION, RunManifest, load_run, write_run
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    TIMESERIES,
    HistogramWindow,
    TickRecord,
    TimeSeries,
    read_timeseries_jsonl,
    write_timeseries_jsonl,
)
from repro.obs.trace import (
    TRACE,
    Span,
    Tracer,
    parse_jsonl,
    read_jsonl,
    spans_to_jsonl,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "artifacts"

# ---------------------------------------------------------------------------
# strategies: one whole artifact value per format

_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_names = st.sampled_from(["service.requests.offered", "service.tier.full", "stage.fetch", "x"])

_spans = st.lists(
    st.builds(
        Span,
        span_id=_text,
        name=_text,
        start=_finite,
        end=_finite,
        parent_id=_text,
        tags=st.dictionaries(_text, _text, max_size=3),
    ),
    max_size=5,
)

_verdicts = st.lists(
    st.builds(
        VerdictRecord,
        subject=_text,
        dataset=_text,
        pipeline=_text,
        kind=st.sampled_from(["page", "block"]),
        status=st.sampled_from(["ok", "error"]),
        nocoin_hit=st.booleans(),
        wasm_present=st.booleans(),
        is_miner=st.booleans(),
        family=_text,
        method=_text,
        confidence=_finite,
        stratum=_text,
        evidence=st.lists(
            st.builds(
                Evidence,
                detector=_text,
                verdict=_text,
                summary=_text,
                details=st.lists(st.tuples(_text, _text), max_size=3).map(tuple),
            ),
            max_size=2,
        ).map(tuple),
    ),
    max_size=4,
)

_kinds = st.sampled_from(["domain", "includer", "family", "sig"])
_attrs = st.dictionaries(st.sampled_from(["miner", "pipeline", "url"]), _text, max_size=2)


def _graph(nodes, edges) -> Graph:
    graph = Graph()
    ids = [graph.add_node(kind, key, **attrs) for kind, key, attrs in nodes]
    for kind, src, dst, attrs in edges:
        if ids:
            graph.add_edge(kind, ids[src % len(ids)], ids[dst % len(ids)], **attrs)
    return graph


_graphs = st.builds(
    _graph,
    st.lists(st.tuples(_kinds, _text, _attrs), max_size=5),
    st.lists(
        st.tuples(
            st.sampled_from(["includes", "attributed-to"]),
            st.integers(0, 9),
            st.integers(0, 9),
            _attrs,
        ),
        max_size=5,
    ),
)


def _window(counts) -> HistogramWindow:
    return HistogramWindow(
        bounds=(0.01, 0.1), counts=counts, count=sum(counts), total_ns=7 * sum(counts)
    )


_ticks = st.builds(
    TickRecord,
    tick=st.integers(0, 50),
    time=_finite,
    counters=st.dictionaries(_names, st.integers(-5, 10**6), max_size=3),
    gauges=st.dictionaries(_names, _finite, max_size=2),
    histograms=st.dictionaries(
        _names, st.lists(st.integers(0, 9), min_size=3, max_size=3).map(_window), max_size=2
    ),
)

_alerts = st.builds(
    AlertEvent,
    rule=_text,
    kind=st.sampled_from(["fire", "resolve"]),
    tick=st.integers(0, 50),
    time=_finite,
    expr=_text,
    tier=_text,
    windows=st.lists(
        st.tuples(_finite, _finite, _finite, st.sampled_from([">", "<"])), max_size=2
    ).map(tuple),
    summary=_text,
)

_series = st.builds(
    lambda interval, records, alerts: TimeSeries(
        interval=interval,
        records=sorted(records, key=lambda r: r.tick),
        alerts=sorted(alerts, key=lambda e: (e.tick, e.rule, e.kind)),
    ),
    st.floats(min_value=0.001, max_value=3600.0),
    st.lists(_ticks, max_size=4, unique_by=lambda r: r.tick),
    st.lists(_alerts, max_size=3, unique_by=lambda e: (e.tick, e.rule, e.kind)),
)


def _write_spans(path, spans) -> None:
    tracer = Tracer()
    tracer.adopt(spans)
    tracer.write_jsonl(path)


# ---------------------------------------------------------------------------
# the four formats


@dataclass(frozen=True)
class Format:
    codec: ArtifactFormat
    values: st.SearchStrategy
    encode: Callable[[object], str]
    decode: Callable[[str], object]
    write: Callable[[pathlib.Path, object], object]
    read: Callable[[pathlib.Path], object]
    #: a record line missing a field its ``from_dict`` requires
    incomplete: str

    @property
    def name(self) -> str:
        return self.codec.name

    @property
    def file_name(self) -> str:
        return f"{self.name}.jsonl"

    @property
    def fixture(self) -> pathlib.Path:
        """This format's file as an earlier release wrote it."""
        return FIXTURES / self.file_name

    def sample(self):
        return self.read(self.fixture)

    def __str__(self) -> str:
        return self.name


FORMATS = [
    Format(TRACE, _spans, spans_to_jsonl, parse_jsonl, _write_spans, read_jsonl,
           incomplete='{"span_id":"s-1"}'),
    Format(VERDICTS, _verdicts, verdicts_to_jsonl, parse_verdicts_jsonl,
           write_verdicts_jsonl, read_verdicts_jsonl, incomplete='{"dataset":"alexa"}'),
    Format(GRAPH, _graphs, graph_to_jsonl, parse_graph_jsonl, write_graph_jsonl,
           read_graph_jsonl, incomplete='{"kind":"includes","src":"domain:a"}'),
    Format(TIMESERIES, _series, TimeSeries.to_jsonl, TimeSeries.from_jsonl,
           write_timeseries_jsonl, read_timeseries_jsonl, incomplete='{"tick":0}'),
]

by_format = pytest.mark.parametrize("fmt", FORMATS, ids=str)


def _with_version(text: str, version) -> str:
    header, *records = text.splitlines()
    payload = json.loads(header)
    payload["schema_version"] = version
    return "\n".join([dumps(payload), *records]) + "\n"


def _load_manifest(version) -> None:
    payload = RunManifest.build("crawl", {"seed": 1}, git_describe="g").to_dict()
    payload["schema_version"] = version
    RunManifest.from_dict(payload)


#: ``name -> (loader taking a schema_version, version it supports)``
VERSIONED = {
    **{
        fmt.name: (
            lambda version, fmt=fmt: fmt.decode(_with_version(fmt.fixture.read_text(), version)),
            fmt.codec.version,
        )
        for fmt in FORMATS
    },
    "manifest": (_load_manifest, OBS_SCHEMA_VERSION),
}


# ---------------------------------------------------------------------------
# the contract


@by_format
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encode_decode_round_trips_bytes(fmt, data):
    text = fmt.encode(data.draw(fmt.values))
    assert fmt.encode(fmt.decode(text)) == text


@by_format
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_headerless_legacy_file_parses(fmt, data):
    text = fmt.encode(data.draw(fmt.values))
    legacy = "\n".join(text.splitlines()[1:])
    # the record lines survive; only the header is rebuilt on re-encode
    assert fmt.encode(fmt.decode(legacy)).splitlines()[1:] == text.splitlines()[1:]


@pytest.mark.parametrize("name", sorted(VERSIONED))
@pytest.mark.parametrize("version", [0, -1, "two", True])
def test_malformed_schema_version_is_rejected(name, version):
    load, _ = VERSIONED[name]
    with pytest.raises(ArtifactSchemaError, match="malformed"):
        load(version)


@pytest.mark.parametrize("name", sorted(VERSIONED))
def test_future_schema_version_is_rejected(name):
    load, supported = VERSIONED[name]
    load(supported)
    with pytest.raises(ArtifactSchemaError, match="upgrade repro"):
        load(supported + 1)


@by_format
@pytest.mark.parametrize(
    "line, reason",
    [("not json", "not JSON"), ("5", "not a JSON object"), ("[]", "not a JSON object")],
)
def test_undecodable_line_names_file_and_line(fmt, tmp_path, line, reason):
    path = tmp_path / fmt.file_name
    path.write_text(fmt.fixture.read_text() + "\n" + line + "\n")
    number = len(path.read_text().splitlines())
    with pytest.raises(ArtifactSchemaError) as caught:
        fmt.read(path)
    message = str(caught.value)
    assert f"malformed {fmt.name} line {number} of {path}" in message
    assert reason in message and repr(line) in message


@by_format
def test_missing_field_is_a_schema_error(fmt, tmp_path):
    path = tmp_path / fmt.file_name
    path.write_text(fmt.fixture.read_text() + fmt.incomplete + "\n")
    number = len(path.read_text().splitlines())
    with pytest.raises(ArtifactSchemaError, match=f"line {number} of .*missing field"):
        fmt.read(path)


@by_format
def test_write_is_atomic_and_leaves_no_temp_file(fmt, tmp_path, monkeypatch):
    renames = []
    real_replace = os.replace

    def spy(src, dst):
        renames.append((pathlib.Path(src).name, pathlib.Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    value = fmt.sample()
    path = tmp_path / fmt.file_name
    path.write_text("stale\n")
    fmt.write(path, value)
    assert renames == [(fmt.file_name + ".tmp", fmt.file_name)]
    assert sorted(p.name for p in tmp_path.iterdir()) == [fmt.file_name]
    assert path.read_text() == fmt.encode(value)


def test_run_directory_write_leaves_no_temp_file(tmp_path):
    manifest = RunManifest.build("crawl", {"seed": 1}, git_describe="g")
    verdicts = [VerdictRecord(subject="a.com", dataset="alexa", pipeline="zgrab0")]
    write_run(tmp_path / "run", manifest, MetricsRegistry(), [], verdicts=verdicts)
    assert not [p.name for p in (tmp_path / "run").iterdir() if p.name.endswith(".tmp")]
    assert load_run(tmp_path / "run").verdicts == verdicts


@pytest.mark.parametrize(
    "name, text, reason",
    [
        ("manifest.json", "{}", "missing field 'run_id'"),
        ("manifest.json", "not json", "Expecting value"),
        ("metrics.json", "[1", "Expecting"),
        ("ledger.json", "", "Expecting value"),
        ("profile.json", "{", "Expecting"),
    ],
)
def test_bad_plain_json_run_file_is_a_schema_error(tmp_path, name, text, reason):
    run = tmp_path / "run"
    write_run(run, RunManifest.build("crawl", {"seed": 1}, git_describe="g"), MetricsRegistry(), [])
    (run / name).write_text(text)
    with pytest.raises(ArtifactSchemaError, match=f"{name}: {reason}"):
        load_run(run)


@by_format
def test_fixture_from_an_earlier_release_decodes_to_identical_bytes(fmt):
    text = fmt.fixture.read_text()
    assert fmt.encode(fmt.sample()) == text
    assert fmt.encode(fmt.decode(text)) == text
