"""The web registry's host set against the linear scan it replaced.

:meth:`SyntheticWeb.has_host` answers DNS/TLS/404 misses from a set of
hosts that :meth:`~SyntheticWeb.register` extends and
:meth:`~SyntheticWeb.unregister` drops (rebuilt on the next miss). The
oracle (:mod:`tests.oracles.web`) scans every registered URL. Hypothesis
drives random register/unregister sequences, with and without a query
between steps, and the streaming web's eviction at ``cache_limit=2``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.internet.streaming import StreamingPopulation
from repro.web.http import FetchError, Resource, SyntheticWeb
from tests.oracles import web as oracle

HOSTS = ("a.com", "b.org", "www.c.net", "d.io")
#: every host the registry can hold, plus case variants and a stranger
QUERIES = HOSTS + ("A.COM", "Www.C.Net", "zz.com", "a.co", "b.org.uk")

_register = st.tuples(
    st.just("register"),
    st.sampled_from(("http", "https", "ws", "wss")),
    st.sampled_from(HOSTS + ("A.COM",)),
    st.sampled_from(("/", "/x", "/js/site.js")),
)
_unregister = st.tuples(st.just("unregister"), st.integers(0, 31))
_step = st.tuples(st.one_of(_register, _unregister), st.booleans())


def _assert_index_matches(web: SyntheticWeb, queries=QUERIES) -> None:
    for host in queries:
        assert SyntheticWeb.has_host(web, host) == oracle.has_host(web, host), host


class TestRegistry:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(_step, max_size=40))
    def test_has_host_matches_the_linear_scan(self, steps):
        web = SyntheticWeb()
        for op, query in steps:
            if op[0] == "register":
                _, scheme, host, path = op
                web.register(f"{scheme}://{host}{path}", Resource(content=b"x"))
            else:
                keys = list(web.resources) + ["http://zz.com/never-registered"]
                web.unregister(keys[op[1] % len(keys)])
            if query:
                _assert_index_matches(web)
        _assert_index_matches(web)

    def test_resources_given_at_construction_are_indexed(self):
        web = SyntheticWeb(
            resources={"https://a.com/": Resource(), "ws://b.org/socket": Resource()}
        )
        assert web.has_host("a.com") and web.has_host("A.com")
        assert not web.has_host("b.org")

    def test_unregistering_a_hosts_last_url_is_a_dns_failure(self):
        web = SyntheticWeb()
        web.register("https://a.com/", Resource(content=b"x"))
        web.register("https://a.com/x", Resource(content=b"x"))
        web.unregister("https://a.com/")
        assert web.has_host("a.com")
        web.unregister("https://a.com/x")
        assert not web.has_host("a.com")
        with pytest.raises(FetchError, match="name not resolved"):
            web.fetch("https://a.com/")


class TestStreamingEviction:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        touches=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(("lookup", "has_host"))),
                         min_size=1, max_size=30),
    )
    def test_has_host_matches_the_linear_scan_under_eviction(self, seed, touches):
        population = StreamingPopulation("com", seed=seed, size=12, web_cache=2)
        web = population.web
        hosts = [f"www.{population.sites[i].domain}" for i in range(12)]
        queries = tuple(hosts) + ("zz.com",)
        for index, how in touches:
            if how == "lookup":
                try:
                    web.lookup(f"https://{hosts[index]}/")
                except FetchError:
                    pass
            else:
                assert web.has_host(hosts[index]) == oracle.has_host(web, hosts[index])
            _assert_index_matches(web, queries)
            live = [h for h in hosts if oracle.has_host(web, h)]
            assert len(live) <= 2
