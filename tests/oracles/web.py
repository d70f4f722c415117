"""The linear host scan :meth:`~repro.web.http.SyntheticWeb.has_host` ran
before it kept a host set, checked by ``tests/test_web_host_index.py``."""

from __future__ import annotations


def has_host(web, host: str) -> bool:
    """Whether any registered http(s) URL of ``web`` lives on ``host``."""
    host = host.lower()
    prefix_variants = (f"http://{host}/", f"https://{host}/")
    return any(key.startswith(prefix_variants) for key in web.resources)
