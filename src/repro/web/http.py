"""Simulated HTTP/TLS transfers and the synthetic web.

:class:`SyntheticWeb` is the origin registry the crawlers talk to. Each
registered :class:`Resource` serves bytes for a URL, optionally redirects,
and carries a latency model. Fidelity points that matter to the paper's
measurements:

- TLS-only fetches fail on plain-HTTP-only sites (the zgrab dataset is
  TLS-only; the Chrome crawl also covers non-HTTPS sites — Table 2's
  populations differ for exactly this reason),
- redirects (``http://www.example.org`` → ``https://…``),
- truncation is the *client's* job (zgrab stops at 256 kB),
- unresponsive origins hang until the client's timeout.

An optional :class:`~repro.faults.plan.FaultPlan` attached as
``fault_plan`` turns the registry into a chaos plane: every fetch attempt
consults the plan for injected DNS/TLS/reset/flap/slow faults (raised as
classified :class:`FetchError`\\ s with ``injected=True``) and truncation
faults (surfaced on the response). Every :class:`FetchError` carries an
:class:`~repro.faults.taxonomy.ErrorClass` and the simulated seconds the
failed transfer consumed, which is what lets callers propagate deadlines
across retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.taxonomy import ErrorClass, classify_reason

ContentProvider = Union[bytes, Callable[[], bytes]]


class FetchError(Exception):
    """A failed transfer (DNS, refused, TLS mismatch, timeout).

    ``error_class`` is the structured taxonomy entry (derived from the
    reason string when not given), ``injected`` marks fault-plan failures,
    ``fault_kind`` names the injected fault, and ``elapsed`` is the
    simulated time the doomed transfer consumed before failing.
    """

    def __init__(
        self,
        url: str,
        reason: str,
        error_class: Optional[ErrorClass] = None,
        injected: bool = False,
        fault_kind: Optional[FaultKind] = None,
        elapsed: float = 0.0,
    ) -> None:
        super().__init__(f"{url}: {reason}")
        self.url = url
        self.reason = reason
        self.error_class = error_class if error_class is not None else classify_reason(reason)
        self.injected = injected
        self.fault_kind = fault_kind
        self.elapsed = elapsed


@dataclass
class Resource:
    """One servable URL.

    ``content`` may be bytes or a zero-argument callable (for dynamic
    pages). ``redirect_to`` wins over content. ``latency`` is the simulated
    transfer time in seconds; ``hang`` marks an origin that accepts the
    connection but never responds (the paper's 15 s browser timeout exists
    because such sites are common).
    """

    content: ContentProvider = b""
    content_type: str = "text/html"
    redirect_to: Optional[str] = None
    latency: float = 0.05
    hang: bool = False
    status: int = 200

    def body(self) -> bytes:
        if callable(self.content):
            return self.content()
        return self.content


@dataclass(frozen=True)
class HttpResponse:
    """A completed transfer."""

    url: str
    status: int
    body: bytes
    content_type: str
    elapsed: float
    redirects: tuple = ()
    #: body shortened by an injected truncation fault (distinct from the
    #: client-requested ``max_bytes`` cut, which is not a fault)
    fault_truncated: bool = False


def split_url(url: str) -> tuple:
    """``(scheme, host, path)`` from a URL; raises :class:`ValueError`."""
    if "://" not in url:
        raise ValueError(f"URL without scheme: {url!r}")
    scheme, rest = url.split("://", 1)
    if scheme not in ("http", "https", "ws", "wss"):
        raise ValueError(f"unsupported scheme {scheme!r}")
    host, _, path = rest.partition("/")
    if not host:
        raise ValueError(f"URL without host: {url!r}")
    return scheme, host.lower(), "/" + path


@dataclass
class SyntheticWeb:
    """The registry of everything fetchable in a simulation.

    URLs are stored normalized as ``scheme://host/path``. Hosts absent from
    the registry raise DNS-style failures; ``https`` URLs for hosts marked
    HTTP-only raise TLS failures. Add and drop URLs through
    :meth:`register` and :meth:`unregister`, which keep the host set
    behind :meth:`has_host` current.
    """

    resources: dict = field(default_factory=dict)
    https_hosts: set = field(default_factory=set)
    ws_handlers: dict = field(default_factory=dict)
    max_redirects: int = 5
    #: the chaos plane; ``None`` disables injection entirely
    fault_plan: Optional[FaultPlan] = None
    #: hosts with at least one http(s) resource; ``None`` until the next
    #: :meth:`has_host` rebuilds it (after construction or an unregister)
    _hosts: Optional[set] = field(default=None, init=False, repr=False, compare=False)

    def register_ws(self, url: str, handler: Callable) -> None:
        """Register a WebSocket endpoint handler ``(channel, payload) -> None``."""
        scheme, host, path = split_url(url)
        if scheme not in ("ws", "wss"):
            raise ValueError(f"WebSocket URL must be ws:// or wss://, got {url!r}")
        self.ws_handlers[f"{scheme}://{host}{path}"] = handler

    def lookup_ws(self, url: str) -> Callable:
        scheme, host, path = split_url(url)
        handler = self.ws_handlers.get(f"{scheme}://{host}{path}")
        if handler is None:
            raise FetchError(url, "no WebSocket endpoint")
        return handler

    def register(self, url: str, resource: Resource) -> None:
        scheme, host, path = split_url(url)
        if scheme == "https":
            self.https_hosts.add(host)
        self.resources[f"{scheme}://{host}{path}"] = resource
        if self._hosts is not None and scheme in ("http", "https"):
            self._hosts.add(host)

    def unregister(self, key: str) -> None:
        """Drop the resource stored under the normalized URL ``key``."""
        if self.resources.pop(key, None) is not None:
            self._hosts = None

    def register_page(
        self,
        url: str,
        html: ContentProvider,
        latency: float = 0.05,
        hang: bool = False,
    ) -> None:
        self.register(url, Resource(content=html, latency=latency, hang=hang))

    def has_host(self, host: str) -> bool:
        """Whether any http(s) resource is registered on ``host``."""
        if self._hosts is None:
            self._hosts = {
                rest.partition("/")[0]
                for scheme, _, rest in (key.partition("://") for key in self.resources)
                if scheme in ("http", "https")
            }
        return host.lower() in self._hosts

    def lookup(self, url: str) -> Resource:
        scheme, host, path = split_url(url)
        key = f"{scheme}://{host}{path}"
        resource = self.resources.get(key)
        if resource is not None:
            return resource
        if not self.has_host(host):
            raise FetchError(url, "name not resolved", error_class=ErrorClass.DNS)
        if scheme == "https" and host not in self.https_hosts:
            raise FetchError(
                url,
                "TLS handshake failed (no HTTPS endpoint)",
                error_class=ErrorClass.TLS,
            )
        raise FetchError(url, "404 not found", error_class=ErrorClass.HTTP_ERROR)

    def fetch(
        self,
        url: str,
        max_bytes: Optional[int] = None,
        timeout: float = 10.0,
        follow_redirects: bool = True,
        attempt: int = 0,
    ) -> HttpResponse:
        """Perform a blocking simulated transfer.

        ``max_bytes`` truncates the body client-side (zgrab's 256 kB cut).
        ``timeout`` converts hanging origins into :class:`FetchError`.
        ``attempt`` (0-based) keys per-attempt fault decisions, so retries
        see transient faults clear and flapping origins recover.
        """
        plan = self.fault_plan
        redirects: list[str] = []
        current = url
        elapsed = 0.0
        for _ in range(self.max_redirects + 1):
            try:
                scheme, host, _path = split_url(current)
            except ValueError as exc:
                raise FetchError(
                    current,
                    f"invalid URL ({exc})",
                    error_class=ErrorClass.INVALID_URL,
                    elapsed=elapsed,
                ) from None
            if plan is not None:
                fault = plan.fetch_fault(scheme, host, current, attempt)
                if fault is not None:
                    failed_at = (
                        timeout
                        if fault.error_class is ErrorClass.TIMEOUT
                        else elapsed + fault.elapsed
                    )
                    raise FetchError(
                        current,
                        fault.reason,
                        error_class=fault.error_class,
                        injected=True,
                        fault_kind=fault.kind,
                        elapsed=failed_at,
                    )
            try:
                resource = self.lookup(current)
            except FetchError as exc:
                exc.elapsed = elapsed
                raise
            elapsed += resource.latency
            if resource.hang or elapsed > timeout:
                raise FetchError(
                    current,
                    "timed out",
                    error_class=ErrorClass.TIMEOUT,
                    elapsed=timeout,
                )
            if resource.redirect_to is not None and follow_redirects:
                redirects.append(current)
                current = resource.redirect_to
                continue
            body = resource.body()
            fault_truncated = False
            if plan is not None and body and plan.truncates(current):
                body = body[: max(int(len(body) * plan.truncate_keep_fraction), 1)]
                fault_truncated = True
            if max_bytes is not None:
                body = body[:max_bytes]
            return HttpResponse(
                url=current,
                status=resource.status,
                body=body,
                content_type=resource.content_type,
                elapsed=elapsed,
                redirects=tuple(redirects),
                fault_truncated=fault_truncated,
            )
        raise FetchError(
            url, "too many redirects", error_class=ErrorClass.REDIRECT_LOOP, elapsed=elapsed
        )
