"""NoCoin filter-list engine (the paper's baseline detector).

Implements the Adblock Plus rule subset the NoCoin list [hoshsadiq/
adblock-nocoin-list] actually uses:

- ``||host^`` domain-anchored rules,
- plain substring rules with ``*`` wildcards and ``^`` separators,
- ``/regex/`` rules,
- ``@@`` exception rules,
- ``$`` options (``script``, ``domain=``, ``third-party`` — parsed, with
  ``script`` honored and the rest recorded),
- ``!`` comments and ``[Adblock Plus]`` headers.

The engine matches script-src URLs; :meth:`FilterList.explain_text` applies
the same patterns to inline script text, reproducing how the paper ran the
list over extracted ``<script>`` tags. The bundled default list mirrors the
2018 NoCoin list's character — including overbroad rules (``cpmstar``) that
the paper identified as false-positive sources.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.core import fastpath


@dataclass(frozen=True)
class FilterRule:
    """One parsed filter rule."""

    raw: str
    pattern: str
    is_exception: bool = False
    domain_anchor: bool = False  # ||…
    regex: Optional[str] = None
    options: tuple = ()
    label: str = ""  # human-readable miner family tag for reporting
    #: provenance: which list this rule came from and its 1-based line
    #: number there, so a hit can cite the exact list line that fired
    source: str = ""
    line_number: int = 0

    def to_line(self) -> str:
        """Reconstruct the list line this rule parsed from.

        ``parse_rule(rule.to_line())`` returns an equal rule for every
        rule ``parse_rule`` can produce (the round-trip property pinned
        in the test suite) — ``raw`` holds the stripped body, so the
        ``@@`` / ``||`` / ``$options`` decorations are re-applied here.
        """
        body = f"/{self.regex}/" if self.regex is not None else (
            ("||" if self.domain_anchor else "") + self.pattern
        )
        options = "$" + ",".join(self.options) if self.options else ""
        return ("@@" if self.is_exception else "") + body + options

    def compile(self) -> "CompiledRule":
        if self.regex is not None:
            return CompiledRule(self, re.compile(self.regex, re.IGNORECASE))
        # translate Adblock wildcards into a regex:
        #   * -> .*       ^ -> separator ([^\w.%-] or end)
        out = []
        for char in self.pattern:
            if char == "*":
                out.append(".*")
            elif char == "^":
                out.append(r"(?:[^\w.%-]|$)")
            else:
                out.append(re.escape(char))
        body = "".join(out)
        if self.domain_anchor:
            # ||host matches at a domain-label boundary after the scheme
            body = r"^[a-z]+://(?:[\w-]+\.)*" + body
        return CompiledRule(self, re.compile(body, re.IGNORECASE))


@dataclass
class CompiledRule:
    """A rule with its compiled regex."""

    rule: FilterRule
    matcher: re.Pattern

    def matches_url(self, url: str) -> bool:
        return bool(self.matcher.search(url))

    def find_url(self, url: str) -> Optional[str]:
        """The matched URL span, or None — the explainable ``matches_url``."""
        found = self.matcher.search(url)
        return found.group(0) if found is not None else None

    def find_text(self, text: str, lowered: Optional[str] = None) -> Optional[str]:
        """The matched span in inline text, or None.

        Inline text has no scheme, so domain-anchored rules drop the URL
        anchor and test lowercase containment of their pre-``^`` host;
        ``lowered`` lets list-level scans lower the document once instead
        of once per rule.
        """
        if self.rule.domain_anchor:
            needle = self.rule.pattern.split("^")[0].lower()
            if lowered is None:
                lowered = text.lower()
            at = lowered.find(needle)
            return text[at : at + len(needle)] if at >= 0 else None
        found = self.matcher.search(text)
        return found.group(0) if found is not None else None


@dataclass(frozen=True)
class FilterMatch:
    """One explained filter hit: the rule plus what it matched.

    ``where`` is ``"url"`` or ``"text"``; ``subject`` is the script src or
    (truncated) inline text the rule was applied to; ``matched`` is the
    exact span the rule's pattern covered.
    """

    rule: FilterRule
    where: str
    subject: str
    matched: str


class FilterListError(ValueError):
    """Raised for unparseable filter rules."""


def parse_rule(
    line: str, label: str = "", source: str = "", line_number: int = 0
) -> Optional[FilterRule]:
    """Parse one list line; returns None for comments/blank/header lines.

    ``source``/``line_number`` record where the rule came from — evidence
    records cite them so a hit names the exact list line that fired.
    """
    line = line.strip()
    if not line or line.startswith("!") or (line.startswith("[") and line.endswith("]")):
        return None
    is_exception = line.startswith("@@")
    if is_exception:
        line = line[2:]
    options: tuple = ()
    if "$" in line and not line.startswith("/"):
        line, _, opts = line.rpartition("$")
        options = tuple(opt.strip() for opt in opts.split(","))
    if line.startswith("/") and line.endswith("/") and len(line) > 2:
        body = line[1:-1]
        try:
            re.compile(body, re.IGNORECASE)
        except re.error as exc:
            raise FilterListError(f"bad regex rule {line!r}: {exc}")
        return FilterRule(
            raw=line,
            pattern="",
            regex=body,
            is_exception=is_exception,
            options=options,
            label=label,
            source=source,
            line_number=line_number,
        )
    domain_anchor = line.startswith("||")
    if domain_anchor:
        line = line[2:]
    if not line:
        raise FilterListError("empty rule body")
    return FilterRule(
        raw=line,
        pattern=line,
        is_exception=is_exception,
        domain_anchor=domain_anchor,
        options=options,
        label=label,
        source=source,
        line_number=line_number,
    )


@dataclass
class FilterList:
    """A compiled filter list with URL and inline-text matching."""

    rules: list = field(default_factory=list)
    _compiled: list = field(default_factory=list, repr=False)
    _exceptions: list = field(default_factory=list, repr=False)
    #: lazily built combined automaton (repro.core.fastpath); invalidated
    #: by add() so it always reflects the current rule set
    _fastset: Optional[object] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_lines(
        cls, lines, labels: Optional[dict] = None, source: str = ""
    ) -> "FilterList":
        """Build from raw list lines; ``labels`` maps raw line → family tag.

        Each parsed rule carries ``(source, line_number)`` provenance —
        line numbers are 1-based over ``lines`` including comments and
        blanks, matching how the list file reads.
        """
        instance = cls()
        for line_number, line in enumerate(lines, start=1):
            label = (labels or {}).get(line.strip(), "")
            rule = parse_rule(line, label=label, source=source, line_number=line_number)
            if rule is not None:
                instance.add(rule)
        return instance

    def add(self, rule: FilterRule) -> None:
        self.rules.append(rule)
        compiled = rule.compile()
        if rule.is_exception:
            self._exceptions.append(compiled)
        else:
            self._compiled.append(compiled)
        self._fastset = None

    def _fast(self) -> "fastpath.CompiledFilterSet":
        if self._fastset is None:
            self._fastset = fastpath.CompiledFilterSet(
                self._compiled, self._exceptions
            )
        return self._fastset

    def warm(self) -> "FilterList":
        """Pre-build the combined automaton (service bundles do this at
        packaging time so a hot swap never pays compile cost mid-request)."""
        self._fast()
        return self

    # Each explain_* method is the layer's one decision: the rule that fired
    # and the span it covered. The match_* methods project the rule out.

    def explain_url(self, url: str) -> Optional[FilterMatch]:
        """First matching (non-excepted) rule for a script URL and the span
        it matched, or None.

        ``$script`` options need no handling here: callers only pass
        script-src URLs, which is exactly the resource type those rules
        target.
        """
        found = self._fast().find_url(url)
        if found is None or self._fast().any_exception_url(url):
            return None
        compiled, matched = found
        return FilterMatch(rule=compiled.rule, where="url", subject=url, matched=matched)

    def explain_text(self, text: str) -> Optional[FilterMatch]:
        """First rule whose pattern occurs in inline script text, with the
        matched span and the (truncated) text, or None."""
        if not text:
            return None
        found = self._fast().find_text(text)
        if found is None:
            return None
        compiled, matched = found
        subject = text if len(text) <= 120 else text[:117] + "..."
        return FilterMatch(
            rule=compiled.rule, where="text", subject=subject, matched=matched
        )

    def explain_scripts(self, scripts) -> list:
        """Match ``(src, inline)`` script pairs: one :class:`FilterMatch`
        per script that hits, its URL tried before its inline text."""
        matches = []
        for src, inline in scripts:
            match = None
            if src:
                match = self.explain_url(src)
            if match is None and inline:
                match = self.explain_text(inline)
            if match is not None:
                matches.append(match)
        return matches

    def match_url(self, url: str) -> Optional[FilterRule]:
        """The rule :meth:`explain_url` cites, or None."""
        match = self.explain_url(url)
        return match.rule if match is not None else None

    def match_scripts(self, scripts) -> list:
        """The rules :meth:`explain_scripts` cites, one per hit."""
        return [match.rule for match in self.explain_scripts(scripts)]

    def __len__(self) -> int:
        return len(self.rules)


#: The bundled NoCoin-style list. Labels tag each rule with the miner
#: family it targets so Figure 2's per-script shares can be reported.
_DEFAULT_RULES: tuple = (
    ("||coinhive.com^", "coinhive"),
    ("||coin-hive.com^", "coinhive"),
    ("coinhive.min.js", "coinhive"),
    ("||authedmine.com^", "authedmine"),
    ("authedmine.min.js", "authedmine"),
    ("||crypto-loot.com^", "cryptoloot"),
    ("crypto-loot.min.js", "cryptoloot"),
    ("||cryptaloot.pro^", "cryptoloot"),
    ("wp-monero-miner*.js", "wp-monero"),
    ("||wp-monero-miner.de^", "wp-monero"),
    # The overbroad gaming-ad-network rule the paper calls out as a false
    # positive: cpmstar serves ads, not miners.
    ("||cpmstar.com^", "cpmstar"),
    ("cpmstar.js", "cpmstar"),
    ("||jsminer.example^", "jsminer"),
    ("jsminer.js", "jsminer"),
    ("||webminepool.com^", "webminepool"),
    ("||coinerra.com^", "coinerra"),
    ("||minero.cc^", "minero"),
    ("||papoto.com^", "papoto"),
    ("||coinblind.com^", "coinblind"),
    ("||monerominer.rocks^", "monerominer"),
    ("/cryptonight\\.wasm/", "generic-cryptonight"),
    ("coinhive.com/lib", "coinhive"),
)


#: Source label the bundled list's rules cite in evidence records.
DEFAULT_LIST_SOURCE = "bundled-nocoin"


def default_nocoin_list() -> FilterList:
    """The reproduction's bundled NoCoin-style list."""
    labels = {raw: label for raw, label in _DEFAULT_RULES}
    return FilterList.from_lines(
        [raw for raw, _ in _DEFAULT_RULES], labels=labels, source=DEFAULT_LIST_SOURCE
    )
