"""HTML tokenizer, parser, and serializer.

The paper extracts ``<script>`` tags with lxml before applying the NoCoin
list and saves rendered HTML for re-matching. We implement a small
fault-tolerant HTML parser (crawled pages are truncated at 256 kB and often
malformed) sufficient for:

- extracting script tags (``src`` attribute and inline text),
- walking elements and text for categorization,
- serializing a (mutated) DOM back to HTML.

It is intentionally not a full HTML5 tree builder: no implied-tag
inference, no entity decoding beyond the common five — crawl analysis needs
robustness, not spec completeness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)
RAW_TEXT_ELEMENTS = frozenset({"script", "style"})

_ENTITIES = {"&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"', "&#39;": "'"}

# The tokenizer's scans as compiled regexes. ``(?=(X))\N`` is an atomic
# group on every supported Python: the lookahead matches ``X`` once, and a
# failure after it never backtracks into it, so a tag with no ``>`` costs
# one pass, not one pass per character. ``\s`` is exactly ``str.isspace``.

#: the body of a tag up to its closing ``>``, quote-aware (the ``>`` of an
#: unterminated quote never ends the tag); the pattern's first group
_TAG_BODY = r"""(?=((?:[^"'>]+|"[^"]*"|'[^']*')*))\1>"""
_TAG_END = re.compile(_TAG_BODY)
_TAG_NAME = re.compile(r"\S*")
#: one attribute: name (ends at ``=`` or ``\t\n\r `` only), then an
#: optional ``=`` with a double-quoted, single-quoted or bare value; the
#: last group that matched is the value's (group 1 alone: no value)
_ATTRIBUTE = re.compile(
    r"""\s*([^=\t\n\r ]*)\s*(?:=\s*(?:"([^"]*)"?|'([^']*)'?|(\S*)))?"""
)
#: every token :meth:`ScriptScanner.scan` passes over without reading it:
#: text runs, comments (an unterminated one swallows the rest),
#: declarations and end tags that have a ``>``, ``<`` runs before the end
#: or a character that is surely not ``str.isalpha`` (``[\W\d_]``: not
#: alphanumeric, a decimal digit or ``_``), and start tags that have a
#: ``>`` and an ASCII-letter name that cannot be ``script``/``style``. A
#: ``<`` before any other character (a non-ASCII letter, or a numeric
#: such as ``²``, which ``[^\W\d_]`` would call a letter) is left to the
#: per-token step, where ``str.isalpha`` decides it. Case is spelled out
#: per letter because ``(?i)`` would also let ``ſ`` and the Kelvin sign
#: match ASCII letters.
_SKIP = re.compile(
    r"""(?:
        [^<]+
      | <(?![Ss][Cc][Rr][Ii][Pp][Tt]|[Ss][Tt][Yy][Ll][Ee])[A-Za-z]"""
    + _TAG_BODY
    + r"""
      | </[^>]*>
      | <!--.*?(?:-->|\Z)
      | <[!?][^>]*>
      | <+(?![A-Za-z!?/])(?=[\W\d_]|\Z)[^<]*
    )*""",
    re.VERBOSE | re.DOTALL,
)


def unescape(text: str) -> str:
    """Decode the five common HTML entities."""
    for entity, char in _ENTITIES.items():
        if entity in text:
            text = text.replace(entity, char)
    return text


def escape(text: str) -> str:
    """Encode text for safe HTML embedding."""
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


@dataclass
class HtmlElement:
    """One element node; children are elements or plain strings (text)."""

    tag: str
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrs.get(name.lower(), default)

    def append(self, child) -> None:
        self.children.append(child)

    def text(self) -> str:
        """Concatenated text content of the subtree."""
        parts: list[str] = []
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            else:
                stack.extend(reversed(node.children))
        return "".join(parts)

    def iter(self) -> Iterator["HtmlElement"]:
        """Depth-first iteration over this element and all descendants.

        Walks an explicit stack: an unclosed tag nests everything after
        it, so a page's depth is bounded only by its tag count.
        """
        stack = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(
                child for child in reversed(element.children) if isinstance(child, HtmlElement)
            )

    def find_all(self, tag: str) -> list:
        tag = tag.lower()
        return [el for el in self.iter() if el.tag == tag]

    def serialize(self) -> str:
        """The subtree as HTML, walking an explicit stack like :meth:`iter`;
        the strings on the stack are rendered text and end tags."""
        parts: list[str] = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
                continue
            tag = node.tag
            if node.attrs:
                attrs = "".join(
                    f' {name}="{escape(value)}"' if value is not None else f" {name}"
                    for name, value in node.attrs.items()
                )
                parts.append(f"<{tag}{attrs}>")
            else:
                parts.append(f"<{tag}>")
            if tag in VOID_ELEMENTS:
                continue
            stack.append(f"</{tag}>")
            if tag in RAW_TEXT_ELEMENTS:  # script/style bodies stay unescaped
                stack.extend(reversed(node.children))
            else:
                for child in reversed(node.children):
                    stack.append(escape(child) if isinstance(child, str) else child)
        return "".join(parts)


@dataclass
class HtmlDocument:
    """Parse result: a root element (synthetic ``#document``)."""

    root: HtmlElement

    def find_all(self, tag: str) -> list:
        return self.root.find_all(tag)

    def scripts(self) -> list:
        """All script tags as ``(src, inline_text)`` pairs."""
        out = []
        for el in self.root.find_all("script"):
            out.append((el.get("src"), el.text()))
        return out

    def title(self) -> str:
        titles = self.root.find_all("title")
        return titles[0].text().strip() if titles else ""

    def body_text(self) -> str:
        bodies = self.root.find_all("body")
        return bodies[0].text() if bodies else self.root.text()

    def serialize(self) -> str:
        return "".join(
            child if isinstance(child, str) else child.serialize()
            for child in self.root.children
        )


class HtmlParser:
    """Fault-tolerant, single-pass HTML parser.

    Unknown constructs degrade to text; unclosed tags close implicitly at
    EOF (truncated crawls!); mismatched end tags pop to the nearest matching
    open element, or are dropped if none matches.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)
        self._lower: Optional[str] = None

    def parse(self) -> HtmlDocument:
        root = HtmlElement("#document")
        stack = [root]
        while self.pos < self.length:
            if self.text.startswith("<!--", self.pos):
                self._skip_comment()
            elif self.text.startswith("<!", self.pos) or self.text.startswith("<?", self.pos):
                self._skip_declaration()
            elif self.text.startswith("</", self.pos):
                self._handle_end_tag(stack)
            elif self.text.startswith("<", self.pos) and self._looks_like_tag():
                self._handle_start_tag(stack)
            else:
                self._handle_text(stack)
        return HtmlDocument(root)

    # -- token handlers --------------------------------------------------------

    def _looks_like_tag(self) -> bool:
        nxt = self.pos + 1
        return nxt < self.length and (self.text[nxt].isalpha())

    def _skip_comment(self) -> None:
        end = self.text.find("-->", self.pos + 4)
        self.pos = self.length if end == -1 else end + 3

    def _skip_declaration(self) -> None:
        end = self.text.find(">", self.pos)
        self.pos = self.length if end == -1 else end + 1

    def _handle_text(self, stack: list) -> None:
        next_tag = self.text.find("<", self.pos + 1)
        end = self.length if next_tag == -1 else next_tag
        chunk = self.text[self.pos : end]
        if chunk.strip():
            stack[-1].append(unescape(chunk))
        self.pos = end

    def _handle_end_tag(self, stack: list) -> None:
        end = self.text.find(">", self.pos)
        if end == -1:
            self.pos = self.length
            return
        tag = self.text[self.pos + 2 : end].strip().split()[0].lower() if self.text[self.pos + 2 : end].strip() else ""
        self.pos = end + 1
        for i in range(len(stack) - 1, 0, -1):
            if stack[i].tag == tag:
                del stack[i:]
                return
        # no matching open element: drop the stray end tag

    def _handle_start_tag(self, stack: list) -> None:
        end = self._find_tag_end(self.pos)
        if end == -1:
            # truncated mid-tag: swallow the rest
            self.pos = self.length
            return
        raw = self.text[self.pos + 1 : end]
        self.pos = end + 1
        self_closing = raw.rstrip().endswith("/")
        if self_closing:
            raw = raw.rstrip()[:-1]
        tag, attrs = self._parse_tag_contents(raw)
        if not tag:
            return
        element = HtmlElement(tag, attrs)
        stack[-1].append(element)
        if tag in RAW_TEXT_ELEMENTS and not self_closing:
            element.append(self._raw_text_span(tag))
        elif tag not in VOID_ELEMENTS and not self_closing:
            stack.append(element)

    def _find_tag_end(self, start: int) -> int:
        """Find the closing ``>`` of a tag, respecting quoted attributes."""
        match = _TAG_END.match(self.text, start + 1)
        return -1 if match is None else match.end() - 1

    def _parse_tag_contents(self, raw: str) -> tuple:
        i = _TAG_NAME.match(raw).end()
        tag = raw[:i].lower()
        attrs: dict = {}
        n = len(raw)
        while i < n:
            match = _ATTRIBUTE.match(raw, i)
            name = match[1]
            if not name:
                break
            last = match.lastindex
            attrs[name.lower()] = unescape(match[last]) if last > 1 else None
            i = match.end()
        return tag, attrs

    def _raw_text_span(self, tag: str) -> str:
        """Script/style bodies: raw text until the matching end tag."""
        if self._lower is None:
            self._lower = self.text.lower()
        idx = self._lower.find(f"</{tag}", self.pos)
        if idx == -1:
            chunk = self.text[self.pos :]
            self.pos = self.length
            return chunk
        chunk = self.text[self.pos : idx]
        end = self.text.find(">", idx)
        self.pos = self.length if end == -1 else end + 1
        return chunk


class ScriptScanner(HtmlParser):
    """Single-pass, zero-copy script extractor for the zgrab hot path.

    Runs the exact tokenizer state machine of :class:`HtmlParser` —
    comment/declaration skipping, quote-aware tag-end search, raw-text
    consumption — but never builds a DOM: the only allocations are the
    ``(src, inline_text)`` pairs themselves. Because mismatched end tags
    never pop the synthetic root and every tokenized start tag lands in
    the tree, the parser emits exactly one script per ``<script>`` start
    tag in encounter order — which is what this scanner emits directly.
    Every token it never reads (text, comments, declarations, end tags,
    start tags that cannot be ``script``/``style``) is passed by one
    ``_SKIP`` match; the per-token step runs only at what is left.
    ``scan_scripts(html) == extract_scripts(html)`` for all inputs (the
    differential suite fuzzes this).
    """

    def scan(self) -> list:
        scripts: list = []
        text, length, skip = self.text, self.length, _SKIP.match
        while True:
            # one C-level match passes every token this loop would skip,
            # comments included; what is left starts with "<"
            self.pos = skip(text, self.pos).end()
            if self.pos >= length:
                return scripts
            if text.startswith(("<!", "<?", "</"), self.pos):
                self._skip_declaration()
            elif self._looks_like_tag():
                self._scan_start_tag(scripts)
            else:
                next_tag = text.find("<", self.pos + 1)
                self.pos = length if next_tag == -1 else next_tag

    def _scan_start_tag(self, scripts: list) -> None:
        end = self._find_tag_end(self.pos)
        if end == -1:
            # truncated mid-tag: swallow the rest
            self.pos = self.length
            return
        raw = self.text[self.pos + 1 : end]
        self.pos = end + 1
        self_closing = raw.rstrip().endswith("/")
        if self_closing:
            raw = raw.rstrip()[:-1]
        tag, attrs = self._parse_tag_contents(raw)
        if not tag:
            return
        if tag in RAW_TEXT_ELEMENTS and not self_closing:
            inline = self._raw_text_span(tag)
            if tag == "script":
                scripts.append((attrs.get("src"), inline))
        elif tag == "script":
            scripts.append((attrs.get("src"), ""))


def parse_html(text: str) -> HtmlDocument:
    """Parse ``text`` into an :class:`HtmlDocument` (never raises)."""
    return HtmlParser(text).parse()


def extract_scripts(html: str) -> list:
    """Convenience: ``(src, inline_text)`` for every script tag in ``html``."""
    return parse_html(html).scripts()


def scan_scripts(html: str) -> list:
    """``extract_scripts`` without the DOM: one traversal, no tree."""
    return ScriptScanner(html).scan()
