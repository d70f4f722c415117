"""Reference versions of :mod:`repro.web` helpers.

- :func:`has_host` — the linear host scan
  :meth:`~repro.web.http.SyntheticWeb.has_host` ran before it kept a host
  set, checked by ``tests/test_web_host_index.py``;
- :func:`find_tag_end` and :func:`parse_tag_contents` — the
  character-at-a-time loops :class:`~repro.web.html.HtmlParser` ran before
  its tag scans became regexes, and :func:`extract_scripts`, the DOM
  parser on them, checked by ``tests/test_web_html.py`` and
  ``tests/test_fastpath_differential.py``;
- :func:`serialize` — :meth:`~repro.web.html.HtmlElement.serialize` as it
  recursed once per nesting level before it walked an explicit stack,
  checked by ``tests/test_web_html.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.web.html import RAW_TEXT_ELEMENTS, VOID_ELEMENTS, HtmlParser, escape, unescape


def has_host(web, host: str) -> bool:
    """Whether any registered http(s) URL of ``web`` lives on ``host``."""
    host = host.lower()
    prefix_variants = (f"http://{host}/", f"https://{host}/")
    return any(key.startswith(prefix_variants) for key in web.resources)


def find_tag_end(text: str, start: int) -> int:
    """Index of the ``>`` closing the tag opened at ``start``, skipping
    quoted attribute values; -1 if there is none."""
    length = len(text)
    i = start + 1
    quote: Optional[str] = None
    while i < length:
        char = text[i]
        if quote is not None:
            if char == quote:
                quote = None
        elif char in "\"'":
            quote = char
        elif char == ">":
            return i
        i += 1
    return -1


def parse_tag_contents(raw: str) -> tuple:
    """``(tag, attrs)`` of the text between ``<`` and ``>``."""
    i = 0
    n = len(raw)
    while i < n and not raw[i].isspace():
        i += 1
    tag = raw[:i].lower()
    attrs: dict = {}
    while i < n:
        while i < n and raw[i].isspace():
            i += 1
        if i >= n:
            break
        name_start = i
        while i < n and raw[i] not in "=\t\n\r ":
            i += 1
        name = raw[name_start:i].lower()
        if not name:
            break
        while i < n and raw[i].isspace():
            i += 1
        if i < n and raw[i] == "=":
            i += 1
            while i < n and raw[i].isspace():
                i += 1
            if i < n and raw[i] in "\"'":
                quote = raw[i]
                i += 1
                value_start = i
                while i < n and raw[i] != quote:
                    i += 1
                attrs[name] = unescape(raw[value_start:i])
                i += 1
            else:
                value_start = i
                while i < n and not raw[i].isspace():
                    i += 1
                attrs[name] = unescape(raw[value_start:i])
        else:
            attrs[name] = None
    return tag, attrs


class ReferenceParser(HtmlParser):
    """:class:`~repro.web.html.HtmlParser` on the character loops."""

    def _find_tag_end(self, start: int) -> int:
        return find_tag_end(self.text, start)

    def _parse_tag_contents(self, raw: str) -> tuple:
        return parse_tag_contents(raw)


def extract_scripts(html: str) -> list:
    """:func:`~repro.web.html.extract_scripts` on the character loops."""
    return ReferenceParser(html).parse().scripts()


def serialize(element) -> str:
    """An :class:`~repro.web.html.HtmlElement` subtree as HTML, one
    recursive call per nesting level."""
    attrs = "".join(
        f' {name}="{escape(value)}"' if value is not None else f" {name}"
        for name, value in element.attrs.items()
    )
    if element.tag in VOID_ELEMENTS:
        return f"<{element.tag}{attrs}>"
    inner = []
    for child in element.children:
        if isinstance(child, str):
            # script/style bodies must not be entity-escaped
            inner.append(child if element.tag in RAW_TEXT_ELEMENTS else escape(child))
        else:
            inner.append(serialize(child))
    return f"<{element.tag}{attrs}>{''.join(inner)}</{element.tag}>"
