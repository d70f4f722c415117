"""Tests for the HTML parser/serializer."""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.web.html import HtmlElement, HtmlParser, extract_scripts, parse_html, scan_scripts
from repro.web.scripts import ScriptTag
from tests.oracles import web as oracle


class TestBasicParsing:
    def test_simple_document(self):
        doc = parse_html("<html><head><title>Hi</title></head><body><p>text</p></body></html>")
        assert doc.title() == "Hi"
        assert "text" in doc.body_text()

    def test_attributes(self):
        doc = parse_html('<a href="https://x.com" class="big">link</a>')
        anchor = doc.find_all("a")[0]
        assert anchor.get("href") == "https://x.com"
        assert anchor.get("class") == "big"

    def test_unquoted_and_bare_attributes(self):
        doc = parse_html("<input type=text disabled>")
        el = doc.find_all("input")[0]
        assert el.get("type") == "text"
        assert el.get("disabled") is None
        assert "disabled" in el.attrs

    def test_case_insensitive_tags(self):
        doc = parse_html("<SCRIPT src='x.js'></SCRIPT>")
        assert doc.scripts() == [("x.js", "")]

    def test_void_elements_do_not_nest(self):
        doc = parse_html("<p><br><img src='x.png'>tail</p>")
        paragraph = doc.find_all("p")[0]
        assert "tail" in paragraph.text()

    def test_comments_skipped(self):
        doc = parse_html("<p>a<!-- hidden <script src='no.js'> -->b</p>")
        assert doc.scripts() == []
        assert "hidden" not in doc.root.text()

    def test_doctype_skipped(self):
        doc = parse_html("<!DOCTYPE html><html><body>x</body></html>")
        assert "x" in doc.body_text()

    def test_entities_unescaped(self):
        doc = parse_html("<p>a &amp; b &lt;tag&gt;</p>")
        assert doc.root.text() == "a & b <tag>"


class TestScriptExtraction:
    def test_src_and_inline(self):
        html = (
            '<script src="https://coinhive.com/lib/coinhive.min.js"></script>'
            "<script>var miner = new CoinHive.Anonymous('KEY');</script>"
        )
        scripts = extract_scripts(html)
        assert scripts[0] == ("https://coinhive.com/lib/coinhive.min.js", "")
        assert scripts[1][0] is None
        assert "CoinHive.Anonymous" in scripts[1][1]

    def test_script_body_not_parsed_as_html(self):
        html = "<script>if (a < b) { document.write('<p>x</p>'); }</script>"
        scripts = extract_scripts(html)
        assert len(scripts) == 1
        assert "document.write" in scripts[0][1]

    def test_script_inside_body(self):
        html = "<html><body><div><script src='deep.js'></script></div></body></html>"
        assert extract_scripts(html) == [("deep.js", "")]

    def test_unclosed_script_at_truncation(self):
        """zgrab cuts pages at 256 kB, often mid-script."""
        html = "<script src='x.js'></script><script>var a = 'trunca"
        scripts = extract_scripts(html)
        assert scripts[0] == ("x.js", "")
        assert "trunca" in scripts[1][1]


class TestMalformedInput:
    def test_unclosed_tags_close_at_eof(self):
        doc = parse_html("<div><p>deep")
        assert "deep" in doc.root.text()

    def test_stray_end_tags_dropped(self):
        doc = parse_html("</div><p>ok</p>")
        assert doc.find_all("p")

    def test_mismatched_nesting(self):
        doc = parse_html("<b><i>x</b></i>")
        assert "x" in doc.root.text()

    def test_truncated_mid_tag(self):
        doc = parse_html("<p>before</p><a href='x")
        assert "before" in doc.root.text()

    def test_angle_in_text(self):
        doc = parse_html("<p>1 < 2 and 3 > 2</p>")
        assert doc.find_all("p")

    def test_quoted_gt_inside_attribute(self):
        doc = parse_html('<img alt="a > b" src="x.png">next')
        assert doc.find_all("img")[0].get("alt") == "a > b"

    @given(st.text(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_never_raises(self, text):
        parse_html(text)


class TestSerialization:
    def test_roundtrip_preserves_structure(self):
        html = '<html><head><script src="x.js"></script></head><body><p>hi</p></body></html>'
        doc = parse_html(html)
        again = parse_html(doc.serialize())
        assert again.scripts() == doc.scripts()
        assert again.body_text() == doc.body_text()

    def test_mutated_dom_serializes_new_nodes(self):
        doc = parse_html("<html><body></body></html>")
        doc.find_all("body")[0].append(
            HtmlElement("script", {"src": "https://coinhive.com/lib/coinhive.min.js"})
        )
        assert "coinhive.com" in doc.serialize()

    def test_script_text_not_escaped(self):
        doc = parse_html("<script>a && b < c</script>")
        assert "a && b < c" in doc.serialize()

    def test_text_escaped_outside_raw_elements(self):
        doc = parse_html("<p>a &lt; b</p>")
        assert "&lt;" in doc.serialize()

    @given(
        html=st.lists(
            st.one_of(
                st.sampled_from(
                    ("<a>", "</a>", "<p x=1 y>", "<br>", "<img src='&'>", "<script>",
                     "</script>", "<style>", "</style>", "<div>", "</div>", "&lt;", "<!--c-->")
                ),
                st.text(max_size=4),
            ),
            max_size=30,
        ).map("".join)
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_recursive_serializer(self, html):
        root = parse_html(html).root
        assert root.serialize() == oracle.serialize(root)
        for element in root.iter():
            assert element.serialize() == oracle.serialize(element)

    def test_a_2000_level_page_serializes(self):
        doc = parse_html('<a "x">' * 2000)
        html = doc.serialize()
        assert html.count("<a") == 2000
        assert parse_html(html).serialize() == html


# Characters that steer the tag scans: quotes, ``=``, ``>``, ``/``, the
# whitespace the attribute-name loop stops at and the whitespace it does
# not (``\x0b``, ``\x0c``, ``\x1c``, ``\xa0``, ``\u2028``), letters whose
# ``lower()`` differs in length or script, and a few plain letters.
_TAG_ALPHABET = "ab=\"'>/< \t\n\r\x0b\x0c\x1c\xa0\u2028İſK&;S"
_tag_text = st.one_of(
    st.text(alphabet=_TAG_ALPHABET, max_size=40),
    st.text(max_size=40),
)


_HTML_FRAGMENTS = st.sampled_from(
    ("<script", "<script>", "<style", "<style>", "<a", "</script>", "</style>", ">",
     "<!--", "-->", "<!x", "<?", "<²", "<é", "<SCRIPT", "<ſcript", "<script/", "<br/>", "src=")
)


class TestTagScansMatchTheCharacterLoops:
    """The regex tag scans against the loops in :mod:`tests.oracles.web`."""

    @example(text="<a href='x>y' b=\"c\">", start=0)
    @example(text="<a '\"", start=0)
    @example(text="", start=0)
    @given(text=_tag_text, start=st.integers(min_value=0, max_value=45))
    @settings(max_examples=300, deadline=None)
    def test_find_tag_end(self, text, start):
        start = min(start, len(text))
        assert HtmlParser(text)._find_tag_end(start) == oracle.find_tag_end(text, start)

    @example(raw="a b\x0bc=d e = 'f' g=\"h")
    @example(raw="script src=x.js/")
    @example(raw="a =b")
    @example(raw="a b==c")
    @example(raw="")
    @given(raw=_tag_text)
    @settings(max_examples=300, deadline=None)
    def test_parse_tag_contents(self, raw):
        assert HtmlParser("")._parse_tag_contents(raw) == oracle.parse_tag_contents(raw)

    @example(html="<style><script src=a></script>")
    @example(html="<STYLE x='>'><script>x</script></style><script/>")
    @example(html="<scripts><script src=b><stylex><script>")
    @example(html="<²<script src=c><é<script src=d>")
    @given(
        html=st.lists(
            st.one_of(
                _HTML_FRAGMENTS,
                st.text(alphabet=_TAG_ALPHABET, max_size=6),
                st.text(max_size=3),
            ),
            max_size=30,
        ).map("".join)
    )
    @settings(max_examples=300, deadline=None)
    def test_extract_and_scan_scripts(self, html):
        expected = oracle.extract_scripts(html)
        assert extract_scripts(html) == expected
        assert scan_scripts(html) == expected


class TestScriptTagHtml:
    @given(
        src=st.one_of(st.none(), st.text(max_size=20)),
        inline=st.text(max_size=20),
    )
    def test_equals_the_serialized_element(self, src, inline):
        tag = ScriptTag(src=src, inline=inline)
        assert tag.html() == tag.to_element().serialize()


#: 256 kB pages (zgrab's truncation size) of one repeated shape each: no
#: closing ``>``, unterminated quotes, comments and declarations, and a
#: ``<`` per character, where a scanner that steps per token in Python or
#: backtracks per character takes half a second or more.
_HOSTILE_SHAPES = ('<a "', "<a ", "<!--", "<!x", "<", "<script", '<a "x">', "<a '\"")
_PAGE = 262_144
_BUDGET_S = 0.25


def _hostile_pages():
    for shape in _HOSTILE_SHAPES:
        yield pytest.param(shape * (_PAGE // len(shape)), id=repr(shape))
    yield pytest.param("<a " + "=" * (_PAGE - 3), id="'<a ' + '='*n")


class TestHostilePages:
    @pytest.mark.parametrize("html", _hostile_pages())
    def test_scan_is_linear_and_matches_the_parser(self, html):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            scripts = scan_scripts(html)
            best = min(best, time.perf_counter() - start)
        assert scripts == extract_scripts(html)
        assert best < _BUDGET_S, f"scan took {best * 1e3:.0f} ms on {len(html)} chars"
