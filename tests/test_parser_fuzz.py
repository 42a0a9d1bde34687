"""Robustness fuzzing for the SCALD parser and assertion grammar.

Malformed input must always fail with the domain error types (with line
context), never with an internal exception — the property a tool meant for
day-by-day designer use needs.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.assertions import AssertionSyntaxError, parse_signal_name
from repro.hdl.expander import ExpansionError, expand_source
from repro.hdl.parser import ScaldSyntaxError, parse, tokenize

# Characters that appear in real sources, plus noise.
_SOUP = st.text(
    alphabet='abcXYZ0129 .,;:()<>&"-=+*/\n\t_', min_size=0, max_size=200
)

_TOKENS = st.lists(
    st.sampled_from([
        "design", "period", "clock_unit", "macro", "endmacro", "prim", "use",
        "param", "wire", "case", "REG", "AND", '"SIG .S0-6"', '"M"', "x1",
        "50", "6.25", "ns", ";", ",", "(", ")", "<", ">", ":", "=", "&",
        "-", "/P", "/M", "SIZE",
    ]),
    min_size=0,
    max_size=40,
)


# Strings with escaped quotes, strings spanning lines, and unterminated
# strings (a lone quote, or an escape before a newline).
_STRINGS = st.lists(
    st.sampled_from([
        '"A .S0-6"', '"SAY \\"HI\\""', '"\\"', '"a\\\\"', '"TWO\nLINES"',
        '"\n\n"', '""', '"OPEN', '"ESC\\\nX"', '\\"', "-- note \"", "\n",
        "--", "- -", "x", "7.5", ";", "\t", "\r\n", "#", "\u00e9", "\u0663",
    ]),
    min_size=0,
    max_size=30,
)

# The regex tokenizer this parser used before the one-pass ``findall``
# one, kept here as the reference it must agree with.
_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[;,()<>:=&/\-+*])
    """,
    re.VERBOSE,
)


def _reference_tokenize(source, filename=""):
    tokens = []
    line = 1
    pos = 0
    while pos < len(source):
        m = _REFERENCE_RE.match(source, pos)
        if not m:
            raise ScaldSyntaxError(
                f"unexpected character {source[pos]!r}", line, filename
            )
        text = m.group(0)
        kind = m.lastgroup or ""
        if kind == "string":
            tokens.append(("string", text[1:-1].replace('\\"', '"'), line))
        elif kind in ("number", "ident", "sym"):
            tokens.append((kind, text, line))
        line += text.count("\n")
        pos = m.end()
    return tokens


def _tokens_or_error(tokenizer, source):
    try:
        return tokenizer(source, "f.scald")
    except ScaldSyntaxError as exc:
        return str(exc)


def _assert_same_tokens(source):
    assert _tokens_or_error(tokenize, source) == _tokens_or_error(
        _reference_tokenize, source
    )


class TestTokenizerDifferential:
    """``tokenize`` gives the reference's (kind, text, line) stream, or
    the same error message."""

    @given(_SOUP)
    @settings(max_examples=300, deadline=None)
    def test_soup(self, text):
        _assert_same_tokens(text)

    @given(_TOKENS)
    @settings(max_examples=200, deadline=None)
    def test_token_soup(self, tokens):
        _assert_same_tokens(" ".join(tokens))

    @given(_STRINGS)
    @settings(max_examples=300, deadline=None)
    def test_strings_escapes_and_newlines(self, pieces):
        _assert_same_tokens("".join(pieces))

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        _assert_same_tokens(text)

    def test_unterminated_string_reports_its_line(self):
        text = 'design X;\nwire "ADR 0.0:6.0;\n'
        assert _tokens_or_error(tokenize, text) == (
            "f.scald:2: unexpected character '\"'"
        )
        _assert_same_tokens(text)


class TestParserFuzz:
    @given(_SOUP)
    @settings(max_examples=200, deadline=None)
    def test_random_text_never_crashes(self, text):
        try:
            parse(text)
        except ScaldSyntaxError:
            pass  # the only acceptable failure

    @given(_TOKENS)
    @settings(max_examples=200, deadline=None)
    def test_token_soup_never_crashes(self, tokens):
        try:
            parse(" ".join(tokens))
        except ScaldSyntaxError:
            pass

    @given(_SOUP)
    @settings(max_examples=150, deadline=None)
    def test_expansion_never_crashes(self, text):
        source = f"design F; period 50 ns;\n{text}"
        try:
            expand_source(source)
        except (ScaldSyntaxError, ExpansionError, AssertionSyntaxError):
            pass
        except ValueError as exc:
            # Netlist-level structural rejections are also domain errors.
            assert type(exc).__module__.startswith("repro")


class TestAssertionFuzz:
    @given(st.text(min_size=0, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_signal_names_never_crash(self, name):
        try:
            parse_signal_name(name)
        except AssertionSyntaxError:
            pass

    @given(
        st.sampled_from(["P", "C", "S"]),
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=64),
        st.booleans(),
    )
    @settings(max_examples=150)
    def test_wellformed_assertions_always_parse(self, kind, qa, qb, low):
        a, b = qa / 4, qb / 4  # quarter-unit design times, e.g. 2.75
        suffix = " L" if low else ""
        name = f"SIG .{kind}{a:g}-{b:g}{suffix}"
        base, assertion = parse_signal_name(name)
        assert base == "SIG"
        assert assertion is not None
        assert assertion.low is low
