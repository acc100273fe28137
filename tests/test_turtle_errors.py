"""The Turtle reader's error contract: class, line, column and message per raise site.

An error names the first character of the text it reports as found, and
"end of input" one column past the last character; an error that reports
nothing found names the place where the expected text should start. The
pins of IRI character errors, escape errors and a blank node where an IRI
belongs were re-recorded when the reader was made to follow this rule, and
those of an unclosed IRI and of a string that a line end interrupts when it
lost its last two exceptions; every other pin has held since the reader's
lexer was rewritten.
Lines and columns are 1-based and count code points; a leading byte order
mark is skipped; only '\n' starts a new line.
"""

from __future__ import annotations

import ast
import inspect
import warnings

import pytest

from rdfpg.errors import BlankNodeUnsupported, TurtleSyntaxError, UnknownPrefix
from rdfpg.turtle import parse_turtle, parse_turtle_raw

S = "<http://ex.org/s>"
P = "<http://ex.org/p>"
O = "<http://ex.org/o>"

ERRORS = [
    pytest.param(
        False, f"{S} {P} <http://ex.org/o",
        TurtleSyntaxError, 1, 53,
        "line 1, column 53: expected '>' closing the IRI, found end of input",
        id='iri-unterminated',
    ),
    pytest.param(
        False, f"{S} {P} <http://ex.org/a b> .",
        TurtleSyntaxError, 1, 53,
        "line 1, column 53: expected an IRI character, found ' '",
        id='iri-space',
    ),
    pytest.param(
        False, f"{S} {P} <http://ex.org/a{{b}}> .",
        TurtleSyntaxError, 1, 53,
        "line 1, column 53: expected an IRI character, found '{'",
        id='iri-brace',
    ),
    pytest.param(
        False, f"{S} {P} <http://ex.org/a\nb> .",
        TurtleSyntaxError, 1, 53,
        "line 1, column 53: expected an IRI character, found '\\n'",
        id='iri-newline',
    ),
    pytest.param(
        False, f"<> {P} {O} .",
        TurtleSyntaxError, 1, 2,
        'line 1, column 2: expected a non-empty IRI',
        id='iri-empty',
    ),
    pytest.param(
        False, f'{S} {P} "a\\qb" .',
        TurtleSyntaxError, 1, 40,
        'line 1, column 40: expected a valid escape (tbnrf"\\ or u/U), found \'q\'',
        id='echar-bad',
    ),
    pytest.param(
        False, f'{S} {P} "abc\\',
        TurtleSyntaxError, 1, 42,
        'line 1, column 42: expected an escape character, found end of input',
        id='echar-at-eof',
    ),
    pytest.param(
        False, f'{S} {P} "\\u41" .',
        TurtleSyntaxError, 1, 40,
        'line 1, column 40: expected 4 hex digits, found \'41" \'',
        id='uchar-short',
    ),
    pytest.param(
        False, f'{S} {P} "\\u4',
        TurtleSyntaxError, 1, 41,
        'line 1, column 41: expected 4 hex digits, found end of input',
        id='uchar-short-at-eof',
    ),
    pytest.param(
        False, f'{S} {P} "x\\uDBFFy" .',
        TurtleSyntaxError, 1, 39,
        'line 1, column 39: expected an escape outside U+D800-U+DFFF, found \\uDBFF',
        id='uchar-surrogate',
    ),
    pytest.param(
        False, f'{S} {P} "\\U00110000" .',
        TurtleSyntaxError, 1, 40,
        "line 1, column 40: expected 8 hex digits, found '00110000'",
        id='uchar-too-large',
    ),
    pytest.param(
        False, f'{S} {P} "one\ntwo" .',
        TurtleSyntaxError, 1, 41,
        'line 1, column 41: expected \'"\' closing the string, found \'\\n\'',
        id='string-newline',
    ),
    pytest.param(
        False, f'{S} {P} "oops .',
        TurtleSyntaxError, 1, 44,
        'line 1, column 44: expected \'"\' closing the string, found end of input',
        id='string-unterminated',
    ),
    pytest.param(
        False, f"@prefix ex: <http://ex.org/> .\nex:s ex:p foo:o .",
        UnknownPrefix, 2, 11,
        "line 2, column 11: unknown prefix 'foo:'",
        id='prefix-unknown',
    ),
    pytest.param(
        False, f"{S} {P} :o .",
        UnknownPrefix, 1, 37,
        "line 1, column 37: unknown prefix ':'",
        id='prefix-empty-unknown',
    ),
    pytest.param(
        False, f"{S} {P} _:b .",
        BlankNodeUnsupported, 1, 37,
        'line 1, column 37: blank nodes are not supported; re-parse in raw mode and skolemize to convert them to IRIs',
        id='blank-label-strict',
    ),
    pytest.param(
        False, f"_:b {P} {O} .",
        BlankNodeUnsupported, 1, 1,
        'line 1, column 1: blank nodes are not supported; re-parse in raw mode and skolemize to convert them to IRIs',
        id='blank-label-subject-strict',
    ),
    pytest.param(
        False, f"{S} {P} [] .",
        BlankNodeUnsupported, 1, 37,
        'line 1, column 37: blank nodes are not supported; re-parse in raw mode and skolemize to convert them to IRIs',
        id='blank-anon-strict',
    ),
    pytest.param(
        True, f"{S} {P} [ {P} {O} ] .",
        TurtleSyntaxError, 1, 39,
        "line 1, column 39: expected ']' (blank node property lists are not supported), found '<'",
        id='blank-anon-raw-with-content',
    ),
    pytest.param(
        True, f"{S} _:p {O} .",
        TurtleSyntaxError, 1, 19,
        'line 1, column 19: expected a predicate IRI, found blank node',
        id='blank-predicate-raw',
    ),
    pytest.param(
        False, f"{S} _:p {O} .",
        TurtleSyntaxError, 1, 19,
        'line 1, column 19: expected a predicate IRI, found blank node',
        id='blank-predicate-strict',
    ),
    pytest.param(
        False, f'{S} {P} "x"^^_:d .',
        TurtleSyntaxError, 1, 42,
        'line 1, column 42: expected a datatype IRI, found blank node',
        id='blank-datatype-strict',
    ),
    pytest.param(
        True, f'{S} {P} "x"^^_:d .',
        TurtleSyntaxError, 1, 42,
        'line 1, column 42: expected a datatype IRI, found blank node',
        id='blank-datatype-raw',
    ),
    pytest.param(
        False, f"{S} {P} {O}",
        TurtleSyntaxError, 1, 54,
        "line 1, column 54: expected '.' ending the statement, found end of input",
        id='dot-missing-eof',
    ),
    pytest.param(
        False, f"{S} {P} {O} {O} .",
        TurtleSyntaxError, 1, 55,
        "line 1, column 55: expected '.' ending the statement, found '<'",
        id='dot-missing-token',
    ),
    pytest.param(
        False, f'{S} {P} "x"^<http://ex.org/dt> .',
        TurtleSyntaxError, 1, 41,
        "line 1, column 41: expected '^^' introducing a datatype, found '<'",
        id='caret-lone',
    ),
    pytest.param(
        False, "@prefx ex: <http://ex.org/> .",
        TurtleSyntaxError, 1, 6,
        "line 1, column 6: expected '@prefix', found 'x'",
        id='directive-misspelt',
    ),
    pytest.param(
        False, "@prefix ex <http://ex.org/> .",
        TurtleSyntaxError, 1, 11,
        "line 1, column 11: expected ':' after the prefix name, found ' '",
        id='directive-colon-missing',
    ),
    pytest.param(
        False, "@prefix ex: http://ex.org/ .",
        TurtleSyntaxError, 1, 13,
        "line 1, column 13: expected '<' opening the namespace IRI, found 'h'",
        id='directive-iri-missing',
    ),
    pytest.param(
        False, "@prefix ex: <http://ex.org/>\nex:s ex:p ex:o .",
        TurtleSyntaxError, 2, 1,
        "line 2, column 1: expected '.' ending the directive, found 'e'",
        id='directive-dot-missing',
    ),
    pytest.param(
        False, f"foo {P} {O} .",
        TurtleSyntaxError, 1, 1,
        "line 1, column 1: expected ':' to complete the prefixed name, found 'foo'",
        id='name-without-colon',
    ),
    pytest.param(
        False, f"a {P} {O} .",
        TurtleSyntaxError, 1, 1,
        "line 1, column 1: expected ':' to complete the prefixed name, found 'a'",
        id='keyword-as-subject',
    ),
    pytest.param(
        False, f"{S} {P}\n  %% .",
        TurtleSyntaxError, 2, 3,
        "line 2, column 3: expected an IRI, prefixed name or keyword, found '%'",
        id='token-unexpected',
    ),
    pytest.param(
        False, f"{S} {P} ",
        TurtleSyntaxError, 1, 37,
        'line 1, column 37: expected an object, found end of input',
        id='object-missing-eof',
    ),
    pytest.param(
        False, f"{S} {P} {O} ;",
        TurtleSyntaxError, 1, 56,
        'line 1, column 56: expected an IRI, prefixed name or keyword, found end of input',
        id='verb-missing-after-semicolon',
    ),
    pytest.param(
        False, f"{S} [] {O} .",
        TurtleSyntaxError, 1, 19,
        "line 1, column 19: expected an IRI, prefixed name or keyword, found '['",
        id='verb-bracket',
    ),
    pytest.param(
        False, f"\ufeff{S} {P} \"a\\qb\" .",
        TurtleSyntaxError, 1, 40,
        'line 1, column 40: expected a valid escape (tbnrf"\\ or u/U), found \'q\'',
        id='bom-then-error',
    ),
    pytest.param(
        False, f"\ufeff{S} {P} {O} .\n{S} {P} <> .",
        TurtleSyntaxError, 2, 38,
        'line 2, column 38: expected a non-empty IRI',
        id='bom-second-line',
    ),
    pytest.param(
        False, f"{S} {P} {O} .\r\n{S} {P} {O} .\r\n{S} {P} \"a\\qb\" .\r\n",
        TurtleSyntaxError, 3, 40,
        'line 3, column 40: expected a valid escape (tbnrf"\\ or u/U), found \'q\'',
        id='crlf-lines',
    ),
    pytest.param(
        False, f"{S} {P} \"one\r\ntwo\" .",
        TurtleSyntaxError, 1, 42,
        'line 1, column 42: expected \'"\' closing the string, found \'\\n\'',
        id='crlf-newline-in-string',
    ),
    pytest.param(
        False, f"{S} {P} \"h\u00e9llo w\u00f6rld \U0001F600\", \"\\q\" .",
        TurtleSyntaxError, 1, 56,
        'line 1, column 56: expected a valid escape (tbnrf"\\ or u/U), found \'q\'',
        id='non-ascii-before-error',
    ),
    pytest.param(
        False, f"{S} {P} \"\u00e9\u00e9\" .\n{S} {P} \"\u00fc\" %",
        TurtleSyntaxError, 2, 41,
        "line 2, column 41: expected '.' ending the statement, found '%'",
        id='non-ascii-second-line',
    ),
    pytest.param(
        False, f"{S} {P} <http://ex.org/a\u2003b> .",
        TurtleSyntaxError, 1, 53,
        "line 1, column 53: expected an IRI character, found '\\u2003'",
        id='iri-unicode-space',
    ),
    pytest.param(
        False, f"{S}\u3000{P}\x1c{O}\u00a0.\u2028%",
        TurtleSyntaxError, 1, 57,
        "line 1, column 57: expected an IRI, prefixed name or keyword, found '%'",
        id='unicode-space-separators',
    ),
    pytest.param(
        False, f"# a comment with <> and \"\n{S} {P} # trailing\n  ^ .",
        TurtleSyntaxError, 3, 3,
        "line 3, column 3: expected an IRI, prefixed name or keyword, found '^'",
        id='comment-then-error',
    ),
    # A term in a step that matched, refused at the token's own position.
    pytest.param(
        False, f"{S} foo:p {O} .",
        UnknownPrefix, 1, 19,
        "line 1, column 19: unknown prefix 'foo:'",
        id='prefix-unknown-verb',
    ),
    pytest.param(
        False, f'{S} {P} "x"^^foo:d .',
        UnknownPrefix, 1, 42,
        "line 1, column 42: unknown prefix 'foo:'",
        id='prefix-unknown-datatype',
    ),
    pytest.param(
        False, f"{S} {P} {O}, foo:o .",
        UnknownPrefix, 1, 56,
        "line 1, column 56: unknown prefix 'foo:'",
        id='prefix-unknown-object-after-comma',
    ),
    pytest.param(
        False, f"{S} {P} {O} ;\n  {P} foo:o .",
        UnknownPrefix, 2, 21,
        "line 2, column 21: unknown prefix 'foo:'",
        id='prefix-unknown-object-after-semicolon',
    ),
    pytest.param(
        False, f"{S} {P} {O} ;; foo:p {O} .",
        UnknownPrefix, 1, 58,
        "line 1, column 58: unknown prefix 'foo:'",
        id='prefix-unknown-verb-after-semicolons',
    ),
    pytest.param(
        False, f"[] {P} {O} .",
        BlankNodeUnsupported, 1, 1,
        'line 1, column 1: blank nodes are not supported; re-parse in raw mode and skolemize to convert them to IRIs',
        id='blank-anon-subject-strict',
    ),
    pytest.param(
        False, f"{S} {P} {O} .\n[ ] {P} {O} .",
        BlankNodeUnsupported, 2, 1,
        'line 2, column 1: blank nodes are not supported; re-parse in raw mode and skolemize to convert them to IRIs',
        id='blank-anon-spaced-subject-strict',
    ),
    # W3C Turtle's IRIREF admits no U+0000-U+0020.
    pytest.param(
        False, f"{S} {P} <http://e.x/a\x00b> .",
        TurtleSyntaxError, 1, 50,
        "line 1, column 50: expected an IRI character, found '\\x00'",
        id='iri-nul',
    ),
    pytest.param(
        False, f"{S} {P} <http://e.x/a\x01b> .",
        TurtleSyntaxError, 1, 50,
        "line 1, column 50: expected an IRI character, found '\\x01'",
        id='iri-control',
    ),
]


@pytest.mark.parametrize("raw, text, error, line, column, message", ERRORS)
def test_error_class_position_and_message(raw, text, error, line, column, message):
    with pytest.raises(error) as caught:
        (parse_turtle_raw if raw else parse_turtle)(text)
    assert type(caught.value) is error
    assert (caught.value.line, caught.value.column) == (line, column)
    assert str(caught.value) == message


def _found_char(message: str) -> str | None:
    """The one character an error message names as found, "" for the end of
    the input, or None where it names neither."""
    _, sep, found = message.rpartition(", found ")
    if sep and found == "end of input":
        return ""
    if sep and found.startswith("'"):
        char = ast.literal_eval(found)
        if len(char) == 1:
            return char
    return None


@pytest.mark.parametrize(
    "raw, text, error, line, column, message",
    [p for p in ERRORS if _found_char(p.values[-1]) is not None],
)
def test_a_found_character_is_at_the_pinned_position(raw, text, error, line, column, message):
    text = text.removeprefix("\ufeff")
    at = sum(len(before) + 1 for before in text.split("\n")[: line - 1]) + column - 1
    char = _found_char(message)
    assert text[at : at + 1] == char
    if not char:
        assert at == len(text)


REDEFINITION = (
    "@prefix p: <http://one.example/> .\n"
    "@prefix p: <http://two.example/> .\n"
)


@pytest.mark.parametrize("parse", [parse_turtle, parse_turtle_raw])
def test_prefix_redefinition_warning_points_at_the_caller(parse):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        parse(REDEFINITION)
    (warning,) = caught
    assert warning.category is UserWarning
    assert str(warning.message) == (
        "prefix 'p:' redefined from <http://one.example/> to <http://two.example/>"
    )
    assert (warning.filename, warning.lineno) == (__file__, line)


def test_unicode_whitespace_separates_tokens():
    text = f"{S}\u3000{P}\x1c{O} . # comment \n"
    assert len(parse_turtle(text)) == 1
