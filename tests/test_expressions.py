"""The tokenizer and the renderers against their character-by-character
references in ``helpers``: the same tokens or the same refusal on any string,
and the same text for any polynomial or tensor element."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfpbw import Alphabet, ExpressionError, Polynomial, PrimeField, QQ, TensorElement
from hopfpbw.expressions import render_polynomial, render_tensor, tokenize

from helpers import reference_render_polynomial, reference_render_tensor, reference_tokenize

# Names, ASCII digits, blanks, newlines and the eight symbols; then characters
# that look like digits or letters but are neither to the grammar (a
# superscript two, an Arabic-Indic three, a fraction), letters outside ASCII,
# a no-break space, NUL, a combining accent and a separator that is blank to
# ``str.isspace``.
_CHARS = [*"xy_zX09", " ", "\t", "\r", "\n", *"+-*/^#()",
          "²", "٣", "é", "½", "ǅ", "\xa0", "\x00", "\u0301", "\x1c"]
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
# Digit runs at either side of the interpreter's limit on digits in int().
_LONG_DIGITS = st.integers(_INT_DIGITS - 1, _INT_DIGITS + 2).map(lambda n: "9" * n)


def _outcome(tokenizer, src):
    try:
        return tokenizer(src)
    except ExpressionError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_CHARS), _LONG_DIGITS), max_size=30).map("".join))
def test_tokens_and_refusals_match_the_reference_scanner(src):
    assert _outcome(tokenize, src) == _outcome(reference_tokenize, src)


_ALPHABET = Alphabet([("x", 1), ("y", 2), ("z", 1)])
_WORDS = st.lists(st.integers(0, 2), max_size=4).map(tuple)   # the empty word included
_FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)], ids=repr)


def _scalars(field):
    """Fractions, integers and both units; over F_p only invertible
    denominators."""
    return st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                     st.fractions(-30, 30, max_denominator=9)).filter(
        lambda q: not field.char or q.denominator % field.char)


@_FIELDS
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_rendered_text_matches_the_reference_renderers(field, data):
    scalars = _scalars(field)
    coeffs = data.draw(st.dictionaries(_WORDS, scalars, max_size=6))
    f = Polynomial(_ALPHABET, field, {w: field.of_fraction(q) for w, q in coeffs.items()})
    assert render_polynomial(f) == reference_render_polynomial(f)
    coeffs = data.draw(st.dictionaries(st.tuples(_WORDS, _WORDS), scalars, max_size=6))
    t = TensorElement(_ALPHABET, field, {k: field.of_fraction(q) for k, q in coeffs.items()})
    assert render_tensor(t) == reference_render_tensor(t)
