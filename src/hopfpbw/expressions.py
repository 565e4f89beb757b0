"""Parsing and rendering of polynomial and tensor expressions.

Grammar (whitespace insensitive)::

    expr     := [sign] term (sign term)*
    term     := factor ('*' factor)*
    factor   := rational | NAME ['^' posint] | '(' expr ')'
    rational := int ['/' posint]

Tensor mode adds the infix ``#`` with lowest precedence, splitting each
summand into a left and a right polynomial term.  Rendering is canonical
(graded-lex descending, powers collapsed) and round-trips through the parser.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial, TensorElement


class ExpressionError(ValueError):
    def __init__(self, message, line=1, column=0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_SYMBOLS = set("+-*/^#()")
# A newline, a run of other blanks, a run of ASCII digits (``\d`` would take
# '٣', which ``int`` reads as 3), a run of word characters, or one character.
_TOKEN = re.compile(r"\n|[^\S\n]+|[0-9]+|\w+|.", re.DOTALL)
# Each level of parentheses takes three frames of the recursive descent, so
# this cap keeps a nested expression well inside Python's recursion limit.
_MAX_NESTING = 100
# A product is multiplied out as it is read, before any degree check, so
# (x+y)*...*(x+y) doubles its terms with each factor: on CPython 3.11 on a
# shared x86-64 VM, 16 factors (2^16 terms) took 0.17 s and 43 MB, 20 factors
# 14.7 s and 899 MB.  A product, or a tensor summand, whose two sides would
# give more terms than this is refused.
_MAX_PRODUCT_TERMS = 2 ** 16


def tokenize(src: str):
    """Return (kind, value, line, column) tokens with kind in name/int/symbol/end."""
    tokens = []
    line, line_start = 1, 0   # columns count code points from 1 on each line
    for m in _TOKEN.finditer(src):
        text, col = m.group(), m.start() - line_start + 1
        if text == "\n":
            line, line_start = line + 1, m.end()
        elif "0" <= text[0] <= "9":
            try:
                value = int(text)
            except ValueError:   # above the interpreter's limit on digits in int()
                raise ExpressionError(f"integer literal of {len(text)} digits is too long",
                                      line, col) from None
            tokens.append(("int", value, line, col))
        elif text[0].isalpha() or text[0] == "_":
            tokens.append(("name", text, line, col))
        elif text in _SYMBOLS:
            tokens.append(("symbol", text, line, col))
        elif not text.isspace():
            raise ExpressionError(f"unexpected character {text[0]!r}", line, col)
    tokens.append(("end", None, line, len(src) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, src, alphabet, field, tensor_mode, bound=None):
        self.tokens = tokenize(src)
        self.pos = 0
        self.depth = 0   # open parentheses around the current factor
        self.alphabet = alphabet
        self.field = field
        self.tensor_mode = tensor_mode
        self.bound = bound

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ExpressionError(message, tok[2], tok[3])

    def accept_symbol(self, sym):
        kind, value, _, _ = self.peek()
        if kind == "symbol" and value == sym:
            self.next()
            return True
        return False

    def expect_symbol(self, sym):
        if not self.accept_symbol(sym):
            self.error(f"expected {sym!r}")

    def check_product(self, f, g, tok):
        m, n = len(f.coeffs), len(g.coeffs)
        if m * n > _MAX_PRODUCT_TERMS:
            self.error(f"product of {m} and {n} terms is above the limit of "
                       f"{_MAX_PRODUCT_TERMS} terms", tok)

    # -- grammar -------------------------------------------------------------

    def parse_rational(self, first):
        num = first[1]
        if self.accept_symbol("/"):
            kind, value, _, _ = self.peek()
            if kind != "int":
                self.error("malformed rational: expected an integer denominator")
            den = self.next()[1]
            if den == 0:
                self.error("malformed rational: zero denominator", first)
            return Fraction(num, den)
        return Fraction(num)

    def parse_factor(self):
        kind, value, line, col = self.peek()
        if kind == "int":
            q = self.parse_rational(self.next())
            try:
                c = self.field.of_fraction(q)
            except ZeroDivisionError as exc:
                raise ExpressionError(str(exc), line, col) from None
            return Polynomial(self.alphabet, self.field, {(): c})
        if kind == "name":
            self.next()
            try:
                letter = self.alphabet.letter(value)
            except KeyError:
                self.error(f"unknown generator {value!r}", (kind, value, line, col))
            power = 1
            if self.accept_symbol("^"):
                pk, pv = self.peek()[:2]
                if pk != "int" or pv < 1:
                    self.error("exponent must be a positive integer")
                degree = pv * self.alphabet.degrees[letter]
                if self.bound is not None and degree > self.bound:
                    self.error(f"{value}^{pv} has degree {degree} above the bound {self.bound}")
                power = self.next()[1]
            return Polynomial.from_word(self.alphabet, self.field, (letter,) * power)
        if kind == "symbol" and value == "(":
            if self.depth == _MAX_NESTING:
                self.error(f"parentheses nested more than {_MAX_NESTING} deep")
            self.next()
            self.depth += 1
            inner = self.parse_sum(self.parse_term)
            self.depth -= 1
            self.expect_symbol(")")
            return inner
        self.error("expected a generator, a rational or '('")

    def parse_term(self):
        f = self.parse_factor()
        while True:
            tok = self.peek()
            if not self.accept_symbol("*"):
                return f
            g = self.parse_factor()
            self.check_product(f, g, tok)
            f = f * g

    def parse_sum(self, summand):
        """``[sign] summand (sign summand)*``, each summand read by ``summand``."""
        negate = self.accept_symbol("-")
        if not negate:
            self.accept_symbol("+")
        out = summand()
        if negate:
            out = -out
        while True:
            if self.accept_symbol("+"):
                out = out + summand()
            elif self.accept_symbol("-"):
                out = out - summand()
            else:
                return out

    def parse_tensor_summand(self):
        left = self.parse_term()
        tok = self.peek()
        if not self.accept_symbol("#"):
            self.error("expected '#' in tensor summand", tok)
        right = self.parse_term()
        self.check_product(left, right, tok)
        return TensorElement.of(left, right)

    def run(self):
        out = self.parse_sum(self.parse_tensor_summand if self.tensor_mode else self.parse_term)
        kind, value, line, col = self.peek()
        if kind != "end":
            if kind == "symbol" and value == "#":
                raise ExpressionError("'#' is only allowed in tensor expressions", line, col)
            raise ExpressionError(f"unexpected trailing input {value!r}", line, col)
        return out


def parse_expression(src: str, mode: str, alphabet, field, bound=None):
    """Parse ``src`` into a Polynomial (mode 'poly') or TensorElement ('tensor').

    With a ``bound``, a power whose degree exceeds it is refused before it is
    built.
    """
    if mode not in ("poly", "tensor"):
        raise ValueError(f"unknown mode {mode!r}")
    return _Parser(src, alphabet, field, mode == "tensor", bound).run()


def parse_polynomial(src: str, alphabet, field, bound=None) -> Polynomial:
    return parse_expression(src, "poly", alphabet, field, bound)


def parse_tensor(src: str, alphabet, field, bound=None) -> TensorElement:
    return parse_expression(src, "tensor", alphabet, field, bound)


# -- rendering ----------------------------------------------------------------


def render_word(alphabet, w) -> str:
    """Report form of a bare word: generator names joined by spaces."""
    return alphabet.render_word(w)


def _word_mul(alphabet, w) -> str:
    if not w:
        return "1"
    names, pieces = alphabet.names, []
    run, count = w[0], 0
    for x in w:   # one pass; each run of a letter becomes ``name`` or ``name^count``
        if x != run:
            pieces.append(names[run] if count == 1 else f"{names[run]}^{count}")
            run, count = x, 0
        count += 1
    pieces.append(names[run] if count == 1 else f"{names[run]}^{count}")
    return "*".join(pieces)


def _render(terms, field, monomial) -> str:
    """``c*m + ...`` over ``(key, c)`` terms, ``m = monomial(key)``: over Q a
    negative scalar gives a sign, a unit scalar is dropped before a nonempty
    monomial, an empty monomial prints the scalar alone and no term is 0."""
    signed, render, one = field.char == 0, field.render, field.one
    out = ""
    for key, c in terms:
        negative = signed and c < 0
        if negative:
            c = -c
        body = monomial(key)
        if not body:
            body = render(c)
        elif c != one:
            body = f"{render(c)}*{body}"
        out += f" - {body}" if negative else f" + {body}"
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else f"-{out[3:]}"


def render_polynomial(f: Polynomial) -> str:
    return _render(f.coeffs.items(), f.field, lambda w: _word_mul(f.alphabet, w) if w else "")


def render_tensor(t: TensorElement) -> str:
    return _render(t.coeffs.items(), t.field,
                   lambda ab: f"{_word_mul(t.alphabet, ab[0])}#{_word_mul(t.alphabet, ab[1])}")
