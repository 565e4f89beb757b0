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

from fractions import Fraction

from .poly import Polynomial, TensorElement


class ExpressionError(ValueError):
    def __init__(self, message, line=1, column=0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_SYMBOLS = set("+-*/^#()")
_DIGITS = set("0123456789")   # str.isdigit also holds for '²' and '٣'
# Each level of parentheses takes three frames of the recursive descent, so
# this cap keeps a nested expression well inside Python's recursion limit.
_MAX_NESTING = 100


def tokenize(src: str):
    """Yield (kind, value, line, column) with kind in name/int/symbol/end."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], line, start_col))
            col += j - i
            i = j
        elif ch in _DIGITS:
            j = i
            while j < len(src) and src[j] in _DIGITS:
                j += 1
            try:
                value = int(src[i:j])
            except ValueError:   # above the interpreter's limit on digits in int()
                raise ExpressionError(f"integer literal of {j - i} digits is too long",
                                      line, start_col) from None
            tokens.append(("int", value, line, start_col))
            col += j - i
            i = j
        elif ch in _SYMBOLS:
            tokens.append(("symbol", ch, line, start_col))
            col += 1
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(("end", None, line, col))
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
        while self.accept_symbol("*"):
            f = f * self.parse_factor()
        return f

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


def render_word(alphabet, w, sep: str = " ") -> str:
    """Report form of a bare word: generator names joined by spaces."""
    return alphabet.render_word(w, sep)


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


def _split_sign(field, c):
    if field.char == 0 and c < 0:
        return "-", -c
    return "+", c


def _join_terms(parts) -> str:
    if not parts:
        return "0"
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def render_polynomial(f: Polynomial) -> str:
    field = f.field
    parts = []
    for w, c in f.coeffs.items():
        sign, mag = _split_sign(field, c)
        wstr = _word_mul(f.alphabet, w)
        if not w:
            body = field.render(mag)
        elif mag == field.one:
            body = wstr
        else:
            body = f"{field.render(mag)}*{wstr}"
        parts.append((sign, body))
    return _join_terms(parts)


def render_tensor(t: TensorElement) -> str:
    field = t.field
    parts = []
    for (a, b), c in t.coeffs.items():
        sign, mag = _split_sign(field, c)
        left = _word_mul(t.alphabet, a)
        right = _word_mul(t.alphabet, b)
        if mag == field.one:
            body = f"{left}#{right}"
        else:
            body = f"{field.render(mag)}*{left}#{right}"
        parts.append((sign, body))
    return _join_terms(parts)
