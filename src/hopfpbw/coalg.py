"""Comultiplications on the free algebra and their certificates.

A comultiplication is determined by its values on generators and extended as
an algebra map.  This module decides triangularity of the generator images,
stability of a truncated ideal, coassociativity and counit laws in the
quotient, primitivity-based Lie-polynomial tests, antipodes, and the
power-coproduct membership certificate for brackets of Lyndon words.

Subalgebra membership (all words built from brackets of Lyndon words below a
given word) is decided exactly through bracket coordinates in the free
algebra: the bracket monomials form a triangular basis, so a polynomial lies
in the subalgebra iff every support word of its coordinate vector has all its
Lyndon factors below the cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .poly import Polynomial, TensorElement, binomial, standard_bracket, standard_comultiplication
from .rewrite import TruncatedGB, tensor_bracket_coordinates
from .word import factors_below, is_lyndon, lyndon_decomposition
from .expressions import render_polynomial, render_tensor, render_word


@dataclass
class CheckReport:
    name: str
    ok: bool
    details: list[str] = dataclass_field(default_factory=list)

    def __bool__(self):
        return self.ok


class Comultiplication:
    """Algebra map into the tensor square, given by generator images."""

    def __init__(self, alphabet, field, images=None, fill_primitive=True):
        self.alphabet = alphabet
        self.field = field
        table = {}
        if images:
            for key, value in images.items():
                idx = alphabet.letter(key) if isinstance(key, str) else key
                if not isinstance(value, TensorElement):
                    raise ValueError(f"image of {alphabet.names[idx]} is not a tensor element")
                if value.alphabet != alphabet or value.field != field:
                    raise ValueError(f"image of {alphabet.names[idx]} has mismatched alphabet or scalar mode")
                table[idx] = value
        for idx in range(alphabet.size):
            if idx not in table:
                if not fill_primitive:
                    raise ValueError(f"missing comultiplication image for generator {alphabet.names[idx]!r}")
                table[idx] = _primitive_image(alphabet, field, idx)
        self.images = table
        self._word_cache = {(): TensorElement.one(alphabet, field)}

    @classmethod
    def standard(cls, alphabet, field):
        return cls(alphabet, field, images=None, fill_primitive=True)

    def image(self, letter: int) -> TensorElement:
        return self.images[letter]

    def is_standard(self) -> bool:
        return all(self.images[i] == _primitive_image(self.alphabet, self.field, i)
                   for i in range(self.alphabet.size))

    def of_word(self, w) -> TensorElement:
        w = tuple(w)
        cached = self._word_cache.get(w)
        if cached is None:
            cached = self.of_word(w[:-1]) * self.images[w[-1]]
            self._word_cache[w] = cached
        return cached

    def of_poly(self, f: Polynomial) -> TensorElement:
        return f.extend_linearly(self.of_word, TensorElement)


def _primitive_image(alphabet, field, idx) -> TensorElement:
    x = (idx,)
    return TensorElement(alphabet, field, {((), x): field.one, (x, ()): field.one})


def extend_comultiplication(images, f: Polynomial) -> TensorElement:
    """Apply the algebra-map extension of explicit generator images to ``f``."""
    if isinstance(images, Comultiplication):
        return images.of_poly(f)
    comul = Comultiplication(f.alphabet, f.field, images, fill_primitive=False)
    return comul.of_poly(f)


def free_gb(alphabet, field, bound: int) -> TruncatedGB:
    """The zero ideal: every word irreducible, normal form the identity."""
    return TruncatedGB(alphabet, field, max(bound, 1))


def check_triangular(comul: Comultiplication, graded: bool = True) -> CheckReport:
    """Decide (graded) triangularity of every generator image."""
    alphabet, field = comul.alphabet, comul.field
    details = []
    for x in range(alphabet.size):
        name = alphabet.names[x]
        dx = alphabet.degrees[x]
        rest = comul.image(x) - _primitive_image(alphabet, field, x)
        for n, part in rest.homogeneous_components().items():
            if n > dx:
                details.append(
                    f"{name}: term {render_tensor(part)} of degree {n} exceeds deg({name}) = {dx}")
                continue
            if n < dx:
                if graded:
                    details.append(
                        f"{name}: lower-degree tail {render_tensor(part)} not allowed for a graded comultiplication")
                continue
            coords = tensor_bracket_coordinates(part, free_gb(alphabet, field, dx))
            cut = (x,)
            for (w, w2), _c in coords.items():
                if not w or not w2:
                    details.append(
                        f"{name}: top-degree term with a scalar tensor leg "
                        f"({render_word(alphabet, w)} # {render_word(alphabet, w2)})")
                elif not (factors_below(w, cut) and factors_below(w2, cut)):
                    bad = w if not factors_below(w, cut) else w2
                    details.append(
                        f"{name}: word {render_word(alphabet, bad)} has a Lyndon factor not below {name}")
    kind = "graded triangular" if graded else "triangular"
    return CheckReport(name=f"triangular ({kind})", ok=not details, details=details)


def check_stability(comul: Comultiplication, gb: TruncatedGB) -> CheckReport:
    """Verify the ideal is a coideal: each basis element maps into
    ``k<X> (x) I + I (x) k<X>`` (leg-wise normal form of the image is zero)."""
    details = []
    for g in gb.elements:
        residue = gb.normal_form_tensor(comul.of_poly(g))
        if not residue.is_zero():
            details.append(
                f"Delta({render_polynomial(g)}) has residue {render_tensor(residue)}")
    return CheckReport(name="stability", ok=not details, details=details)


def _triple_reduce(gb: TruncatedGB, triples: dict) -> dict:
    """Leg-wise normal form of a word-level triple tensor, dropping zeros."""
    field = gb.field
    add, mul, zero = field.add, field.mul, field.zero
    out = {}
    for (a, b, c), coeff in triples.items():
        fa, fb, fc = gb.nf_word(a), gb.nf_word(b), gb.nf_word(c)
        for u, x in fa.coeffs.items():
            cx = mul(coeff, x)
            for v, y in fb.coeffs.items():
                cxy = mul(cx, y)
                for t, z in fc.coeffs.items():
                    key = (u, v, t)
                    val = add(out.get(key, zero), mul(cxy, z))
                    if val == zero:
                        out.pop(key, None)
                    else:
                        out[key] = val
    return out


def check_coassoc_counit(comul: Comultiplication, gb: TruncatedGB, max_degree: int) -> CheckReport:
    """Coassociativity and counit laws in the quotient, tested on a spanning
    set (the irreducible words) per degree up to ``max_degree``."""
    alphabet, field = comul.alphabet, comul.field
    add, mul, zero = field.add, field.mul, field.zero
    details = []
    for n in range(max_degree + 1):
        for w in gb.irreducible_words(n):
            dw = comul.of_word(w)
            # counit law: the scalar-leg parts must reproduce w.
            left = {}
            right = {}
            for (a, b), c in dw.coeffs.items():
                if not a:
                    left[b] = add(left.get(b, zero), c)
                if not b:
                    right[a] = add(right.get(a, zero), c)
            nf_w = gb.nf_word(w)
            for side, data in (("eps (x) id", left), ("id (x) eps", right)):
                got = gb._reduce(Polynomial(alphabet, field, data))
                if got != nf_w:
                    details.append(
                        f"counit fails on {render_word(alphabet, w)} via {side}")
            # coassociativity: expand either leg once more and compare.
            lhs, rhs = {}, {}
            for (a, b), c in dw.coeffs.items():
                for (u, v), x in comul.of_word(a).coeffs.items():
                    key = (u, v, b)
                    lhs[key] = add(lhs.get(key, zero), mul(c, x))
                for (u, v), x in comul.of_word(b).coeffs.items():
                    key = (a, u, v)
                    rhs[key] = add(rhs.get(key, zero), mul(c, x))
            diff = dict(lhs)
            for key, c in rhs.items():
                val = field.sub(diff.get(key, zero), c)
                if val == zero:
                    diff.pop(key, None)
                else:
                    diff[key] = val
            if _triple_reduce(gb, diff):
                details.append(f"coassociativity fails on {render_word(alphabet, w)}")
    return CheckReport(name="coassociativity and counit", ok=not details, details=details)


def is_lie_polynomial(f: Polynomial) -> bool:
    """True iff ``f`` is primitive for the standard comultiplication."""
    if f.field.char != 0:
        raise ValueError("the Lie-polynomial test requires characteristic 0")
    one = Polynomial.one(f.alphabet, f.field)
    return standard_comultiplication(f) == TensorElement.of(one, f) + TensorElement.of(f, one)


class Antipode:
    """Degree-recursive antipode of a verified quotient bialgebra."""

    def __init__(self, comul: Comultiplication, gb: TruncatedGB, precheck: bool = True):
        # The recursion below needs each image to involve only lower letters.
        tri = check_triangular(comul, graded=False)
        if not tri.ok:
            raise ValueError("antipode refused: " + "; ".join(tri.details[:3]))
        if precheck:
            law = check_coassoc_counit(comul, gb, gb.bound)
            if not law.ok:
                raise ValueError(
                    "antipode refused: " + "; ".join(law.details[:3]))
        self.comul = comul
        self.gb = gb
        alphabet, field = comul.alphabet, comul.field
        self._letters = {}
        self._words = {(): Polynomial.one(alphabet, field)}
        for x in range(alphabet.size):
            poly_x = Polynomial.from_word(alphabet, field, (x,))
            rest = comul.image(x) - _primitive_image(alphabet, field, x)
            acc = -poly_x
            for (a, b), c in rest.coeffs.items():
                acc = acc - (self._of_word(a) * Polynomial.from_word(alphabet, field, b)).scale(c)
            self._letters[x] = gb._reduce(acc)

    def _of_word(self, w) -> Polynomial:
        w = tuple(w)
        cached = self._words.get(w)
        if cached is None:
            head = self._letters[w[0]]
            cached = self.gb._reduce(self._of_word(w[1:]) * head)
            self._words[w] = cached
        return cached

    def of(self, f: Polynomial) -> Polynomial:
        return self.gb._reduce(f.extend_linearly(self._of_word, Polynomial))

    def convolution_check(self, max_degree: int) -> CheckReport:
        """``m(S (x) id) Delta = eps = m(id (x) S) Delta`` on irreducible words."""
        gb, comul = self.gb, self.comul
        alphabet, field = comul.alphabet, comul.field
        add, mul, zero = field.add, field.mul, field.zero
        details = []
        for n in range(max_degree + 1):
            for w in gb.irreducible_words(n):
                target = Polynomial.one(alphabet, field) if n == 0 else Polynomial.zero(alphabet, field)
                left, right = {}, {}    # S(a) b and a S(b), summed over Delta(w)
                for (a, b), c in comul.of_word(w).coeffs.items():
                    for u, x in self._of_word(a).coeffs.items():
                        left[u + b] = add(left.get(u + b, zero), mul(c, x))
                    for u, x in self._of_word(b).coeffs.items():
                        right[a + u] = add(right.get(a + u, zero), mul(c, x))
                left = Polynomial(alphabet, field, left)
                right = Polynomial(alphabet, field, right)
                if gb._reduce(left) != target or gb._reduce(right) != target:
                    details.append(f"antipode law fails on {render_word(alphabet, w)}")
        return CheckReport(name="antipode law", ok=not details, details=details)


def antipode_normal_form(comul: Comultiplication, gb: TruncatedGB, f: Polynomial) -> Polynomial:
    """Antipode of ``f`` in normal form; prechecks coassociativity and counit."""
    if f.degree() > gb.bound:
        raise ValueError(f"degree {f.degree()} exceeds the certified bound {gb.bound}")
    return Antipode(comul, gb, precheck=True).of(f)


def check_power_comultiplication(comul: Comultiplication, u, n: int) -> CheckReport:
    """Membership certificate for the coproduct of powers of a bracket.

    For a Lyndon word ``u``, verifies that the image of ``[u]**n`` splits
    into the binomial terms plus tensors whose legs carry a factor below
    ``u`` next to a lower power of ``[u]``, plus lower total degree.
    """
    u = tuple(u)
    if not is_lyndon(u):
        raise ValueError("power-coproduct check needs a Lyndon word")
    alphabet, field = comul.alphabet, comul.field
    details = []
    tri = check_triangular(comul, graded=False)
    if not tri.ok:
        return CheckReport(
            name="power coproduct", ok=False,
            details=["triangularity precheck failed"] + tri.details)
    bu = standard_bracket(alphabet, u, field)
    power = Polynomial.one(alphabet, field)
    powers = [power]
    for _ in range(n):
        power = power * bu
        powers.append(power)
    t = comul.of_poly(powers[n])
    for p in range(n + 1):
        t = t - TensorElement.of(powers[p], powers[n - p]).scale(binomial(field, n, p))
    top = n * alphabet.degree(u)
    for degree, part in t.homogeneous_components().items():
        if degree > top:
            details.append(f"term of degree {degree} above deg(u^n) = {top}")
            continue
        if degree < top:
            continue  # lower-degree part is unconstrained
        coords = tensor_bracket_coordinates(part, free_gb(alphabet, field, top))
        for (w, w2), _c in coords.items():
            if not (factors_below(w, u, strict=False) and factors_below(w2, u, strict=False)):
                details.append(
                    f"coordinate word {render_word(alphabet, w)} # {render_word(alphabet, w2)} "
                    f"has a factor above {render_word(alphabet, u)}")
                continue
            fac1, fac2 = lyndon_decomposition(w), lyndon_decomposition(w2)
            r = sum(1 for v in fac1 if v == u)
            s = sum(1 for v in fac2 if v == u)
            if len(fac1) == r or len(fac2) == s:
                details.append(
                    f"coordinate word {render_word(alphabet, w)} # {render_word(alphabet, w2)} "
                    "lacks a tensor leg below u")
            elif r + s >= n:
                details.append(
                    f"coordinate word {render_word(alphabet, w)} # {render_word(alphabet, w2)} "
                    f"carries u-power {r}+{s} >= {n}")
    return CheckReport(name="power coproduct", ok=not details, details=details)
