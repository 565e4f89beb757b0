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

from .poly import Polynomial, TensorElement, binomial, primitive_part, standard_bracket
from .rewrite import TruncatedGB, bracket_coordinates, tensor_bracket_coordinates
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
                table[idx] = primitive_part(Polynomial.from_word(alphabet, field, (idx,)))
        self.images = table

    @classmethod
    def standard(cls, alphabet, field):
        return cls(alphabet, field, images=None, fill_primitive=True)

    def image(self, letter: int) -> TensorElement:
        return self.images[letter]

    def reduced_image(self, letter: int) -> TensorElement:
        """``Delta'(x) = Delta(x) - P(x)``: the image less ``x (x) 1 + 1 (x) x``."""
        return self.images[letter] - primitive_part(Polynomial.from_word(self.alphabet, self.field, (letter,)))

    def is_standard(self) -> bool:
        return not any(map(self.reduced_image, range(self.alphabet.size)))

    def of_word(self, w) -> TensorElement:
        if not w:
            return TensorElement.one(self.alphabet, self.field)
        out = self.images[w[0]]
        for x in w[1:]:
            out = out * self.images[x]
        return out

    def of_poly(self, f: Polynomial) -> TensorElement:
        return f.extend_linearly(self.of_word, TensorElement)


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
    alphabet = comul.alphabet
    details = []
    for x in range(alphabet.size):
        name = alphabet.names[x]
        dx = alphabet.degrees[x]
        for n, part in comul.reduced_image(x).homogeneous_components().items():
            if n > dx:
                details.append(
                    f"{name}: term {render_tensor(part)} of degree {n} exceeds deg({name}) = {dx}")
                continue
            if n < dx:
                if graded:
                    details.append(
                        f"{name}: lower-degree tail {render_tensor(part)} not allowed for a graded comultiplication")
                continue
            # Two nonempty legs have degrees below deg x, hence only letters
            # below x (degree-major order), hence Lyndon factors below x:
            # only a scalar leg can fail.
            for w, w2 in part.coeffs:
                if not w or not w2:
                    details.append(
                        f"{name}: top-degree term with a scalar tensor leg "
                        f"({render_word(alphabet, w)} # {render_word(alphabet, w2)})")
    kind = "graded triangular" if graded else "triangular"
    return CheckReport(name=f"triangular ({kind})", ok=not details, details=details)


def check_stability(comul: Comultiplication, gb: TruncatedGB) -> CheckReport:
    """Verify the ideal is a coideal: each basis element maps into
    ``k<X> (x) I + I (x) k<X>`` (leg-wise normal form of the image is zero).
    An image above the bound is not certified, and fails the check."""
    details = []
    for g in gb.elements:
        image = comul.of_poly(g)
        if image.degree() > gb.bound:
            details.append(f"Delta({render_polynomial(g)}) reaches degree {image.degree()} "
                           f"above the bound {gb.bound}; not certified")
            continue
        residue = gb.normal_form_tensor(image)
        if not residue.is_zero():
            details.append(f"Delta({render_polynomial(g)}) has residue {render_tensor(residue)}")
    return CheckReport(name="stability", ok=not details, details=details)


def _irreducible_letters(gb: TruncatedGB, max_degree: int) -> list:
    """The irreducible letters of degree <= ``max_degree``: a law holds on
    every irreducible word up to ``max_degree`` iff it holds on them.
    ``(Delta (x) id) Delta`` and ``(id (x) Delta) Delta``, then leg-wise into
    ``(k<X>/I)^(x)3``, ``(eps (x) id) Delta``, ``(id (x) eps) Delta`` and ``id``
    are algebra maps.  With ``S`` anti-multiplicative and ``Delta`` multiplicative,
    ``m(S (x) id) Delta(uv) = sum S(v1) [m(S (x) id) Delta(u)] v2``, likewise for
    ``m(id (x) S) Delta``.  The letters of an irreducible word are irreducible
    words, stable ideal or not.  Exact while each image term has degree <= its
    letter's, so that the legs stay where NF is multiplicative."""
    gb.certify(max_degree)
    return [x for x, d in enumerate(gb.alphabet.degrees)
            if d <= max_degree and not gb.is_reducible_word((x,))]


def check_coassoc_counit(comul: Comultiplication, gb: TruncatedGB, max_degree: int) -> CheckReport:
    """Coassociativity and counit laws in the quotient up to ``max_degree``."""
    alphabet, field = comul.alphabet, comul.field
    add, sub, mul, zero = field.add, field.sub, field.mul, field.zero
    details = []
    for x in _irreducible_letters(gb, max_degree):
        name, dx = alphabet.names[x], comul.image(x)
        # counit law: the scalar-leg parts must reproduce x.  The keys
        # ((), b) and (a, ()) are unique, so a side needs no summing.
        left = {b: c for (a, b), c in dx.coeffs.items() if not a}
        right = {a: c for (a, b), c in dx.coeffs.items() if not b}
        for side, data in (("eps (x) id", left), ("id (x) eps", right)):
            if gb._reduce(Polynomial(alphabet, field, data)) != Polynomial.from_word(alphabet, field, (x,)):
                details.append(f"counit fails on {name} via {side}")
        # coassociativity: (Delta (x) id - id (x) Delta) Delta(x) = sum_a a (x) T_a,
        # grouped by its first leg.  As the irreducible words u are independent,
        # it vanishes in the quotient iff sum_a NF(a)[u] (NF (x) NF)(T_a) does
        # for each u; the sides mostly cancel, so most T_a are zero.
        by_first = {}
        for (a, b), c in dx.coeffs.items():
            for (u, v), y in comul.of_word(a).coeffs.items():
                rest = by_first.setdefault(u, {})
                rest[(v, b)] = add(rest.get((v, b), zero), mul(c, y))
            rest = by_first.setdefault(a, {})
            for (u, v), y in comul.of_word(b).coeffs.items():
                rest[(u, v)] = sub(rest.get((u, v), zero), mul(c, y))
        sums = {}   # u -> sum_a NF(a)[u] (NF (x) NF)(T_a)
        for a, rest in by_first.items():
            rest = TensorElement(alphabet, field, rest).map_legs(gb._reduce, gb._reduce)
            if rest:
                for u, y in gb.nf_word(a).coeffs.items():
                    sums[u] = sums[u] + rest.scale(y) if u in sums else rest.scale(y)
        if any(sums.values()):
            details.append(f"coassociativity fails on {name}")
    return CheckReport(name="coassociativity and counit", ok=not details, details=details)


def is_lie_polynomial(f: Polynomial) -> bool:
    """True iff ``f`` is primitive for the standard comultiplication; in
    characteristic 0, iff every bracket coordinate of ``f`` is a Lyndon word."""
    if f.field.char != 0:
        raise ValueError("the Lie-polynomial test requires characteristic 0")
    return all(map(is_lyndon, bracket_coordinates(f, free_gb(f.alphabet, f.field, f.degree()))))


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
        for x in range(alphabet.size):   # m(S (x) id) Delta(x) = 0 solved for S(x)
            rest = comul.reduced_image(x).extend_linearly(self._s_id, Polynomial)
            self._letters[x] = gb._reduce(-Polynomial.from_word(alphabet, field, (x,)) - rest)

    def _s_id(self, pair) -> Polynomial:
        """``m(S (x) id)`` on the key ``a (x) b``: ``S(a) b``.  Appending ``b``
        to each word of ``S(a)`` keeps their glex order, so no product is formed."""
        a, b = pair
        coeffs = {w + b: c for w, c in self._of_word(a).coeffs.items()}
        return Polynomial(self.comul.alphabet, self.comul.field, coeffs, _normalized=True)

    def _id_s(self, pair) -> Polynomial:
        """``m(id (x) S)`` on the key ``a (x) b``: ``a S(b)``, as in ``_s_id``."""
        a, b = pair
        coeffs = {a + w: c for w, c in self._of_word(b).coeffs.items()}
        return Polynomial(self.comul.alphabet, self.comul.field, coeffs, _normalized=True)

    def _of_word(self, w) -> Polynomial:
        out = Polynomial.one(self.comul.alphabet, self.comul.field)
        for x in w:   # S(w) = S(w[-1]) ... S(w[0])
            out = self.gb._reduce(self._letters[x] * out)
        return out

    def of(self, f: Polynomial) -> Polynomial:
        self.gb.certify(f.degree())
        return self.gb._reduce(f.extend_linearly(self._of_word, Polynomial))

    def convolution_check(self, max_degree: int) -> CheckReport:
        """``m(S (x) id) Delta = eps = m(id (x) S) Delta`` up to ``max_degree``.

        Only the right law is evaluated: ``S(x)`` is solved from
        ``m(S (x) id) Delta(x) = 0`` and NF is linear, so the left sum
        ``NF(S(x) + x + rest)`` is zero on every letter by construction."""
        gb, comul = self.gb, self.comul
        details = []
        for x in _irreducible_letters(gb, max_degree):
            if gb._reduce(comul.image(x).extend_linearly(self._id_s, Polynomial)):
                details.append(f"antipode law fails on {comul.alphabet.names[x]}")
        return CheckReport(name="antipode law", ok=not details, details=details)


def antipode_normal_form(comul: Comultiplication, gb: TruncatedGB, f: Polynomial) -> Polynomial:
    """Antipode of ``f`` in normal form; prechecks coassociativity and counit."""
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
