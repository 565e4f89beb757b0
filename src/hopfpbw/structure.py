"""Structure extraction and verification for graded algebra presentations.

Given generators with degrees, homogeneous relations and generator coproduct
images, this module certifies (up to the degree bound) the PBW-generator
conditions, computes Hilbert data and a growth verdict, extracts the iterated
Ore-extension tower for candidate-finite generator sets, recovers Lie
generators of the ideal, and runs the quasi-primitivity certificates.

Everything is certified only up to the presentation's bound; no unbounded
claim is ever produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coalg import CheckReport, Comultiplication, check_stability, check_triangular
from .expressions import render_word
from .poly import TensorElement, _shirshov_bracket, commutator, primitive_part
from .rewrite import (
    OutOfCertifiedRange,
    TruncatedGB,
    _nf_bracket,
    _validate_relation,
    bracket_coordinates,
    collect_irreducible_data,
    compute_truncated_gb,
    irreducible_lyndon_words,
    tensor_bracket_coordinates,
)
from .word import (enumerate_lyndon, factors_below, is_lyndon, lyndon_decomposition,
                   shirshov_factorization)


class Presentation:
    """A graded presentation: alphabet, homogeneous relations of degree at
    most the bound (checked on construction), coproduct images (primitive by
    default), scalar field and degree bound."""

    def __init__(self, alphabet, field, relations, images=None, bound=6):
        if bound < 1:
            raise ValueError("degree bound must be >= 1")
        self.alphabet = alphabet
        self.field = field
        self.relations = list(relations)
        self.images = dict(images or {})
        self.bound = bound
        for i, rel in enumerate(self.relations):
            _validate_relation(rel, bound, f"relation {i + 1}")

    def comultiplication(self) -> Comultiplication:
        return Comultiplication(self.alphabet, self.field, self.images, fill_primitive=True)

    def groebner(self) -> TruncatedGB:
        return compute_truncated_gb(self.alphabet, self.field, self.relations, self.bound)


FINITE_AT_BOUND = "candidate finite at bound"
NOT_FINITE_AT_BOUND = "not finite at bound"


class StructureReport:
    """The analysis of one presentation: the hypotheses (the comultiplication,
    its graded triangularity, the Groebner basis, stability) built at once, the
    PBW data formed on first read, and conditions (1)-(3) set by ``verify``."""

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        self.bound = presentation.bound
        self.comul = presentation.comultiplication()
        self.triangular = check_triangular(self.comul, graded=True)
        self.gb = presentation.groebner()
        self.stability = check_stability(self.comul, self.gb)
        self.condition1 = self.condition2 = self.condition3 = None

    @cached_property
    def gamma(self) -> list:
        """The irreducible Lyndon words up to the bound, lex-sorted."""
        return sorted(irreducible_lyndon_words(self.gb, self.bound),
                      key=self.presentation.alphabet.lex_key)

    @cached_property
    def dims(self) -> list:
        return self.gb.dimensions()

    @cached_property
    def finiteness(self) -> str:
        """Not finite when a word of ``gamma`` has degree above the bound less
        the largest relation degree (1 without relations; each is >= 1)."""
        low = self.bound - max((r.degree() for r in self.presentation.relations), default=1)
        fresh = any(self.gb.alphabet.degree(u) > low for u in self.gamma)
        return f"{NOT_FINITE_AT_BOUND if fresh else FINITE_AT_BOUND} {self.bound}"

    @property
    def gk_candidate(self) -> int | None:
        return len(self.gamma) if self.finiteness.startswith(FINITE_AT_BOUND) else None

    @cached_property
    def z_table(self) -> dict:
        """``{u: NF([u])}`` over ``gamma``, formed on first read."""
        return {u: _nf_bracket(self.gb, u) for u in self.gamma}

    @cached_property
    def commutators(self) -> dict:
        """``{(u, v): coordinates of [z_u, z_v]}`` over ``gamma``, formed on first read."""
        return _commutator_coordinates(self.gb, self.gamma)

    @property
    def hypotheses_ok(self) -> bool:
        return self.triangular.ok and self.stability.ok

    @property
    def passed(self) -> bool:
        return (self.hypotheses_ok and self.condition1 is not None
                and self.condition1.ok and self.condition2.ok and self.condition3.ok)

    def verdicts(self) -> list[CheckReport]:
        conditions = (self.condition1, self.condition2, self.condition3)
        return [self.triangular, self.stability, *(c for c in conditions if c is not None)]


def verify_structure_theorem(presentation: Presentation) -> StructureReport:
    """Certify the PBW-generator conditions up to the bound.

    Condition (1): the coproduct of each generator-class lies in the
    primitive part plus tensors of the subalgebra below it.  Condition (2):
    commutators of basis generators fall below the larger one.  Condition
    (3): the nondecreasing products count the quotient dimension per degree
    (over a prime field the exponent-bounded family is counted instead).
    """
    alphabet, field = presentation.alphabet, presentation.field
    report = StructureReport(presentation)
    if not report.hypotheses_ok:
        return report
    gb, gamma = report.gb, report.gamma

    # Condition (1): coproduct membership per generator, in the order of gamma.
    reduced, details1 = _reduced_coproducts(report.comul, gb, gamma), []
    for u in gamma:
        for (w, w2), _c in tensor_bracket_coordinates(reduced[u], gb).items():
            if not w or not w2:
                details1.append(
                    f"{render_word(alphabet, u)}: scalar tensor leg in coproduct remainder")
            elif not (factors_below(w, u) and factors_below(w2, u)):
                details1.append(
                    f"{render_word(alphabet, u)}: coordinate {render_word(alphabet, w)} # "
                    f"{render_word(alphabet, w2)} not below it")
    report.condition1 = CheckReport("pbw condition (1): coproducts", not details1, details1)

    # Condition (2): commutators fall into the subalgebra below the larger word.
    details2 = []
    for (u, v), coords in report.commutators.items():
        for w in coords:
            if not factors_below(w, u):
                details2.append(
                    f"[{render_word(alphabet, u)}, {render_word(alphabet, v)}]: "
                    f"coordinate {render_word(alphabet, w)} not below the larger word")
    cond2 = CheckReport("pbw condition (2): commutators", not details2, details2)
    skipped = len(gamma) * (len(gamma) - 1) // 2 - len(report.commutators)
    if skipped:
        cond2.details.append(f"note: {skipped} pairs above the bound were not checked")
    report.condition2 = cond2

    # Condition (3): monomial counts match quotient dimensions per degree.
    cond3 = _basis_counts(gb, gamma, report.dims, "pbw condition (3): basis counts")
    if field.char != 0:
        cond3.details.append(
            "note: positive characteristic, counted the exponent-bounded family")
    report.condition3 = cond3
    return report


def _reduced_coproducts(comul: Comultiplication, gb: TruncatedGB, words) -> dict:
    """``{u: Delta'_u}`` over the irreducible Lyndon ``words``, ``Delta' = Delta - P``:
    a letter takes ``comul.reduced_image``, and ``u = lr`` (Shirshov) takes
    ``[P(z_l) + Delta'_l, Delta'_r] + [Delta'_l, P(z_r)]``, ``z_w = NF([w])``,
    with a term whose ``Delta'`` half is 0 skipped and its ``z`` not formed;
    ``l`` and ``r`` are irreducible Lyndon words of lower degree, in ``words``,
    that glex order meets first.  As ``[P(a), P(b)] = P([a, b])`` and
    ``z_w - [w]`` lies in the stable ideal ``I``, ``Delta'_u`` and
    ``Delta(z_u) - P(z_u)`` differ in ``I (x) A + A (x) I``: their leg-wise
    coordinates agree."""
    table = {}
    for u in sorted(words, key=gb.alphabet.glex_key):
        if len(u) == 1:
            table[u] = comul.reduced_image(u[0])
            continue
        left, right = shirshov_factorization(u)
        dl, dr = table[left], table[right]
        delta = TensorElement.zero(gb.alphabet, gb.field)
        if dr:
            delta = commutator(primitive_part(_nf_bracket(gb, left)) + dl, dr)
        if dl:
            delta = delta + commutator(dl, primitive_part(_nf_bracket(gb, right)))
        table[u] = delta
    return table


def _commutator_coordinates(gb: TruncatedGB, words) -> dict:
    """``{(u, v): bracket coordinates of [z_u, z_v]}`` over the pairs of
    ``words`` with ``u > v`` (lex) and ``deg(uv) <= bound``, in the order of
    ``words``; ``z_w = NF([w])``.

    In the free algebra ``[[u], [v]] = sum a_w [w]`` over Lyndon words ``w``
    with integers ``a_w`` (``_lie_structure_constants``), so no polynomial
    is multiplied.  ``z_u - [u]`` lies in the ideal and NF is multiplicative
    below the bound, so ``NF([z_u, z_v]) = sum a_w NF([w])``; coordinates are
    linear, so those of ``[z_u, z_v]`` are ``sum a_w c(w)``, with ``c(w)``
    the coordinates of ``NF([w])`` (``_lyndon_coordinates``).  Each entry is
    keyed glex-descending, as ``bracket_coordinates`` keys it, with no zeros.
    """
    alphabet, field = gb.alphabet, gb.field
    keyed = [(w, alphabet.lex_key(w), alphabet.degree(w)) for w in words]
    upto = {n: [(v, kv) for v, kv, dv in keyed if dv <= n] for n in range(1, gb.bound)}
    constants, coordinates, table = {}, {}, {}
    for u, ku, du in keyed:
        for v, kv in upto.get(gb.bound - du, ()):
            if ku > kv:
                total = {}
                for w, a in _lie_structure_constants(u, v, constants).items():
                    if w not in coordinates:
                        coordinates[w] = _lyndon_coordinates(gb, w)
                    for x, c in coordinates[w].items():
                        total[x] = field.add(total.get(x, field.zero), field.mul(field.of_int(a), c))
                table[(u, v)] = {x: total[x] for x in sorted(total, key=alphabet.glex_key, reverse=True)
                                 if total[x]}
    return table


def _lie_structure_constants(u, v, memo: dict) -> dict:
    """``{w: a_w}`` with ``[[u], [v]] = sum a_w [w]`` in the free Lie ring, for
    Lyndon words ``u > v`` (so ``uv`` is Lyndon), ``a_w`` nonzero integers.

    The classical rewriting (Reutenauer, *Free Lie Algebras*, 1993, ch. 4-5):
    ``[[a], [b]] = [ab]`` when ``a`` is a letter or the Shirshov split of
    ``ab`` is ``(a, b)``; otherwise ``a = a1 a2`` (Shirshov) and Jacobi gives
    ``[a1, [a2, b]] - [a2, [a1, b]]``, expanded bilinearly, where a pair
    whose product is not Lyndon is swapped with a sign.  ``memo`` holds
    each pair's value; an explicit stack revisits a pair once the pairs it
    reads are known, so the depth is not Python's."""
    def known(x, y):   # [[x], [y]] from memo; an unknown pair reads 0 and is missing
        if x == y:
            return {}
        sign, pair = (1, (x, y)) if is_lyndon(x + y) else (-1, (y, x))
        if pair not in memo:
            missing.append(pair)
            return {}
        return {w: sign * c for w, c in memo[pair].items()}

    stack = [(u, v)]
    while stack:
        a, b = pair = stack.pop()
        if pair in memo:
            continue
        if len(a) == 1 or shirshov_factorization(a + b)[0] == a:
            memo[pair] = {a + b: 1}
            continue
        a1, a2 = shirshov_factorization(a)
        total, missing = {}, []
        for x, y, sign in ((a1, a2, 1), (a2, a1, -1)):   # sign [x, [y, b]]
            for w, c in known(y, b).items():
                for w2, c2 in known(x, w).items():
                    total[w2] = total.get(w2, 0) + sign * c * c2
        if missing:
            stack += [pair, *missing]
        else:
            memo[pair] = {w: c for w, c in total.items() if c}
    return memo[(u, v)]


def _monomial_counts(gb: TruncatedGB, words, capped: bool) -> list[int]:
    """Ordered monomials in ``words`` per degree ``0..bound``: the
    coefficients of the product of ``1/(1 - t^deg u)``.  With ``capped``, the
    exponent of a word of height ``h`` stays below ``h``, which multiplies its
    factor by ``1 - t^(h deg u)``."""
    bound = gb.bound
    counts = [1] + [0] * bound
    for u in words:
        d = gb.alphabet.degree(u)
        for n in range(d, bound + 1):
            counts[n] += counts[n - d]
        h = gb.height(u) if capped else None
        if h is not None:
            for n in range(bound, h * d - 1, -1):
                counts[n] -= counts[n - h * d]
    return counts


def _basis_counts(gb: TruncatedGB, words, dims, name: str) -> CheckReport:
    """The ordered monomials in the irreducible Lyndon ``words`` of each
    degree (B, or C over a prime field) count the quotient dimensions ``dims``."""
    counts = _monomial_counts(gb, words, capped=gb.field.char != 0)
    details = []
    for n, count in enumerate(counts):
        if count != dims[n]:
            details.append(
                f"degree {n}: {count} ordered monomials vs quotient dimension {dims[n]}")
    return CheckReport(name, not details, details)


def hilbert_and_gk(report: StructureReport):
    """Dimensions per degree, the product-identity verdict and a growth verdict.

    Returns ``(coeffs, identity_report, gk_verdict)`` where ``gk_verdict`` is
    a dict with the certification level spelled out.
    """
    coeffs = list(report.dims)
    product = _monomial_counts(report.gb, report.gamma, capped=False)
    details = []
    for n, (a, b) in enumerate(zip(coeffs, product)):
        if a != b:
            details.append(f"degree {n}: dimension {a} vs product coefficient {b}")
    identity = CheckReport("hilbert product identity", not details, details)
    if report.gk_candidate is not None:
        gk = {
            "kind": "candidate",
            "value": report.gk_candidate,
            "detail": f"equals #Gamma = {report.gk_candidate}, certified up to degree {report.bound}",
        }
    else:
        gk = {
            "kind": "unbounded-at-bound",
            "value": None,
            "detail": f"new PBW generators still appear near degree {report.bound}; "
                      "no finite growth certificate at this bound",
        }
    return coeffs, identity, gk


@dataclass
class OreTower:
    """Tower data: ordered generators and derivation tables in PBW coordinates."""

    generators: list          # (word, degree, Polynomial)
    derivations: dict         # (i, j), 1-based i > j -> list of (exponents, scalar)
    membership: CheckReport   # coproduct membership per level
    closure: CheckReport      # derivation values stay below the level

    @property
    def ok(self) -> bool:
        return self.membership.ok and self.closure.ok


def extract_ihoe(presentation: Presentation, report: StructureReport | None = None) -> OreTower:
    """Extract the iterated Ore-extension tower from a passing verification.

    Membership restates condition (1) and closure condition (2): each
    coordinate word of the commutator table is irreducible of degree at most
    the bound, so its Lyndon factors lie in ``gamma``, and for those, below
    ``gamma[i]`` (what condition (2) checks) is in ``gamma[:i]``."""
    if report is None:
        report = verify_structure_theorem(presentation)
    if not report.passed:
        raise ValueError("refused: structure verification did not pass")
    if report.gk_candidate is None:
        raise ValueError(f"refused: {report.finiteness}; not candidate-finite")
    gamma = report.gamma
    d = len(gamma)
    if len(report.commutators) < d * (d - 1) // 2:
        raise OutOfCertifiedRange(
            "tower extraction refused: a derivation value exceeds the bound; "
            f"increase the bound beyond {report.bound}")
    generators = [(u, presentation.alphabet.degree(u), report.z_table[u]) for u in gamma]
    derivations = {
        (i + 1, j + 1): [(tuple(map(lyndon_decomposition(w).count, gamma)), c)
                         for w, c in report.commutators[(gamma[i], gamma[j])].items()]
        for i in range(1, d) for j in range(i)}
    membership = CheckReport("tower coproduct membership", report.condition1.ok,
                             list(report.condition1.details))
    closure = CheckReport("derivations close below their level", report.condition2.ok,
                          list(report.condition2.details))
    return OreTower(generators=generators, derivations=derivations,
                    membership=membership, closure=closure)


def render_pbw_value(terms, field) -> str:
    """Render a PBW-coordinate value such as ``z2`` or ``3*z1^2*z3``."""
    if not terms:
        return "0"
    pieces = []
    for exponents, c in sorted(terms, key=lambda t: t[0]):
        factors = [f"z{k + 1}" if e == 1 else f"z{k + 1}^{e}"
                   for k, e in enumerate(exponents) if e]
        word = "*".join(factors) if factors else "1"
        if c == field.one and factors:
            pieces.append(word)
        else:
            pieces.append(f"{field.render(c)}*{word}")
    return " + ".join(pieces)


def _reducible_lyndon_coordinates(gb: TruncatedGB):
    """Each reducible Lyndon word ``v`` up to the bound, glex ascending, with
    the bracket coordinates of ``[v] + I``."""
    for v in enumerate_lyndon(gb.alphabet, gb.bound):
        if gb.is_reducible_word(v):
            yield v, _lyndon_coordinates(gb, v)


def _lyndon_coordinates(gb: TruncatedGB, w) -> dict:
    """The bracket coordinates of ``NF([w])`` for a Lyndon word ``w`` up to the
    bound: ``{w: 1}`` when ``w`` is irreducible."""
    if not gb.is_reducible_word(w):
        return {w: gb.field.one}
    return bracket_coordinates(_nf_bracket(gb, w), gb)


def recover_lie_generators(presentation: Presentation):
    """For each reducible Lyndon word ``v``, the unique ideal element
    ``g = [v] - sum c_w [w]`` expressing its bracket over the irreducible
    bracket basis, with a primitivity flag.

    The brackets ``[w]`` of all words form a basis of the free algebra whose
    primitive part is spanned by the brackets of Lyndon words, so ``g`` is a
    Lie polynomial iff every ``w`` with ``c_w != 0`` is Lyndon.
    """
    if presentation.field.char != 0:
        raise ValueError("Lie-generator recovery requires characteristic 0")
    comul = presentation.comultiplication()
    if not comul.is_standard():
        raise ValueError("Lie-generator recovery requires the standard comultiplication")
    gb = presentation.groebner()
    stab = check_stability(comul, gb)
    if not stab.ok:
        raise ValueError("Lie-generator recovery refused: ideal is not a coideal")
    alphabet, field = presentation.alphabet, presentation.field
    memo = {}   # free-algebra brackets, shared by every v
    out = []
    for v, coords in _reducible_lyndon_coordinates(gb):
        g = _shirshov_bracket(alphabet, field, v, memo)
        for w, c in coords.items():
            g = g - _shirshov_bracket(alphabet, field, w, memo).scale(c)
        out.append((v, g, all(map(is_lyndon, coords))))
    return out


def verify_quasi_lie(presentation: Presentation) -> list[CheckReport]:
    """The three quasi-primitivity certificates for the ideal, read off its
    ``StructureReport``."""
    alphabet = presentation.alphabet
    report = StructureReport(presentation)
    if not report.hypotheses_ok:
        failing = report.triangular if not report.triangular.ok else report.stability
        return [CheckReport("quasi-primitivity hypotheses", False,
                            [f"failing hypothesis: {failing.name}"] + failing.details)]
    gb = report.gb

    details1 = []
    for v, coords in _reducible_lyndon_coordinates(gb):
        for w in coords:
            if not factors_below(w, v):
                details1.append(
                    f"[{render_word(alphabet, v)}]: coordinate {render_word(alphabet, w)} not below it")
    part1 = CheckReport("quasi-primitivity (1): reducible brackets", not details1, details1)

    details2 = []
    for (u, v), coords in report.commutators.items():
        for w in coords:
            if not factors_below(w, u + v, strict=False):
                details2.append(
                    f"[[{render_word(alphabet, u)}],[{render_word(alphabet, v)}]]: "
                    f"coordinate {render_word(alphabet, w)} above the product word")
    part2 = CheckReport("quasi-primitivity (2): irreducible commutators", not details2, details2)
    part3 = _basis_counts(gb, report.gamma, report.dims, "quasi-primitivity (3): basis counts")
    return [part1, part2, part3]


def compute_heights(presentation: Presentation):
    """Observed heights of the irreducible Lyndon words plus the
    characteristic-consistency verdict (no finite heights in characteristic
    zero; powers of p otherwise), evaluated when the hypotheses hold."""
    alphabet, field = presentation.alphabet, presentation.field
    report = StructureReport(presentation)
    data = collect_irreducible_data(report.gb)
    details = []
    if report.hypotheses_ok:
        for u, h in data.heights.items():
            if h is None:
                continue
            if field.char == 0:
                details.append(
                    f"{render_word(alphabet, u)}: finite height {h} observed in characteristic 0")
            elif not _is_prime_power(h, field.char):
                details.append(
                    f"{render_word(alphabet, u)}: height {h} is not a power of {field.char}")
        verdict = CheckReport("height consistency", not details, details)
    else:
        verdict = CheckReport(
            "height consistency", True,
            ["not evaluated: triangularity or stability hypothesis failed"])
    return data, verdict


def _is_prime_power(n: int, p: int) -> bool:
    if n < p:
        return False
    while n % p == 0:
        n //= p
    return n == 1
