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

from dataclasses import dataclass, field as dataclass_field

from .coalg import CheckReport, Comultiplication, check_stability, check_triangular
from .expressions import render_word
from .poly import Polynomial, TensorElement, commutator, standard_bracket
from .rewrite import (
    IrreducibleData,
    OutOfCertifiedRange,
    TruncatedGB,
    _validate_relation,
    admissible_words,
    bracket_coordinates,
    collect_irreducible_data,
    compute_truncated_gb,
    irreducible_lyndon_words,
    tensor_bracket_coordinates,
)
from .word import GREATER, compare_lex, enumerate_lyndon, factors_below, is_lyndon, lyndon_decomposition


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

    def hypotheses(self):
        """``(comul, triangular, gb, stability)``: the comultiplication, its
        graded triangularity, the Groebner basis and the stability of the
        ideal, each computed once."""
        comul = self.comultiplication()
        tri = check_triangular(comul, graded=True)
        gb = self.groebner()
        return comul, tri, gb, check_stability(comul, gb)


FINITE_AT_BOUND = "candidate finite at bound"
NOT_FINITE_AT_BOUND = "not finite at bound"


@dataclass
class StructureReport:
    bound: int
    triangular: CheckReport
    stability: CheckReport
    gamma: list = dataclass_field(default_factory=list)       # lex-sorted words
    z_table: dict = dataclass_field(default_factory=dict)     # word -> normal form of its bracket
    dims: list = dataclass_field(default_factory=list)
    condition1: CheckReport | None = None
    condition2: CheckReport | None = None
    condition3: CheckReport | None = None
    finiteness: str = ""
    gk_candidate: int | None = None
    gb: TruncatedGB | None = None
    data: IrreducibleData | None = None

    @property
    def hypotheses_ok(self) -> bool:
        return self.triangular.ok and self.stability.ok

    @property
    def passed(self) -> bool:
        return (self.hypotheses_ok and self.condition1 is not None
                and self.condition1.ok and self.condition2.ok and self.condition3.ok)

    def verdicts(self) -> list[CheckReport]:
        out = [self.triangular, self.stability]
        for check in (self.condition1, self.condition2, self.condition3):
            if check is not None:
                out.append(check)
        return out


def _finiteness_flag(presentation: Presentation, gb: TruncatedGB, lyndon) -> str:
    bound = gb.bound
    window = max((r.degree() for r in presentation.relations), default=1)
    window = max(window, 1)
    low = bound - window
    fresh = [u for u in lyndon if gb.alphabet.degree(u) > low]
    if fresh:
        return f"{NOT_FINITE_AT_BOUND} {bound}"
    return f"{FINITE_AT_BOUND} {bound}"


def verify_structure_theorem(presentation: Presentation) -> StructureReport:
    """Certify the PBW-generator conditions up to the bound.

    Condition (1): the coproduct of each generator-class lies in the
    primitive part plus tensors of the subalgebra below it.  Condition (2):
    commutators of basis generators fall below the larger one.  Condition
    (3): the nondecreasing products count the quotient dimension per degree
    (over a prime field the exponent-bounded family is counted instead).
    """
    alphabet, field = presentation.alphabet, presentation.field
    comul, tri, gb, stab = presentation.hypotheses()
    report = StructureReport(bound=gb.bound, triangular=tri, stability=stab, gb=gb)
    if not (tri.ok and stab.ok):
        return report

    data = collect_irreducible_data(gb)
    gamma = sorted(data.lyndon, key=alphabet.lex_key)
    z_table = {u: gb.normal_form(standard_bracket(alphabet, u, field)) for u in gamma}
    report.data = data
    report.gamma = gamma
    report.z_table = z_table
    report.dims = data.dimensions

    # Condition (1): coproduct membership per generator.
    one = Polynomial.one(alphabet, field)
    details1 = []
    for u in gamma:
        bu = standard_bracket(alphabet, u, field)
        rest = comul.of_poly(bu) - TensorElement.of(one, bu) - TensorElement.of(bu, one)
        for (w, w2), _c in tensor_bracket_coordinates(rest, gb).items():
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
    skipped = 0
    for i, u in enumerate(gamma):
        for v in gamma[:i]:
            if alphabet.degree(u) + alphabet.degree(v) > gb.bound:
                skipped += 1
                continue
            comm = commutator(z_table[u], z_table[v])
            for w, _c in bracket_coordinates(comm, gb).items():
                if not factors_below(w, u):
                    details2.append(
                        f"[{render_word(alphabet, u)}, {render_word(alphabet, v)}]: "
                        f"coordinate {render_word(alphabet, w)} not below the larger word")
    cond2 = CheckReport("pbw condition (2): commutators", not details2, details2)
    if skipped:
        cond2.details.append(f"note: {skipped} pairs above the bound were not checked")
    report.condition2 = cond2

    # Condition (3): monomial counts match quotient dimensions per degree.
    cond3 = _basis_counts(gb, data.dimensions, "pbw condition (3): basis counts")
    if field.char != 0:
        cond3.details.append(
            "note: positive characteristic, counted the exponent-bounded family")
    report.condition3 = cond3

    report.finiteness = _finiteness_flag(presentation, gb, data.lyndon)
    if report.finiteness.startswith(FINITE_AT_BOUND):
        report.gk_candidate = len(gamma)
    return report


def _basis_counts(gb: TruncatedGB, dims, name: str) -> CheckReport:
    """The ordered monomials of each degree (B, or C over a prime field)
    count the quotient dimensions ``dims``."""
    kind = "B" if gb.field.char == 0 else "C"
    details = []
    for n in range(gb.bound + 1):
        count = len(admissible_words(gb, n, kind))
        if count != dims[n]:
            details.append(
                f"degree {n}: {count} ordered monomials vs quotient dimension {dims[n]}")
    return CheckReport(name, not details, details)


def hilbert_and_gk(report: StructureReport, max_degree: int | None = None):
    """Dimensions per degree, the product-identity verdict and a growth verdict.

    Returns ``(coeffs, identity_report, gk_verdict)`` where ``gk_verdict`` is
    a dict with the certification level spelled out.
    """
    bound = report.bound if max_degree is None else max_degree
    if bound > report.bound:
        raise OutOfCertifiedRange(f"degree {bound} exceeds bound {report.bound}")
    coeffs = report.dims[:bound + 1]
    product = [0] * (bound + 1)
    product[0] = 1
    for u in report.gamma:
        d = report.gb.alphabet.degree(u)
        for n in range(d, bound + 1):
            product[n] += product[n - d]
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
    """Extract the iterated Ore-extension tower from a passing verification."""
    if report is None:
        report = verify_structure_theorem(presentation)
    if not report.passed:
        raise ValueError("tower extraction refused: structure verification did not pass")
    if report.gk_candidate is None:
        raise ValueError(
            "tower extraction refused: generator set not candidate-finite at this bound")
    alphabet, field = presentation.alphabet, presentation.field
    gb = report.gb
    gamma = report.gamma
    d = len(gamma)
    for i in range(1, d):
        for j in range(i):
            if alphabet.degree(gamma[i]) + alphabet.degree(gamma[j]) > gb.bound:
                raise OutOfCertifiedRange(
                    "tower extraction refused: a derivation value exceeds the bound; "
                    f"increase the bound beyond {gb.bound}")
    generators = [(u, alphabet.degree(u), report.z_table[u]) for u in gamma]
    derivations = {}
    closure_details = []
    for i in range(1, d):
        zi = report.z_table[gamma[i]]
        allowed = set(gamma[:i])
        for j in range(i):
            zj = report.z_table[gamma[j]]
            value = gb.normal_form(commutator(zi, zj))
            coords = bracket_coordinates(value, gb)
            terms = []
            for w, c in coords.items():
                exponents = [0] * d
                bad = False
                for factor in lyndon_decomposition(w):
                    if factor not in allowed:
                        bad = True
                        break
                    exponents[gamma.index(factor)] += 1
                if bad:
                    closure_details.append(
                        f"delta_{i + 1}(z{j + 1}) leaves the subalgebra: "
                        f"coordinate {render_word(alphabet, w)}")
                    continue
                terms.append((tuple(exponents), c))
            derivations[(i + 1, j + 1)] = terms
    membership = CheckReport(
        "tower coproduct membership",
        report.condition1.ok,
        list(report.condition1.details),
    )
    closure = CheckReport("derivations close below their level", not closure_details, closure_details)
    return OreTower(generators=generators, derivations=derivations,
                    membership=membership, closure=closure)


def render_pbw_value(terms, field) -> str:
    """Render a PBW-coordinate value such as ``z2`` or ``3*z1^2*z3``."""
    if not terms:
        return "0"
    pieces = []
    for exponents, c in sorted(terms, key=lambda t: t[0]):
        factors = []
        for k, e in enumerate(exponents):
            if e == 1:
                factors.append(f"z{k + 1}")
            elif e > 1:
                factors.append(f"z{k + 1}^{e}")
        word = "*".join(factors) if factors else "1"
        if c == field.one and factors:
            pieces.append(word)
        else:
            pieces.append(f"{field.render(c)}*{word}")
    return " + ".join(pieces)


def _reducible_lyndon_coordinates(gb: TruncatedGB):
    """Each reducible Lyndon word ``v`` up to the bound, glex ascending, with
    its bracket ``[v]`` and the bracket coordinates of ``[v] + I``."""
    alphabet, field = gb.alphabet, gb.field
    irreducible = set(irreducible_lyndon_words(gb, gb.bound))
    for v in enumerate_lyndon(alphabet, gb.bound):
        if v not in irreducible:
            bv = standard_bracket(alphabet, v, field)
            yield v, bv, bracket_coordinates(bv, gb)


def recover_lie_generators(presentation: Presentation, report: StructureReport | None = None):
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
    gb = report.gb if report is not None else presentation.groebner()
    stab = check_stability(comul, gb)
    if not stab.ok:
        raise ValueError("Lie-generator recovery refused: ideal is not a coideal")
    alphabet, field = presentation.alphabet, presentation.field
    out = []
    for v, g, coords in _reducible_lyndon_coordinates(gb):
        for w, c in coords.items():
            g = g - standard_bracket(alphabet, w, field).scale(c)
        out.append((v, g, all(map(is_lyndon, coords))))
    return out


def verify_quasi_lie(presentation: Presentation) -> list[CheckReport]:
    """The three quasi-primitivity certificates for the ideal."""
    alphabet, field = presentation.alphabet, presentation.field
    _comul, tri, gb, stab = presentation.hypotheses()
    if not (tri.ok and stab.ok):
        failing = tri if not tri.ok else stab
        return [CheckReport("quasi-primitivity hypotheses", False,
                            [f"failing hypothesis: {failing.name}"] + failing.details)]

    details1 = []
    for v, _bv, coords in _reducible_lyndon_coordinates(gb):
        for w in coords:
            if not factors_below(w, v):
                details1.append(
                    f"[{render_word(alphabet, v)}]: coordinate {render_word(alphabet, w)} not below it")
    part1 = CheckReport("quasi-primitivity (1): reducible brackets", not details1, details1)

    irreducible = irreducible_lyndon_words(gb, gb.bound)
    details2 = []
    for u in irreducible:
        for v in irreducible:
            if compare_lex(u, v) != GREATER:
                continue
            uv = u + v
            if alphabet.degree(uv) > gb.bound:
                continue
            bu = standard_bracket(alphabet, u, field)
            bv = standard_bracket(alphabet, v, field)
            comm = commutator(bu, bv)
            for w, _c in bracket_coordinates(comm, gb).items():
                if not factors_below(w, uv, strict=False):
                    details2.append(
                        f"[[{render_word(alphabet, u)}],[{render_word(alphabet, v)}]]: "
                        f"coordinate {render_word(alphabet, w)} above the product word")
    part2 = CheckReport("quasi-primitivity (2): irreducible commutators", not details2, details2)
    part3 = _basis_counts(gb, gb.dimensions(), "quasi-primitivity (3): basis counts")
    return [part1, part2, part3]


def compute_heights(presentation: Presentation):
    """Observed heights of the irreducible Lyndon words plus the
    characteristic-consistency verdict (no finite heights in characteristic
    zero; powers of p otherwise), evaluated when the hypotheses hold."""
    alphabet, field = presentation.alphabet, presentation.field
    _comul, tri, gb, stab = presentation.hypotheses()
    data = collect_irreducible_data(gb)
    details = []
    if tri.ok and stab.ok:
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
