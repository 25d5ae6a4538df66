"""Degree-by-degree verifiers for the identities satisfied by KV solutions.

Every check compares exact rational coefficients and reports one status per
degree; the first discrepancy is recorded as a witness (the offending word or
cyclic class together with the coefficient delta).  Checks whose hypothesis
is the equation itself refuse to run on a pair with nonzero residual; the
residual has its own report so that corrupted inputs surface as ordinary
failures rather than usage errors.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .lie import (
    LieElement,
    RationalUnivariateSeries,
    bch,
    generator,
    kernel_series,
    substitute,
    univariate_substitute,
)
from .linalg import rational_kernel, rational_solve
from .lyndon import lyndon_words
from .solver import KVSolution, kv1_residual
from .tangential import TangentialDerivation, ch_defect, div_quad, divergence_words, simplicial_words
from .traces import QuadTraceSeries, quad_canonical, tr, tr_quad, trace_substitute
from .words import AssocSeries, _linear_sum, format_rational, word_to_str


@dataclass(frozen=True)
class Witness:
    """First failing item of a check: where, what, and by how much."""

    degree: int
    item: str
    delta: Fraction

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "item": self.item,
                "delta": format_rational(self.delta)}


@dataclass(frozen=True)
class DegreeResult:
    degree: int
    status: str  # "pass" | "fail" | "skip" | "info"
    witness: Witness | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check, one entry per degree.

    ``gating`` is False for purely informational checks, which never affect
    an overall verdict.  Any failing or skipped entry carries a witness.
    """

    check: str
    order: int
    results: tuple[DegreeResult, ...]
    gating: bool = True

    @property
    def passed(self) -> bool:
        """Informational checks always pass; a gating check that checked nothing fails."""
        if not self.gating:
            return True
        return bool(self.results) and all(r.status == "pass" for r in self.results)

    @property
    def witness(self) -> Witness | None:
        for r in self.results:
            if r.witness is not None:
                return r.witness
        return None

    def to_json_lines(self) -> list[dict]:
        lines = []
        for r in self.results:
            line = {"check": self.check, "degree": r.degree, "status": r.status}
            if r.witness is not None:
                line["witness"] = r.witness.to_json_dict()
            lines.append(line)
        return lines

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        if not self.gating:
            verdict = "info"
        out = f"{self.check}: {verdict} (order {self.order})"
        w = self.witness
        if w is not None:
            out += f" [witness: degree {w.degree}, {w.item}, delta {w.delta}]"
        return out


def _leading_witness(series, degree: int, prefix: str = "") -> Witness:
    terms = [(w, c) for w, c in series.sorted_items() if len(w) == degree]
    w, c = terms[0]
    name = word_to_str(w) if w else "1"
    return Witness(degree=degree, item=prefix + name, delta=c)


def _degree_report(check: str, order: int, witnesses: dict[int, Witness],
                   gating: bool = True) -> VerificationReport:
    """Degrees 0..order, failed where ``witnesses`` has one; all "info" if not gating."""
    bad, good = ("fail", "pass") if gating else ("info", "info")
    results = tuple(DegreeResult(d, bad, witnesses[d]) if d in witnesses else DegreeResult(d, good)
                    for d in range(order + 1))
    return VerificationReport(check, order, results, gating=gating)


def report_zero(check: str, series, gating: bool = True) -> VerificationReport:
    """Per-degree zero check of any sparse series with sorted_items().

    A Lie series is zero in a degree exactly when its words are, so its
    degrees are read off its words; only a failing degree reads coordinates.
    """
    words = series.expand() if isinstance(series, LieElement) else series
    degrees_hit = {len(w) for w in words._pair[0]}
    return _degree_report(check, series.order,
                          {d: _leading_witness(series, d) for d in degrees_hit}, gating)


def verify_kv1(s: KVSolution) -> VerificationReport:
    """Residual of the defining equation; the hypothesis gate for the rest."""
    return report_zero("kv1", kv1_residual(s))


def _require_solution(s: KVSolution):
    if not kv1_residual(s).is_zero():
        raise ValueError("the pair does not solve the defining equation; "
                         "run the kv1 check for a per-degree report")


@functools.lru_cache(maxsize=4)
def _bernoulli_side(order: int) -> AssocSeries:
    """f(x) + f(y) - f(ch(x,y)) in words, f the Bernoulli kernel t/(e^t-1) - 1 + t/2.

    It does not depend on the solution, so it is built once per order.
    """
    f = kernel_series("f", order)
    ints, d = f._pair
    f_x = AssocSeries._make(2, order, ints, d)  # f's own words are powers of letter 0 = x
    f_y = AssocSeries._make(2, order, {w.replace(b"\x00", b"\x01"): n for w, n in ints.items()}, d)
    return f_x + f_y - univariate_substitute(f, bch(order).expand())


@functools.lru_cache(maxsize=8)
def _projected_bernoulli_side(order: int, project):
    """Half the projection of ``_bernoulli_side(order)``, the right side of the trace identity."""
    return project(_bernoulli_side(order)) * Fraction(1, 2)


def _trace_identity_sides(s: KVSolution, project):
    """Both sides of the trace identity for (A, B) under the projection ``project``.

    Left: the projection of x*(d_x A) + y*(d_y B), from the raw pair (the
    x-linear term of A counts); it is linear in (A, B), so the solution
    memoizes it per projection.  Right: half the projection of
    f(x) + f(y) - f(ch(x,y)) with f the Bernoulli kernel t/(e^t-1) - 1 + t/2.
    """
    lhs = s._linear(project, lambda t: project(divergence_words((t.A, t.B))))
    return lhs, _projected_bernoulli_side(s.order, project)


def quadratic_divergence_sides(s: KVSolution) -> tuple[QuadTraceSeries, QuadTraceSeries]:
    """Both sides of the quadratic trace identity, projected by ``tr_quad``."""
    return _trace_identity_sides(s, tr_quad)


def verify_theorem(s: KVSolution) -> VerificationReport:
    """The quadratic trace identity holds automatically for any solution."""
    _require_solution(s)
    lhs, rhs = quadratic_divergence_sides(s)
    return report_zero("theorem", lhs - rhs)


def check_full_trace_equation(s: KVSolution) -> VerificationReport:
    """Informational: the same identity in plain cyclic words.

    Solutions of the defining equation are not expected to satisfy it; the
    report records per degree whether it happens to hold, without gating.
    """
    _require_solution(s)
    lhs, rhs = _trace_identity_sides(s, tr)
    return report_zero("full-trace", lhs - rhs, gating=False)


def simplicial_combination(s: KVSolution) -> TangentialDerivation:
    """u^{1,2} + u^{12,3} - u^{1,23} - u^{2,3} for the derivation of (A, B).

    The four embeddings are summed as integer word maps, which are the
    components' stored words: ``act`` reads them, and nothing here peels them.
    """
    u = s.derivation()
    sums: list[list] = [[], [], []]
    for pattern, sign in (("1,2", 1), ("12,3", 1), ("1,23", -1), ("2,3", -1)):
        for parts, (ints, d) in zip(sums, simplicial_words(u, pattern)):
            parts.append((sign, ints, d))
    return TangentialDerivation(
        [LieElement.from_words(AssocSeries._make(3, u.order, *_linear_sum(parts)))
         for parts in sums])


def verify_prop_U(s: KVSolution, combination: TangentialDerivation | None = None) -> VerificationReport:
    """The simplicial combination annihilates the three-letter CH series."""
    _require_solution(s)
    U = simplicial_combination(s) if combination is None else combination
    return report_zero("propU", ch_defect(U))


def verify_prop_last(instances) -> VerificationReport:
    """Derivations annihilating ch(x_1,...,x_n) have zero quadratic divergence.

    Instances failing the hypothesis (checked exactly) are reported as
    skipped with the witnessing defect instead of being evaluated.
    """
    instances = list(instances)
    order = max((u.order for u in instances), default=0)
    failures: dict[int, Witness] = {}
    skips: list[DegreeResult] = []
    checked_any = False
    for idx, u in enumerate(instances):
        defect = ch_defect(u)
        if not defect.is_zero():
            degree = min(len(w) for w, _ in defect.sorted_items())
            skips.append(DegreeResult(
                degree, "skip",
                _leading_witness(defect, degree, prefix=f"instance {idx}: ch defect ")))
            continue
        checked_any = True
        dq = div_quad(u)
        for d in range(u.order + 1):
            if d not in failures and not dq.homogeneous_part(d).is_zero():
                failures[d] = _leading_witness(dq, d, prefix=f"instance {idx}: ")
    results = list(skips)
    if checked_any:
        results += _degree_report("propLast", order, failures).results
    results.sort(key=lambda r: r.degree)
    return VerificationReport("propLast", order, tuple(results))


def verify_cocycle_equation(s: KVSolution) -> VerificationReport:
    """Four-term combination of the quadratic divergence vanishes in three letters.

    With g the quadratic divergence of the pair's derivation, checks
    g(x,y) + g(ch(x,y),z) - g(x,ch(y,z)) - g(y,z) = 0.
    """
    _require_solution(s)
    order = s.order
    g = div_quad(s.derivation())
    x, y, z = (generator(3, i, order) for i in range(3))
    ch2 = bch(order)
    ch_xy = substitute(ch2, (x, y))
    ch_yz = substitute(ch2, (y, z))
    combo = (trace_substitute(g, (x, y)) + trace_substitute(g, (ch_xy, z))
             - trace_substitute(g, (x, ch_yz)) - trace_substitute(g, (y, z)))
    return report_zero("cocycle", combo)


def _quad_class_basis(arity: int, degree: int) -> list[bytes]:
    """Canonical representatives of the nonzero signed cyclic classes.

    A representative is a necklace (least rotation), and the necklaces of
    length n are the Lyndon words whose length divides n, each raised to the
    power n / length; those that are their own signed-class representative
    are kept.
    """
    reps = []
    for w in lyndon_words(arity, degree):
        if degree % len(w) == 0:
            necklace = w * (degree // len(w))
            if quad_canonical(necklace) == (necklace, 1):
                reps.append(necklace)
    return sorted(reps)


def homo_kernel(degree: int) -> tuple[list[QuadTraceSeries], VerificationReport]:
    """Exact kernel of the additive four-term equation in fixed degree.

    Solves g(x,y) + g(x+y,z) - g(x,y+z) - g(y,z) = 0 on the degree-n
    component of two-letter quadratic trace classes by exact elimination.
    The report asserts the kernel dimension (1 for even n, 0 for odd n),
    that an even-degree kernel is spanned by the projection of
    (x+z)^n - x^n - z^n, and that every kernel vector is a coboundary
    h(x) + h(z) - h(x+z) of a one-letter class.
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    n = degree
    basis2 = _quad_class_basis(2, n)
    x, y, z = (generator(3, i, n) for i in range(3))
    arg_sets = [((x, y), 1), ((x + y, z), 1), ((x, y + z), -1), ((y, z), -1)]
    rows: dict[bytes, dict[int, Fraction]] = {}  # one per three-letter class met
    for j, rep in enumerate(basis2):
        g = QuadTraceSeries._make(2, n, {rep: 1})
        image = QuadTraceSeries.zero(3, n)
        for args, sign in arg_sets:
            image = image + trace_substitute(g, args) * sign
        for w, c in image._pair[0].items():  # linalg takes integers as they are
            rows.setdefault(w, {})[j] = Fraction(c, image._pair[1]) if image._pair[1] > 1 else c
    kernel = rational_kernel(list(rows.values()), len(basis2)) if basis2 else []
    vectors = [QuadTraceSeries(2, n, {basis2[j]: v for j, v in vec.items()}) for vec in kernel]
    expected_dim = 1 if n % 2 == 0 else 0

    failures = []
    if len(kernel) != expected_dim:
        failures.append(Witness(n, f"kernel dimension {len(kernel)}, expected {expected_dim}",
                                Fraction(len(kernel) - expected_dim)))
    # coboundary certification: solve cob * h = v over one-letter classes
    basis1 = _quad_class_basis(1, n)
    x2, z2 = generator(2, 0, n), generator(2, 1, n)
    cob_rows: dict[bytes, dict[int, Fraction]] = {}  # one per two-letter class met
    for j, rep in enumerate(basis1):
        h = QuadTraceSeries._make(1, n, {rep: 1})
        cob = (trace_substitute(h, (x2,)) + trace_substitute(h, (z2,))
               - trace_substitute(h, (x2 + z2,)))
        for w, c in cob._pair[0].items():
            cob_rows.setdefault(w, {})[j] = Fraction(c, cob._pair[1]) if cob._pair[1] > 1 else c
    for vec in vectors:
        if basis1:
            # one equation per two-letter class where either side is nonzero
            equations = dict.fromkeys(vec._pair[0], {}) | cob_rows
            if rational_solve(list(equations.values()), [vec.coefficient(w) for w in equations],
                              len(basis1)) is None:
                failures.append(Witness(n, "kernel vector is not a coboundary", Fraction(0)))
        elif not vec.is_zero():
            failures.append(Witness(n, "nonzero kernel but no one-letter classes", Fraction(0)))
    if n % 2 == 0 and len(kernel) == 1:
        # spanning check against the projection of (x+z)^n - x^n - z^n
        all_words = AssocSeries._make(
            2, n, {bytes(word): 1 for word in itertools.product(range(2), repeat=n)})
        span = tr_quad(all_words
                       - AssocSeries.from_word(2, n, b"\x00" * n)
                       - AssocSeries.from_word(2, n, b"\x01" * n))
        vec = vectors[0]
        pivot = min(span._pair[0], default=None)
        ratio = 0 if pivot is None else vec.coefficient(pivot) / span.coefficient(pivot)
        if not ratio or vec != span * ratio:
            failures.append(Witness(n, "kernel not spanned by (x+z)^n - x^n - z^n", Fraction(0)))

    if failures:
        results = tuple(DegreeResult(n, "fail", w) for w in failures)
    else:
        results = (DegreeResult(n, "pass"),)
    report = VerificationReport("homo", n, results)
    return vectors, report


def measured_operator_coefficients(element: LieElement) -> RationalUnivariateSeries:
    """Coefficients of the part of a two-letter Lie series linear in y.

    Every Lie monomial with a single y is a power of ad_x applied to y, so
    x^k y is the only Lyndon word of multidegree (k, 1), and its bracketing
    has coefficient 1 on the word x^k y.  The returned series has that word
    coefficient, which is the coordinate of x^k y, at exponent k: no peel.
    """
    order = max(element.order - 1, 0)
    words = element.expand()
    return RationalUnivariateSeries(
        order, [words.coefficient(b"\x00" * k + b"\x01") for k in range(order + 1)])


def verify_series_identities(s: KVSolution) -> VerificationReport:
    """Closed forms of the y-linear kernels of a solution.

    Measures b (the x-coefficient of B), alpha(t) from A and beta(t) from B,
    then checks the three generating-series identities: alpha matches its
    closed form at the measured b, the odd part of beta matches its closed
    form, and beta_odd - alpha_odd = -f'/2 for the Bernoulli kernel f.
    """
    _require_solution(s)
    b = s.b_scalar
    order = s.order - 1
    alpha = measured_operator_coefficients(s.A)
    beta = measured_operator_coefficients(s.B)
    comparisons = [
        ("alpha", alpha, kernel_series("alpha", order, b=b)),
        ("beta_odd", beta.odd_part(), kernel_series("beta_odd", order, b=b)),
        ("beta_odd-alpha_odd", beta.odd_part() - alpha.odd_part(),
         Fraction(-1, 2) * kernel_series("f", order + 1).derivative()),
    ]
    failures: dict[int, Witness] = {}
    for name, measured, expected in comparisons:
        for k in range(order + 1):
            delta = measured.coefficient(k) - expected.coefficient(k)
            if delta and k not in failures:
                failures[k] = Witness(k, f"{name} t^{k}", delta)
    return _degree_report("series", order, failures)
