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
    bch_multi,
    generator,
    kernel_series,
    substitute,
    univariate_substitute,
)
from .linalg import rational_kernel, rational_solve
from .solver import KVSolution, kv1_residual
from .tangential import TangentialDerivation, act, div_quad, simplicial
from .traces import QuadTraceSeries, quad_canonical, tr, tr_quad, trace_substitute
from .words import AssocSeries, decompose, format_rational, left_letter_mul, word_to_str


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
    """Per-degree zero check of any sparse series with sorted_items()."""
    degrees_hit = {len(w) for w in series.terms}
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
    f_x = AssocSeries._make(2, order, {b"\x00" * k: c for k, c in f.coeffs.items()})
    f_y = AssocSeries._make(2, order, {b"\x01" * k: c for k, c in f.coeffs.items()})
    return f_x + f_y - univariate_substitute(f, bch(order).expand())


def _trace_identity_sides(s: KVSolution, project):
    """Both sides of the trace identity for (A, B) under the projection ``project``.

    Left: the projection of x*(d_x A) + y*(d_y B).  Right: half the projection
    of f(x) + f(y) - f(ch(x,y)) with f the Bernoulli kernel t/(e^t-1) - 1 + t/2.
    """
    order = s.order
    d_x_A = decompose(s.A.expand()).partials[0]
    d_y_B = decompose(s.B.expand()).partials[1]
    lhs = project(left_letter_mul(0, d_x_A, order) + left_letter_mul(1, d_y_B, order))
    rhs = project(_bernoulli_side(order)) * Fraction(1, 2)
    return lhs, rhs


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
    """u^{1,2} + u^{12,3} - u^{1,23} - u^{2,3} for the derivation of (A, B)."""
    u = s.derivation()
    return (simplicial(u, "1,2") + simplicial(u, "12,3")
            - simplicial(u, "1,23") - simplicial(u, "2,3"))


def verify_prop_U(s: KVSolution, combination: TangentialDerivation | None = None) -> VerificationReport:
    """The simplicial combination annihilates the three-letter CH series."""
    _require_solution(s)
    U = simplicial_combination(s) if combination is None else combination
    return report_zero("propU", act(U, bch_multi(3, U.order)))


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
        defect = act(u, bch_multi(u.arity, u.order))
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
    """Canonical representatives of the nonzero signed cyclic classes."""
    reps = set()
    words = [b""]
    for _ in range(degree):
        words = [w + bytes([letter]) for w in words for letter in range(arity)]
    for w in words:
        canon = quad_canonical(w)
        if canon is not None:
            reps.add(canon[0])
    return sorted(reps)


def _quad_vector(series: QuadTraceSeries, basis: list[bytes]) -> list[Fraction]:
    return [series.coefficient(w) for w in basis]


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
    basis3 = _quad_class_basis(3, n)
    x, y, z = (generator(3, i, n) for i in range(3))
    arg_sets = [((x, y), 1), ((x + y, z), 1), ((x, y + z), -1), ((y, z), -1)]
    columns = []
    for rep in basis2:
        g = QuadTraceSeries._make(2, n, {rep: Fraction(1)})
        image = QuadTraceSeries.zero(3, n)
        for args, sign in arg_sets:
            image = image + trace_substitute(g, args) * sign
        columns.append(_quad_vector(image, basis3))
    matrix = [[columns[j][i] for j in range(len(basis2))] for i in range(len(basis3))]
    kernel = rational_kernel(matrix) if basis2 else []
    expected_dim = 1 if n % 2 == 0 else 0

    failures = []
    if len(kernel) != expected_dim:
        failures.append(Witness(n, f"kernel dimension {len(kernel)}, expected {expected_dim}",
                                Fraction(len(kernel) - expected_dim)))
    # coboundary certification: solve cob * h = v over one-letter classes
    basis1 = _quad_class_basis(1, n)
    x2, z2 = generator(2, 0, n), generator(2, 1, n)
    cob_columns = []
    for rep in basis1:
        h = QuadTraceSeries._make(1, n, {rep: Fraction(1)})
        cob = (trace_substitute(h, (x2,)) + trace_substitute(h, (z2,))
               - trace_substitute(h, (x2 + z2,)))
        cob_columns.append(_quad_vector(cob, basis2))
    for vec in kernel:
        if basis1:
            cob_matrix = [[col[i] for col in cob_columns] for i in range(len(basis2))]
            if rational_solve(cob_matrix, vec) is None:
                failures.append(Witness(n, "kernel vector is not a coboundary", Fraction(0)))
        elif any(vec):
            failures.append(Witness(n, "nonzero kernel but no one-letter classes", Fraction(0)))
    if n % 2 == 0 and len(kernel) == 1:
        # spanning check against the projection of (x+z)^n - x^n - z^n
        all_words = AssocSeries._make(
            2, n, {bytes(word): Fraction(1)
                   for word in itertools.product(range(2), repeat=n)})
        span = tr_quad(all_words
                       - AssocSeries.from_word(2, n, b"\x00" * n)
                       - AssocSeries.from_word(2, n, b"\x01" * n))
        span_vec = _quad_vector(span, basis2)
        vec = kernel[0]
        pivot = next((i for i, v in enumerate(span_vec) if v), None)
        ratio = None if pivot is None or not vec[pivot] else vec[pivot] / span_vec[pivot]
        if ratio is None or any(v != ratio * sv for v, sv in zip(vec, span_vec)):
            failures.append(Witness(n, "kernel not spanned by (x+z)^n - x^n - z^n", Fraction(0)))

    if failures:
        results = tuple(DegreeResult(n, "fail", w) for w in failures)
    else:
        results = (DegreeResult(n, "pass"),)
    report = VerificationReport("homo", n, results)
    vectors = [QuadTraceSeries(2, n, dict(zip(basis2, vec))) for vec in kernel]
    return vectors, report


def measured_operator_coefficients(element: LieElement) -> RationalUnivariateSeries:
    """Coefficients of the part of a two-letter Lie series linear in y.

    Every Lie monomial with a single y is a power of ad_x applied to y, and
    those are exactly the Lyndon words x^k y; the returned series has the
    coefficient of x^k y at exponent k.
    """
    order = max(element.order - 1, 0)
    coeffs = {}
    for k in range(order + 1):
        c = element.coefficient(b"\x00" * k + b"\x01")
        if c:
            coeffs[k] = c
    return RationalUnivariateSeries(order, coeffs)


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
