"""Degree-by-degree verifiers for the identities satisfied by KV solutions.

Every check compares exact rational coefficients and reports one status per
degree; the first discrepancy is recorded as a witness (the offending word or
cyclic class together with the coefficient delta).  Checks whose hypothesis
is the equation itself refuse to run on a pair with nonzero residual; the
residual has its own report so that corrupted inputs surface as ordinary
failures rather than usage errors.  The three-letter checks share the simplicial
faces of :mod:`kvquad.tangential`: propU and propLast act by their signed sum U,
cocycle sums the faces of trace classes (``_face_sum``), and homo sums the
faces joined by x + y (``tangential._additive_face_sum``).
"""

import functools
from fractions import Fraction

from .lie import LieElement, RationalUnivariateSeries, kernel_series
from .linalg import rational_kernel
from .lyndon import lyndon_words
from .solver import KVSolution, kv1_residual
from .tangential import (_FACES, TangentialDerivation, _additive_face_sum, _coboundary,
                         _face_words, ch_defect, div_quad, divergence_words, simplicial_words)
from .traces import QuadTraceSeries, quad_canonical, tr, tr_quad
from .words import AssocSeries, _linear_sum, _Record, format_rational, word_to_str


class Witness(_Record):
    """First failing item of a check: where, what, and by how much."""

    __slots__ = ("degree", "item", "delta")
    degree: int
    item: str
    delta: Fraction

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "item": self.item,
                "delta": format_rational(self.delta)}


class DegreeResult(_Record):
    __slots__ = ("degree", "status", "witness")
    _defaults = {"witness": None}
    degree: int
    status: str  # "pass" | "fail" | "skip" | "info"
    witness: Witness | None


class VerificationReport(_Record):
    """Outcome of one named check, one entry per degree.

    ``gating`` is False for purely informational checks, which never affect
    an overall verdict.  Any failing or skipped entry carries a witness.
    """

    __slots__ = ("check", "order", "results", "gating")
    _defaults = {"gating": True}
    check: str
    order: int
    results: tuple[DegreeResult, ...]
    gating: bool

    @property
    def passed(self) -> bool:
        """Informational checks always pass; a gating check that checked nothing fails."""
        if not self.gating:
            return True
        return bool(self.results) and all(r.status == "pass" for r in self.results)

    @property
    def witness(self) -> Witness | None:
        return next((r.witness for r in self.results if r.witness is not None), None)

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


def _witnesses(series, prefix: str = "") -> dict[int, Witness]:
    """The least key of each degree of ``series``, with its coefficient, in one pass."""
    ints, d = series._pair
    least: dict[int, bytes] = {}
    for w in ints:
        least[len(w)] = min(w, least.get(len(w), w))
    return {n: Witness(n, prefix + (word_to_str(w) if w else "1"), Fraction(ints[w], d))
            for n, w in least.items()}


def _degree_report(check: str, order: int, witnesses: dict[int, Witness],
                   gating: bool = True) -> VerificationReport:
    """Degrees 0..order, failed where ``witnesses`` has one; all "info" if not gating."""
    bad, good = ("fail", "pass") if gating else ("info", "info")
    results = tuple(DegreeResult(d, bad, witnesses[d]) if d in witnesses else DegreeResult(d, good)
                    for d in range(order + 1))
    return VerificationReport(check, order, results, gating=gating)


def report_zero(check: str, series, gating: bool = True) -> VerificationReport:
    """Per-degree zero check of any sparse series; a Lie series is read at its coordinates."""
    return _degree_report(check, series.order, _witnesses(series), gating)


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
    return AssocSeries._make(2, order, *_coboundary(kernel_series("f", order)._pair, order))


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


def _combination(u: TangentialDerivation, order: int) -> TangentialDerivation:
    """u^{1,2} + u^{12,3} - u^{1,23} - u^{2,3} for a two-letter u, declared at ``order``.

    The four embeddings are summed as integer word maps, which are the
    components' stored words: ``act`` reads them, and nothing here peels them.
    An ``order`` above u.order declares the sum a polynomial with no words
    beyond u.order.
    """
    sums: list[list] = [[], [], []]
    for pattern, sign in _FACES.items():
        for parts, (ints, d) in zip(sums, simplicial_words(u, pattern)):
            parts.append((sign, ints, d))
    return TangentialDerivation(
        [LieElement.from_words(AssocSeries._make(3, order, *_linear_sum(parts)))
         for parts in sums])


def simplicial_combination(s: KVSolution) -> TangentialDerivation:
    """u^{1,2} + u^{12,3} - u^{1,23} - u^{2,3} for the derivation of (A, B), memoized on s.

    U is stored in the solution's memo directly: ``_linear`` adds coefficientwise.
    """
    if "U" not in s._memo:
        s._memo["U"] = _combination(s.derivation(), s.order)
    return s._memo["U"]


def verify_prop_U(s: KVSolution) -> VerificationReport:
    """The simplicial combination annihilates the three-letter CH series.

    The defect through degree n reads U only through degree n - 1
    (``ch_defect``), and U's words of degree k read only those of (A, B)
    and ch(x, y) through k.  So, unless the solution already holds U, the
    faces are built from (A, B) cut at n - 1 and summed at order n with no
    degree-n words; that U is used here alone and never stored.
    """
    _require_solution(s)
    U = s._memo.get("U")
    if U is None:
        cut = max(s.order - 1, 1)  # ch(x, y) has no build at order 0
        U = _combination(TangentialDerivation([s.A.truncated(cut), s.B.truncated(cut)]), s.order)
    return report_zero("propU", ch_defect(U))


def verify_prop_last(instances) -> VerificationReport:
    """Derivations annihilating ch(x_1,...,x_n) have zero quadratic divergence.

    Instances failing the hypothesis (checked exactly) are reported as
    skipped with the witnessing defect instead of being evaluated.
    """
    instances = list(instances)
    order = max((u.order for u in instances), default=0)
    failures: dict[int, Witness] = {}
    results: list[DegreeResult] = []  # the skips, then the checked degrees
    checked_any = False
    for idx, u in enumerate(instances):
        defect = _witnesses(ch_defect(u), f"instance {idx}: ch defect ")
        if defect:
            degree = min(defect)
            results.append(DegreeResult(degree, "skip", defect[degree]))
            continue
        checked_any = True
        for d, witness in _witnesses(div_quad(u), f"instance {idx}: ").items():
            failures.setdefault(d, witness)
    if checked_any:
        results += _degree_report("propLast", order, failures).results
    results.sort(key=lambda r: r.degree)
    return VerificationReport("propLast", order, tuple(results))


def _face_sum(pair, order: int) -> QuadTraceSeries:
    """The signed faces of a two-letter map (``_face_words``), summed, then projected once."""
    parts = [(sign, *_face_words([pair], face, order)[0]) for face, sign in _FACES.items()]
    return tr_quad(AssocSeries._make(3, order, *_linear_sum(parts)))


def verify_cocycle_equation(s: KVSolution) -> VerificationReport:
    """Four-term combination of the quadratic divergence vanishes in three letters.

    With g the quadratic divergence of the pair's derivation, checks
    g(x,y) + g(ch(x,y),z) - g(x,ch(y,z)) - g(y,z) = 0 by ``_face_sum`` on g's
    class representatives; as in ``trace_substitute``, any representative serves.
    """
    _require_solution(s)
    return report_zero("cocycle", _face_sum(div_quad(s.derivation())._pair, s.order))


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


_X_PLUS_Y = ({b"\x00": 1, b"\x01": 1}, 1)  # the join of homo's coboundaries


def homo_kernel(degree: int) -> tuple[list[QuadTraceSeries], VerificationReport]:
    """Exact kernel of the additive four-term equation in fixed degree.

    Solves g(x,y) + g(x+y,z) - g(x,y+z) - g(y,z) = 0 on the degree-n
    component of two-letter quadratic trace classes, exactly.  Each row (one
    three-letter class) ties at most two classes, so ``rational_kernel`` reads
    the kernel by weighted union-find rather than elimination.
    The report asserts the kernel dimension (1 for even n, 0 for odd n),
    that every kernel vector is a coboundary h(x) + h(z) - h(x+z) of a
    one-letter class, and that an even-degree kernel is spanned by one.
    The one-letter classes are x^n at even n and none at odd n (there x^n is
    its own negative), so the coboundaries are the multiples of one class,
    zero at odd n, and one ratio test certifies both.
    """
    if not isinstance(degree, int):
        raise ValueError(f"degree must be an integer, got {degree!r}")
    if degree < 2:
        raise ValueError("degree must be >= 2")
    n = degree
    basis2 = _quad_class_basis(2, n)
    # one sparse row per three-letter class met by the faces of the basis classes: the
    # image of the j-th class at column j (integer faces of an integer map lie over 1)
    rows: dict[bytes, dict[int, int]] = {}
    for j, rep in enumerate(basis2):
        faces = tr_quad(AssocSeries._make(3, n, _additive_face_sum({rep: 1})))
        for w, c in faces._pair[0].items():
            rows.setdefault(w, {})[j] = c
    kernel = rational_kernel(list(rows.values()), len(basis2)) if basis2 else []
    vectors = [QuadTraceSeries(2, n, {basis2[j]: v for j, v in vec.items()}) for vec in kernel]
    expected_dim = 1 if n % 2 == 0 else 0

    failures = []
    if len(kernel) != expected_dim:
        failures.append(Witness(n, f"kernel dimension {len(kernel)}, expected {expected_dim}",
                                Fraction(len(kernel) - expected_dim)))
    one_letter = dict.fromkeys(_quad_class_basis(1, n), 1)  # {x^n: 1} at even n, {} at odd n
    cob = tr_quad(AssocSeries._make(2, n, *_coboundary((one_letter, 1), n, _X_PLUS_Y)))
    pivot = min(cob._pair[0], default=None)
    spanning = []  # per vector: a nonzero multiple of cob
    for vec in vectors:
        ratio = 0 if pivot is None else vec.coefficient(pivot) / cob.coefficient(pivot)
        multiple = vec == cob * ratio
        if not multiple:
            item = ("nonzero kernel but no one-letter classes" if pivot is None
                    else "kernel vector is not a coboundary")
            failures.append(Witness(n, item, Fraction(0)))
        spanning.append(multiple and ratio != 0)
    if expected_dim == 1 and spanning == [False]:
        failures.append(Witness(n, "kernel not spanned by (x+z)^n - x^n - z^n", Fraction(0)))

    results = tuple(DegreeResult(n, "fail", w) for w in failures) or (DegreeResult(n, "pass"),)
    return vectors, VerificationReport("homo", n, results)


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
