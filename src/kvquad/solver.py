"""Rational solutions of the Kashiwara-Vergne equation.

The equation asks for a pair of Lie series A, B in two letters with

    (1 - exp(-ad_x)) A + (exp(ad_y) - 1) B = x + y - ch(y, x),

where ch is the Campbell-Hausdorff series.  Writing a = ((1-e^{-t})/t)(ad_x) A
and b = ((e^t-1)/t)(ad_y) B turns it into [x, a] + [y, b] = x + y - ch(y, x),
which is solved degree by degree by rewriting the right-hand side as a
combination of bracket monomials grouped by their first letter.  Adding any
pair with [x, a'] + [y, b'] = 0 (classified by quadratic trace expressions)
produces further solutions; the flow reformulation provides an independent
characterization used as a cross-check.
"""

from fractions import Fraction

from .lie import (
    LieElement,
    _exp_minus_one,
    _operator_series_words,
    _project_to_lie,
    _right_normed_sides,
    apply_operator_series,
    bch,
    bracket,
    generator,
    kernel_series,
    scale,
)
from .tangential import TangentialDerivation, act, quadratic_trace_tuple
from .traces import trace_pairing
from .words import AssocSeries, _accumulate


class KVSolution:
    """A candidate solution pair (A, B) at a common truncation order.

    Instances produced by :func:`ab_to_AB` from a factorization of the
    Campbell-Hausdorff defect have exactly zero residual through their order;
    :func:`kv1_residual` certifies that.  Deserialized instances are taken as
    given and must be re-certified.
    """

    __slots__ = ("A", "B", "order", "method", "_residual")  # residual: filled on first use

    def __init__(self, A: LieElement, B: LieElement, method: str = "unspecified"):
        if A.arity != 2 or B.arity != 2:
            raise ValueError("solutions are pairs of two-letter Lie series")
        if A.order != B.order:
            raise ValueError("components must share one truncation order")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "order", A.order)
        object.__setattr__(self, "method", method)

    def __setattr__(self, name, value):
        raise AttributeError("KVSolution is immutable")

    def __reduce__(self):
        return KVSolution, (self.A, self.B, self.method)

    @property
    def a_scalar(self) -> Fraction:
        """Degree-one x-coefficient of A; measured, not prescribed."""
        return self.A.coefficient(b"\x00")

    @property
    def b_scalar(self) -> Fraction:
        """Degree-one x-coefficient of B; the series identities depend on it."""
        return self.B.coefficient(b"\x00")

    def derivation(self) -> TangentialDerivation:
        """The tangential derivation x -> [x, A], y -> [y, B]."""
        return TangentialDerivation([self.A, self.B])

    def __eq__(self, other):
        if not isinstance(other, KVSolution):
            return NotImplemented
        return self.A == other.A and self.B == other.B

    __hash__ = None

    def __repr__(self):
        return f"KVSolution(order={self.order}, method={self.method!r})"

    def to_json_dict(self) -> dict:
        return {"order": self.order, "A": self.A.to_json_dict(),
                "B": self.B.to_json_dict(), "method": self.method}

    @classmethod
    def from_json_dict(cls, data: dict) -> "KVSolution":
        """Inverse of ``to_json_dict``; any malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"solution JSON must be an object, got {type(data).__name__}")
        missing = [key for key in ("A", "B") if key not in data]
        if missing:
            raise ValueError(f"solution JSON lacks {', '.join(map(repr, missing))}")
        method = data.get("method", "unspecified")
        if not isinstance(method, str):
            raise ValueError("solution JSON 'method' must be a string")
        return cls(LieElement.from_json_dict(data["A"]),
                   LieElement.from_json_dict(data["B"]), method)


def kv_rhs(order: int) -> LieElement:
    """x + y - ch(y, x) = x + y + ch(-x, -y); it starts in degree two."""
    if order < 2:
        raise ValueError("order must be >= 2")
    x, y = generator(2, 0, order), generator(2, 1, order)
    return x + y + scale(bch(order), -1)


def factorize(r: LieElement, order: int | None = None) -> tuple[LieElement, LieElement]:
    """Write r = [x, a] + [y, b] by first-letter splitting.

    A homogeneous Lie polynomial of degree k equals 1/k times the sum over its
    words w of coeff(w) * [w_0, [w_1, [... w_last]]]; grouping the nested
    brackets by the outer letter w_0 yields the two factors.  Requires zero
    constant and degree-one parts.

    The degree-k words of r produce degree-(k-1) factor terms, so the factors
    are complete only through r.order - 1; that is their default order.  The
    identity [x, a] + [y, b] = r holds through the full order of r once the
    factors are reinterpreted one order higher (they are polynomials).
    """
    if order is None:
        order = r.order - 1
    if order > r.order - 1:
        raise ValueError("factors are only determined through r.order - 1")
    expanded = r.expand()
    if expanded.constant_term or not expanded.homogeneous_part(1).is_zero():
        raise ValueError("factorization input must start in degree two")
    weighted = {w: Fraction(c, len(w)) for w, c in expanded.terms.items() if len(w) - 1 <= order}
    a, b = (_project_to_lie(AssocSeries._make(2, order, side), validate=False)
            for side in _right_normed_sides(weighted, 2, {}))
    return a, b


def ab_to_AB(a: LieElement, b: LieElement, method: str = "unspecified") -> KVSolution:
    """Convert a bracket factorization into a solution pair.

    A = (t/(1-e^{-t}))(ad_x) a and B = (t/(e^t-1))(ad_y) b; these kernels
    invert the operators relating the two forms of the equation.
    """
    if a.arity != 2 or b.arity != 2 or a.order != b.order:
        raise ValueError("expected two-letter Lie series of one common order")
    A = apply_operator_series(kernel_series("t/(1-exp(-t))", a.order), 0, a)
    B = apply_operator_series(kernel_series("t/(exp(t)-1)", b.order), 1, b)
    return KVSolution(A, B, method=method)


def AB_to_ab(A: LieElement, B: LieElement) -> tuple[LieElement, LieElement]:
    """Inverse of :func:`ab_to_AB`: apply the reciprocal kernels."""
    a = apply_operator_series(kernel_series("t/(1-exp(-t))", A.order).inverse(), 0, A)
    b = apply_operator_series(kernel_series("t/(exp(t)-1)", B.order).inverse(), 1, B)
    return a, b


def kv1_residual(s: KVSolution) -> LieElement:
    """(1 - exp(-ad_x)) A + (exp(ad_y) - 1) B - (x + y - ch(y, x)).

    Evaluated through degree order + 1: both operators raise the degree, so
    that extra degree reads nothing beyond the stored coefficients, and it is
    exactly the constraint pinning the top-degree parts of A and B.  The
    residual vanishes iff the pair is the truncation of a genuine solution;
    without the extra degree, arbitrary top-degree parts would pass.

    The sum is formed in the word basis, where a Lie series vanishes exactly
    when its expansion does; only a nonzero residual is projected back to the
    Lyndon basis, once, to name its witness.  The result is memoized on the
    solution, which is immutable, on first use.
    """
    try:
        return s._residual
    except AttributeError:
        pass
    order = s.order + 1
    words = _operator_series_words(_exp_minus_one(order, -1), 0, s.A.with_order(order))
    for w, c in _operator_series_words(_exp_minus_one(order, 1), 1, s.B.with_order(order)).items():
        _accumulate(words, w, c)
    for w, c in kv_rhs(order).expand().terms.items():
        _accumulate(words, w, -c)
    if words:
        residual = _project_to_lie(AssocSeries._make(2, order, words), validate=False)
    else:
        residual = LieElement.zero(2, order)
    object.__setattr__(s, "_residual", residual)
    return residual


def canonical_solution(order: int) -> KVSolution:
    """The solution obtained by first-letter factorization of the defect.

    The defect is expanded one order higher so that the top-degree parts of
    A and B are those of a genuinely extendable solution: the equation itself
    never constrains the top degree (its operators raise the degree), but the
    quadratic trace identity does read it.
    """
    a, b = factorize(kv_rhs(order + 1), order)
    return ab_to_AB(a, b, method="dynkin-first-letter")


def gauge_family(s: KVSolution, pairs) -> list[KVSolution]:
    """s followed by its shifts along homogeneous-equation solutions.

    Each pair (l, r) of two-letter Lie polynomials induces, through the
    quadratic trace expression tr(l*r), a tuple (a', b') with
    [x, a'] + [y, b'] = 0; shifting the bracket factorization of s by it gives
    another solution.  The pairing is computed one order higher so the
    extracted tuple is complete through the solution order.
    """
    base_a, base_b = AB_to_ab(s.A, s.B)
    family = [s]
    for left, right in pairs:
        p = trace_pairing(left.with_order(s.order + 1), right.with_order(s.order + 1))
        shift_a, shift_b = quadratic_trace_tuple(p)
        shifted = ab_to_AB(base_a + shift_a, base_b + shift_b,
                           method=f"{s.method}+gauge")
        family.append(shifted)
    return family


def standard_gauge_pairs(count: int, order: int) -> list[tuple[LieElement, LieElement]]:
    """A deterministic catalog of Lie pairs for gauge shifts."""
    x, y = generator(2, 0, order), generator(2, 1, order)
    xy = bracket(x, y)
    xxy = bracket(x, xy)
    yxy = bracket(y, xy)
    catalog = [
        (x, y),
        (x, xy),
        (y, xy),
        (xy, xy),
        (x, xxy),
        (y, yxy),
        (x, x),
        (y, y),
        (xy, xxy),
        (xxy, yxy),
    ]
    if count > len(catalog):
        raise ValueError(f"catalog provides at most {len(catalog)} pairs")
    return catalog[:count]


def flow_check(s: KVSolution, t_samples) -> bool:
    """Sample-based check of the flow reformulation of the equation.

    At each rational t != 0 the derivation with tuple
    (t^{-1} A(tx, ty), t^{-1} B(tx, ty)) must send the rescaled
    Campbell-Hausdorff series ch_t to its t-derivative.  Per degree both
    sides are polynomial in t, so order + 1 distinct samples certify the
    identity; fewer samples are rejected.
    """
    samples = [Fraction(t) for t in t_samples]
    if any(not t for t in samples):
        raise ValueError("samples must be nonzero")
    if len(set(samples)) != len(samples):
        raise ValueError("samples must be pairwise distinct")
    if len(samples) < s.order + 1:
        raise ValueError(f"need at least order + 1 = {s.order + 1} samples")
    ch = bch(s.order)
    for t in samples:
        inv = 1 / t
        u_t = TangentialDerivation([scale(s.A, t) * inv, scale(s.B, t) * inv])
        ch_t = scale(ch, t) * inv
        lhs = act(u_t, ch_t)
        rhs = LieElement._make(
            2, s.order,
            {w: c * (len(w) - 1) * t ** (len(w) - 2)
             for w, c in ch.terms.items() if len(w) >= 2})
        if lhs != rhs:
            return False
    return True
