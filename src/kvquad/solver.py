"""Rational solutions of the Kashiwara-Vergne equation.

The equation asks for a pair of Lie series A, B in two letters with

    (1 - exp(-ad_x)) A + (exp(ad_y) - 1) B = x + y - ch(y, x),

where ch is the Campbell-Hausdorff series.  Writing a = ((1-e^{-t})/t)(ad_x) A
and b = ((e^t-1)/t)(ad_y) B turns it into [x, a] + [y, b] = x + y - ch(y, x),
which is solved degree by degree by rewriting the right-hand side as a
combination of bracket monomials grouped by their first letter.  Since
ch(x, y) = -ch(-y, -x), the right-hand side F satisfies F(-y, -x) = -F(x, y),
and the split commutes with the mirror x -> -y, y -> -x: b(x, y) = a(-y, -x).
The two transport kernels are K(t) and K(-t), so B(x, y) = A(-y, -x) too, and
the canonical solution computes the x side alone (``_mirror``).  Adding any
pair with [x, a'] + [y, b'] = 0 (spanned by the slots of quadratic traces, as
test_quadratic_traces_span_the_gauge_kernel in tests/test_solver.py certifies)
produces further solutions; the flow reformulation provides an independent
characterization used as a cross-check.
"""

import functools
import math
from fractions import Fraction

from .lie import (
    LieElement,
    _ad_ints,
    _ad_polynomial,
    _exp_minus_one,
    apply_operator_series,
    bch,
    bracket,
    ch_t,
    generator,
    kernel_series,
    scale,
    without_letters,
)
from .tangential import TangentialDerivation, _trace_slots, act
from .traces import trace_pairing
from .words import AssocSeries, _Frozen, _SparseSeries, _check_json_object, _linear_sum


class KVSolution(_Frozen):
    """A candidate solution pair (A, B) at a common truncation order.

    Instances produced by :func:`ab_to_AB` from a factorization of the
    Campbell-Hausdorff defect have exactly zero residual through their order;
    :func:`kv1_residual` certifies that.  Deserialized instances are taken as
    given and must be re-certified.  A member of :func:`gauge_family` keeps
    its base solution and its shift; its checks are summed, and its A and B
    are its base's plus its shift's, added on Lyndon coordinates on first read.
    """

    # _memo is filled on first use, one entry per name: the residual, U and the values
    # of ``_linear`` by key; _gauge is set by gauge_family: (base solution, shift), and
    # a member's A and B slots stay unset until read
    __slots__ = ("A", "B", "order", "method", "_memo", "_gauge")

    def __init__(self, A: LieElement, B: LieElement, method: str = "unspecified"):
        if A.arity != 2 or B.arity != 2:
            raise ValueError("solutions are pairs of two-letter Lie series")
        if A.order != B.order:
            raise ValueError("components must share one truncation order")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "order", A.order)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _shifted(cls, base: "KVSolution", shift: "KVSolution") -> "KVSolution":
        """The gauge member base + shift, with neither A nor B formed yet."""
        self = object.__new__(cls)
        for name, value in (("order", min(base.order, shift.order)),
                            ("method", f"{base.method}+gauge"), ("_memo", {}),
                            ("_gauge", (base, shift))):
            object.__setattr__(self, name, value)
        return self

    def __getattr__(self, name):
        # reached only for a slot never filled: a gauge member's A or B, summed by the core
        # on coordinates (Lie series add by coordinates) and published by one assignment
        if name not in ("A", "B"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        base, shift = self._gauge
        value = _SparseSeries.__add__(getattr(base, name), getattr(shift, name))
        object.__setattr__(self, name, value)
        return value

    def __reduce__(self):
        return KVSolution, (self.A, self.B, self.method)

    @property
    def a_scalar(self) -> Fraction:
        """Degree-one x-coefficient of A, read off its words (only x expands to x); measured."""
        return self.A.expand().coefficient(b"\x00")

    @property
    def b_scalar(self) -> Fraction:
        """Degree-one x-coefficient of B, read off its words; the series identities depend on it."""
        return self.B.expand().coefficient(b"\x00")

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

    def _linear(self, key, of):
        """``of(self)``, a series linear in (A, B), memoized per ``key``.  A gauge member's
        is its base's plus its shift's, added by the core coefficientwise, so the member's
        own A and B are never formed."""
        if key not in self._memo:
            gauge = getattr(self, "_gauge", None)
            self._memo[key] = of(self) if gauge is None else _SparseSeries.__add__(
                gauge[0]._linear(key, of), of(gauge[1]))
        return self._memo[key]

    def _json_form(self) -> dict:
        """``to_json_dict`` with A and B left as series, for a writer that formats series."""
        return {"order": self.order, "A": self.A, "B": self.B, "method": self.method}

    def to_json_dict(self) -> dict:
        data = self._json_form()
        data["A"], data["B"] = self.A.to_json_dict(), self.B.to_json_dict()
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "KVSolution":
        """Inverse of ``to_json_dict``; any malformed input raises ValueError."""
        _check_json_object(data, "solution", ("A", "B"))
        method = data.get("method", "unspecified")
        if not isinstance(method, str):
            raise ValueError("solution JSON 'method' must be a string")
        solution = cls(LieElement.from_json_dict(data["A"]),
                       LieElement.from_json_dict(data["B"]), method)
        order = data.get("order", solution.order)
        if type(order) is not int or order != solution.order:
            raise ValueError(f"solution JSON 'order' must be {solution.order}, "
                             f"the order of A and B, got {order!r}")
        return solution


@functools.lru_cache(maxsize=4)
def kv_rhs(order: int) -> LieElement:
    """x + y - ch(y, x): ch(-x, -y) without its degree-one part, stored as words.

    Cached per order, so the Campbell-Hausdorff word expansion it keeps is
    shared by ``factorize`` and every residual at that order.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    return without_letters(scale(bch(order), -1), range(2))


_SWAP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _mirror(e: LieElement) -> LieElement:
    """e(-y, -x) for a two-letter series e, on its integer pair: the letters swapped
    and the numerators of odd-length words negated, over the same denominator."""
    ints, d = e.expand()._pair
    return LieElement.from_words(AssocSeries._make(
        2, e.order, {w.translate(_SWAP): -n if len(w) % 2 else n for w, n in ints.items()}, d))


def factorize(r: LieElement, order: int | None = None) -> tuple[LieElement, LieElement]:
    """Write r = [x, a] + [y, b] by first-letter splitting.

    A homogeneous Lie polynomial of degree k is 1/k times its image under
    w -> [w_0, [w_1, [..., w_last]]] = [x_{w_0}, ad_u x_j], u = w_1 ... w_{last-1},
    j = w_last (Dynkin-Specht-Wever).  The factor of x_i therefore sums
    coeff(w)/|w| * ad_u x_j over the words w starting with letter i, one
    nested-ad computation per first and last letter, on integer numerators
    over the common denominator of r times lcm(2, ..., order + 1), which
    clears every 1/|w|.  Requires zero constant and degree-one parts.

    The degree-k words of r produce degree-(k-1) factor terms, so the factors
    are complete only through r.order - 1; that is their default order.  The
    identity [x, a] + [y, b] = r holds through the full order of r once the
    factors are reinterpreted one order higher (they are polynomials).

    The mirror x -> -y, y -> -x sends the words of first letter x to those of
    first letter y, and the bracketing is multilinear, so it commutes with
    the split: if r(-y, -x) = -r(x, y), then b(x, y) = a(-y, -x).  The defect
    x + y - ch(y, x) is such an r, because ch(x, y) = -ch(-y, -x).  When the
    kept words of r (those of degree <= order + 1) satisfy it exactly, only
    the groups of first letter x are computed and b is ``_mirror(a)``;
    otherwise both sides are.
    """
    if r.arity != 2:
        raise ValueError(f"factorization input must have two letters, not {r.arity}")
    if order is None:
        order = r.order - 1
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > r.order - 1:
        raise ValueError("factors are only determined through r.order - 1")
    expanded = r.expand()
    if expanded.constant_term or not expanded.homogeneous_part(1).is_zero():
        raise ValueError("factorization input must start in degree two")
    numerators, d = expanded._pair
    mirrored = all(numerators.get(w.translate(_SWAP)) == (n if len(w) % 2 else -n)
                   for w, n in numerators.items() if len(w) - 1 <= order)
    lengths = math.lcm(*range(2, order + 2))  # a multiple of every |w| kept below
    groups: dict[tuple[int, int], dict[bytes, int]] = {}
    for w, n in numerators.items():
        if len(w) - 1 <= order and not (mirrored and w[0]):
            groups.setdefault((w[0], w[-1]), {})[w[1:-1]] = n * (lengths // len(w))
    sides: list[list] = [[], []]
    for (first, last), middles in groups.items():
        sides[first].append((1, _ad_ints(middles, {bytes([last]): 1}, order), d * lengths))
    a, b = (LieElement.from_words(AssocSeries._make(2, order, *_linear_sum(parts)))
            for parts in sides)
    return (a, _mirror(a)) if mirrored else (a, b)


def ab_to_AB(a: LieElement, b: LieElement, method: str = "unspecified") -> KVSolution:
    """Convert a bracket factorization into a solution pair.

    A = (t/(1-e^{-t}))(ad_x) a and B = (t/(e^t-1))(ad_y) b; these kernels
    invert the operators relating the two forms of the equation.
    """
    A = apply_operator_series(kernel_series("t/(1-exp(-t))", a.order), 0, a)
    B = apply_operator_series(kernel_series("t/(exp(t)-1)", b.order), 1, b)
    return KVSolution(A, B, method=method)


def kv1_residual(s: KVSolution) -> LieElement:
    """(1 - exp(-ad_x)) A + (exp(ad_y) - 1) B - (x + y - ch(y, x)).

    Evaluated through degree order + 1: both operators raise the degree, so
    that extra degree reads nothing beyond the stored coefficients, and it is
    exactly the constraint pinning the top-degree parts of A and B.  The
    residual vanishes iff the pair is the truncation of a genuine solution;
    without the extra degree, arbitrary top-degree parts would pass.

    The sum is formed in the word basis, where a Lie series vanishes exactly
    when its expansion does: each operator is ad of u = sum_k phi_k x_i^k
    acting on the word expansion (Horner's scheme).  The two operator terms
    and the right-hand side are summed as integer numerators over one
    denominator, so the cancellation costs no ``Fraction`` arithmetic.  The
    operators are linear, so a gauge member's sum is its base's residual
    plus the operator terms of its shift alone.  The sum is stored as its
    words; only a nonzero residual is peeled, to name its witness.
    The result is memoized on the solution, which is immutable, on first use.
    """
    if "residual" in s._memo:
        return s._memo["residual"]
    order = s.order + 1
    gauge = getattr(s, "_gauge", None)
    if gauge is None:
        parts, operand = [(-1, *kv_rhs(order).expand()._pair)], s
    else:
        base, operand = gauge
        parts = [(1, *kv1_residual(base).expand()._pair)]
    for index, (sign, component) in enumerate(((-1, operand.A), (1, operand.B))):
        u, du = _ad_polynomial(_exp_minus_one(order, sign), index, component.arity, order)
        z, dz = component.expand()._pair
        parts.append((1, _ad_ints(u, z, order), du * dz))
    s._memo["residual"] = LieElement.from_words(AssocSeries._make(2, order, *_linear_sum(parts)))
    return s._memo["residual"]


@functools.lru_cache(maxsize=4)
def canonical_solution(order: int) -> KVSolution:
    """The solution obtained by first-letter factorization of the defect.

    The defect is expanded one order higher so that the top-degree parts of
    A and B are those of a genuinely extendable solution: the equation itself
    never constrains the top degree (its operators raise the degree), but the
    quadratic trace identity does read it.

    The defect is antisymmetric under the mirror x -> -y, y -> -x, so the
    factor b is the mirror of a (see ``factorize``).  The kernel t/(e^t - 1)
    that transports b is t/(1 - e^{-t}) at -t, so B = A(-y, -x): only a is
    transported, and B is ``_mirror(A)``.

    Cached per order like ``kv_rhs``: the solution is immutable, so its
    memos (coordinates, residual, divergence sides) serve every later caller.
    """
    a, _ = factorize(kv_rhs(order + 1), order)
    A = apply_operator_series(kernel_series("t/(1-exp(-t))", a.order), 0, a)
    return KVSolution(A, _mirror(A), method="dynkin-first-letter")


def gauge_family(s: KVSolution, pairs) -> list[KVSolution]:
    """s followed by its shifts along homogeneous-equation solutions.

    Each pair (l, r) of two-letter Lie polynomials induces, through tr(l*r)
    taken one order higher, a tuple (a', b') with [x, a'] + [y, b'] = 0
    through the order of s, as unpeeled words (a pairing of Lie series is
    quadratic).  :func:`ab_to_AB` is linear, so s plus the transported tuple
    is the member that the shifted factorization gives.
    An entry (l, r, p) hands in that pairing p, which is then not formed
    again.  Each member keeps s and its shift, so its residual and trace
    sides are those of s plus the shift's terms; nothing is computed here.
    """
    family = [s]
    for left, right, *paired in pairs:
        p = paired[0] if paired else trace_pairing(left.with_order(s.order + 1),
                                                    right.with_order(s.order + 1))
        family.append(KVSolution._shifted(s, ab_to_AB(*_trace_slots(p))))
    return family


@functools.lru_cache(maxsize=4)
def standard_family(order: int, count: int) -> tuple[KVSolution, ...]:
    """``gauge_family`` of ``canonical_solution(order)`` along the first ``count`` catalog pairs.

    Cached per (order, count) like ``canonical_solution``.  The family is a
    tuple of immutable members, so no caller can change the shared value, and
    the members' summed A and B and their shifts' coordinates and memos serve
    every later caller.  The catalog is read first, so a negative count or one
    beyond the catalog is refused before anything is built.
    """
    pairs = standard_gauge_pairs(count, order)
    return tuple(gauge_family(canonical_solution(order), pairs))


def standard_gauge_pairs(count: int, order: int) -> list[tuple[LieElement, LieElement]]:
    """A deterministic catalog of Lie pairs for gauge shifts, in an order golden outputs pin.

    Entries 1, 2, 4, 5 and 8 are (u, [u, v]); tr(u [u, v]) = 0 by invariance, so they give s again.
    A negative count is refused before any generator is built.
    """
    if count < 0:
        raise ValueError(f"catalog count must be >= 0, got {count}")
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
    ch, d = bch(s.order).expand()._pair
    top = max(s.order - 2, 0)  # (|w| - 1) t^(|w|-2) with t = p/q, over q^top
    for t in samples:
        inv = 1 / t
        u_t = TangentialDerivation([scale(s.A, t) * inv, scale(s.B, t) * inv])
        lhs = act(u_t, ch_t(t, s.order))
        p, q = t.numerator, t.denominator
        rhs = LieElement.from_words(AssocSeries._make(
            2, s.order,
            {w: n * (len(w) - 1) * p ** (len(w) - 2) * q ** (top - len(w) + 2)
             for w, n in ch.items() if len(w) >= 2}, d * q ** top))
        if lhs != rhs:
            return False
    return True
