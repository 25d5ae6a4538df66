"""Tangential derivations: derivations sending each generator x_i to [x_i, a_i].

A derivation is identified with its tuple (a_1, ..., a_n) of Lie series.  The
tuple is normalized on construction by dropping the x_i-linear term of a_i,
which never changes the action since [x_i, x_i] = 0; with that convention the
tuple determines the derivation uniquely.  The module also provides the
simplicial embeddings of two-letter derivations into three letters, the
divergence valued in cyclic words (plain and signed-reversal quotients), the
induced action on trace series, and the correspondence sending a quadratic
trace expression to the unique tuple with sum of brackets zero.
"""

from fractions import Fraction

from .lie import (
    LieElement,
    NotLieError,
    _project_to_lie,
    bch_multi,
    directional_derivative,
    generator,
    substitute_many,
)
from .lyndon import commutator
from .traces import QuadTraceSeries, TraceSeries, tr, tr_quad
from .words import ArityMismatchError, AssocSeries, Rational, _accumulate, decompose, left_letter_mul


def _strip_own_linear(index: int, a: LieElement) -> LieElement:
    key = bytes([index])
    if key not in a.terms:
        return a
    terms = dict(a.terms)
    del terms[key]
    return LieElement._make(a.arity, a.order, terms)


class TangentialDerivation:
    """Arity-n tuple of Lie series a_i acting by x_i -> [x_i, a_i]."""

    __slots__ = ("arity", "order", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a tangential derivation needs at least one component")
        arity = len(components)
        order = components[0].order
        normalized = []
        for i, a in enumerate(components):
            if not isinstance(a, LieElement):
                raise TypeError("components must be LieElements")
            if a.arity != arity:
                raise ArityMismatchError(
                    f"component {i} has arity {a.arity}, expected {arity}")
            if a.order != order:
                raise ValueError("components must share one truncation order")
            normalized.append(_strip_own_linear(i, a))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "components", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("TangentialDerivation is immutable")

    def __reduce__(self):
        return TangentialDerivation, (self.components,)

    @classmethod
    def zero(cls, arity, order):
        return cls([LieElement.zero(arity, order)] * arity)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.components)

    def __eq__(self, other):
        if not isinstance(other, TangentialDerivation):
            return NotImplemented
        return self.arity == other.arity and self.components == other.components

    __hash__ = None

    def __add__(self, other):
        self._check_compatible(other)
        return TangentialDerivation(
            [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TangentialDerivation([-a for a in self.components])

    def __mul__(self, scalar: Rational):
        return TangentialDerivation([a * scalar for a in self.components])

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, TangentialDerivation):
            raise TypeError(
                f"expected TangentialDerivation, got {type(other).__name__}")
        if self.arity != other.arity:
            raise ArityMismatchError(f"arity mismatch: {self.arity} vs {other.arity}")

    def bracket(self, other: "TangentialDerivation") -> "TangentialDerivation":
        """Commutator of actions, as a tangential derivation.

        With u = (a_i), v = (b_i) the tuple of [u, v] is u(b_i) - v(a_i) + [a_i, b_i].
        """
        self._check_compatible(other)
        out = []
        for a, b in zip(self.components, other.components):
            out.append(act(self, b) - act(other, a) + a.bracket(b))
        return TangentialDerivation(out)

    def __repr__(self):
        inner = ", ".join(str(a) for a in self.components)
        return f"TangentialDerivation(arity={self.arity}, order={self.order}, ({inner}))"

    def to_json_dict(self) -> dict:
        return {"arity": self.arity, "order": self.order,
                "tuple": [a.to_json_dict() for a in self.components]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "TangentialDerivation":
        return cls([LieElement.from_json_dict(d) for d in data["tuple"]])


def act(u: TangentialDerivation, a):
    """Apply the derivation; accepts an AssocSeries or LieElement, same kind out.

    Each image [x_i, a_i] is spliced into the word expansion of ``a``; a Lie
    result is projected back to the Lyndon basis once.
    """
    if a.arity != u.arity:
        raise ArityMismatchError(f"arity mismatch: {u.arity} vs {a.arity}")
    is_lie = isinstance(a, LieElement)
    words = a.expand() if is_lie else a
    result = AssocSeries.zero(a.arity, a.order)
    for i, a_i in enumerate(u.components):
        if a_i.is_zero():
            continue
        image = commutator({bytes([i]): 1}, a_i.expand()._terms, u.order)
        result = result + directional_derivative(
            words, i, AssocSeries._make(u.arity, u.order, image))
    return _project_to_lie(result, validate=False) if is_lie else result


_SIMPLICIAL_PATTERNS = ("1,2", "2,3", "12,3", "1,23")


def simplicial(u: TangentialDerivation, pattern: str) -> TangentialDerivation:
    """Embed a two-letter derivation into three letters.

    For u = (A, B) the four patterns give
      1,2  -> (A(x,y), B(x,y), 0)
      2,3  -> (0, A(y,z), B(y,z))
      12,3 -> (A(ch(x,y),z), A(ch(x,y),z), B(ch(x,y),z))
      1,23 -> (A(x,ch(y,z)), B(x,ch(y,z)), B(x,ch(y,z)))
    with ch the two-letter Campbell-Hausdorff series.
    """
    if u.arity != 2:
        raise ArityMismatchError("simplicial maps embed arity-2 derivations")
    order = u.order
    x, y, z = (generator(3, i, order) for i in range(3))
    A, B = u.components
    zero = LieElement.zero(3, order)
    if pattern == "1,2":
        A3, B3 = substitute_many([A, B], (x, y))
        return TangentialDerivation([A3, B3, zero])
    if pattern == "2,3":
        A3, B3 = substitute_many([A, B], (y, z))
        return TangentialDerivation([zero, A3, B3])
    if pattern == "12,3":
        ch_xy = substitute_many([bch_multi(2, order)], (x, y))[0]
        A3, B3 = substitute_many([A, B], (ch_xy, z))
        return TangentialDerivation([A3, A3, B3])
    if pattern == "1,23":
        ch_yz = substitute_many([bch_multi(2, order)], (y, z))[0]
        A3, B3 = substitute_many([A, B], (x, ch_yz))
        return TangentialDerivation([A3, B3, B3])
    raise ValueError(f"unknown simplicial pattern {pattern!r}; expected one of {_SIMPLICIAL_PATTERNS}")


def _divergence(u: TangentialDerivation, project):
    total = None
    for i, a_i in enumerate(u.components):
        partial = decompose(a_i.expand()).partials[i]
        piece = project(left_letter_mul(i, partial, u.order))
        total = piece if total is None else total + piece
    return total


def div(u: TangentialDerivation) -> TraceSeries:
    """The divergence: sum over i of tr(x_i * (d_i a_i)); a 1-cocycle."""
    return _divergence(u, tr)


def div_quad(u: TangentialDerivation) -> QuadTraceSeries:
    """The divergence projected to cyclic words modulo signed reversal."""
    return _divergence(u, tr_quad)


def act_on_trace(u: TangentialDerivation, g):
    """Derivation action on a trace series, via its linear representative sum_w c_w w."""
    if g.arity != u.arity:
        raise ArityMismatchError(f"arity mismatch: {u.arity} vs {g.arity}")
    if g.is_zero():
        return type(g).zero(g.arity, g.order)
    project = tr if isinstance(g, TraceSeries) else tr_quad
    return project(act(u, AssocSeries._make(g.arity, g.order, g.terms)))


def quadratic_trace_tuple(p: TraceSeries) -> tuple[LieElement, ...]:
    """Raw tuple (a_1, ..., a_n) generated by a quadratic trace expression.

    Differentiating p at slot i along a fresh direction z leaves tr(z a_i);
    on cyclic words that is pure rotation bookkeeping.  The result satisfies
    sum_i [x_i, a_i] = 0 (checked) and each a_i must pass the Lie-membership
    test; a failure means p was not a combination of tr(Lie * Lie) terms.
    The a_i may still carry x_i-linear terms: no normalization is applied.
    """
    arity, order = p.arity, p.order
    raw: list[dict[bytes, Fraction]] = [{} for _ in range(arity)]
    for w, c in p.terms.items():
        for pos, letter in enumerate(w):
            _accumulate(raw[letter], w[pos + 1:] + w[:pos], c)
    components = []
    for i, terms in enumerate(raw):
        try:
            components.append(
                _project_to_lie(AssocSeries._make(arity, max(order - 1, 0), terms), validate=True))
        except NotLieError as exc:
            raise NotLieError(
                f"slot {i} of the correspondence is not a Lie series "
                f"(the trace expression lies outside the quadratic span): {exc}",
                exc.degree) from None
    balance: dict[bytes, Fraction] = {}
    for i, a_i in enumerate(components):
        for w, c in commutator({bytes([i]): 1}, a_i.expand()._terms, a_i.order).items():
            _accumulate(balance, w, c)
    if balance:
        raise ValueError("extracted tuple violates sum_i [x_i, a_i] = 0")
    return tuple(components)


def derivation_from_quadratic_trace(p: TraceSeries) -> TangentialDerivation:
    """The tangential derivation generated by a quadratic trace expression."""
    return TangentialDerivation(quadratic_trace_tuple(p))
