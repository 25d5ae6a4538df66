"""Tangential derivations: derivations sending each generator x_i to [x_i, a_i].

A derivation is identified with its tuple (a_1, ..., a_n) of Lie series.  The
tuple is normalized on construction by dropping the x_i-linear term of a_i,
which never changes the action since [x_i, x_i] = 0; with that convention the
tuple determines the derivation uniquely.  The module also provides the four
signed simplicial faces of two-letter word maps in three letters, their
signed sum when x + y joins the letters, the embeddings built on them, the
one-letter coboundary h(x) + h(y) - h(join), the divergence valued in cyclic
words (plain and signed-reversal quotients), the induced action on trace
series, and the correspondence from a quadratic trace expression to its
tuple with zero bracket sum.
"""

from itertools import product

from .lie import (
    LieElement,
    NotLieError,
    bch_multi,
    without_letters,
)
from .lyndon import _letter_bracket, lyndon_words
from .traces import QuadTraceSeries, TraceSeries, tr, tr_quad
from .words import (
    ArityMismatchError,
    AssocSeries,
    Rational,
    _Frozen,
    _common_denominator,
    _linear_sum,
    _splice_at,
    _splice_ints,
    _substitute_ints,
)


class TangentialDerivation(_Frozen):
    """Arity-n tuple of Lie series a_i acting by x_i -> [x_i, a_i]."""

    __slots__ = ("arity", "order", "components", "_ch_defect")  # defect: filled on first use

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
            normalized.append(without_letters(a, (i,)))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "components", tuple(normalized))

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
        """Inverse of ``to_json_dict``; any malformed input raises ValueError."""
        if not isinstance(data, dict) or not isinstance(data.get("tuple"), list):
            raise ValueError("TangentialDerivation JSON must be an object with a list 'tuple'")
        return cls([LieElement.from_json_dict(d) for d in data["tuple"]])


def _images(u: TangentialDerivation, order: int) -> tuple[dict[int, dict[bytes, int]], int]:
    """The nonzero images [x_i, a_i] through ``order``, integer maps over one denominator."""
    expansions, d = _common_denominator(a_i.expand()._pair for a_i in u.components)
    brackets = {i: _letter_bracket(i, e, order) for i, e in enumerate(expansions)}
    return {i: b for i, b in brackets.items() if b}, d


def act(u: TangentialDerivation, a):
    """Apply the derivation; accepts an AssocSeries or LieElement, same kind out.

    The images [x_i, a_i], over one denominator, are spliced together into
    the words of ``a`` through min(a.order, u.order), or a.order for the zero
    derivation; a Lie result is stored as those words.
    """
    if a.arity != u.arity:
        raise ArityMismatchError(f"arity mismatch: {u.arity} vs {a.arity}")
    is_lie = isinstance(a, LieElement)
    order = a.order if u.is_zero() else min(a.order, u.order)
    images, d = _images(u, order)
    words, da = (a.expand() if is_lie else a)._pair
    result = AssocSeries._make(a.arity, order, _splice_ints(words, images, order), da * d)
    return LieElement.from_words(result) if is_lie else result


def ch_defect(u: TangentialDerivation) -> AssocSeries:
    """Word coefficients of act(u, ch(x_1, ..., x_n)) at the Lyndon words, memoized on u.

    The defect is a Lie series, and each Lyndon bracketing is its Lyndon
    word plus lexicographically greater words of its degree
    (``lyndon.bracket_expansion``).  So in each degree the least Lyndon word
    with a nonzero coefficient here is the least with a nonzero Lyndon
    coordinate, with the same value: the defect vanishes in a degree exactly
    when these coefficients do, and they name the same leading witness.
    The splice is pulled at those words alone (``_splice_at``); a derivation
    without images lists none.  An image [x_i, a_i] has no word shorter than
    two letters (a_i is Lie, with no constant term), so a target of n letters
    pulls words of ch of n - 1 letters at most: ch is built through
    u.order - 1, and the a_i are read through u.order - 1 too (the bracket
    drops their top degree).  u is immutable, so the memo never goes stale.
    """
    try:
        return u._ch_defect
    except AttributeError:
        images, d = _images(u, u.order)
        ints = {}
        if images:  # then u.order >= 2
            ch, dc = bch_multi(u.arity, u.order - 1).expand()._pair
            ints = _splice_at(ch, images, lyndon_words(u.arity, u.order))
            d *= dc
        object.__setattr__(u, "_ch_defect", AssocSeries._make(u.arity, u.order, ints, d))
        return u._ch_defect


_FACES = {"1,2": 1, "2,3": -1, "12,3": 1, "1,23": -1}  # signs: u^{1,2}+u^{12,3}-u^{1,23}-u^{2,3}
_YZ = bytes([1, 2]) + bytes(range(2, 256))  # bytes.translate table: letters x, y become y, z
_PLUS_CHOICES = {"12,3": ((0, 1), (2,)), "1,23": ((0,), (1, 2))}  # x, y -> x + y, z; x, y + z


def _additive_face_sum(ints: dict[bytes, int]) -> dict[bytes, int]:
    """The signed sum of the four faces of an integer two-letter word map, joined by x + y.

    1,2 keeps the words and 2,3 relabels them onto y, z.  The images of 12,3
    and 1,23 are linear, so a word's image is the sum of the words made by
    choosing one letter per position from its letter's image, and distinct
    choices make distinct words: no substitution is run.  The signs are
    ``_FACES``'s; zeros are dropped.
    """
    out: dict[bytes, int] = {}
    for face, sign in _FACES.items():
        choices = _PLUS_CHOICES.get(face)
        for w, n in ints.items():
            if choices is None:
                images = (w if face == "1,2" else w.translate(_YZ),)
            else:
                images = map(bytes, product(*[choices[letter] for letter in w]))
            for v in images:
                out[v] = out.get(v, 0) + sign * n
    return {w: n for w, n in out.items() if n}


def _face_words(maps, pattern: str, order: int) -> list[tuple[dict, int]]:
    """Two-letter word maps, as (integers, denominator), sent into x, y, z along one face.

    1,2 keeps x, y and 2,3 relabels them onto y, z; 12,3 and 1,23 substitute
    (ch(x, y), z) and (x, ch(y, z)) into every map in one ``_substitute_ints``
    pass, from the two-letter CH series (relabelled onto y, z for 1,23).
    """
    if pattern == "1,2":
        return list(maps)
    if pattern == "2,3":
        return [({w.translate(_YZ): n for w, n in ints.items()}, d) for ints, d in maps]
    join = bch_multi(2, order).expand()._pair
    if pattern == "12,3":
        images = [join, ({b"\x02": 1}, 1)]
    else:
        images = [({b"\x00": 1}, 1), ({w.translate(_YZ): n for w, n in join[0].items()}, join[1])]
    return _substitute_ints(list(maps), images, order)


def _coboundary(pair, order: int, join=None) -> tuple[dict, int]:
    """h(x) + h(y) - h(join), the one-letter differential of a word map h, as (integers,
    denominator); the join is ch(x, y) unless given (x + y for homo)."""
    join = bch_multi(2, order).expand()._pair if join is None else join
    return _linear_sum((sign, *_substitute_ints(pair, [image], order)) for sign, image in
                       ((1, ({b"\x00": 1}, 1)), (1, ({b"\x01": 1}, 1)), (-1, join)))


def simplicial_words(u: TangentialDerivation, pattern: str) -> tuple[tuple[dict, int], ...]:
    """Word maps of the three components of a simplicial embedding, as (integers, denominator).

    For u = (A, B) the four patterns give
      1,2  -> (A(x,y), B(x,y), 0)
      2,3  -> (0, A(y,z), B(y,z))
      12,3 -> (A(ch(x,y),z), A(ch(x,y),z), B(ch(x,y),z))
      1,23 -> (A(x,ch(y,z)), B(x,ch(y,z)), B(x,ch(y,z)))
    with ch the two-letter Campbell-Hausdorff series: the faces of the pair
    of A's and B's word expansions (``_face_words``).  The maps are Lie, and
    a repeated component is one map.
    """
    if u.arity != 2:
        raise ArityMismatchError("simplicial maps embed arity-2 derivations")
    if pattern not in _FACES:
        raise ValueError(
            f"unknown simplicial pattern {pattern!r}; expected one of {tuple(_FACES)}")
    A, B = _face_words([a.expand()._pair for a in u.components], pattern, u.order)
    zero = ({}, 1)
    return {"1,2": (A, B, zero), "2,3": (zero, A, B),
            "12,3": (A, A, B), "1,23": (A, B, B)}[pattern]


def simplicial(u: TangentialDerivation, pattern: str) -> TangentialDerivation:
    """Embed a two-letter derivation into three letters; see ``simplicial_words``."""
    maps = simplicial_words(u, pattern)
    lie = {id(m): LieElement.from_words(AssocSeries._make(3, u.order, *m)) for m in maps}
    return TangentialDerivation([lie[id(m)] for m in maps])


def divergence_words(components) -> AssocSeries:
    """Words with the cyclic projections of sum_i x_i (d_i a_i), for raw components a_i.

    x_i (d_i a_i) is a rotation of the part of a_i ending in x_i, and parts
    ending in different letters never collide: a sum of the pairs.
    """
    parts = []
    for i, a_i in enumerate(components):  # Lie words are never empty
        ints, d = a_i.expand()._pair
        parts.append((1, {w: n for w, n in ints.items() if w[-1] == i}, d))
    return AssocSeries._make(components[0].arity, components[0].order, *_linear_sum(parts))


def div(u: TangentialDerivation) -> TraceSeries:
    """The divergence: sum over i of tr(x_i * (d_i a_i)); a 1-cocycle."""
    return tr(divergence_words(u.components))


def div_quad(u: TangentialDerivation) -> QuadTraceSeries:
    """The divergence projected to cyclic words modulo signed reversal."""
    return tr_quad(divergence_words(u.components))


def act_on_trace(u: TangentialDerivation, g):
    """Derivation action on a trace series, via its linear representative sum_w c_w w."""
    if g.arity != u.arity:
        raise ArityMismatchError(f"arity mismatch: {u.arity} vs {g.arity}")
    if g.is_zero():
        return type(g).zero(g.arity, g.order)
    project = tr if isinstance(g, TraceSeries) else tr_quad
    return project(act(u, AssocSeries._make(g.arity, g.order, *g._pair)))


def _trace_slots(p: TraceSeries) -> tuple[LieElement, ...]:
    """Raw tuple (a_1, ..., a_n) generated by p, kept as words, with sum_i [x_i, a_i] = 0 checked.

    Differentiating p at slot i along a fresh direction z leaves tr(z a_i);
    on cyclic words that is pure rotation bookkeeping on p's numerators.
    """
    arity, order = p.arity, max(p.order - 1, 0)  # the order of every a_i
    ints, d = p._pair
    raw: list[dict[bytes, int]] = [{} for _ in range(arity)]
    for w, n in ints.items():
        for pos, letter in enumerate(w):
            v = w[pos + 1:] + w[:pos]
            raw[letter][v] = raw[letter].get(v, 0) + n
    if _linear_sum((1, _letter_bracket(i, a_i, order), 1) for i, a_i in enumerate(raw))[0]:
        raise ValueError("extracted tuple violates sum_i [x_i, a_i] = 0")
    return tuple(LieElement.from_words(AssocSeries._make(arity, order, a_i, d)) for a_i in raw)


def quadratic_trace_tuple(p: TraceSeries) -> tuple[LieElement, ...]:
    """Raw tuple (a_1, ..., a_n) generated by a quadratic trace expression.

    Each slot of ``_trace_slots(p)`` is peeled at once, as the membership
    test: a slot that is not Lie means p was not a combination of
    tr(Lie * Lie) terms.  The a_i keep their x_i-linear terms.
    """
    slots = _trace_slots(p)
    for i, a_i in enumerate(slots):
        try:
            a_i._pair
        except NotLieError as exc:
            raise NotLieError(
                f"slot {i} of the correspondence is not a Lie series "
                f"(the trace expression lies outside the quadratic span): {exc}",
                exc.degree) from None
    return slots


def derivation_from_quadratic_trace(p: TraceSeries) -> TangentialDerivation:
    """The tangential derivation generated by a quadratic trace expression."""
    return TangentialDerivation(quadratic_trace_tuple(p))
