"""Cyclic-word quotients of the free associative algebra.

Two quotients are implemented.  The plain trace identifies a word with its
rotations; a class is keyed by its lexicographically least rotation.  The
quadratic trace additionally identifies a word with its reversal up to the
sign (-1)^length, so that the projection is invariant under the
anti-involution tau.  A quadratic class whose odd-length orbit meets its own
reversed orbit is forced to zero and never stored.

Canonicalization is pure word combinatorics; both projections send products
to the same class in either factor order, which is checked in the tests and
relied on by substitution.
"""

from .lie import LieElement
from .words import (
    ArityMismatchError,
    AssocSeries,
    _SparseSeries,
    _substitute_ints,
    _word_name,
    word_to_str,
)


def canonical_rotation(w: bytes) -> bytes:
    """Lexicographically least rotation: the representative of the plain class."""
    doubled, n = w + w, len(w)
    return min([doubled[i:i + n] for i in range(n)]) if n else w


def quad_canonical(w: bytes) -> tuple[bytes, int] | None:
    """Representative and sign of the signed rotation/reversal class of w.

    Returns None when the class is zero: odd length with the rotation orbit
    meeting the reversed orbit.  Otherwise the representative is the least
    word over both orbits, and the sign is (-1)^len(w) when the representative
    is reached only through reversal.  Two rotation orbits are equal or
    disjoint, so comparing their least words decides both.
    """
    fwd = canonical_rotation(w)
    rev = canonical_rotation(w[::-1])
    odd = len(w) % 2 == 1
    if odd and fwd == rev:
        return None
    if fwd <= rev:
        return fwd, 1
    return rev, -1 if odd else 1


class TraceSeries(_SparseSeries):
    """Series of cyclic words: the quotient by the span of commutators."""

    __slots__ = ()
    _key_kind = "class"
    _tag = ("space", "tr")

    def _check_key(self, w: bytes):
        super()._check_key(w)
        if w != canonical_rotation(w):
            raise ValueError(f"{_word_name(w)} is not a canonical rotation")

    def _name(self, w: bytes) -> str:
        return f"[{word_to_str(w)}]" if w else "[1]"


class QuadTraceSeries(_SparseSeries):
    """Series of cyclic words modulo signed reversal.

    The further quotient by the (-1)-eigenspace of tau; only nonzero classes
    are representable, with their canonical orientation.
    """

    __slots__ = ()
    _key_kind = "class"
    _tag = ("space", "trquad")
    _name = TraceSeries._name

    def _check_key(self, w: bytes):
        super()._check_key(w)
        canon = quad_canonical(w)
        if canon is None:
            raise ValueError(f"{_word_name(w)} denotes the zero class")
        rep, sign = canon
        if rep != w or sign != 1:
            raise ValueError(f"{_word_name(w)} is not a canonical class representative")


def _project(space, a: AssocSeries, canonical):
    """Sum the numerators of ``a`` into their classes; ``canonical`` gives (representative, sign) or None."""
    ints, d = a._pair
    out: dict[bytes, int] = {}
    for w, n in ints.items():
        canon = canonical(w)
        if canon is not None:
            rep, sign = canon
            out[rep] = out.get(rep, 0) + (n if sign == 1 else -n)
    return space._make(a.arity, a.order, out, d)


def tr(a: AssocSeries) -> TraceSeries:
    """Project a series onto cyclic words."""
    return _project(TraceSeries, a, lambda w: (canonical_rotation(w), 1))


def tr_quad(a: AssocSeries) -> QuadTraceSeries:
    """Project a series onto cyclic words modulo signed reversal."""
    return _project(QuadTraceSeries, a, quad_canonical)


def trace_pairing(a: LieElement, b: LieElement) -> TraceSeries:
    """tr of the product of two Lie elements; symmetric up to cyclic moves."""
    if a.arity != b.arity:
        raise ArityMismatchError(f"arity mismatch: {a.arity} vs {b.arity}")
    return tr(a.expand() * b.expand())


def trace_substitute(g, args):
    """Substitute Lie elements for the letters of every class of g.

    Any linear representative of a class may be expanded; the result does not
    depend on the choice because Lie arguments are tau-antisymmetric.  The
    representatives are substituted together by ``_substitute_ints`` and
    projected once, as both projections are linear.  Works for both
    quotients and returns the same kind as g.
    """
    args = tuple(args)
    if len(args) != g.arity:
        raise ArityMismatchError(f"series of arity {g.arity} needs {g.arity} arguments")
    arity_out = args[0].arity
    order = min(g.order, *(arg.order for arg in args))
    for arg in args:
        if not isinstance(arg, LieElement):
            raise TypeError("substitution arguments must be LieElements")
        if arg.arity != arity_out:
            raise ArityMismatchError("substitution arguments must share one arity")
    words = _substitute_ints(g._pair, [arg.expand()._pair for arg in args], order)
    project = tr if isinstance(g, TraceSeries) else tr_quad
    return project(AssocSeries._make(arity_out, order, *words))
