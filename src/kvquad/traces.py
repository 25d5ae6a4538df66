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

import functools
import operator

from .lie import LieElement
from .words import (
    ArityMismatchError,
    AssocSeries,
    _SparseSeries,
    _substitute_ints,
    _word_name,
    word_to_str,
)


@functools.lru_cache(maxsize=64)  # word lengths: far above any order the CLI accepts
def _rotator(n: int) -> operator.itemgetter:
    """The getter of the rotations of a word of length n from the word doubled.

    One C-level call slices every window; it takes at least two windows, so
    that it returns a tuple also for n < 2, where each window is the word.
    """
    return operator.itemgetter(*[slice(i, i + n) for i in range(max(n, 2))])


def _orbits(w: bytes, signed: bool) -> tuple[tuple[tuple[bytes, ...], tuple[bytes, int] | None], ...]:
    """The rotations of w, and with ``signed`` those of its reversal, each with its words' class.

    A class is (representative, sign), or None for a zero class.  The plain
    class of a word is its least rotation with sign 1.  The signed class is
    keyed by the lesser of the least rotations of the two orbits; at odd
    length it is zero when they are equal (two rotation orbits are equal or
    disjoint), and otherwise a word whose orbit lacks the representative
    reaches it by reversal, with sign -1.  At even length every sign is 1.
    """
    rotations, doubled = _rotator(len(w)), w + w
    fwd = rotations(doubled)
    least = min(fwd)
    if not signed:
        return ((fwd, (least, 1)),)
    rev = rotations(doubled[::-1])
    least_rev = min(rev)
    if not len(w) & 1:
        canon = (min(least, least_rev), 1)
        return (fwd, canon), (rev, canon)
    if least == least_rev:
        return ((fwd, None),)
    if least < least_rev:
        return (fwd, (least, 1)), (rev, (least, -1))
    return (fwd, (least_rev, -1)), (rev, (least_rev, 1))


def canonical_rotation(w: bytes) -> bytes:
    """Lexicographically least rotation: the representative of the plain class."""
    ((_, (rep, _)),) = _orbits(w, False)
    return rep


def quad_canonical(w: bytes) -> tuple[bytes, int] | None:
    """Representative and sign of the signed rotation/reversal class of w.

    Returns None when the class is zero: odd length with the rotation orbit
    meeting the reversed orbit.  Otherwise the representative is the least
    word over both orbits, and the sign is (-1)^len(w) when the representative
    is reached only through reversal (the rule of ``_orbits``).
    """
    return _orbits(w, True)[0][1]


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


def _classes(words, signed: bool) -> dict:
    """The class of each of ``words`` (a set-like keys view), each class computed once.

    The first word met of a class gives its orbits through ``_orbits``, and
    their class is recorded for every word of them that ``words`` holds, so
    the map holds exactly ``words``.
    """
    memo: dict[bytes, tuple[bytes, int] | None] = {}
    for w in words:
        if w not in memo:
            for orbit, canon in _orbits(w, signed):
                for v in words & orbit:
                    memo[v] = canon
    return memo


def _project(space, a: AssocSeries, signed: bool):
    """Sum the numerators of ``a`` into their plain or signed classes."""
    ints, d = a._pair
    classes = _classes(ints.keys(), signed)
    out: dict[bytes, int] = {}
    for w, n in ints.items():
        canon = classes[w]
        if canon is not None:
            rep, sign = canon
            out[rep] = out.get(rep, 0) + (n if sign == 1 else -n)
    return space._make(a.arity, a.order, out, d)


def tr(a: AssocSeries) -> TraceSeries:
    """Project a series onto cyclic words."""
    return _project(TraceSeries, a, False)


def tr_quad(a: AssocSeries) -> QuadTraceSeries:
    """Project a series onto cyclic words modulo signed reversal."""
    return _project(QuadTraceSeries, a, True)


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
