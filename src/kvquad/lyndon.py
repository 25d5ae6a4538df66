"""Lyndon words: membership, enumeration, standard factorization, expansion.

A Lyndon word is strictly smaller than every proper rotation of itself.  The
bracketing through the standard factorization w = u.v (v the longest proper
Lyndon suffix, equivalently the lexicographically least proper suffix) turns
each Lyndon word into a commutator monomial; these monomials form the
canonical basis used for Lie series.  Expansions are cached process-wide,
keyed by the word bytes: they only depend on the letters, not on the ambient
alphabet size.  Right-normed bracketings, which certify Lie membership and
split a Lie polynomial by its outer letter, share the commutator step and are
cached only within one call.
"""

from fractions import Fraction

from .words import _accumulate

_factorization_cache: dict[bytes, tuple[bytes, bytes]] = {}
_expansion_cache: dict[bytes, dict[bytes, int]] = {}


def is_lyndon(w: bytes) -> bool:
    """True when w is nonempty and strictly smaller than all proper rotations."""
    if not w:
        return False
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def lyndon_words(arity: int, max_degree: int) -> list[bytes]:
    """All Lyndon words over ``arity`` letters of length <= max_degree (Duval)."""
    words = []
    w = [0]
    while w:
        if len(w) <= max_degree:
            words.append(bytes(w))
        # extend periodically to max length, then increment the last letter
        stem = list(w)
        while len(w) < max_degree:
            w.append(stem[len(w) % len(stem)])
        while w and w[-1] == arity - 1:
            w.pop()
        if w:
            w[-1] += 1
    return sorted(words, key=lambda v: (len(v), v))


def standard_factorization(w: bytes) -> tuple[bytes, bytes]:
    """Split a Lyndon word of length >= 2 as u.v with v the least proper suffix.

    Both factors are Lyndon and u < v.
    """
    cached = _factorization_cache.get(w)
    if cached is not None:
        return cached
    if len(w) < 2 or not is_lyndon(w):
        raise ValueError(f"{w!r} is not a Lyndon word of length >= 2")
    v = min(w[i:] for i in range(1, len(w)))
    u = w[: len(w) - len(v)]
    _factorization_cache[w] = (u, v)
    return u, v


def commutator(left: dict, right: dict, order: int) -> dict:
    """left * right - right * left for word-keyed maps; words beyond ``order`` and zeros dropped."""
    by_length: dict[int, list] = {}  # skip whole lengths, as most pairs may not fit
    for wr, cr in right.items():
        by_length.setdefault(len(wr), []).append((wr, cr))
    result = {}
    for wl, cl in left.items():
        room = order - len(wl)
        for length, items in by_length.items():
            if length <= room:
                for wr, cr in items:
                    c = cr if cl == 1 else cl * cr
                    _accumulate(result, wl + wr, c)
                    _accumulate(result, wr + wl, -c)
    return result


def bracket_expansion(w: bytes) -> dict[bytes, int]:
    """Expansion in the word basis of the standard bracketing of a Lyndon word.

    The result has integer coefficients, leading term w itself, and every
    other word is an anagram of w that is lexicographically greater.  That
    triangularity is what makes coordinate extraction below terminate.
    """
    cached = _expansion_cache.get(w)
    if cached is not None:
        return cached
    if len(w) == 1:
        result = {w: 1}
    else:
        u, v = standard_factorization(w)
        result = commutator(bracket_expansion(u), bracket_expansion(v), len(w))
    _expansion_cache[w] = result
    return result


def right_normed_expansion(w: bytes, cache: dict) -> dict[bytes, int]:
    """Expansion in the word basis of [w_0, [w_1, [..., w_last]]], w nonempty.

    On a homogeneous Lie polynomial of degree k the linear extension of this
    map is k times the identity (Dynkin-Specht-Wever).  ``cache`` memoizes the
    expansions of w and its suffixes; callers pass a fresh dict per call, so
    nothing outlives one computation.
    """
    hit = cache.get(w)
    if hit is not None:
        return hit
    if len(w) == 1:
        result = {w: 1}
    else:
        result = commutator({w[:1]: 1}, right_normed_expansion(w[1:], cache), len(w))
    cache[w] = result
    return result


def lyndon_coordinates(degree_terms: dict[bytes, Fraction]) -> dict[bytes, Fraction]:
    """Coordinates in the Lyndon basis of a homogeneous Lie polynomial.

    Peels the lexicographically least remaining word, which for a genuine Lie
    element must be Lyndon; each subtraction of a scaled bracket expansion
    strictly raises the least word, so the loop terminates.  Raises
    ValueError when the least word is not Lyndon (the input is not Lie).
    """
    remaining = dict(degree_terms)
    coords: dict[bytes, Fraction] = {}
    while remaining:
        w = min(remaining)
        if not is_lyndon(w):
            raise ValueError(f"word {w!r} obstructs Lie membership")
        c = remaining.pop(w)
        coords[w] = c
        for v, k in bracket_expansion(w).items():
            if v == w:
                continue
            cur = remaining.get(v, Fraction(0)) - c * k
            if cur:
                remaining[v] = cur
            else:
                remaining.pop(v, None)
    return coords
