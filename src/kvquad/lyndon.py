"""Lyndon words: membership, enumeration, standard factorization, expansion.

A Lyndon word is strictly smaller than every proper rotation of itself.  The
bracketing through the standard factorization w = u.v (v the longest proper
Lyndon suffix, equivalently the lexicographically least proper suffix) turns
each Lyndon word into a commutator monomial; these monomials form the
canonical basis used for Lie series.  Expansions are cached process-wide in
a bounded ``lru_cache``, keyed by the word bytes: they only depend on the
letters, not on the ambient alphabet size.  Peeling least words against
these expansions gives Lyndon coordinates and decides Lie membership in one
pass.  ``_commutator_ints`` is the one word-basis bracket of two integer
word maps, and ``_bracket_into`` its case [x_i, v], built by prefixing and
suffixing the letter and added into a caller's map, the step of the
nested-ad kernel; ``_letter_bracket`` is its zero-dropping call.  The peel
takes and returns the stored pair of :mod:`kvquad.words`, integer numerators
over one denominator.
"""

import functools
import heapq

from .words import _by_length, word_to_str


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
    if len(w) < 2 or not is_lyndon(w):
        raise ValueError(f"{word_to_str(w)!r} is not a Lyndon word of length >= 2")
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


def _commutator_ints(left: dict, right: dict, order: int) -> dict[bytes, int]:
    """left * right - right * left for integer word maps; words beyond ``order`` and zeros dropped."""
    by_length = _by_length(right)  # skip whole lengths, as most pairs may not fit
    result: dict[bytes, int] = {}
    for wl, cl in left.items():
        room = order - len(wl)
        for length, items in by_length.items():
            if length <= room:
                for wr, cr in items:
                    c = cr if cl == 1 else cl * cr
                    w = wl + wr
                    result[w] = result.get(w, 0) + c
                    w = wr + wl
                    result[w] = result.get(w, 0) - c
    return {w: n for w, n in result.items() if n}


def _bracket_into(out: dict, index: int, terms: dict, room: int):
    """out += [x_index, v] = x_index v - v x_index for an integer word map v, through ``room``."""
    letter = bytes([index])
    for w, n in terms.items():
        if len(w) < room:
            v = letter + w
            out[v] = out.get(v, 0) + n
            v = w + letter
            out[v] = out.get(v, 0) - n


def _letter_bracket(index: int, terms: dict, order: int) -> dict[bytes, int]:
    """[x_index, v] for an integer word map v; words beyond ``order`` and zeros dropped."""
    out: dict[bytes, int] = {}
    _bracket_into(out, index, terms, order)
    return {w: n for w, n in out.items() if n}


@functools.lru_cache(maxsize=1 << 15)  # above the Lyndon-word count of any bch the CLI accepts
def bracket_expansion(w: bytes) -> dict[bytes, int]:
    """Expansion in the word basis of the standard bracketing of a Lyndon word.

    The result has integer coefficients, leading term w itself, and every
    other word is an anagram of w that is lexicographically greater.  That
    triangularity is what makes coordinate extraction below terminate.
    The cached dict is shared by every caller and must not be mutated.
    """
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    return _commutator_ints(bracket_expansion(u), bracket_expansion(v), len(w))


def lyndon_coordinates(degree_terms) -> tuple[dict[bytes, int], int]:
    """Coordinates in the Lyndon basis of a homogeneous Lie polynomial, as a pair.

    Peels the lexicographically least remaining word, which for a genuine Lie
    element must be Lyndon; each subtraction of a scaled bracket expansion
    strictly raises the least word, so the loop terminates.  An emptied
    input is the combination of bracketings that was peeled, hence Lie;
    otherwise the loop meets a non-Lyndon least word and raises ValueError
    naming it.  The peel takes integer steps on the numerators of the input
    pair; the coordinates lie over its denominator and have the gcd of its
    numerators, so lowest terms stay lowest terms.

    The least remaining word comes from a heap with lazy deletion: a word is
    pushed when it enters ``remaining``, and a popped word that has since
    cancelled is skipped.  Every live word has an entry, so the least live
    word is the one tested, and no word re-enters once peeled, since each
    subtraction only reaches words above the one peeled (Reutenauer, Free
    Lie Algebras, 1993, section 5.1).
    """
    remaining, denominator = dict(degree_terms[0]), degree_terms[1]
    heap = list(remaining)
    heapq.heapify(heap)
    coords: dict[bytes, int] = {}
    while remaining:
        w = heapq.heappop(heap)
        if w not in remaining:
            continue
        if not is_lyndon(w):
            raise ValueError(f"word {word_to_str(w)!r} obstructs Lie membership")
        n = coords[w] = remaining.pop(w)
        for v, k in bracket_expansion(w).items():
            if v == w:
                continue
            cur = remaining.get(v, 0) - n * k
            if cur:
                if v not in remaining:
                    heapq.heappush(heap, v)
                remaining[v] = cur
            else:
                remaining.pop(v, None)
    return coords, denominator
