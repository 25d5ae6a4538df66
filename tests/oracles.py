"""Independent reference computations used as oracles by the tests.

Everything here is deliberately written from scratch on tuple-encoded words
with its own arithmetic, so that agreement with the library is a genuine
cross-check and not a tautology.
"""

import math
from fractions import Fraction

Word = tuple[int, ...]


def oadd(d1: dict, d2: dict) -> dict:
    out = dict(d1)
    for w, c in d2.items():
        out[w] = out.get(w, Fraction(0)) + c
    return {w: c for w, c in out.items() if c}


def oscale(d: dict, c) -> dict:
    c = Fraction(c)
    return {w: c * v for w, v in d.items() if c * v}


def omul(d1: dict, d2: dict, order: int) -> dict:
    out: dict[Word, Fraction] = {}
    for w1, c1 in d1.items():
        for w2, c2 in d2.items():
            if len(w1) + len(w2) <= order:
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
    return {w: c for w, c in out.items() if c}


def oexp(d: dict, order: int) -> dict:
    assert not d.get(()), "oracle exp needs zero constant term"
    result = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for k in range(1, order + 1):
        power = oscale(omul(power, d, order), Fraction(1, k))
        if not power:
            break
        result = oadd(result, power)
    return result


def olog(d: dict, order: int) -> dict:
    assert d.get(()) == 1, "oracle log needs constant term 1"
    u = dict(d)
    u.pop(())
    result: dict[Word, Fraction] = {}
    power = {(): Fraction(1)}
    for k in range(1, order + 1):
        power = omul(power, u, order)
        if not power:
            break
        result = oadd(result, oscale(power, Fraction((-1) ** (k + 1), k)))
    return result


def right_nested(word: Word) -> dict:
    """Expansion of [w0, [w1, [..., w_last]]] with integer coefficients."""
    expansion = {word[-1:]: 1}
    for letter in reversed(word[:-1]):
        nxt: dict[Word, int] = {}
        for w, c in expansion.items():
            key = (letter,) + w
            nxt[key] = nxt.get(key, 0) + c
            key = w + (letter,)
            nxt[key] = nxt.get(key, 0) - c
        expansion = {w: c for w, c in nxt.items() if c}
    return expansion


def left_nested(word: Word) -> dict:
    """Expansion of [[..[w0, w1], ..], w_last] with integer coefficients."""
    expansion = {word[:1]: 1}
    for letter in word[1:]:
        nxt: dict[Word, int] = {}
        for w, c in expansion.items():
            key = w + (letter,)
            nxt[key] = nxt.get(key, 0) + c
            key = (letter,) + w
            nxt[key] = nxt.get(key, 0) - c
        expansion = {w: c for w, c in nxt.items() if c}
    return expansion


def _nonzero_pair_sequences(budget: int):
    """All sequences of pairs (p, q) != (0, 0) with total p + q <= budget."""
    def rec(prefix, remaining):
        if prefix:
            yield prefix
        for p in range(remaining + 1):
            for q in range(remaining - p + 1):
                if p + q >= 1:
                    yield from rec(prefix + [(p, q)], remaining - p - q)
    yield from rec([], budget)


def dynkin_bch(order: int) -> dict:
    """Campbell-Hausdorff series by the explicit summation formula.

    Sum over k of (-1)^(k-1)/k times, for every sequence of k pairs
    (p_i, q_i) != (0, 0), the right-nested bracketing of the word
    x^{p_1} y^{q_1} ... x^{p_k} y^{q_k} weighted by
    1 / (total_degree * prod_i p_i! q_i!).
    """
    total: dict[Word, Fraction] = {}
    for seq in _nonzero_pair_sequences(order):
        k = len(seq)
        n = sum(p + q for p, q in seq)
        word: Word = ()
        denom = n
        for p, q in seq:
            word = word + (0,) * p + (1,) * q
            denom *= math.factorial(p) * math.factorial(q)
        coeff = Fraction((-1) ** (k - 1), k * denom)
        for w, c in right_nested(word).items():
            total[w] = total.get(w, Fraction(0)) + coeff * c
    return {w: c for w, c in total.items() if c}


def series_inverse(coeffs: list[Fraction]) -> list[Fraction]:
    """Reciprocal power series by the division recurrence, c0 != 0."""
    order = len(coeffs) - 1
    inv = [1 / coeffs[0]]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if k < len(coeffs):
                acc += coeffs[k] * inv[n - k]
        inv.append(-acc / coeffs[0])
    return inv


def bernoulli_kernel(order: int) -> list[Fraction]:
    """Coefficients of t/(e^t - 1) - 1 + t/2 by series division."""
    quotient = [Fraction(1, math.factorial(k + 1)) for k in range(order + 1)]
    f = series_inverse(quotient)
    f[0] -= 1
    f[1] += Fraction(1, 2)
    return f


def to_word_dict(series) -> dict:
    """Library series (bytes keys) -> oracle form (tuple keys)."""
    return {tuple(w): Fraction(c) for w, c in series.terms.items()}


def left_normed_map(poly: dict) -> dict:
    """Linear extension of :func:`left_nested` to a tuple-keyed polynomial."""
    out: dict[Word, Fraction] = {}
    for w, c in poly.items():
        for v, k in left_nested(w).items():
            out[v] = out.get(v, Fraction(0)) + c * k
    return {v: c for v, c in out.items() if c}


def first_non_lie_degree(poly: dict) -> int | None:
    """Least degree k whose homogeneous part P is not a Lie polynomial.

    By the Dynkin-Specht-Wever theorem P is Lie exactly when the left-normed
    bracketing map sends it to k * P.  None when every part is Lie.
    """
    for k in sorted({len(w) for w in poly}):
        part = {w: c for w, c in poly.items() if len(w) == k}
        if left_normed_map(part) != oscale(part, k):
            return k
    return None


def ad_power_series(phi: list[Fraction], letter: int, a: dict, order: int) -> dict:
    """sum_k phi[k] ad_letter^k a on tuple words, truncated at ``order``.

    Each power of ad is one commutator with the letter, formed from two
    products.
    """
    gen = {(letter,): Fraction(1)}
    result = oscale(a, phi[0])
    power = dict(a)
    for k in range(1, order + 1):
        power = oadd(omul(gen, power, order), oscale(omul(power, gen, order), -1))
        if not power:
            break
        result = oadd(result, oscale(power, phi[k]))
    return result
