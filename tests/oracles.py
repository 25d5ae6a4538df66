"""Independent reference computations used as oracles by the tests.

Nearly everything here is deliberately written from scratch on tuple-encoded
words with its own arithmetic, so that agreement with the library is a
genuine cross-check and not a tautology.  A few helpers use library series
or Lyndon combinatorics: ``product_log_ch`` is the slow path of the
Campbell-Hausdorff series, a product of exponentials and a logarithm, which
shares the library's construction and its ``mul``; ``goldberg_words`` is the
CH series' independent reference, Goldberg's segment formula in integers,
the library's former builder; ``pole_cancellation_kernel`` is the former
construction of the ``alpha`` and ``beta_odd`` kernels by cancelling a pole;
``lyndon_image_substitute`` is the former Lie substitution, which builds
the image of each standard bracketing from the images of its factors;
``fraction_lyndon_coordinates`` is the former Lyndon peel in ``Fraction``
arithmetic; ``fraction_expand``, ``fraction_commutator``,
``fraction_ad_words``, ``fraction_mul`` and
``fraction_substitute_letter_linear`` are the former word kernels, which
accumulated every product as a ``Fraction`` (here without their length
buckets, through this module's own ``_accumulate``);
``fraction_univariate_substitute`` is the former power loop phi(a) = sum
phi_k a^k, which ``product_log_ch`` uses as its logarithm;
``fraction_substitute_words`` substitutes one word at a time, each product
formed letter by letter, with no shared prefixes;
``fraction_trace_projection`` sums a word map into cyclic classes from the
orbit sets of ``rotation_orbit`` and ``signed_cyclic_class``;
``per_word_projection`` is the former route of ``tr`` and ``tr_quad``, which
canonicalized every word of a series on its own;
``univariate_inverse`` (the division recurrence), ``univariate_shifted_down``,
``univariate_derivative`` and ``univariate_odd_part`` are the former bodies
of those ``RationalUnivariateSeries`` methods, on the exponent dict;
``inverse_transport`` and ``inverse_route_gauge_family`` are the former
route to gauge members, which inverted the whole solution and transported
each shifted factorization forward again; ``univariate_coboundary`` is the
former body of ``verify._bernoulli_side``, which relabelled the one-letter
series and substituted the join with ``univariate_substitute``;
``leading_witnesses`` is the former witness route of ``verify.report_zero``,
degrees read off the words and one ``sorted_items`` pass per failing degree;
``dynkin_split`` is the first-letter split of ``solver.factorize`` on tuple
words, and ``mirror`` is e(-y, -x) written with ``Fraction`` coefficients;
``two_sided_canonical_solution`` is the former route of
``solver.canonical_solution``, which factorized the defect for both first
letters and transported each factor with its own kernel; and
``random_assoc_series`` draws seeded inputs for the property suites.
"""

import itertools
import math
import random
from fractions import Fraction

from kvquad.lie import LieElement, _ad_ints, apply_operator_series, assoc_to_lie, kernel_series
from kvquad.lyndon import _commutator_ints, bracket_expansion, is_lyndon, standard_factorization
from kvquad.sampling import random_rational
from kvquad.solver import ab_to_AB, kv_rhs
from kvquad.tangential import quadratic_trace_tuple
from kvquad.traces import QuadTraceSeries, TraceSeries, canonical_rotation, quad_canonical, trace_pairing
from kvquad.verify import Witness
from kvquad.words import (AssocSeries, RationalUnivariateSeries, _linear_sum, univariate_substitute,
                          word_to_str)

Word = tuple[int, ...]


def _accumulate(d: dict, w, c: Fraction):
    """d[w] += c in ``Fraction``, deleting the entry when it cancels."""
    total = d.get(w, 0) + c
    if total:
        d[w] = total
    else:
        d.pop(w, None)


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


def fraction_univariate_substitute(phi, a) -> dict:
    """phi(a) = sum of phi_k a^k as a word map, by the former power loop in ``Fraction``.

    Each power is the last one times ``a``, word by word; ``phi`` is read
    through ``coefficient(k)`` and ``a``, with zero constant term, through
    ``terms``.  Words beyond a.order are dropped.
    """
    assert not a.terms.get(b""), "oracle substitution needs zero constant term"
    result: dict[bytes, Fraction] = {}
    power = {b"": Fraction(1)}
    for k in range(a.order + 1):
        if k:
            product: dict[bytes, Fraction] = {}
            for w1, c1 in power.items():
                for w2, c2 in a.terms.items():
                    if len(w1) + len(w2) <= a.order:
                        _accumulate(product, w1 + w2, c1 * c2)
            power = product
        for w, c in power.items():
            _accumulate(result, w, phi.coefficient(k) * c)
    return result


def fraction_substitute_words(terms: dict, images: list, order: int) -> dict:
    """sum_w c_w images[w_0] ... images[w_last] through ``order``, in ``Fraction``.

    Each word's product is formed on its own, left to right with ``omul``;
    the images have no constant term, so a word longer than ``order`` adds nothing.
    """
    out: dict[bytes, Fraction] = {}
    for w, c in terms.items():
        product = {b"": Fraction(c)}
        for letter in w:
            product = omul(product, images[letter], order)
        out = oadd(out, product)
    return out


def product_log_ch(arity: int, order: int) -> AssocSeries:
    """log(e^{x_0} ... e^{x_{arity-1}}) in words, as a product of exponentials and a logarithm.

    The logarithm is the power loop of ``fraction_univariate_substitute``, not the library's ``log``.
    """
    product = AssocSeries.unit(arity, order)
    for i in range(arity):
        powers = {bytes([i]) * k: Fraction(1, math.factorial(k)) for k in range(order + 1)}
        product = product * AssocSeries(arity, order, powers)
    log_series = RationalUnivariateSeries(
        order, {k: Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)})
    return AssocSeries(arity, order, fraction_univariate_substitute(
        log_series, product - AssocSeries.unit(arity, order)))


def goldberg_words(arity: int, order: int) -> tuple[dict[bytes, int], int]:
    """Word coefficients of log(e^{x_0} ... e^{x_{arity-1}}) through ``order``, as a pair.

    Goldberg's segment formula (Duke Math. J. 23, 1956): the coefficient of w
    is the sum over m of (-1)^(m-1)/m S(w, m), where S(w, m) sums
    1/prod(run lengths!) over the cuts of w into m nonempty segments that are
    each nondecreasing in letter index.  A depth-first walk keeps one S-vector
    per prefix; appending a letter only varies the last segment, which lies in
    the final nondecreasing stretch.  S is stored times order!, so every
    partial sum is an exact integer, and the alternating sum times
    lcm(1..order): the numerators over order! lcm(1..order), not reduced.
    """
    scale = math.factorial(order)
    lcm = math.lcm(*range(1, order + 1))
    weights = [0] + [(-1) ** (m - 1) * (lcm // m) for m in range(1, order + 1)]
    word = bytearray()
    sums = [[scale]]  # sums[n][m]: S(w[:n], m) * order!, with S(empty, 0) = 1
    starts = [0]      # starts[n]: where the final nondecreasing stretch of w[:n] begins
    out: dict[bytes, int] = {}

    def walk(n: int):
        for letter in range(arity):
            word.append(letter)
            start = starts[n] if n and word[n - 1] <= letter else n
            cut = [0] * (n + 2)
            run = q = 1
            for j in range(n, start - 1, -1):  # the last segment is w[j:n+1]
                if j < n:
                    run = run + 1 if word[j] == word[j + 1] else 1
                    q *= run
                for m, s in enumerate(sums[j]):
                    if s:
                        cut[m + 1] += s // q  # exact: each cut's order!/prod(runs!) is an integer
            total = sum(weights[m] * s for m, s in enumerate(cut) if s)
            if total:
                out[bytes(word)] = total
            if n + 1 < order:
                sums.append(cut)
                starts.append(start)
                walk(n + 1)
                sums.pop()
                starts.pop()
            word.pop()

    walk(0)
    return out, scale * lcm


def lyndon_image_substitute(elements, args) -> list[LieElement]:
    """Lie substitution x_i -> args[i] through the images of Lyndon bracketings.

    The image of a Lyndon word of length >= 2 is the commutator of the
    images of its standard factors, in words; each element sums its terms'
    images and is peeled back to the Lyndon basis.
    """
    arity_out, args_order = args[0].arity, args[0].order
    args_words = [arg.expand() for arg in args]
    cache: dict[bytes, AssocSeries] = {}

    def image(w: bytes) -> AssocSeries:
        if w not in cache:
            if len(w) == 1:
                cache[w] = args_words[w[0]]
            else:
                u, v = standard_factorization(w)
                (nu, du), (nv, dv) = image(u)._pair, image(v)._pair
                words = _commutator_ints(nu, nv, args_order)
                cache[w] = AssocSeries._make(arity_out, args_order, words, du * dv)
        return cache[w]

    out = []
    for a in elements:
        order = min(a.order, args_order)
        total = AssocSeries.zero(arity_out, order)
        for w, c in a.terms.items():
            total = total + image(w).truncated(order) * c
        out.append(assoc_to_lie(total))
    return out


def fraction_lyndon_coordinates(degree_terms: dict) -> dict:
    """Lyndon coordinates of a homogeneous Lie polynomial by a peel in ``Fraction``.

    Raises ValueError naming the least remaining word when it is not Lyndon.
    """
    remaining = {w: Fraction(c) for w, c in degree_terms.items()}
    coords = {}
    while remaining:
        w = min(remaining)
        if not is_lyndon(w):
            raise ValueError(f"word {word_to_str(w)!r} obstructs Lie membership")
        c = remaining.pop(w)
        coords[w] = c
        for v, k in bracket_expansion(w).items():
            if v != w:
                remaining[v] = remaining.get(v, Fraction(0)) - c * k
                if not remaining[v]:
                    del remaining[v]
    return coords


def fraction_expand(a: LieElement) -> dict:
    """Word expansion of a Lie series, one ``Fraction`` product per bracket-expansion word."""
    out: dict[bytes, Fraction] = {}
    for w, c in a.terms.items():
        for v, k in bracket_expansion(w).items():
            _accumulate(out, v, c * k)
    return out


def fraction_commutator(left: dict, right: dict, order: int) -> dict:
    """left * right - right * left on word maps in ``Fraction``; words beyond ``order`` dropped."""
    result: dict[bytes, Fraction] = {}
    for wl, cl in left.items():
        for wr, cr in right.items():
            if len(wl) + len(wr) <= order:
                c = Fraction(cl) * cr
                _accumulate(result, wl + wr, c)
                _accumulate(result, wr + wl, -c)
    return result


def fraction_ad_words(terms: dict, z_words: dict, order: int) -> dict:
    """Sum of c * [w_0, [w_1, [..., z]]] over the words w of ``terms``, in ``Fraction``."""
    out: dict[bytes, Fraction] = {}
    by_first: dict[int, dict[bytes, Fraction]] = {}
    for w, c in terms.items():
        if not w:
            for v, k in z_words.items():
                if len(v) <= order:
                    _accumulate(out, v, Fraction(c) * k)
        elif len(w) < order:
            by_first.setdefault(w[0], {})[w[1:]] = c
    for i, rest in by_first.items():
        inner = fraction_ad_words(rest, z_words, order - 1)
        for v, k in fraction_commutator({bytes([i]): 1}, inner, order).items():
            _accumulate(out, v, k)
    return out


def fraction_mul(a: AssocSeries, b: AssocSeries) -> dict:
    """Words of the concatenation product through min(a.order, b.order), in ``Fraction``."""
    order = min(a.order, b.order)
    out: dict[bytes, Fraction] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            if len(wa) + len(wb) <= order:
                _accumulate(out, wa + wb, ca * cb)
    return out


def fraction_substitute_letter_linear(a: AssocSeries, index: int, z: AssocSeries) -> dict:
    """Words of the Leibniz splice of z into each occurrence of letter ``index``, in ``Fraction``."""
    order = min(a.order, z.order)
    out: dict[bytes, Fraction] = {}
    for w, c in a.terms.items():
        for pos, letter in enumerate(w):
            if letter == index:
                for wz, cz in z.terms.items():
                    if len(w) - 1 + len(wz) <= order:
                        _accumulate(out, w[:pos] + wz + w[pos + 1:], c * cz)
    return out


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


def univariate_inverse(s: RationalUnivariateSeries) -> RationalUnivariateSeries:
    """1/s by the O(order^2) division recurrence in ``Fraction``; s needs a nonzero constant term."""
    c0 = s.coefficient(0)
    if not c0:
        raise ValueError("series with zero constant term has no inverse")
    coeffs = s.coeffs
    inv = {0: 1 / c0}
    for n in range(1, s.order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            ck = coeffs.get(k)
            if ck:
                acc += ck * inv.get(n - k, Fraction(0))
        if acc:
            inv[n] = -acc / c0
    return RationalUnivariateSeries(s.order, inv)


def univariate_shifted_down(s: RationalUnivariateSeries, k: int) -> RationalUnivariateSeries:
    """s / t^k at order s.order - k; a nonzero low coefficient or k > order raises ValueError."""
    for j in range(k):
        if s.coefficient(j):
            raise ValueError(f"coefficient of t^{j} is nonzero; cannot divide by t^{k}")
    return RationalUnivariateSeries(s.order - k, {e - k: c for e, c in s.coeffs.items() if e >= k})


def univariate_derivative(s: RationalUnivariateSeries) -> RationalUnivariateSeries:
    return RationalUnivariateSeries(max(s.order - 1, 0),
                                    {k - 1: k * c for k, c in s.coeffs.items() if k >= 1})


def univariate_odd_part(s: RationalUnivariateSeries) -> RationalUnivariateSeries:
    return RationalUnivariateSeries(s.order, {k: c for k, c in s.coeffs.items() if k % 2 == 1})


def pole_cancellation_kernel(name: str, order: int, b) -> RationalUnivariateSeries:
    """``alpha`` or ``beta_odd`` by cancelling a simple pole, at one extra working order.

    alpha = b t/(1-e^{-t}) - t/((e^t-1)(1-e^{-t})) + 1/(1-e^{-t}) and
    beta_odd = (b/2)t - (1/2) t/((e^t-1)(1-e^{-t})) + (1/4)(e^t+1)/(e^t-1),
    each from the quotients (e^t-1)/t and (1-e^{-t})/t and their inverses.
    """
    b = Fraction(b)
    working = order + 1

    def exp_minus_one(n: int, sign: int) -> RationalUnivariateSeries:  # e^t-1 or 1-e^{-t}
        return RationalUnivariateSeries(
            n, {k: Fraction(sign ** (k + 1), math.factorial(k)) for k in range(1, n + 1)})

    e_plus = exp_minus_one(working + 1, 1).shifted_down(1)    # (e^t-1)/t
    e_minus = exp_minus_one(working + 1, -1).shifted_down(1)  # (1-e^{-t})/t
    inv_minus = e_minus.inverse()              # t/(1-e^{-t})
    inv_both = (e_plus * e_minus).inverse()    # t^2/((e^t-1)(1-e^{-t}))
    if name == "alpha":
        return b * inv_minus + (inv_minus - inv_both).shifted_down(1)
    exp_plus_one = exp_minus_one(working, 1) + RationalUnivariateSeries(working, {0: 2})
    pole_part = Fraction(-1, 2) * inv_both + Fraction(1, 4) * (exp_plus_one * e_plus.inverse())
    linear = RationalUnivariateSeries(order, {1: b / 2} if order >= 1 else {})
    return linear + pole_part.shifted_down(1)


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


def derivation_action(components: list[dict], poly: dict, order: int) -> dict:
    """The derivation x_i -> [x_i, a_i] applied to a tuple-word polynomial.

    ``components[i]`` is a_i on tuple words.  Every occurrence of letter i in
    a word is replaced by [x_i, a_i], formed from two products, and the
    results are summed; words longer than ``order`` are dropped.
    """
    images = []
    for i, a in enumerate(components):
        gen = {(i,): Fraction(1)}
        images.append(oadd(omul(gen, a, order), oscale(omul(a, gen, order), -1)))
    out: dict[Word, Fraction] = {}
    for w, c in poly.items():
        for pos, letter in enumerate(w):
            spliced = omul(omul({w[:pos]: Fraction(c)}, images[letter], order),
                           {w[pos + 1:]: Fraction(1)}, order)
            out = oadd(out, spliced)
    return out


def fraction_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Dense Gauss-Jordan over Fractions: reduced row echelon form and pivot columns."""
    m = [row[:] for row in rows]
    pivots = []
    lead = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot_row = next((r for r in range(lead, len(m)) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[lead], m[pivot_row] = m[pivot_row], m[lead]
        inv = 1 / m[lead][col]
        m[lead] = [v * inv for v in m[lead]]
        for r in range(len(m)):
            if r != lead and m[r][col]:
                factor = m[r][col]
                m[r] = [v - factor * p for v, p in zip(m[r], m[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(m):
            break
    return m, pivots


def fraction_kernel(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Right kernel from the dense echelon form; one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = fraction_echelon(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f]
        basis.append(vec)
    return basis


def fraction_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """The solution with free variables zero, or None when inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    m, pivots = fraction_echelon([row + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    solution = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        solution[p] = m[r][ncols]
    return solution


def rotation_orbit(w: Word) -> set[Word]:
    return {w[i:] + w[:i] for i in range(len(w))} or {w}


def signed_cyclic_class(w: Word) -> tuple[Word, int] | None:
    """Least word and sign of the rotation/reversal class of w, from the orbit sets.

    None when the length is odd and the rotation orbit meets the reversed one;
    the sign is (-1)^len(w) when the least word lies only in the reversed orbit.
    """
    fwd, rev = rotation_orbit(w), rotation_orbit(w[::-1])
    odd = len(w) % 2 == 1
    if odd and fwd & rev:
        return None
    rep = min(fwd | rev)
    return rep, 1 if rep in fwd or not odd else -1


def fraction_trace_projection(terms: dict, signed: bool) -> dict:
    """A word map summed into its cyclic classes in ``Fraction``, from the orbit sets.

    A plain class is keyed by the least word of its rotation orbit; with
    ``signed`` a class is ``signed_cyclic_class``, and a zero class is dropped.
    """
    out: dict[bytes, Fraction] = {}
    for w, c in terms.items():
        canon = signed_cyclic_class(tuple(w)) if signed else (min(rotation_orbit(tuple(w))), 1)
        if canon is not None:
            _accumulate(out, bytes(canon[0]), canon[1] * Fraction(c))
    return out


def per_word_projection(a: AssocSeries, signed: bool):
    """``tr`` (or with ``signed`` ``tr_quad``) of a, one canonicalization per word.

    Each numerator is summed into the class that ``canonical_rotation`` or
    ``quad_canonical`` gives its word, with no memo across the words of a.
    """
    ints, d = a._pair
    out: dict[bytes, int] = {}
    for w, n in ints.items():
        canon = quad_canonical(w) if signed else (canonical_rotation(w), 1)
        if canon is not None:
            rep, sign = canon
            out[rep] = out.get(rep, 0) + (n if sign == 1 else -n)
    return (QuadTraceSeries if signed else TraceSeries)._make(a.arity, a.order, out, d)


def signed_cyclic_reps(arity: int, degree: int) -> list[Word]:
    """Sorted least words of the nonzero signed classes, from all arity^degree words."""
    reps = set()
    for w in itertools.product(range(arity), repeat=degree):
        canon = signed_cyclic_class(w)
        if canon is not None:
            reps.add(canon[0])
    return sorted(reps)


def random_assoc_series(rng: random.Random, arity: int, order: int,
                        terms: int = 8, with_constant: bool = True) -> AssocSeries:
    """A sparse word series with small random rational coefficients."""
    out = {}
    for _ in range(terms):
        degree = rng.randint(0 if with_constant else 1, order)
        w = bytes(rng.randrange(arity) for _ in range(degree))
        out[w] = random_rational(rng)
    return AssocSeries(arity, order, out)


def inverse_transport(A: LieElement, B: LieElement) -> tuple[LieElement, LieElement]:
    """The factorization (a, b) of a pair (A, B): the reciprocal kernels of ``ab_to_AB``."""
    a = apply_operator_series(kernel_series("t/(1-exp(-t))", A.order).inverse(), 0, A)
    b = apply_operator_series(kernel_series("t/(exp(t)-1)", B.order).inverse(), 1, B)
    return a, b


def inverse_route_gauge_family(s, pairs) -> list:
    """s and its gauge members, each transported from the shifted factorization of s."""
    base_a, base_b = inverse_transport(s.A, s.B)
    family = [s]
    for left, right in pairs:
        p = trace_pairing(left.with_order(s.order + 1), right.with_order(s.order + 1))
        shift_a, shift_b = quadratic_trace_tuple(p)
        family.append(ab_to_AB(base_a + shift_a, base_b + shift_b, method=f"{s.method}+gauge"))
    return family


def dynkin_split(r: LieElement) -> list[dict]:
    """Side w_0 gets coeff(w)/|w| * [w_1, [..., w_last]] for every word w of r, on tuple words."""
    sides = [{}, {}]
    for w, c in to_word_dict(r.expand()).items():
        sides[w[0]] = oadd(sides[w[0]], oscale(right_nested(w[1:]), Fraction(c, len(w))))
    return sides


def mirror(e: LieElement) -> LieElement:
    """e(-y, -x) for a two-letter series: each word's letters exchanged, times (-1)^|w|."""
    return LieElement.from_words(AssocSeries(2, e.order, {
        bytes(1 - letter for letter in w): c * (-1) ** len(w) for w, c in e.expand().terms.items()}))


def two_sided_canonical_solution(order: int):
    """The defect split by first and last letter, one nested-ad computation per group for
    both first letters, and a transported by t/(1-e^{-t}), b by t/(e^t-1)."""
    numerators, d = kv_rhs(order + 1).expand()._pair
    lengths = math.lcm(*range(2, order + 2))
    groups = {}
    for w, n in numerators.items():
        groups.setdefault((w[0], w[-1]), {})[w[1:-1]] = n * (lengths // len(w))
    sides = [[], []]
    for (first, last), middles in groups.items():
        sides[first].append((1, _ad_ints(middles, {bytes([last]): 1}, order), d * lengths))
    a, b = (LieElement.from_words(AssocSeries._make(2, order, *_linear_sum(parts)))
            for parts in sides)
    return ab_to_AB(a, b, method="dynkin-first-letter")


def univariate_coboundary(h: RationalUnivariateSeries, join: AssocSeries) -> AssocSeries:
    """h(x) + h(y) - h(join) in two-letter words, for a one-letter series h."""
    ints, d = h._pair
    h_x = AssocSeries._make(2, h.order, ints, d)  # h's own words are powers of letter 0 = x
    h_y = AssocSeries._make(2, h.order, {w.replace(b"\x00", b"\x01"): n for w, n in ints.items()}, d)
    return h_x + h_y - univariate_substitute(h, join)


def leading_witnesses(series, prefix: str = "") -> dict:
    """The least key of each nonzero degree with its coefficient, by degree."""
    words = series.expand() if isinstance(series, LieElement) else series
    out = {}
    for degree in {len(w) for w in words._pair[0]}:
        w, c = [(w, c) for w, c in series.sorted_items() if len(w) == degree][0]
        out[degree] = Witness(degree, prefix + (word_to_str(w) if w else "1"), c)
    return out
