"""The integer word kernels against their ``Fraction`` references.

``LieElement.expand``, the commutator ``lyndon._commutator_ints``, the
nested-ad kernel ``lie._ad_ints``, ``words.mul`` and
``words.substitute_letter_linear`` sum integer numerators over one
denominator; the two integer kernels are read here over the product of their
operands' denominators (``pair_commutator``, ``ad_words``).  These seeded
tests compare each, read through the ``Fraction`` view ``words._fractions``
of its pair (inputs converted by ``words._pair_of``), with the former ``Fraction`` body kept in
``tests/oracles.py`` and with an independent tuple-word oracle, on
coefficients over pairwise coprime denominators (7, 11, 13 and 10007, so a
lost or doubled denominator factor changes the value), on empty maps and on
terms that cancel exactly, and check that every coefficient read is a
nonzero reduced ``Fraction`` and every stored pair is in lowest terms.  The
integer helpers they share, the letter bracket ``lyndon._letter_bracket``,
the multi-letter splice ``words._splice_ints`` (and its pull form
``words._splice_at``, read against it at chosen target words), the sum ``words._linear_sum``
and the common denominator ``words._common_denominator``, are checked the
same way.
``words.univariate_substitute``, behind ``exp`` and ``log``, is Horner's
scheme of ``substitute_words``; it is compared with the former power loop
``oracles.fraction_univariate_substitute`` and with the tuple-word
``oexp``/``olog``, and ``_substitute_ints``, the integer form of the
simplicial maps, with the numerators of ``substitute_words``.  Both run on
the one first-letter recursion ``words._horner``, which is also read alone
with a step that truncates nothing, and against ``fraction_ad_words`` and
``fraction_substitute_words`` on terms holding the empty word and words at
and just past the truncation order.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from kvquad import AssocSeries, LieElement, RationalUnivariateSeries, exp, log, lyndon_words, mul
from kvquad.lie import _ad_ints
from kvquad.lyndon import _commutator_ints, _letter_bracket, standard_factorization
from kvquad.words import (
    _common_denominator,
    _fractions,
    _horner,
    _linear_sum,
    _pair_of,
    _splice_at,
    _splice_ints,
    _substitute_ints,
    substitute_letter_linear,
    substitute_words,
    univariate_substitute,
)

from oracles import (
    ad_power_series,
    derivation_action,
    fraction_ad_words,
    fraction_commutator,
    fraction_expand,
    fraction_mul,
    fraction_substitute_letter_linear,
    fraction_substitute_words,
    fraction_univariate_substitute,
    oadd,
    oexp,
    olog,
    omul,
    oscale,
    to_word_dict,
)

DENOMINATORS = (1, 7, 11, 13, 10007, 7 * 11, 13 * 10007, 7 * 11 * 13 * 10007)


def coprime_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.choice(DENOMINATORS))


def word_map(rng: random.Random, arity: int, max_len: int, terms: int, min_len: int = 0) -> dict:
    return {bytes(rng.randrange(arity) for _ in range(rng.randint(min_len, max_len))):
            coprime_rational(rng) for _ in range(terms)}


def tuple_map(terms: dict) -> dict:
    return {tuple(w): Fraction(c) for w, c in terms.items()}


def assert_reduced(terms):
    for c in terms.values():
        assert type(c) is Fraction and c
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


def assert_normal(series):
    """The stored pair is in lowest terms: nonzero integer numerators, gcd(d, *numerators) = 1."""
    ints, d = series._pair
    assert type(d) is int and d > 0 and math.gcd(d, *ints.values()) == 1
    assert all(type(n) is int and n for n in ints.values())


def bracketing(w: bytes) -> dict:
    """Tuple-word expansion of the standard bracketing of a Lyndon word, by two products."""
    if len(w) == 1:
        return {tuple(w): Fraction(1)}
    u, v = (bracketing(f) for f in standard_factorization(w))
    return oadd(omul(u, v, len(w)), oscale(omul(v, u, len(w)), -1))


def random_lie(rng: random.Random, arity: int, order: int, terms: int) -> LieElement:
    basis = lyndon_words(arity, order)
    return LieElement(arity, order, {rng.choice(basis): coprime_rational(rng) for _ in range(terms)})


@pytest.mark.parametrize("arity, order", [(2, 7), (3, 5)])
def test_expand_matches_fraction_expansion(arity, order):
    rng = random.Random(1200 + arity)
    for terms in (0, 1, 3, 8, 20):
        a = random_lie(rng, arity, order, terms)
        got = a.expand().terms
        assert_reduced(got)
        assert_normal(a.expand())
        assert dict(got) == fraction_expand(a)
        expected = {}
        for w, c in a.terms.items():
            expected = oadd(expected, oscale(bracketing(w), c))
        assert tuple_map(got) == expected


def test_expand_drops_words_that_cancel():
    """For Lyndon words l1, l2 of one degree whose expansions share a word v,
    the coordinates are chosen so that v cancels exactly."""
    rng = random.Random(1210)
    checked = 0
    for degree in (4, 5, 6):
        basis = [w for w in lyndon_words(2, degree) if len(w) == degree]
        for l1, l2 in zip(basis, basis[1:]):
            e1, e2 = bracketing(l1), bracketing(l2)
            shared = sorted(set(e1) & set(e2))
            if not shared:
                continue
            v = shared[0]
            c1 = coprime_rational(rng)
            c2 = -c1 * e1[v] / e2[v]
            got = LieElement(2, degree, {l1: c1, l2: c2}).expand().terms
            assert bytes(v) not in got
            assert_reduced(got)
            assert tuple_map(got) == oadd(oscale(e1, c1), oscale(e2, c2))
            checked += 1
    assert checked >= 5


def pair_commutator(left, right, order: int) -> tuple[dict[bytes, int], int]:
    """``_commutator_ints`` on two pairs, over the product of their denominators."""
    (nl, dl), (nr, dr) = left, right
    return _commutator_ints(nl, nr, order), dl * dr


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_commutator_matches_fraction_commutator(arity):
    rng = random.Random(1300 + arity)
    for trial in range(30):
        order = rng.randint(0, 7)
        left = word_map(rng, arity, 4, rng.randint(0, 4))
        right = word_map(rng, arity, 5, rng.randint(0, 8))
        if trial % 5 == 0:
            right = dict(left)  # [a, a] = 0: every word cancels
        got = _fractions(pair_commutator(_pair_of(left), _pair_of(right), order))
        assert_reduced(got)
        assert got == fraction_commutator(left, right, order)
        L, R = tuple_map(left), tuple_map(right)
        assert tuple_map(got) == oadd(omul(L, R, order), oscale(omul(R, L, order), -1))
        if trial % 5 == 0:
            assert got == {}


@pytest.mark.parametrize("arity", [2, 3])
def test_ad_words_matches_fraction_nested_ad(arity):
    rng = random.Random(1400 + arity)
    for trial in range(30):
        order = rng.randint(1, 7)
        terms = word_map(rng, arity, 4, rng.randint(0, 6))
        z = word_map(rng, arity, 4, rng.randint(0, 6), min_len=1)
        got = ad_words(terms, z, order)
        assert_reduced(got)
        assert got == fraction_ad_words(terms, z, order)


def test_ad_words_powers_match_the_operator_oracle():
    rng = random.Random(1410)
    for arity, order in ((2, 7), (3, 5)):
        for index in range(arity):
            phi = [coprime_rational(rng) for _ in range(order + 1)]
            terms = {bytes([index]) * k: c for k, c in enumerate(phi) if k < order}
            z = word_map(rng, arity, order, 6, min_len=1)
            got = ad_words(terms, z, order)
            assert_reduced(got)
            assert tuple_map(got) == ad_power_series(phi, index, tuple_map(z), order)


def ad_words(terms: dict, z: dict, order: int) -> dict:
    """``_ad_ints`` on rational word maps over the product of their denominators, read as
    ``Fraction`` values."""
    (t, dt), (zi, dz) = _pair_of(terms), _pair_of(z)
    return _fractions((_ad_ints(t, zi, order), dt * dz))


def test_ad_words_on_empty_and_cancelling_input():
    z = {b"\x00": Fraction(3, 10007), b"\x00\x01": Fraction(-5, 7)}
    assert ad_words({}, z, 4) == {}
    assert ad_words({b"\x01": Fraction(2, 11)}, {}, 4) == {}
    assert ad_words({b"\x00": Fraction(1, 13)}, {b"\x00": Fraction(1, 11)}, 4) == {}  # [x, x]
    # ad_x ad_y - ad_y ad_x = ad_[x, y], which kills [x, y] and keeps [[x, y], x]
    terms = {b"\x00\x01": Fraction(1, 7), b"\x01\x00": Fraction(-1, 7)}
    xy = {b"\x00\x01": Fraction(1, 10007), b"\x01\x00": Fraction(-1, 10007)}
    assert ad_words(terms, xy, 4) == fraction_ad_words(terms, xy, 4) == {}
    z = {**xy, b"\x00": Fraction(1, 13)}
    got = ad_words(terms, z, 4)
    assert_reduced(got)
    x, y = ({b"\x00": 1}, 1), ({b"\x01": 1}, 1)
    xy_x = _fractions(pair_commutator(pair_commutator(x, y, 2), x, 3))
    assert got == fraction_ad_words(terms, z, 4) == {w: c / (7 * 13) for w, c in xy_x.items()}


def horner_terms(rng: random.Random, arity: int, order: int, terms: int) -> dict:
    """Terms for the first-letter recursion: random words, the empty word and words of
    length order and order + 1, which lie at and just past the pruning bound."""
    out = word_map(rng, arity, order + 1, terms)
    for length in (0, order, order + 1):
        out[bytes(rng.randrange(arity) for _ in range(length))] = coprime_rational(rng)
    return out


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_nested_ad_at_the_pruning_bound_matches_fraction_nested_ad(arity):
    rng = random.Random(2400 + arity)
    for trial in range(40):
        order = rng.randint(0, 6)
        terms = horner_terms(rng, arity, order, rng.randint(0, 6)) if trial % 8 else {}
        z = word_map(rng, arity, order + 1, rng.randint(0, 6)) if trial % 5 else {}
        if z:  # a word past the order, which the leaf must drop
            z[bytes(rng.randrange(arity) for _ in range(order + 1))] = coprime_rational(rng)
        got = ad_words(terms, z, order)
        assert_reduced(got)
        assert got == fraction_ad_words(terms, z, order)
        assert all(len(w) <= order for w in got)


def test_horner_gives_the_words_after_each_letter_one_letter_less_room():
    """With a step that prefixes its letter and truncates nothing, ``_horner`` shows its own
    bound: a word w of length <= room meets the leaf through room - |w|, and a longer
    word adds nothing."""
    def prefix(out, i, inner, room):
        for v, n in inner.items():
            out[bytes([i]) + v] = out.get(bytes([i]) + v, 0) + n

    rng = random.Random(2600)
    for trial in range(30):
        order = rng.randint(0, 5)
        terms = integer_map(rng, 2, order + 2, rng.randint(0, 10))
        z = integer_map(rng, 2, order + 1, rng.randint(0, 5))
        expected: dict[bytes, int] = {}
        for w, t in terms.items():
            for v, k in z.items():
                if len(w) + len(v) <= order:
                    expected[w + v] = expected.get(w + v, 0) + t * k
        z_leaf = lambda t, room: {v: t * k for v, k in z.items() if len(v) <= room}
        assert _horner(terms, z_leaf, prefix, order) == {w: n for w, n in expected.items() if n}
        kept = {w: t for w, t in terms.items() if len(w) <= order}
        assert _horner(terms, lambda t, room: {b"": t}, prefix, order) == kept
    # x z - 1 z with z = 1 + x: the word x cancels and is dropped
    z = {b"": 1, b"\x00": 1}
    leaf = lambda t, room: {v: t * k for v, k in z.items()}
    got = _horner({b"\x00": 1, b"": -1}, leaf, prefix, 2)
    assert got == {b"\x00\x00": 1, b"": -1}


def substitution_images(rng: random.Random, arity: int) -> list[dict]:
    """One image per letter in three letters: words of one to three letters, some maps empty."""
    images = [word_map(rng, 3, 3, rng.randint(0, 4), min_len=1) for _ in range(arity)]
    for image in images[:2]:
        if rng.random() < 0.8:
            for length in (2, 3):
                image[bytes(rng.randrange(3) for _ in range(length))] = coprime_rational(rng)
    return images


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_substitution_at_the_pruning_bound_matches_the_fraction_oracle(arity):
    rng = random.Random(2500 + arity)
    for trial in range(40):
        order = rng.randint(0, 6)
        maps = [horner_terms(rng, arity, order, rng.randint(0, 6)) if (trial + k) % 8 else {}
                for k in range(2)]
        images = substitution_images(rng, arity)
        expected = [fraction_substitute_words(terms, images, order) for terms in maps]
        got = substitute_words(maps[0], images, order)
        assert_reduced(got)
        assert got == expected[0]
        packed = _substitute_ints(pairs(maps), pairs(images), order)
        assert [_fractions(pair) for pair in packed] == expected


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_mul_matches_fraction_product(arity):
    rng = random.Random(1500 + arity)
    for trial in range(30):
        order_a, order_b = rng.randint(0, 6), rng.randint(0, 6)
        a = AssocSeries(arity, order_a, word_map(rng, arity, order_a, rng.randint(0, 6)))
        b = AssocSeries(arity, order_b, word_map(rng, arity, order_b, rng.randint(0, 6)))
        got = mul(a, b)
        assert got.order == min(order_a, order_b)
        assert_reduced(got.terms)
        assert_normal(got)
        assert dict(got.terms) == fraction_mul(a, b)
        assert to_word_dict(got) == omul(to_word_dict(a), to_word_dict(b), got.order)


def test_mul_drops_products_that_cancel():
    # x * yz and xy * z both give xyz; p r + q s = 0
    p, q, s = Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)
    r = -q * s / p
    a = AssocSeries(3, 3, {b"\x00": p, b"\x00\x01": q})
    b = AssocSeries(3, 3, {b"\x01\x02": r, b"\x02": s})
    got = mul(a, b)
    assert b"\x00\x01\x02" not in got.terms
    assert_reduced(got.terms)
    assert_normal(got)
    assert dict(got.terms) == fraction_mul(a, b) == {b"\x00\x02": p * s}
    assert mul(a, AssocSeries.zero(3, 3)).is_zero()
    assert mul(AssocSeries.zero(3, 3), b).is_zero()


@pytest.mark.parametrize("arity", [2, 3])
def test_substitute_letter_linear_matches_fraction_splice(arity):
    rng = random.Random(1600 + arity)
    for trial in range(30):
        order = rng.randint(1, 6)
        a = AssocSeries(arity, order, word_map(rng, arity, order, rng.randint(0, 8)))
        z_arity = arity + trial % 2  # a direction over one fresh letter, half of the time
        z = AssocSeries(z_arity, order, word_map(rng, z_arity, order, rng.randint(0, 5)))
        index = rng.randrange(arity)
        got = substitute_letter_linear(a, index, z)
        assert got.arity == z_arity
        assert_reduced(got.terms)
        assert_normal(got)
        assert dict(got.terms) == fraction_substitute_letter_linear(a, index, z)


def test_substitute_letter_linear_matches_the_derivation_oracle():
    rng = random.Random(1610)
    for arity, order in ((2, 6), (3, 5)):
        for index in range(arity):
            a = AssocSeries(arity, order, word_map(rng, arity, order, 10))
            a_i = word_map(rng, arity, order - 1, 4, min_len=1)
            image = _fractions(pair_commutator(({bytes([index]): 1}, 1), _pair_of(a_i), order))
            got = substitute_letter_linear(a, index, AssocSeries(arity, order, image))
            components = [tuple_map(a_i) if i == index else {} for i in range(arity)]
            assert to_word_dict(got) == derivation_action(components, to_word_dict(a), order)


def test_substitute_letter_linear_drops_splices_that_cancel():
    # xy -> yy and yx -> yy with opposite signs
    a = AssocSeries(2, 3, {b"\x00\x01": Fraction(1, 7), b"\x01\x00": Fraction(-1, 7)})
    z = AssocSeries(2, 3, {b"\x01": Fraction(1, 10007)})
    assert substitute_letter_linear(a, 0, z).is_zero()
    assert substitute_letter_linear(a, 0, AssocSeries.zero(2, 3)).is_zero()
    assert substitute_letter_linear(AssocSeries.zero(2, 3), 0, z).is_zero()


def fraction_sum(maps) -> dict:
    """Coefficientwise sum of word maps in ``Fraction``, zeros dropped."""
    return functools.reduce(oadd, maps, {})


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_letter_bracket_matches_fraction_commutator(arity):
    rng = random.Random(1700 + arity)
    for trial in range(40):
        order = rng.randint(0, 7)
        index = rng.randrange(arity)
        terms = word_map(rng, arity, 6, rng.randint(0, 8)) if trial % 7 else {}
        ints, d = _pair_of(terms)
        got = _fractions((_letter_bracket(index, ints, order), d))
        assert_reduced(got)
        assert got == fraction_commutator({bytes([index]): 1}, terms, order)


def test_letter_bracket_drops_words_that_cancel():
    # [x, x^3] = 0, and in [x, xy + yx] the word xyx cancels
    assert _letter_bracket(0, {b"\x00" * 3: 7}, 5) == {}
    got = _letter_bracket(0, {b"\x00\x01": 11, b"\x01\x00": 11}, 3)
    assert got == {b"\x00\x00\x01": 11, b"\x01\x00\x00": -11}
    assert _letter_bracket(1, {}, 4) == {}
    assert _letter_bracket(1, {b"\x00": 13}, 1) == {}  # [y, x] lies beyond order 1


@pytest.mark.parametrize("arity", [2, 3])
def test_splice_of_several_letters_is_the_sum_of_one_letter_splices(arity):
    rng = random.Random(1800 + arity)
    for trial in range(30):
        order = rng.randint(1, 6)
        a = AssocSeries(arity, order, word_map(rng, arity, order, rng.randint(0, 8)))
        letters = rng.sample(range(arity), rng.randint(0, arity))
        zs = {i: AssocSeries(arity, order, word_map(rng, arity, order, rng.randint(0, 5), min_len=1))
              for i in letters}
        scaled, d = _common_denominator(z._pair for z in zs.values())
        na, da = a._pair
        got = _fractions((_splice_ints(na, dict(zip(zs, scaled)), order), da * d))
        assert_reduced(got)
        assert got == fraction_sum(fraction_substitute_letter_linear(a, i, z) for i, z in zs.items())


def test_splice_drops_words_that_cancel_across_letters():
    # xz -> yz through x -> p y, and yz -> yz through y -> q y, with c1 p + c2 q = 0
    p, q, c1 = Fraction(1, 7), Fraction(-1, 11), Fraction(3, 13)
    c2 = -c1 * p / q
    na, da = _pair_of({b"\x00\x02": c1, b"\x01\x02": c2, b"\x02": Fraction(1, 10007)})
    (nx, ny), d = _common_denominator([_pair_of({b"\x01": p}), _pair_of({b"\x01": q})])
    assert _fractions((_splice_ints(na, {0: nx, 1: ny}, 2), da * d)) == {}
    assert _splice_ints(na, {}, 2) == {}
    assert _splice_ints({}, {0: nx}, 2) == {}


def integer_map(rng: random.Random, arity: int, max_len: int, terms: int, min_len: int = 0) -> dict:
    return {bytes(rng.randrange(arity) for _ in range(rng.randint(min_len, max_len))):
            rng.choice([-1, 1]) * rng.randint(1, 10**6) for _ in range(terms)}


def all_words(arity: int, max_len: int) -> list[bytes]:
    return [bytes(w) for n in range(max_len + 1) for w in itertools.product(range(arity), repeat=n)]


@pytest.mark.parametrize("arity", [2, 3])
def test_splice_at_reads_the_push_splice_at_its_targets(arity):
    rng = random.Random(2300 + arity)
    for trial in range(40):
        order = rng.randint(1, 4)
        terms = integer_map(rng, arity, order, rng.randint(0, 10))
        letters = rng.sample(range(arity), rng.randint(0, arity))  # the other letters have no image
        images = {i: integer_map(rng, arity, 3, rng.randint(0, 5), min_len=1) for i in letters}
        reach = order + 2  # targets run two letters past the words of terms
        pushed = _splice_ints(terms, images, reach)
        words = all_words(arity, reach)
        for targets in ([w for w in words if len(w) <= order], rng.sample(words, min(20, len(words))),
                        [w for w in words if len(w) > order], []):
            assert _splice_at(terms, images, targets) == {
                v: pushed[v] for v in targets if pushed.get(v)}


def test_splice_at_with_letter_images_and_cancellation():
    # x -> 2y, y -> 3x + xx: xy and yx cancel at yy and at the splice y -> x of xx,
    # which y -> xx alone reaches
    terms = {b"\x00\x01": 5, b"\x01\x00": -5, b"\x01": 7}
    images = {0: {b"\x01": 2}, 1: {b"\x00": 3, b"\x00\x00": 1}}
    targets = all_words(2, 3)
    pushed = _splice_ints(terms, images, 3)
    got = _splice_at(terms, images, targets)
    assert got == {v: n for v, n in pushed.items() if n}
    assert b"\x01\x01" not in got  # 5 * 2 - 5 * 2
    assert got[b"\x00"] == 21 and got[b"\x00\x00"] == 7  # 7 * 3; 5 * 3 - 5 * 3 + 7 * 1
    assert _splice_at(terms, images, []) == {}
    assert _splice_at(terms, {}, targets) == {}
    assert _splice_at({}, images, targets) == {}


def test_linear_sum_matches_fraction_sum():
    rng = random.Random(1900)
    for trial in range(40):
        parts, expected = [], []
        for _ in range(rng.randint(0, 4)):
            terms = word_map(rng, 3, 5, rng.randint(0, 6))
            k = rng.choice([-1, 1, rng.randint(-5, 5)])
            ints, d = _pair_of(terms)
            parts.append((k, ints, d))
            expected.append({w: k * c for w, c in terms.items()})
            if trial % 3 == 0:  # the same map with the opposite multiplier cancels it
                parts.append((-k, ints, d))
                expected.append({w: -k * c for w, c in terms.items()})
        got = _fractions(_linear_sum(iter(parts)))
        assert_reduced(got)
        assert got == fraction_sum(expected)
    assert _linear_sum([])[0] == {}
    assert _linear_sum([(1, {}, 7), (-1, {b"\x00": 0}, 11)])[0] == {}


def test_common_numerators_share_the_lcm_of_the_denominators():
    rng = random.Random(1910)
    maps = [word_map(rng, 2, 4, n) for n in (0, 1, 5, 9)]
    scaled, d = _common_denominator(map(_pair_of, maps))
    assert d == math.lcm(*(c.denominator for terms in maps for c in terms.values()))
    assert [{w: Fraction(n, d) for w, n in ints.items()} for ints in scaled] == maps
    assert all(type(n) is int for ints in scaled for n in ints.values())
    assert _common_denominator([]) == ([], 1)
    assert _common_denominator(map(_pair_of, [{}, {}])) == ([{}, {}], 1)


def random_phi(rng: random.Random, order: int) -> RationalUnivariateSeries:
    """A one-letter series with a nonzero constant term, some gaps and coprime denominators."""
    coeffs = {k: coprime_rational(rng) for k in range(order + 1) if k == 0 or rng.random() < 0.7}
    return RationalUnivariateSeries(order, coeffs)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_univariate_substitute_matches_the_power_loop(arity):
    rng = random.Random(2000 + arity)
    for trial in range(12):
        order = rng.randint(1, 6)
        a = AssocSeries(arity, order, word_map(rng, arity, order, rng.randint(0, 5), min_len=1))
        phi = random_phi(rng, order + trial % 3)  # phi may run past the order of a
        got = univariate_substitute(phi, a)
        assert type(got) is AssocSeries and (got.arity, got.order) == (arity, order)
        assert_reduced(got.terms)
        assert_normal(got)
        assert dict(got.terms) == fraction_univariate_substitute(phi, a)
        assert got.constant_term == phi.coefficient(0)


def test_univariate_substitute_keeps_a_univariate_argument():
    rng = random.Random(2010)
    for _ in range(10):
        order = rng.randint(1, 8)
        a = RationalUnivariateSeries(order, {k: coprime_rational(rng) for k in range(1, order + 1)
                                             if rng.random() < 0.6})
        phi = random_phi(rng, order)
        got = univariate_substitute(phi, a)
        assert type(got) is RationalUnivariateSeries and got.order == order
        assert dict(got.terms) == fraction_univariate_substitute(phi, a)
        assert type(exp(a)) is RationalUnivariateSeries
        assert log(exp(a)) == a


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_exp_and_log_match_the_tuple_oracles(arity):
    rng = random.Random(2020 + arity)
    for _ in range(8):
        order = rng.randint(1, 6)
        a = AssocSeries(arity, order, word_map(rng, arity, order, rng.randint(0, 5), min_len=1))
        e = exp(a)
        assert tuple_map(e.terms) == oexp(tuple_map(a.terms), order)
        one_plus = a + AssocSeries.unit(arity, order)
        assert tuple_map(log(one_plus).terms) == olog(tuple_map(one_plus.terms), order)
        assert log(e) == a


def test_univariate_substitute_drops_powers_that_cancel():
    # phi(t) = t - t^2 at a = x + x^2: x + x^2 - (x^2 + 2x^3 + x^4) through order 3
    phi = RationalUnivariateSeries(3, {1: 1, 2: -1})
    a = AssocSeries(1, 3, {b"\x00": 1, b"\x00\x00": 1})
    got = univariate_substitute(phi, a)
    assert dict(got.terms) == {b"\x00": 1, b"\x00\x00\x00": -2}
    assert univariate_substitute(phi, AssocSeries.zero(2, 3)).is_zero()
    assert univariate_substitute(RationalUnivariateSeries(3, {0: Fraction(3, 7)}),
                                 AssocSeries.zero(2, 3)).terms == {b"": Fraction(3, 7)}


def test_univariate_substitute_refuses_bad_input():
    a = AssocSeries(2, 4, {b"\x00\x01": Fraction(1, 7)})
    with pytest.raises(ValueError, match="truncated below"):
        univariate_substitute(RationalUnivariateSeries(3, {0: 1, 1: 1}), a)
    with pytest.raises(ValueError, match="zero constant term"):
        univariate_substitute(RationalUnivariateSeries(4, {1: 1}), a + AssocSeries.unit(2, 4))
    with pytest.raises(ValueError):
        exp(a + AssocSeries.unit(2, 4))
    with pytest.raises(ValueError):
        log(a)


def test_substitute_ints_are_the_numerators_of_substitute_words():
    # the integer maps of the simplicial embeddings lie over the lcm of the
    # reduced denominators, as _pair_of puts them
    rng = random.Random(2030)
    for _ in range(20):
        order = rng.randint(1, 5)
        terms = word_map(rng, 2, order + 1, rng.randint(0, 6))
        images = [word_map(rng, 3, 2, rng.randint(0, 3), min_len=1) for _ in range(2)]
        ints, d = _substitute_ints(_pair_of(terms), pairs(images), order)
        assert (ints, d) == _pair_of(substitute_words(terms, images, order))
        assert all(ints.values())


def pairs(maps) -> list:
    return [_pair_of(terms) for terms in maps]


def big_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * (10**30 + rng.randint(-10**6, 10**6)),
                    rng.choice(DENOMINATORS))


def packed_images(rng: random.Random, arity: int) -> list[dict]:
    """Images of ``arity`` letters in three letters: word maps, or single letters (unit or scaled)."""
    kind = rng.randrange(3)
    if kind == 0:
        return [word_map(rng, 3, 2, rng.randint(1, 3), min_len=1) for _ in range(arity)]
    scale = (lambda: Fraction(1)) if kind == 1 else (lambda: coprime_rational(rng))
    return [{bytes([rng.randrange(3)]): scale()} for _ in range(arity)]


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_packed_substitution_equals_one_map_at_a_time(arity):
    # several maps through one Horner pass at a stride of K bits split back
    # exactly, each over its own gcd; unit single-letter images and single
    # words make a map's numerator reach the bound that sets the stride
    rng = random.Random(1500 + arity)
    for order in range(1, 9):
        for _ in range(6):
            images = packed_images(rng, arity)
            maps = []
            for _ in range(rng.randint(2, 3)):
                size = rng.choice([0, 1, 1, 3, 8])
                words = word_map(rng, arity, order + 1, size)
                if rng.random() < 0.5:
                    words = {w: big_rational(rng) for w in words}
                maps.append(words)
            got = _substitute_ints(pairs(maps), pairs(images), order)
            assert got == [_substitute_ints(_pair_of(terms), pairs(images), order) for terms in maps]
            for (ints, d), terms in zip(got, maps):
                assert _fractions((ints, d)) == substitute_words(terms, images, order)


def test_packed_substitution_with_an_empty_map_and_a_cancelling_one():
    # x y - y x cancels when x and y both become z; x y alone does not
    x, y, z = b"\x00", b"\x01", b"\x02"
    images = [{z: Fraction(3, 7)}, {z: Fraction(3, 7)}]
    cancel = {x + y: Fraction(1, 11), y + x: Fraction(-1, 11), x: Fraction(5, 13)}
    keep = {x + y: Fraction(2, 10007), x: Fraction(-10**30, 13)}
    got = _substitute_ints(pairs([{}, cancel, keep]), pairs(images), 4)
    assert got == [_substitute_ints(_pair_of(terms), pairs(images), 4)
                   for terms in ({}, cancel, keep)]
    assert got[0] == ({}, 1)
    assert set(got[1][0]) == {z}
    assert set(got[2][0]) == {z, z + z}
    assert _substitute_ints(pairs([{}, {}]), pairs(images), 4) == [({}, 1), ({}, 1)]


def test_packed_substitution_keeps_each_maps_own_denominator():
    # the two maps' sums lie over different reduced denominators
    images = [{b"\x00": Fraction(1, 7)}, {b"\x01": Fraction(2)}]
    first = {b"\x00\x01": Fraction(7, 2)}    # 7/2 * 1/7 * 2 = 1
    second = {b"\x01": Fraction(1, 10007)}   # 2/10007
    assert _substitute_ints(pairs([first, second]), pairs(images), 3) == [
        ({b"\x00\x01": 1}, 1), ({b"\x01": 2}, 10007)]
