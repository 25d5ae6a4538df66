import itertools
import random
from fractions import Fraction

import pytest

from kvquad import (
    AssocSeries,
    QuadTraceSeries,
    TraceSeries,
    bch,
    bracket,
    canonical_rotation,
    generator,
    quad_canonical,
    substitute,
    tau,
    tr,
    tr_quad,
    trace_pairing,
    trace_substitute,
    word_from_str,
)
from kvquad import traces
from kvquad.sampling import random_lie_element
from kvquad.verify import _quad_class_basis

from oracles import (
    per_word_projection,
    random_assoc_series,
    rotation_orbit,
    signed_cyclic_class,
    signed_cyclic_reps,
)

X = AssocSeries.letter(2, 0, 6)
Y = AssocSeries.letter(2, 1, 6)


def test_canonical_rotation():
    assert canonical_rotation(word_from_str("ba")) == word_from_str("ab")
    assert canonical_rotation(word_from_str("bab")) == word_from_str("abb")
    assert canonical_rotation(b"") == b""


def test_quad_canonical_zero_on_odd_palindromic_orbits():
    # any power of a single letter has the rotation orbit meeting its reversal
    assert quad_canonical(word_from_str("aaa")) is None
    assert quad_canonical(word_from_str("a")) is None
    assert quad_canonical(word_from_str("aab")) is None  # reverse=baa, a rotation
    assert quad_canonical(word_from_str("aa")) == (word_from_str("aa"), 1)
    assert quad_canonical(b"") == (b"", 1)


def test_quad_canonical_sign():
    # aabab reversed is babaa ~ aabab? rotations of reverse: babaa, abaab, ...
    w = word_from_str("aabab")
    rep, sign = quad_canonical(w) or (None, None)
    if rep is not None:
        assert sign in (1, -1)
    # a genuinely signed example: the least element reached only by reversal
    v = word_from_str("aabbb")
    fwd = {v[i:] + v[:i] for i in range(5)}
    back = {v[::-1][i:] + v[::-1][:i] for i in range(5)}
    if fwd & back:
        assert quad_canonical(v) is None
    else:
        rep, sign = quad_canonical(v)
        assert rep == min(fwd | back)


def test_quad_canonicalization_orbit_consistency():
    # every rotation, and every rotation of the reversal with sign (-1)^n,
    # lands on the same representative with the matching sign
    rng = random.Random(301)
    for _ in range(60):
        n = rng.randint(1, 7)
        w = bytes(rng.randrange(3) for _ in range(n))
        canon = quad_canonical(w)
        for i in range(n):
            rotated = w[i:] + w[:i]
            assert quad_canonical(rotated) == canon
            reversed_rot = rotated[::-1]
            rcanon = quad_canonical(reversed_rot)
            if canon is None:
                assert rcanon is None
            else:
                rep, sign = canon
                assert rcanon == (rep, sign if n % 2 == 0 else -sign)
        if canon is not None:
            rep, sign = canon
            assert quad_canonical(rep) == (rep, 1)  # idempotence


def test_canonical_forms_match_orbit_sets():
    # every word of length <= 7 over three letters, against the set-based oracle
    for n in range(8):
        for w in itertools.product(range(3), repeat=n):
            word = bytes(w)
            assert tuple(canonical_rotation(word)) == min(rotation_orbit(w))
            canon = quad_canonical(word)
            expected = signed_cyclic_class(w)
            assert (None if canon is None else (tuple(canon[0]), canon[1])) == expected


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_quad_class_basis_matches_all_words(arity):
    # necklaces from Lyndon words against canonicalizing all arity^n words
    for degree in range(1, 9):
        got = _quad_class_basis(arity, degree)
        assert [tuple(w) for w in got] == signed_cyclic_reps(arity, degree), degree


DENSE_DEGREE = {1: 9, 2: 8, 3: 5}
# the empty word, one-letter words, the zero odd orbit of aab with its reversal and
# the signed orbit of aabbb with its reversal
SPECIAL_WORDS = ["", "a", "b", "aa", "aaa", "aab", "baa", "aba", "aabbb", "bbbaa", "babba"]


def word_series(rng, arity, degree, keep=1.0):
    """Every word through ``degree``, each kept with probability ``keep``, with nonzero coefficients."""
    return AssocSeries(arity, degree, {
        bytes(w): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        for n in range(degree + 1) for w in itertools.product(range(arity), repeat=n)
        if rng.random() < keep})


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_projections_match_the_per_word_route(arity):
    # dense series, series holding about half of each orbit, sparse series and the
    # special words, each projected in one call against one canonicalization per word
    rng = random.Random(310 + arity)
    degree = DENSE_DEGREE[arity]
    special = [word_from_str(s) for s in SPECIAL_WORDS if all(ord(c) - 97 < arity for c in s)]
    series = [word_series(rng, arity, degree), word_series(rng, arity, degree, keep=0.5),
              AssocSeries(arity, degree, {w: k + 1 for k, w in enumerate(special)})]
    series += [random_assoc_series(rng, arity, degree, terms=rng.randint(1, 12)) for _ in range(20)]
    for a in series:
        for project, signed in ((tr, False), (tr_quad, True)):
            got, want = project(a), per_word_projection(a, signed)
            # the same classes, numerators and denominator, in the same order
            assert list(got._pair[0].items()) == list(want._pair[0].items())
            assert got._pair[1] == want._pair[1]


@pytest.mark.parametrize("signed", [False, True])
def test_projection_computes_each_class_once(monkeypatch, signed):
    rng = random.Random(320)
    dense, partial = word_series(rng, 2, 8), word_series(rng, 2, 8, keep=0.5)

    def class_of(w):
        orbit = rotation_orbit(tuple(w))
        return frozenset(orbit | rotation_orbit(tuple(w[::-1])) if signed else orbit)

    seen = []
    orbits = traces._orbits

    def counted(w, signed_):
        seen.append(w)
        return orbits(w, signed_)

    monkeypatch.setattr(traces, "_orbits", counted)
    (tr_quad if signed else tr)(dense)
    present = {class_of(w) for w in dense.terms}
    assert len(seen) == len({class_of(w) for w in seen}) == len(present)
    # the memo of one call holds exactly the words of its input
    for a in (dense, partial):
        assert traces._classes(a._pair[0].keys(), signed).keys() == a._pair[0].keys()


def test_tr_identifies_rotations():
    assert tr(X * Y + Y * X) == TraceSeries(2, 6, {word_from_str("ab"): 2})
    assert tr(X) == TraceSeries(2, 6, {word_from_str("a"): 1})
    assert tr(X * Y - Y * X).is_zero()


def test_tr_kills_commutators_randomized():
    rng = random.Random(302)
    for _ in range(20):
        a = random_assoc_series(rng, 2, 6, terms=4)
        b = random_assoc_series(rng, 2, 6, terms=4)
        assert tr(a * b) == tr(b * a)


def test_tr_quad_examples():
    x3 = AssocSeries.from_word(2, 6, b"\x00" * 3)
    assert tr_quad(x3).is_zero()
    x2 = AssocSeries.from_word(2, 6, b"\x00" * 2)
    assert tr_quad(x2) == QuadTraceSeries(2, 6, {word_from_str("aa"): 1})
    assert tr_quad(X * Y - Y * X).is_zero()


def test_tr_quad_invariant_under_tau():
    rng = random.Random(303)
    for _ in range(30):
        a = random_assoc_series(rng, rng.choice([2, 3]), 6)
        assert tr_quad(tau(a)) == tr_quad(a)
        b = random_assoc_series(rng, a.arity, 6)
        assert tr_quad(a * b) == tr_quad(b * a)


def test_tr_quad_factors_through_tr():
    # projecting to plain cyclic words first and re-projecting the class
    # representatives agrees with projecting directly
    rng = random.Random(306)
    for _ in range(20):
        a = random_assoc_series(rng, 2, 6)
        plain = tr(a)
        via_tr = tr_quad(AssocSeries(2, 6, dict(plain.terms)))
        assert via_tr == tr_quad(a)


def test_tr_quad_kills_odd_powers_of_lie_elements():
    rng = random.Random(304)
    for _ in range(20):
        arity = rng.choice([2, 3])
        alpha = random_lie_element(rng, arity, 8, terms=4).expand()
        power = AssocSeries.unit(arity, 8)
        for k in range(1, 8):
            power = power * alpha
            if k % 2 == 1:
                assert tr_quad(power).is_zero(), f"odd power {k} survived"


def test_trace_substitute_identity():
    g = tr(X * Y + X * X)
    x6, y6 = generator(2, 0, 6), generator(2, 1, 6)
    assert trace_substitute(g, (x6, y6)) == g


def test_trace_substitute_into_ch():
    g = tr(AssocSeries.from_word(1, 6, b"\x00\x00"))  # tr of the square
    ch = bch(6)
    got = trace_substitute(g, (ch,))
    expected_deg2 = tr((X + Y) * (X + Y))
    assert got.homogeneous_part(2) == expected_deg2.homogeneous_part(2)


def test_trace_substitute_zero_class_stays_zero():
    g = tr_quad(AssocSeries.from_word(1, 6, b"\x00" * 3))
    assert g.is_zero()
    assert trace_substitute(g, (bch(6),)).is_zero()


def test_trace_substitute_representative_independence():
    # substituting Lie elements into any rotation, or into the signed
    # reversal, of a representative projects to the same quad class series
    rng = random.Random(305)
    args = (random_lie_element(rng, 2, 6, terms=3), random_lie_element(rng, 2, 6, terms=3))
    expansions = [a.expand() for a in args]

    def substituted(word):
        product = AssocSeries.unit(2, 6)
        for letter in word:
            product = product * expansions[letter]
        return product

    for _ in range(15):
        n = rng.randint(1, 4)
        w = bytes(rng.randrange(2) for _ in range(n))
        base = tr_quad(substituted(w))
        for i in range(n):
            rotated = w[i:] + w[:i]
            assert tr_quad(substituted(rotated)) == base
            sign = 1 if n % 2 == 0 else -1
            assert tr_quad(substituted(rotated[::-1])) * sign == base


def test_trace_pairing_examples():
    x6, y6 = generator(2, 0, 6), generator(2, 1, 6)
    assert trace_pairing(x6, y6) == TraceSeries(2, 6, {word_from_str("ab"): 1})
    assert trace_pairing(x6, x6) == TraceSeries(2, 6, {word_from_str("aa"): 1})
    xy = bracket(x6, y6)
    assert trace_pairing(xy, y6) == -trace_pairing(-xy, y6)
    assert trace_pairing(xy, x6) == trace_pairing(x6, xy)  # cyclic symmetry


def test_trace_series_validation_and_json():
    with pytest.raises(ValueError):
        TraceSeries(2, 4, {word_from_str("ba"): 1})  # not canonical
    with pytest.raises(ValueError):
        QuadTraceSeries(2, 4, {word_from_str("aaa"): 1})  # zero class
    g = tr_quad(X * Y + X * X * Y * Y)
    data = g.to_json_dict()
    assert data["space"] == "trquad"
    assert QuadTraceSeries.from_json_dict(data) == g
    with pytest.raises(ValueError):
        TraceSeries.from_json_dict(data)
