"""Series store one pair: integer numerators by key over one denominator, in lowest terms.

Every public read (``terms``, ``coefficient``, ``sorted_items``,
``constant_term``, ``coeffs``) builds its ``Fraction`` values from that pair,
and the kernels take and return pairs.  These seeded tests, over two and
three letters with coprime denominators and large and negative scalars,
check every public result of the core operations, the product, the
substitutions, the splice, the projections and the peel against the
``Fraction`` references in ``tests/oracles.py``; they check the normal form
of the stored pair after every public constructor and kernel, the pickle,
copy and JSON round trips, and equality across truncation orders.  A
patched ``terms`` property shows that the CLI's ``propU`` and ``theorem``
runs never read the ``Fraction`` view of a word or trace series, and eight
racing threads read one unpeeled Lie series alike.
"""

import copy
import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

import kvquad.lie
from kvquad import (
    AssocSeries,
    LieElement,
    QuadTraceSeries,
    RationalUnivariateSeries,
    TangentialDerivation,
    TraceSeries,
    act,
    ad_apply,
    apply_operator_series,
    assoc_to_lie,
    bch_multi,
    bracket,
    canonical_solution,
    ch_t,
    decompose,
    div,
    div_quad,
    exp,
    generator,
    kernel_series,
    left_letter_mul,
    log,
    mul,
    scale,
    simplicial,
    simplicial_combination,
    substitute_many,
    substitute_words,
    tau,
    tr,
    tr_quad,
    trace_pairing,
    trace_substitute,
    univariate_substitute,
    verify_prop_last,
)
from kvquad.cli import main
from kvquad.lyndon import lyndon_words
from kvquad.words import _SparseSeries, substitute_letter_linear

from oracles import (
    derivation_action,
    fraction_lyndon_coordinates,
    fraction_mul,
    fraction_substitute_letter_linear,
    fraction_trace_projection,
    fraction_univariate_substitute,
    lyndon_image_substitute,
    oadd,
    oscale,
    to_word_dict,
)

DENOMINATORS = (1, 7, 11, 13, 10007, 7 * 11 * 13 * 10007)
SCALARS = (0, 1, -1, 2, Fraction(-3, 7), Fraction(10**30 + 1, 13), -10**25,
           Fraction(-7, 10**20 + 39))


def assert_normal(series):
    """The stored pair is in lowest terms: nonzero integers over d > 0, gcd(d, *numerators) = 1."""
    ints, d = series._pair
    assert type(ints) is dict and type(d) is int and d > 0
    assert all(type(n) is int and n for n in ints.values())
    assert math.gcd(d, *ints.values()) == 1  # so an empty map lies over 1
    return series


def rational(rng: random.Random) -> Fraction:
    big = rng.random() < 0.2
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**30 if big else 10**4),
                    rng.choice(DENOMINATORS))


def word_series(rng: random.Random, arity: int, order: int, terms: int, min_len: int = 0,
                cls=AssocSeries) -> AssocSeries:
    words = {bytes(rng.randrange(arity) for _ in range(rng.randint(min_len, order)))
             for _ in range(terms)}
    return assert_normal(cls(arity, order, {w: rational(rng) for w in words}))


def lie_series(rng: random.Random, arity: int, order: int, terms: int) -> LieElement:
    basis = lyndon_words(arity, order)
    return assert_normal(LieElement(arity, order, {
        w: rational(rng) for w in rng.sample(basis, min(terms, len(basis)))}))


def truncate(terms: dict, order: int) -> dict:
    return {w: c for w, c in terms.items() if len(w) <= order}


CASES = [(arity, seed) for arity in (2, 3) for seed in range(4)]


@pytest.mark.parametrize("arity, seed", CASES)
def test_core_operations_match_fraction_arithmetic(arity, seed):
    rng = random.Random(2200 + 10 * arity + seed)
    for _ in range(6):
        a = word_series(rng, arity, rng.randint(0, 6), rng.randint(0, 8))
        b = word_series(rng, arity, rng.randint(0, 6), rng.randint(0, 8))
        A, B = to_word_dict(a), to_word_dict(b)
        order = min(a.order, b.order)
        for got, want in ((a + b, oadd(A, B)), (a - b, oadd(A, oscale(B, -1))),
                          (-a, oscale(A, -1)), (a - a, {})):
            assert to_word_dict(assert_normal(got)) == truncate(want, got.order)
        assert (a + b).order == order
        for scalar in SCALARS:
            for got in (a * scalar, scalar * a):
                assert to_word_dict(assert_normal(got)) == oscale(A, scalar)
        for k in range(a.order + 2):
            assert to_word_dict(assert_normal(a.truncated(k))) == truncate(A, k)
            part = a.homogeneous_part(k)
            assert to_word_dict(assert_normal(part)) == {w: c for w, c in A.items() if len(w) == k}
        wide = assert_normal(a.with_arity(arity + 1))
        assert wide.terms == a.terms and wide.arity == arity + 1
        for w, c in a.terms.items():
            assert a.coefficient(w) == c and type(c) is Fraction
        assert a.coefficient(b"\x00" * (a.order + 1)) == 0
        assert a.constant_term == A.get((), 0)
        assert a.sorted_items() == sorted(a.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))


@pytest.mark.parametrize("arity, seed", CASES)
def test_word_kernels_match_their_fraction_references(arity, seed):
    rng = random.Random(2300 + 10 * arity + seed)
    for _ in range(4):
        order = rng.randint(1, 5)
        a = word_series(rng, arity, order, rng.randint(0, 8))
        b = word_series(rng, arity, rng.randint(0, 6), rng.randint(0, 8))
        assert dict(assert_normal(mul(a, b)).terms) == fraction_mul(a, b)
        z = word_series(rng, arity + 1, order, rng.randint(0, 5))
        index = rng.randrange(arity)
        spliced = assert_normal(substitute_letter_linear(a, index, z))
        assert dict(spliced.terms) == fraction_substitute_letter_linear(a, index, z)
        images = [dict(word_series(rng, 3, 2, rng.randint(0, 3), min_len=1).terms)
                  for _ in range(arity)]
        got = substitute_words(a.terms, images, order)
        want: dict = {}
        for w, c in a.terms.items():
            product = AssocSeries.unit(3, order) * c
            for letter in w:
                product = product * AssocSeries(3, max(order, 2), images[letter])
            want = oadd(want, to_word_dict(product))
        assert to_word_dict(AssocSeries(3, order, got)) == want
        u = word_series(rng, arity, order, rng.randint(0, 5), min_len=1)
        phi = RationalUnivariateSeries(order + 1, {k: rational(rng) for k in range(order + 2)
                                                   if rng.random() < 0.7})
        assert dict(assert_normal(univariate_substitute(phi, u)).terms) == (
            fraction_univariate_substitute(phi, u))
        for series in (exp(u), log(u + AssocSeries.unit(arity, order)), tau(a),
                       left_letter_mul(index, a), *decompose(a).partials):
            assert_normal(series)


@pytest.mark.parametrize("arity, seed", CASES)
def test_projections_and_the_peel_match_their_fraction_references(arity, seed):
    rng = random.Random(2400 + 10 * arity + seed)
    for _ in range(4):
        order = rng.randint(1, 6)
        a = word_series(rng, arity, order, rng.randint(0, 12))
        for project, signed in ((tr, False), (tr_quad, True)):
            got = assert_normal(project(a))
            assert dict(got.terms) == fraction_trace_projection(a.terms, signed)
        words = lie_series(rng, arity, order, rng.randint(0, 8)).expand()
        coords = assoc_to_lie(assert_normal(words))
        assert_normal(coords)  # the peeled coordinates are a pair in lowest terms too
        want: dict = {}
        for k in range(1, order + 1):
            want.update(fraction_lyndon_coordinates(words.homogeneous_part(k).terms))
        assert dict(coords.terms) == want


@pytest.mark.parametrize("arity", [2, 3])
def test_lie_kernels_keep_lowest_terms(arity):
    rng = random.Random(2500 + arity)
    order = 5
    a, b = lie_series(rng, arity, order, 6), lie_series(rng, arity, order, 6)
    args = [lie_series(rng, 3, order, 3) for _ in range(arity)]
    u = TangentialDerivation([lie_series(rng, arity, order, 4) for _ in range(arity)])
    results = [bracket(a, b), scale(a, Fraction(-10**12, 7)), a + b, a - b, a * Fraction(3, 11),
               apply_operator_series(kernel_series("t/(exp(t)-1)", order), 0, a),
               ad_apply(word_series(rng, arity, order - 1, 4), a), act(u, a),
               ch_t(Fraction(-2, 3), order, arity), bch_multi(arity, order),
               *substitute_many([a, b], args), generator(arity, 0, order)]
    for got in results:
        assert_normal(got.expand())
        assert_normal(got)  # the coordinates, peeled on this read
    lyndon_route = lyndon_image_substitute([a, b], args)
    assert [s.to_json_dict() for s in substitute_many([a, b], args)] == [
        s.to_json_dict() for s in lyndon_route]
    g = word_series(rng, arity, order, 8)
    for series in (act(u, g), div(u), div_quad(u), tr(g), tr_quad(g),
                   trace_substitute(tr(g), args), trace_substitute(tr_quad(g), args),
                   trace_pairing(a, b), kernel_series("alpha", order, b=Fraction(1, 2))):
        assert_normal(series)
    components = [to_word_dict(c.expand()) for c in u.components]
    assert to_word_dict(act(u, g)) == derivation_action(components, to_word_dict(g), order)


def test_public_constructors_store_lowest_terms():
    half, third = Fraction(1, 2), Fraction(-2, 6)
    made = [AssocSeries(2, 3, {b"\x00": half, b"\x01": 0, b"\x00\x01": "4/6", (1, 1): 2}),
            AssocSeries.from_word(3, 4, b"\x02\x01", third), AssocSeries.letter(3, 1, 2),
            AssocSeries.unit(2, 5), AssocSeries.zero(2, 5), AssocSeries(2, 3, {b"\x00": 0}),
            LieElement(2, 4, {b"\x00\x01": third, b"\x00": 6}), LieElement.zero(3, 2),
            generator(2, 1, 3), RationalUnivariateSeries(4, [0, half, 0, third]),
            RationalUnivariateSeries.from_word(1, 3, b"\x00\x00", 10**30),
            TraceSeries(2, 4, {b"\x00\x01": third, b"\x00\x00\x01\x01": half}),
            QuadTraceSeries(2, 4, {b"\x00\x00\x01\x01": Fraction(10**20, 3)})]
    for series in made:
        assert_normal(series)
    assert made[0]._pair == ({b"\x00": 3, b"\x00\x01": 4, b"\x01\x01": 12}, 6)
    assert made[4]._pair == made[5]._pair == ({}, 1)
    assert made[6]._pair == ({b"\x00\x01": -1, b"\x00": 18}, 3)


def every_kind(rng: random.Random) -> list:
    a = word_series(rng, 3, 5, 9)
    return [a, AssocSeries.zero(2, 4), lie_series(rng, 3, 5, 7), tr(a), tr_quad(a),
            RationalUnivariateSeries(6, {k: rational(rng) for k in range(7)}),
            RationalUnivariateSeries(3)]


@pytest.mark.parametrize("duplicate", [lambda s: pickle.loads(pickle.dumps(s)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_keep_the_pair(duplicate):
    for series in every_kind(random.Random(2600)):
        dup = duplicate(series)
        assert type(dup) is type(series) and dup == series
        assert (dup.arity, dup.order) == (series.arity, series.order)
        assert assert_normal(dup)._pair == series._pair
        assert dup.to_json_dict() == series.to_json_dict() and str(dup) == str(series)


def test_json_round_trips_keep_the_pair():
    for series in every_kind(random.Random(2610)):
        back = type(series).from_json_dict(series.to_json_dict())
        assert back == series and assert_normal(back)._pair == series._pair
        data = series.to_json_dict()
        if "terms" in data:
            coeffs, values = [t["coeff"] for t in data["terms"]], [c for _, c in series.sorted_items()]
        else:  # a univariate series writes every exponent
            coeffs, values = data["coeffs"], [series.coefficient(k) for k in range(series.order + 1)]
        assert coeffs == [f"{c.numerator}/{c.denominator}" for c in values]


def test_str_formats_each_term_from_the_pair():
    x = AssocSeries(2, 3, {b"": Fraction(-4, 6), b"\x00": 1, b"\x01": -1, b"\x00\x01": Fraction(6, 4),
                           b"\x01\x01\x00": Fraction(-10**20, 3)})
    assert x._pair == ({b"": -4, b"\x00": 6, b"\x01": -6, b"\x00\x01": 9,
                        b"\x01\x01\x00": -2 * 10**20}, 6)
    assert str(x) == f"-2/3 + a - b + 3/2*ab - {10**20}/3*bba"
    assert str(AssocSeries.zero(2, 3)) == "0"
    assert str(RationalUnivariateSeries(2, [3, 0, Fraction(1, 2)])) == "3 + 1/2*t^2"


def test_equality_across_truncation_orders():
    rng = random.Random(2620)
    for _ in range(20):
        arity = rng.choice([2, 3])
        a = word_series(rng, arity, 6, 10)
        for k in range(7):
            low = a.truncated(k)
            assert low == a and a == low  # agree through the smaller order
            above = low + AssocSeries.from_word(arity, k, b"\x00" * k, rational(rng))
            assert above != a and a != above  # differs at degree k
            if k < 6:
                extra = a + AssocSeries.from_word(arity, 6, b"\x01" * 6, rational(rng))
                assert extra != a and extra == low  # differs only above the smaller order
    # the same values over unrelated denominators at different orders
    p = AssocSeries(2, 2, {b"\x00": Fraction(1, 3), b"\x01\x01": Fraction(1, 5)})
    q = AssocSeries(2, 1, {b"\x00": Fraction(1, 3)})
    assert p._pair[1] == 15 and q._pair[1] == 3 and p == q and q == p


@pytest.mark.parametrize("argv", ["verify --suite propU --order 7",
                                  "verify --suite theorem --order 9 --seed 1"])
def test_the_cli_never_reads_the_fraction_view_of_word_series(cold_caches, monkeypatch,
                                                              capsys, argv):
    """The perf guard: word and trace series are read as pairs; Lie coordinates are not counted."""
    view, reads = _SparseSeries.terms, []

    def counting(self):
        if not isinstance(self, LieElement):
            reads.append(type(self).__name__)
        return view.fget(self)

    monkeypatch.setattr(_SparseSeries, "terms", property(counting))
    AssocSeries.letter(2, 0, 1).terms  # the counter does see a read
    assert reads == ["AssocSeries"]
    reads.clear()
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert reads == []


def test_racing_threads_read_one_unpeeled_series_alike():
    """Eight threads race for the first coordinate read; the memo is the pair, set by one assignment."""
    words = kvquad.lie.log_exp_product.__wrapped__(3, 6).expand()
    expected = assoc_to_lie(words)
    fresh = LieElement.from_words(words)
    with pytest.raises(AttributeError):
        object.__getattribute__(fresh, "_pair")  # unpeeled: no coordinate memo yet
    barrier, results = threading.Barrier(8), [None] * 8

    def read(i):
        barrier.wait()
        results[i] = (dict(fresh.terms), fresh.to_json_dict())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results)
    assert results[0] == (dict(expected.terms), expected.to_json_dict())
    assert assert_normal(fresh)._pair == expected._pair


def test_prop_last_checks_non_vacuous_instances():
    """An inner derivation, the simplicial combination U and their bracket all annihilate ch.

    inner is x_i -> [x_i, ch] = -ad(ch)(x_i), so [U, inner] = -ad(U(ch)) is the zero derivation.
    """
    order = 6
    ch = bch_multi(3, order)
    inner = TangentialDerivation([ch, ch, ch])
    U = simplicial_combination(canonical_solution(order))
    report = verify_prop_last([inner, U, U.bracket(inner)])
    assert report.passed
    assert [r.status for r in report.results] == ["pass"] * (order + 1)
    assert not inner.is_zero() and not U.is_zero() and U.bracket(inner).is_zero()


def test_prop_last_skips_a_perturbed_instance_with_its_defect():
    order = 6
    U = simplicial_combination(canonical_solution(order))
    x, y = generator(3, 0, order), generator(3, 1, order)
    shift = bracket(x, bracket(x, y)) * Fraction(1, 7)
    perturbed = TangentialDerivation([U.components[0] + shift, *U.components[1:]])
    report = verify_prop_last([perturbed])
    assert not report.passed
    [result] = report.results
    assert (result.status, result.degree) == ("skip", 4)  # [x_1, [x, [x, y]]] / 7 in degree 4
    assert result.witness.item.startswith("instance 0: ch defect ")
    assert result.witness.delta != 0
    mixed = verify_prop_last([U, perturbed])
    assert not mixed.passed
    assert [r.status for r in mixed.results].count("skip") == 1


def test_simplicial_pairs_are_stored_in_lowest_terms():
    u = canonical_solution(5).derivation()
    for pattern in ("1,2", "2,3", "12,3", "1,23"):
        for component in simplicial(u, pattern).components:
            assert_normal(component.expand())
