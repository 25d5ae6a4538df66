import gc
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

import kvquad.lie
from kvquad import (
    AssocSeries,
    LieElement,
    NotLieError,
    RationalUnivariateSeries,
    ad_apply,
    apply_operator_series,
    assoc_to_lie,
    bch,
    bch_multi,
    bracket,
    canonical_solution,
    ch_t,
    decompose,
    directional_derivative,
    div_quad,
    exp,
    generator,
    is_lyndon,
    kernel_series,
    log,
    lyndon_words,
    scale,
    simplicial_combination,
    standard_factorization,
    substitute,
    substitute_many,
    trace_substitute,
    univariate_substitute,
    word_from_str,
)
from kvquad.cli import BCH_WORD_CEILING, main
from kvquad.lyndon import bracket_expansion, lyndon_coordinates
from kvquad.sampling import random_lie_element, random_rational
from kvquad.words import _fractions, _normal, _pair_of, word_to_str

from oracles import (
    bernoulli_kernel,
    dynkin_bch,
    fraction_lyndon_coordinates,
    goldberg_words,
    left_nested,
    lyndon_image_substitute,
    pole_cancellation_kernel,
    product_log_ch,
    random_assoc_series,
    to_word_dict,
)

X = generator(2, 0, 6)
Y = generator(2, 1, 6)


def lyndon(order, spec):
    return LieElement(2, order, {word_from_str(w): c for w, c in spec.items()})


# --- Lyndon combinatorics ---------------------------------------------------

def test_is_lyndon():
    assert is_lyndon(b"\x00")
    assert is_lyndon(b"\x00\x01")
    assert is_lyndon(b"\x00\x00\x01")
    assert not is_lyndon(b"\x01\x00")
    assert not is_lyndon(b"\x00\x01\x00\x01")  # a square
    assert not is_lyndon(b"")


def test_lyndon_word_counts():
    # necklace counts for two letters, degrees 1..8
    words = lyndon_words(2, 8)
    by_degree = {}
    for w in words:
        by_degree[len(w)] = by_degree.get(len(w), 0) + 1
    assert [by_degree[d] for d in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert all(is_lyndon(w) for w in words)


def test_expansion_cache_holds_every_bch_the_cli_accepts(monkeypatch, capsys):
    """The ``bracket_expansion`` bound is at least the Lyndon-word count of any accepted bch.

    ``bch`` peels every Lyndon word through its order, so a lower bound would
    evict expansions while one request still reads them.  For each arity the
    largest accepted order is the last one under ``BCH_WORD_CEILING``, words
    counted over at least two letters; the CLI refuses the next one up front.
    """
    monkeypatch.setattr(kvquad.lie, "_ch_words", None)  # a refusal builds nothing
    counts = {}
    for arity in range(1, 27):
        order, words, base = 0, 1, max(arity, 2)
        while words + base ** (order + 1) <= BCH_WORD_CEILING:
            order += 1
            words += base ** order
        assert main(["bch", "--arity", str(arity), "--order", str(order + 1)]) == 2
        counts[arity, order] = len(lyndon_words(arity, order))
    capsys.readouterr()
    assert max(counts.values()) == counts[17, 4] == 22593
    assert bracket_expansion.cache_parameters()["maxsize"] >= max(counts.values())


def test_standard_factorization():
    assert standard_factorization(b"\x00\x01") == (b"\x00", b"\x01")
    assert standard_factorization(word_from_str("aab")) == (b"\x00", word_from_str("ab"))
    assert standard_factorization(word_from_str("aabb")) == (b"\x00", word_from_str("abb"))
    with pytest.raises(ValueError, match="'ba' is not a Lyndon word"):
        standard_factorization(b"\x01\x00")


def test_lie_keys_are_checked_for_length_and_letters_then_named_as_words():
    with pytest.raises(ValueError, match="'ba' is not a Lyndon word"):
        LieElement(2, 3, {b"\x01\x00": 1})
    with pytest.raises(ValueError, match="beyond arity 2"):
        LieElement(2, 3, {b"\x00\x02": 1})  # 'ac' is Lyndon, but not over two letters
    with pytest.raises(ValueError, match="exceeds order 1"):
        LieElement(2, 1, {b"\x01\x00": 1})
    with pytest.raises(ValueError):
        LieElement(2, 3, {bytes([27, 0]): 1})  # beyond 'z' and beyond the arity


# --- embedding and projection -----------------------------------------------

def test_embed_generator():
    assert X.expand() == AssocSeries.letter(2, 0, 6)


def test_embed_bracket_word():
    assert lyndon(2, {"ab": 1}).expand() == AssocSeries(
        2, 2, {word_from_str("ab"): 1, word_from_str("ba"): -1})


def test_embed_nested_bracket():
    # [x, [x, y]] expanded by hand: xxy - 2 xyx + yxx
    got = lyndon(3, {"aab": 1}).expand()
    assert got == AssocSeries(2, 3, {
        word_from_str("aab"): 1, word_from_str("aba"): -2, word_from_str("baa"): 1})


def test_project_commutator():
    s = AssocSeries(2, 2, {word_from_str("ab"): 1, word_from_str("ba"): -1})
    assert assoc_to_lie(s) == lyndon(2, {"ab": 1})


def test_project_rejects_symmetric_part():
    s = AssocSeries(2, 2, {word_from_str("ab"): 1, word_from_str("ba"): 1})
    with pytest.raises(NotLieError) as err:
        assoc_to_lie(s)
    assert err.value.degree == 2


def test_project_log_of_exponentials():
    x = AssocSeries.letter(2, 0, 3)
    y = AssocSeries.letter(2, 1, 3)
    got = assoc_to_lie(log(exp(x) * exp(y)))
    assert got == lyndon(3, {"ab": Fraction(1, 2),
                             "aab": Fraction(1, 12),
                             "abb": Fraction(1, 12),
                             "a": 1, "b": 1})


def test_projection_roundtrip_random():
    rng = random.Random(201)
    for _ in range(25):
        a = random_lie_element(rng, rng.choice([2, 3]), 6)
        assert assoc_to_lie(a.expand()) == a


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(202)
    for _ in range(10):
        a = random_lie_element(rng, 2, 6, terms=4)
        b = random_lie_element(rng, 2, 6, terms=4)
        c = random_lie_element(rng, 2, 6, terms=4)
        assert bracket(a, b) == -bracket(b, a)
        assert (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                + bracket(c, bracket(a, b))).is_zero()


def test_bracket_matches_commutator_of_expansions():
    rng = random.Random(203)
    for _ in range(10):
        a = random_lie_element(rng, 2, 5)
        b = random_lie_element(rng, 2, 5)
        ea, eb = a.expand(), b.expand()
        assert bracket(a, b).expand() == ea * eb - eb * ea


# --- Campbell-Hausdorff -----------------------------------------------------

def test_bch_low_degrees():
    ch = bch(2)
    assert ch.degree_part(1) == generator(2, 0, 2) + generator(2, 1, 2)
    assert ch.degree_part(2) == lyndon(2, {"ab": Fraction(1, 2)})


def test_bch_against_dynkin_summation_oracle():
    assert to_word_dict(bch(5).expand()) == dynkin_bch(5)


def test_bch_unit_argument():
    zero = LieElement.zero(2, 6)
    assert substitute(bch(6), (X, zero)) == X
    assert substitute(bch(6), (zero, Y)) == Y


def test_bch_associativity():
    x, y, z = (generator(3, i, 6) for i in range(3))
    ch = bch(6)
    ch3 = bch_multi(3, 6)
    left = substitute(ch, (substitute(ch, (x, y)), z))
    right = substitute(ch, (x, substitute(ch, (y, z))))
    assert left == ch3
    assert right == ch3


CH_CASES = ([(1, n) for n in (1, 2, 5, 9)] + [(2, n) for n in range(1, 11)]
            + [(3, n) for n in range(1, 8)])


@pytest.mark.parametrize("arity, order", CH_CASES)
def test_log_exp_product_matches_product_log_oracle(arity, order):
    """The CH words agree with the oracle's product of exponentials and its logarithm."""
    got = kvquad.lie.log_exp_product(arity, order)
    words = product_log_ch(arity, order)
    assert got.to_json_dict() == assoc_to_lie(words).to_json_dict()
    assert got._assoc.terms == words.terms  # the kept word expansion
    assert LieElement(arity, order, got.terms).expand().terms == words.terms
    if arity == 1:
        assert got.to_json_dict() == generator(1, 0, order).to_json_dict()


GOLDBERG_CASES = ([(1, n) for n in range(1, 12)] + [(2, n) for n in range(1, 14)]
                  + [(3, n) for n in range(1, 9)] + [(4, n) for n in range(1, 7)]
                  + [(17, 4), (26, 3)])  # the last two: the widest bch requests the CLI accepts


@pytest.mark.parametrize("arity, order", GOLDBERG_CASES)
def test_ch_words_match_goldberg_oracle(arity, order):
    """The product-and-logarithm build equals Goldberg's segment formula in lowest terms."""
    assert kvquad.lie._ch_words(arity, order) == _normal(*goldberg_words(arity, order))


@pytest.mark.parametrize("word", ["ab", "ba", "aab", "abab", "bbaab", "abbbab"])
def test_log_exp_product_rejects_a_wrong_coefficient(monkeypatch, word):
    """The Lyndon peel still certifies the words: one perturbed coefficient raises.

    The series is built from its words, so the peel runs at the first
    coordinate read; the perturbed word also breaks the three-letter series.
    """
    build = kvquad.lie._ch_words

    def perturbed(arity, order):
        ints, d = build(arity, order)  # numerators over d; add 1/7 = d/(7d) at w
        w = word_from_str(word)
        ints = {v: 7 * n for v, n in ints.items()}
        ints[w] = ints.get(w, 0) + d
        return ints, 7 * d

    monkeypatch.setattr(kvquad.lie, "_ch_words", perturbed)
    for arity in (2, 3):
        series = kvquad.lie.log_exp_product.__wrapped__(arity, 6)  # uncached: the perturbed build
        with pytest.raises(NotLieError) as err:
            series.terms
        assert err.value.degree == len(word)


def built_orders(monkeypatch) -> list:
    """Record the (arity, order) of every Campbell-Hausdorff series built from its words."""
    build, built = kvquad.lie._ch_words, []

    def recording(arity, order):
        built.append((arity, order))
        return build(arity, order)

    monkeypatch.setattr(kvquad.lie, "_ch_words", recording)
    return built


@pytest.mark.parametrize("arity, low, high", [(2, 7, 9), (2, 1, 4), (3, 4, 6)])
def test_bch_multi_truncates_a_held_higher_order(monkeypatch, cold_caches, arity, low, high):
    built = built_orders(monkeypatch)
    bch_multi(arity, high)
    got = bch_multi(arity, low)
    assert built == [(arity, high)]  # the lower order was not built
    fresh = kvquad.lie.log_exp_product.__wrapped__(arity, low)
    assert got.to_json_dict() == fresh.to_json_dict()
    assert got._assoc.order == low  # the truncated word expansion came along
    assert got._assoc.terms == fresh._assoc.terms
    with pytest.raises(ValueError):
        bch_multi(arity, 0)


def test_bch_multi_never_builds_above_the_order_asked(monkeypatch, cold_caches):
    built = built_orders(monkeypatch)
    for order in (5, 3, 6, 6, 4):
        assert bch_multi(2, order).order == order
    assert built == [(2, 5), (2, 6)]  # 3 from 5, 4 from 5 or 6; 6 again from the cache
    assert bch_multi(3, 2).arity == 3  # another arity never serves from two letters
    assert built[-1] == (3, 2)


def test_bch_multi_builds_again_once_the_higher_order_is_released(monkeypatch, cold_caches):
    built = built_orders(monkeypatch)
    bch_multi(2, 6)
    kvquad.lie.log_exp_product.cache_clear()  # nothing holds the order-6 series now
    gc.collect()
    bch_multi(2, 4)
    assert built == [(2, 6), (2, 4)]


def test_bch_multi_serves_from_the_highest_order_a_caller_holds(monkeypatch, cold_caches):
    built = built_orders(monkeypatch)
    bch_multi(2, 4)
    held = bch_multi(2, 6)
    kvquad.lie.log_exp_product.cache_clear()  # only the caller holds the order-6 series now
    gc.collect()
    assert bch_multi(2, 5).expand().terms == held.truncated(5).expand().terms
    assert built == [(2, 4), (2, 6)]


def test_bch_multi_serves_racing_threads(cold_caches):
    """Eight threads ask for orders 3-10 in two letters and 3-8 in three at once.

    The weak reference to the highest order is replaced without a lock, so a
    thread may find it dead, lower than asked or just replaced; whatever it
    is served must still be the series at the order asked.  Three letters
    stop at order 8: each served truncation peels its own coordinates for
    the JSON, which at order 10 takes over ten seconds.
    """
    requests = [(2, order) for order in range(3, 11)] + [(3, order) for order in range(3, 9)]
    barrier = threading.Barrier(8)

    def run(seed):
        mine = random.Random(seed).sample(requests, len(requests))
        barrier.wait(timeout=60)
        return [(arity, order, bch_multi(arity, order)) for arity, order in mine]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [future.result(timeout=300)
                       for future in [pool.submit(run, 1560 + seed) for seed in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    fresh = {(arity, order): kvquad.lie.log_exp_product.__wrapped__(arity, order)
             for arity, order in requests}
    for result in results:
        for arity, order, series in result:
            want = fresh[arity, order]
            assert (series.arity, series.order) == (arity, order)
            assert series.expand().terms == want.expand().terms
            assert series.to_json_dict() == want.to_json_dict()


def no_peel(monkeypatch):
    """Make any Lyndon peel in ``kvquad.lie`` fail the test."""
    def peel(words):
        raise AssertionError(f"unexpected peel of {words!r}")
    monkeypatch.setattr(kvquad.lie, "_peel", peel)


def test_lie_truncation_keeps_a_known_word_expansion(monkeypatch):
    rng = random.Random(1530)
    a = random_lie_element(rng, 3, 6, terms=12)
    a.expand()
    for order in range(7):
        cut = a.truncated(order)
        assert cut.order == order and cut._assoc.order == order
        assert cut._assoc.terms == LieElement(3, order, cut.terms).expand().terms
    bare = LieElement(3, 6, a.terms)
    fresh = LieElement(3, 4, {w: c for w, c in a.terms.items() if len(w) <= 4}).expand()
    no_peel(monkeypatch)  # truncating a coordinate-built element maps its coordinates
    assert bare.truncated(4).expand() == fresh


def test_termwise_maps_of_a_coordinate_built_element_stay_on_coordinates(monkeypatch):
    """Truncation, homogeneous parts, negation, scaling and ``scale`` of an element made
    from coordinates map the coordinates: they equal the word route and expand nothing."""
    rng = random.Random(2610)
    a = random_lie_element(rng, 3, 6, terms=12)
    maps = [lambda e: e.truncated(4), lambda e: e.homogeneous_part(3), lambda e: -e,
            lambda e: e * Fraction(-2, 3), lambda e: scale(e, Fraction(3, 2))]
    words = LieElement(3, 6, a.terms)
    words.expand()  # the word route
    expected = [f(words) for f in maps]

    def no_expansion(w):
        raise AssertionError(f"unexpected expansion of {w!r}")

    monkeypatch.setattr(kvquad.lie, "bracket_expansion", no_expansion)
    no_peel(monkeypatch)
    got = [f(a) for f in maps]
    assert not hasattr(a, "_assoc") and not any(hasattr(g, "_assoc") for g in got)
    monkeypatch.undo()
    for g, e in zip(got, expected, strict=True):
        assert g == e and g.order == e.order and g.to_json_dict() == e.to_json_dict()


# --- substitution, scaling --------------------------------------------------

def fresh_words(series: LieElement) -> AssocSeries:
    return LieElement(series.arity, series.order, series.terms).expand()


@pytest.mark.parametrize("order", [2, 5, 7])
def test_substitute_many_matches_lyndon_image_oracle(order):
    """The word-level substitution agrees with the former bracketing recursion."""
    rng = random.Random(930 + order)
    x, y, z = (generator(3, i, order) for i in range(3))
    ch = bch(order)
    ch_xy = substitute_many([ch], (x, y))[0]
    ch_yz = substitute_many([ch], (y, z))[0]
    arg_sets = [(x, y), (y, z), (ch_xy, z), (x, ch_yz),
                (random_lie_element(rng, 3, order), random_lie_element(rng, 3, order, terms=3))]
    elements = [ch, random_lie_element(rng, 2, max(order - 2, 1))]
    elements += [random_lie_element(rng, 2, order, terms=8) for _ in range(2)]
    for args in arg_sets:
        got = substitute_many(elements, args)
        for g, e in zip(got, lyndon_image_substitute(elements, args), strict=True):
            assert g.to_json_dict() == e.to_json_dict()
            assert g._assoc.order == g.order
            assert g._assoc.terms == fresh_words(g).terms  # the kept words are its expansion


def fraction_peel_outcome(words: AssocSeries):
    """Coordinates by the Fraction peel, or the obstruction's message and degree."""
    coords = {}
    for k in sorted({len(w) for w in words.terms}):
        try:
            coords.update(fraction_lyndon_coordinates(words.homogeneous_part(k).terms))
        except ValueError as exc:
            return f"{exc} (degree {k})", k
    return coords


def peel_or_message(peel, part):
    try:
        return peel(part)
    except ValueError as exc:
        return str(exc)


def cancel_and_recreate(rng, arity: int, order: int):
    """Homogeneous inputs in which the peel removes a word and later brings it back.

    Take Lyndon words w1 < w2 whose bracket expansions both meet a word
    v > w2, with coefficients k1 and k2, and the input a1 E(w1) + a2 E(w2)
    + c v.  With c = -a2 k2, v cancels when w1 is peeled and w2's peel
    re-creates it.  With c = -(a1 k1 + a2 k2), v is absent from the input and
    first enters when w1 is peeled, so the heap must take it then.  A Lyndon
    v enters as c E(v), so the input is Lie with coordinates a1, a2, c; a
    non-Lyndon v enters as the bare word and obstructs, met only after it
    came back.  Yields (words, expected peel outcome) for the first triple of
    each kind found at each degree from 4.
    """
    for degree in range(4, order + 1):
        basis = [w for w in lyndon_words(arity, degree) if len(w) == degree]
        found = set()
        for i, w1 in enumerate(basis):
            for w2 in basis[i + 1:]:
                e1, e2 = bracket_expansion(w1), bracket_expansion(w2)
                for v in sorted(set(e1) & set(e2)):
                    lie = is_lyndon(v)
                    if v <= w2 or lie in found:
                        continue
                    found.add(lie)
                    a1, a2 = random_rational(rng) or 1, random_rational(rng) or 1
                    for c in (-a2 * e2[v], -a1 * e1[v] - a2 * e2[v]):
                        if not c:
                            continue
                        if lie:
                            words = LieElement(arity, order, {w1: a1, w2: a2, v: c}).expand()
                            expected = {w1: a1, w2: a2, v: c}
                        else:
                            words = (LieElement(arity, order, {w1: a1, w2: a2}).expand()
                                     + AssocSeries.from_word(arity, order, v, c))
                            expected = (f"word {word_to_str(v)!r} obstructs Lie membership "
                                        f"(degree {degree})", degree)
                        # v is present and cancels at w1's peel, or absent and enters there
                        start = words.coefficient(v)
                        assert (start, start - a1 * e1[v]) in (
                            (a1 * e1[v], 0), (0, -a1 * e1[v]))
                        yield words, expected


@pytest.mark.parametrize("arity, order", [(2, 8), (3, 6)])
def test_integer_peel_matches_fraction_peel(arity, order):
    """Same coordinates on Lie input; same obstructing word and degree otherwise.

    Besides random inputs, the peel meets words that cancel and come back
    (``cancel_and_recreate``); a heap that lost such a word would stop early.
    """
    rng = random.Random(940 + arity)
    cases = []
    for trial in range(16):
        words = random_lie_element(rng, arity, order, terms=8).expand()
        if trial % 2:
            w = bytes(rng.randrange(arity) for _ in range(rng.randint(2, order)))
            words = words + AssocSeries.from_word(arity, order, w, random_rational(rng) or 1)
        cases.append((words, None))
    rebuilt = list(cancel_and_recreate(rng, arity, order))
    obstructed = sum(isinstance(outcome, tuple) for _, outcome in rebuilt)
    assert 0 < obstructed < len(rebuilt)
    failures = 0
    for words, outcome in cases + rebuilt:
        expected = fraction_peel_outcome(words)
        if outcome is not None:
            assert expected == outcome
        for k in range(1, order + 1):
            part = dict(words.homogeneous_part(k).terms)
            assert peel_or_message(lambda p: _fractions(lyndon_coordinates(_pair_of(p))),
                                   part) == peel_or_message(fraction_lyndon_coordinates, part)
        try:
            got = assoc_to_lie(words).terms
        except NotLieError as err:
            failures += 1
            got = str(err), err.degree
        assert got == expected
    assert failures >= 4 + obstructed


def test_substitute_relabeling():
    one_letter = generator(1, 0, 6)
    z = generator(3, 2, 6)
    assert substitute(one_letter, (z,)) == z
    moved = substitute(lyndon(2, {"ab": 1}), (generator(3, 1, 6), z))
    assert moved == LieElement(3, 6, {word_from_str("bc"): 1})


def test_substitute_identity():
    ch = bch(6)
    assert substitute(ch, (X, Y)) == ch


def test_substitute_is_homomorphism():
    rng = random.Random(204)
    x3, y3, z3 = (generator(3, i, 5) for i in range(3))
    ch_yz = substitute(bch(5), (y3, z3))
    args = (x3 + z3, ch_yz)
    for _ in range(8):
        a = random_lie_element(rng, 2, 5, terms=3)
        b = random_lie_element(rng, 2, 5, terms=3)
        assert substitute(bracket(a, b), args) == bracket(substitute(a, args),
                                                          substitute(b, args))


def test_scale_is_identity_at_one():
    rng = random.Random(205)
    a = random_lie_element(rng, 2, 6)
    assert scale(a, 1) == a
    assert scale(a, 2).coefficient(b"\x00\x01") == 4 * a.coefficient(b"\x00\x01")


def test_scale_keeps_a_known_word_expansion(monkeypatch):
    ch = bch(6)
    for t in (-1, Fraction(1, 2), 3):
        scaled = scale(ch, t)
        fresh = LieElement(2, 6, dict(scaled.terms)).expand()
        assert scaled._assoc == fresh  # carried over from bch's words, not recomputed
        assert scaled.expand() is scaled._assoc
    plain = random_lie_element(random.Random(213), 2, 6)  # coordinate-built
    fresh = LieElement(2, 6, {w: c * 2 ** len(w) for w, c in plain.terms.items()}).expand()
    no_peel(monkeypatch)  # scaling it maps its coordinates
    assert scale(plain, 2).expand() == fresh


def test_ch_t_low_degree_and_homogeneity():
    assert ch_t(1, 6) == bch(6)
    assert ch_t(Fraction(3, 2), 6).degree_part(2) == lyndon(
        6, {"ab": Fraction(3, 4)})  # (t/2)[x, y]
    ch = bch(6)
    for t in (1, 2, 3):
        scaled = ch_t(t, 6)
        for k in range(1, 7):
            assert scaled.degree_part(k) == ch.degree_part(k) * Fraction(t) ** (k - 1)


def test_ch_t_rejects_zero():
    with pytest.raises(ValueError):
        ch_t(0, 4)


# --- operator series ---------------------------------------------------------

def test_apply_constant_kernel_is_identity():
    one = RationalUnivariateSeries(6, {0: 1})
    rng = random.Random(206)
    a = random_lie_element(rng, 2, 6)
    assert apply_operator_series(one, 0, a) == a


def test_apply_rejects_short_kernel():
    short = RationalUnivariateSeries(3, {0: 1})
    rng = random.Random(212)
    with pytest.raises(ValueError):
        apply_operator_series(short, 0, random_lie_element(rng, 2, 6))


def test_lie_element_json_roundtrip():
    elt = lyndon(4, {"ab": Fraction(1, 2), "aabb": -3})
    data = elt.to_json_dict()
    assert data["basis"] == "lyndon"
    assert LieElement.from_json_dict(data) == elt
    data["basis"] = "hall"
    with pytest.raises(ValueError):
        LieElement.from_json_dict(data)
    # the loader's messages, which `verify --solution` prints after "error:"
    with pytest.raises(ValueError, match=r"^LieElement JSON must be an object, got list$"):
        LieElement.from_json_dict([])
    with pytest.raises(ValueError, match=r"^LieElement JSON lacks 'order', 'terms'$"):
        LieElement.from_json_dict({"arity": 2})


def test_apply_single_ad():
    t = RationalUnivariateSeries(6, {1: 1})
    assert apply_operator_series(t, 0, Y) == lyndon(6, {"ab": 1})


def test_kernel_inverse_recovers_input():
    phi = kernel_series("t/(1-exp(-t))", 8).inverse()  # (1-e^{-t})/t
    psi = kernel_series("t/(1-exp(-t))", 8)
    rng = random.Random(207)
    for _ in range(8):
        a = random_lie_element(rng, 2, 8)
        assert apply_operator_series(psi, 0, apply_operator_series(phi, 0, a)) == a


def test_kernel_series_values():
    f = kernel_series("f", 8)
    # Bernoulli numbers: B2/2! = 1/12, odd coefficients vanish,
    # B4/4! = -1/720, B6/6! = 1/30240, B8/8! = -1/1209600
    assert f.coefficient(0) == 0 and f.coefficient(1) == 0
    assert f.coefficient(2) == Fraction(1, 12)
    assert f.coefficient(3) == 0 and f.coefficient(5) == 0 and f.coefficient(7) == 0
    assert f.coefficient(4) == Fraction(-1, 720)
    assert f.coefficient(6) == Fraction(1, 30240)
    assert f.coefficient(8) == Fraction(-1, 1209600)
    assert list(f.coeffs.values()) == [c for c in bernoulli_kernel(8) if c]

    todd = kernel_series("t/(1-exp(-t))", 6)
    assert todd.coefficient(0) == 1
    assert todd.coefficient(1) == Fraction(1, 2)
    # classic relation: t/(1-e^{-t}) - t/(e^t-1) = t
    assert todd - kernel_series("t/(exp(t)-1)", 6) == RationalUnivariateSeries(6, {1: 1})


def test_kernel_series_errors():
    with pytest.raises(ValueError):
        kernel_series("nope", 4)
    with pytest.raises(ValueError):
        kernel_series("alpha", 4)  # parameter b required


def test_kernel_series_returns_one_transport_kernel_per_order():
    for name in ("t/(1-exp(-t))", "t/(exp(t)-1)"):
        assert kernel_series(name, 7) is kernel_series(name, 7)
        assert kernel_series(name, 7) is not kernel_series(name, 6)


def test_alpha_kernel_pole_cancellation():
    # alpha(t; b) = b*t/(1-e^{-t}) - t/((e^t-1)(1-e^{-t})) + 1/(1-e^{-t})
    # has a finite limit b + 1/2 at t = 0
    for b in (Fraction(-1, 4), Fraction(3, 4), 0):
        alpha = kernel_series("alpha", 6, b=b)
        assert alpha.coefficient(0) == b + Fraction(1, 2)


@pytest.mark.parametrize("name", ["alpha", "beta_odd"])
@pytest.mark.parametrize("b", [0, Fraction(1, 2), Fraction(-3, 7), 5])
def test_alpha_and_beta_odd_match_the_pole_cancellation_form(name, b):
    """From k1 and k2 alone, both kernels equal the pole-cancelling form, orders included."""
    for order in range(16):
        got, want = kernel_series(name, order, b=b), pole_cancellation_kernel(name, order, b)
        assert (got.order, got._pair) == (want.order, want._pair), order


def test_univariate_series_ops():
    s = RationalUnivariateSeries(5, {0: 1, 1: -2, 3: Fraction(1, 3)})
    assert (s * s.inverse()).coefficient(0) == 1
    assert all((s * s.inverse()).coefficient(k) == 0 for k in range(1, 6))
    assert s.derivative().coefficient(2) == 1
    assert s.odd_part() == RationalUnivariateSeries(5, {1: -2, 3: Fraction(1, 3)})
    data = s.to_json_dict()
    assert data["coeffs"][1] == "-2/1"
    assert RationalUnivariateSeries.from_json_dict(data) == s
    for bad in ("1/0", "1e4000000"):
        with pytest.raises(ValueError):
            RationalUnivariateSeries.from_json_dict({**data, "coeffs": [bad]})
    with pytest.raises(ValueError,
                       match=r"^RationalUnivariateSeries JSON must be an object, got str$"):
        RationalUnivariateSeries.from_json_dict("t")
    with pytest.raises(ValueError):
        RationalUnivariateSeries(5, {1: 1}).inverse()


@pytest.mark.parametrize("data", [{"coeffs": []}, {"order": 2, "coeffs": ["1", 2]},
                                  [2, ["1", "0", "1"]]],
                         ids=["no-order", "int-coeff", "list"])
def test_univariate_series_json_rejects_malformed_shapes(data):
    with pytest.raises(ValueError):
        RationalUnivariateSeries.from_json_dict(data)


def test_univariate_substitute():
    f = RationalUnivariateSeries(4, {0: 3, 2: 1})
    x = AssocSeries.letter(2, 0, 4)
    got = univariate_substitute(f, x)
    assert got == AssocSeries(2, 4, {b"": 3, b"\x00\x00": 1})
    with pytest.raises(ValueError):
        univariate_substitute(f, AssocSeries.unit(2, 4))


# --- adjoint action and derivatives ------------------------------------------

def test_ad_unit_acts_as_identity():
    rng = random.Random(208)
    z = random_lie_element(rng, 2, 6)
    assert ad_apply(AssocSeries.unit(2, 6), z) == z


def test_ad_generator_is_bracket():
    assert ad_apply(AssocSeries.letter(2, 0, 6), Y) == lyndon(6, {"ab": 1})


def test_ad_is_multiplicative():
    rng = random.Random(209)
    for _ in range(6):
        u = AssocSeries.from_word(2, 6, b"\x00\x01")  # word xy
        z = random_lie_element(rng, 2, 6, terms=3)
        xpart = AssocSeries.letter(2, 0, 6)
        ypart = AssocSeries.letter(2, 1, 6)
        assert ad_apply(u, z) == ad_apply(xpart, ad_apply(ypart, z))


def test_directional_derivative_on_words():
    x = AssocSeries.letter(2, 0, 6)
    xy = AssocSeries.from_word(2, 6, b"\x00\x01")
    z = generator(3, 2, 6)  # fresh letter in the extended alphabet
    assert directional_derivative(x, 0, z) == z.expand()
    got = directional_derivative(xy, 0, z)
    assert got == AssocSeries(3, 6, {word_from_str("cb"): 1})


def test_directional_derivative_matches_partial_adjoint():
    # the derivative of [x, y] along z at slot x equals [z, y],
    # which is ad of the x-partial applied to z
    xy = lyndon(6, {"ab": 1})
    z = generator(3, 2, 6)
    got = directional_derivative(xy, 0, z)
    assert got == LieElement(3, 6, {word_from_str("bc"): -1})  # [z, y] = -[y, z]
    partial = decompose(xy.expand()).partials[0].with_arity(3)
    assert got == ad_apply(partial, z)


def test_directional_derivative_equals_adjoint_of_partial_random():
    rng = random.Random(210)
    for arity in (2, 3):
        fresh = generator(arity + 1, arity, 6)
        for _ in range(10):
            a = random_lie_element(rng, arity, 6)
            for i in range(arity):
                lhs = directional_derivative(a, i, fresh)
                partial = decompose(a.expand()).partials[i].with_arity(arity + 1)
                assert lhs == ad_apply(partial, fresh)


def test_dynkin_idempotent_on_lie_parts():
    # the left-to-right bracketing map is k times the identity in degree k
    rng = random.Random(211)
    for _ in range(20):
        a = random_lie_element(rng, rng.choice([2, 3]), 6)
        expansion = to_word_dict(a.expand())
        for k in range(1, 7):
            part = {w: c for w, c in expansion.items() if len(w) == k}
            image = {}
            for w, c in part.items():
                for v, m in left_nested(w).items():
                    image[v] = image.get(v, Fraction(0)) + c * m
            image = {w: c for w, c in image.items() if c}
            assert image == {w: k * c for w, c in part.items()}


def test_raising_the_order_reuses_the_word_expansion(monkeypatch):
    a = random_lie_element(random.Random(213), 3, 5, terms=8)
    a.expand()
    calls = []
    expand_one = kvquad.lie.bracket_expansion
    monkeypatch.setattr(kvquad.lie, "bracket_expansion", lambda w: calls.append(w) or expand_one(w))
    raised = a.with_order(8)
    assert raised.order == 8 and raised.expand().order == 8
    assert not calls
    fresh = LieElement(3, 8, a.terms).expand()
    assert calls and raised.expand() == fresh and raised.expand().terms == fresh.terms


def test_series_operations_leave_no_reference_cycles():
    """Recursive helpers free their caches on return, not at the next collection."""
    rng = random.Random(214)
    x, y, z = (generator(3, i, 5) for i in range(3))
    ch = substitute_many([bch(5)], (x, y))[0]
    a = random_lie_element(rng, 2, 5)
    u = random_assoc_series(rng, 2, 4)
    s = canonical_solution(5)
    g = div_quad(s.derivation())
    gc.collect()
    gc.disable()
    try:
        substitute_many([a], (ch, z))
        ad_apply(u, a)
        simplicial_combination(s)
        trace_substitute(g, (ch, z))
        assert gc.collect() == 0
    finally:
        gc.enable()
