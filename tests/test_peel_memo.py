"""Lie series are stored as words; their Lyndon coordinates are peeled on first read.

Every function that builds a Lie series from words keeps those words as the
result's ``expand()`` memo, and the peel, run on the first coordinate read
(at once in ``assoc_to_lie``), only ever empties them.  These tests check,
for the results of those functions, that the memo is a plain
``AssocSeries`` of the result's arity and order and equal to a fresh
``Fraction`` expansion of the coordinates (``oracles.fraction_expand``),
also when the input words are a ``RationalUnivariateSeries``, whose series
compare unequal to plain ones.  They also check that an element built
lazily from words agrees with the eager peel in every reading, under
threads and through copies, that a gauge member's A and B are its base's
plus its shift's coordinates, formed only when read, and how many peels
the CLI makes: ``verify
--suite propU`` peels no three-letter series, ``--suite series`` none, and a
second ``solve-kv`` at one order and gauge count peels nothing.
"""

import copy
import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

import kvquad.lie
import kvquad.lyndon
import kvquad.solver
from kvquad import (
    AssocSeries,
    KVSolution,
    LieElement,
    NotLieError,
    RationalUnivariateSeries,
    TangentialDerivation,
    act,
    ad_apply,
    apply_operator_series,
    assoc_to_lie,
    bracket,
    canonical_solution,
    directional_derivative,
    factorize,
    gauge_family,
    generator,
    kernel_series,
    kv1_residual,
    kv_rhs,
    quadratic_trace_tuple,
    scale,
    simplicial,
    substitute_many,
    trace_pairing,
    verify_theorem,
)
from kvquad.cli import main
from kvquad.lie import log_exp_product, without_letters
from kvquad.lyndon import lyndon_words
from kvquad.sampling import random_gauge_pairs, random_lie_element

from oracles import fraction_expand, random_assoc_series


def assert_memo_is_fresh_expansion(element: LieElement):
    memo = element._assoc
    assert type(memo) is AssocSeries
    assert (memo.arity, memo.order) == (element.arity, element.order)
    assert dict(memo.terms) == fraction_expand(element)
    assert memo == LieElement(element.arity, element.order, element.terms).expand()


def peel_results():
    """(name, results) for each function that ends in the peel, on seeded inputs."""
    rng = random.Random(2100)
    a, b = (random_lie_element(rng, 2, 6, terms=5) for _ in range(2))
    c = random_lie_element(rng, 3, 5, terms=5)
    u = TangentialDerivation([random_lie_element(rng, 3, 5, terms=3) for _ in range(3)])
    s = canonical_solution(5)
    corrupted = KVSolution(s.A + LieElement(2, 5, {b"\x00\x00\x01": Fraction(2, 7)}), s.B)
    x, y, z = (generator(3, i, 5) for i in range(3))
    direction = random_lie_element(rng, 3, 5, terms=3)
    pairing = trace_pairing(LieElement(2, 5, {b"\x00\x01": 1}), LieElement(2, 5, {b"\x00": 1}))
    return [
        ("bracket", [bracket(a, b)]),
        ("apply_operator_series",
         [apply_operator_series(kernel_series("t/(exp(t)-1)", 6), 1, a)]),
        ("ad_apply", [ad_apply(random_assoc_series(rng, 2, 4, terms=6), b)]),
        ("directional_derivative", [directional_derivative(c, 1, direction)]),
        ("act", [act(u, c)]),
        ("factorize", list(factorize(kv_rhs(6)))),
        ("kv1_residual", [kv1_residual(s), kv1_residual(corrupted)]),
        ("substitute_many", substitute_many([a, b], (x + y, z))),
        ("simplicial", [component for pattern in ("1,2", "2,3", "12,3", "1,23")
                        for component in simplicial(s.derivation(), pattern).components]),
        ("quadratic_trace_tuple", list(quadratic_trace_tuple(pairing))),
    ]


PEELED = peel_results()


@pytest.mark.parametrize("name, results", PEELED, ids=[name for name, _ in PEELED])
def test_peel_results_keep_a_plain_fresh_expansion(name, results):
    assert results
    for element in results:
        assert isinstance(element, LieElement)
        assert_memo_is_fresh_expansion(element)
    if name == "kv1_residual":
        assert results[0].is_zero() and not results[1].is_zero()


def test_peel_of_a_univariate_series_keeps_a_plain_word_series():
    t = RationalUnivariateSeries(4, {1: Fraction(3, 7)})
    x = assoc_to_lie(t)
    assert x == LieElement(1, 4, {b"\x00": Fraction(3, 7)})
    assert_memo_is_fresh_expansion(x)
    assert x.expand() == AssocSeries(1, 4, {b"\x00": Fraction(3, 7)})
    along = directional_derivative(LieElement(1, 4, {b"\x00": 2}), 0, t)
    assert along == x * 2
    assert_memo_is_fresh_expansion(along)


# --- words first: the peel runs where coordinates are read -------------------

DENOMINATORS = (1, 7, 11, 13, 10007)


def random_words(rng: random.Random, arity: int, order: int) -> AssocSeries:
    """The word expansion of a seeded Lie series with mixed denominators."""
    basis = lyndon_words(arity, order)
    chosen = rng.sample(basis, min(len(basis), rng.randint(1, 6)))
    coords = {w: Fraction(rng.randint(-30, 30) or 1, rng.choice(DENOMINATORS)) for w in chosen}
    return LieElement(arity, order, coords).expand()


def unread(element: LieElement) -> bool:
    """No coordinate memo yet; this probe neither peels nor expands."""
    try:
        object.__getattribute__(element, "_pair")
    except AttributeError:
        return True
    return False


def assert_lazy_matches_eager(lazy: LieElement, eager: LieElement):
    assert unread(lazy)
    assert lazy == eager and eager == lazy
    assert lazy.is_zero() == eager.is_zero()
    assert unread(lazy)  # equality and the zero test read words only
    assert dict(lazy.terms) == dict(eager.terms)
    assert dict(lazy.expand().terms) == dict(eager.expand().terms)
    assert lazy.to_json_dict() == eager.to_json_dict()


CASES = [(arity, order) for arity in (2, 3) for order in range(1, 9)]


@pytest.mark.parametrize("arity, order", CASES)
def test_lazy_elements_match_the_eager_peel(arity, order):
    rng = random.Random(1600 + 10 * arity + order)
    for _ in range(4):
        words, other = random_words(rng, arity, order), random_words(rng, arity, order)
        eager, eager_other = assoc_to_lie(words), assoc_to_lie(other)

        def lazy(source=words):
            return LieElement.from_words(AssocSeries(arity, order, dict(source.terms)))

        t = Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS))
        cut = rng.randint(0, order)
        for built, expected in [
            (lazy(), eager),
            (lazy() + lazy(other), eager + eager_other),
            (lazy() - lazy(other), eager - eager_other),
            (lazy() - lazy(), LieElement.zero(arity, order)),
            (scale(lazy(), t), scale(eager, t)),
            (lazy() * t, eager * t),
            (lazy().truncated(cut), eager.truncated(cut)),
            (lazy().homogeneous_part(cut), eager.homogeneous_part(cut)),
            (without_letters(lazy(), range(arity)), without_letters(eager, range(arity))),
        ]:
            assert_lazy_matches_eager(built, expected)


@pytest.mark.parametrize("arity, order", [(2, 4), (2, 7), (3, 3), (3, 5)])
def test_lazy_words_that_are_not_lie_raise_at_the_same_degree(arity, order):
    rng = random.Random(1700 + 10 * arity + order)
    for _ in range(6):
        degree = rng.randint(2, order)
        w = bytes(rng.randrange(arity) for _ in range(degree))
        words = random_words(rng, arity, order) + AssocSeries.from_word(
            arity, order, w, Fraction(rng.randint(1, 5), rng.choice(DENOMINATORS)))
        with pytest.raises(NotLieError) as eager:
            assoc_to_lie(words)
        lazy = LieElement.from_words(words)
        assert lazy.expand() is words and not lazy.is_zero()
        with pytest.raises(NotLieError) as read:
            lazy.terms
        # a Lie part of degree >= 2 has coefficient sum 0, so only the degree of w breaks
        assert eager.value.degree == read.value.degree == degree
        assert str(eager.value) == str(read.value)


def unexpanded(element: LieElement) -> bool:
    """No word expansion yet; this probe neither expands nor peels."""
    try:
        object.__getattribute__(element, "_assoc")
    except AttributeError:
        return True
    return False


def unformed(member: KVSolution) -> bool:
    """Neither A nor B of a gauge member formed yet; this probe forms neither."""
    for name in ("A", "B"):
        try:
            object.__getattribute__(member, name)
        except AttributeError:
            continue
        return False
    return True


def test_a_gauge_member_reads_its_coordinates_as_base_plus_shift(monkeypatch):
    """A member's JSON peels its shift's words and nothing else, and it forms no member
    word map: its A and B are its base's plus its shift's coordinates."""
    order = 7
    pairs = random_gauge_pairs(random.Random(1750), order, 2)
    base, *members = gauge_family(canonical_solution(order), pairs)
    base.A.terms, base.B.terms  # the base's own peel, shared by every member, made first
    assert all(unformed(member) for member in members)
    shifts = [words for member in members for words in
              (member._gauge[1].A.expand(), member._gauge[1].B.expand())]
    seen = []
    peel = kvquad.lie._peel
    monkeypatch.setattr(kvquad.lie, "_peel", lambda words: seen.append(words) or peel(words))
    got = [member.to_json_dict() for member in members]
    monkeypatch.setattr(kvquad.lie, "_peel", peel)
    assert len(seen) == len(shifts) and all(a is b for a, b in zip(seen, shifts))
    assert all(unexpanded(member.A) and unexpanded(member.B) for member in members)
    for member, json_dict in zip(members, got):
        shift = member._gauge[1]
        assert member.A.expand() == base.A.expand() + shift.A.expand()
        assert member.B.expand() == base.B.expand() + shift.B.expand()
        fresh = KVSolution(assoc_to_lie(member.A.expand()), assoc_to_lie(member.B.expand()),
                           member.method)
        assert json_dict == fresh.to_json_dict()

    # the member's first read of A and B, raced by eight threads
    racing = gauge_family(canonical_solution(order), pairs)[1]
    barrier = threading.Barrier(8)

    def read():
        barrier.wait(timeout=60)
        return racing.to_json_dict()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [future.result(timeout=120) for future in [pool.submit(read) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [got[0]] * 8
    assert racing.A == members[0].A and racing.B == members[0].B


def test_verify_theorem_on_gauge_members_forms_no_member_a_or_b():
    """The theorem and the residual of a member are summed from its base and its shift."""
    order = 7
    family = gauge_family(canonical_solution(order),
                          random_gauge_pairs(random.Random(1760), order, 3))
    for member in family[1:]:
        assert verify_theorem(member).passed
        assert kv1_residual(member).is_zero()
        assert unformed(member)


def test_first_coordinate_read_under_threads():
    """Eight threads make the first coordinate read of one element at once."""
    words = log_exp_product.__wrapped__(3, 6).expand()
    rng = random.Random(1800)
    other = LieElement.from_words(random_words(rng, 3, 6))
    expected = dict(assoc_to_lie(words).terms)
    expected_sum = dict((assoc_to_lie(words) + assoc_to_lie(other.expand())).terms)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for element, want in ((LieElement.from_words(words), expected),
                              (LieElement.from_words(words) + other, expected_sum)):
            barrier = threading.Barrier(8)

            def read():
                barrier.wait(timeout=60)
                return dict(element.terms)

            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(read) for _ in range(8)]
                results = [future.result(timeout=120) for future in futures]
            assert results == [want] * 8
            assert dict(element.terms) == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_an_unread_element_copies_without_a_peel(duplicate):
    rng = random.Random(1850)
    words = random_words(rng, 3, 6)
    for element in (LieElement.from_words(words),
                    LieElement.from_words(words) + LieElement.from_words(random_words(rng, 3, 6))):
        dup = duplicate(element)
        assert type(dup) is LieElement and (dup.arity, dup.order) == (element.arity, element.order)
        assert unread(element) and unread(dup)
        assert dup == element
        assert dict(dup.terms) == dict(assoc_to_lie(element.expand()).terms)
        assert dup.to_json_dict() == element.to_json_dict()


@pytest.fixture
def peel_letters(monkeypatch, cold_caches):
    """The highest letter of each ``lyndon_coordinates`` call, counted in every module binding it.

    The process caches start empty (``cold_caches``), so a memo left by another test
    hides no peel.
    """
    peel = kvquad.lyndon.lyndon_coordinates
    letters: list[int] = []

    def counting(degree_terms):
        letters.append(max((max(w) for w in degree_terms[0]), default=0))
        return peel(degree_terms)

    bound = [module for name, module in sorted(sys.modules.items())
             if name.split(".")[0] == "kvquad"
             and getattr(module, "lyndon_coordinates", None) is peel]
    assert {kvquad.lie, kvquad.lyndon} <= set(bound)
    for module in bound:
        monkeypatch.setattr(module, "lyndon_coordinates", counting)
    return letters


def test_verify_prop_u_peels_no_three_letter_series(peel_letters, capsys):
    """The gate: a zero test or report that reads coordinates would show up here as a peel."""
    assert main(["verify", "--suite", "propU", "--order", "7"]) == 0
    assert "propU: pass" in capsys.readouterr().out
    three_letter = [letter for letter in peel_letters if letter >= 2]
    assert not three_letter, f"{len(three_letter)} three-letter peels"
    log_exp_product.__wrapped__(3, 3).terms  # the counter does see a three-letter peel
    assert max(peel_letters) == 2


@pytest.mark.parametrize("argv, peels", [
    ("solve-kv --order 9 --gauge 4", 40),
    ("solve-kv --order 10 --gauge 10", 52),
    ("verify --suite theorem --order 9 --seed 7", 0),
    ("verify --suite series --order 12", 0),  # x and x^k y are read off the words
])
def test_lyndon_peel_counts(peel_letters, capsys, argv, peels):
    """The gate on how often the CLI peels: a gauge member's JSON peels no words of its own."""
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert len(peel_letters) == peels


def test_a_warm_solve_kv_reuses_the_canonical_solution(peel_letters, capsys, monkeypatch):
    """The second run at one (order, count) factorizes nothing and peels nothing: the
    catalog family, its shifts' coordinates and its members' A and B are cached."""
    factorize_calls = []
    factorize = kvquad.solver.factorize
    monkeypatch.setattr(kvquad.solver, "factorize",
                        lambda *args: factorize_calls.append(args) or factorize(*args))
    counts, outputs = [], []
    for _ in range(2):
        done = len(factorize_calls), len(peel_letters)
        assert main(["solve-kv", "--order", "9", "--gauge", "4"]) == 0
        outputs.append(capsys.readouterr().out)
        counts.append((len(factorize_calls) - done[0], len(peel_letters) - done[1]))
    assert counts == [(1, 40), (0, 0)]
    assert outputs[0] == outputs[1]
