"""Every Lie element the peel returns keeps its input words as the expansion memo.

``assoc_to_lie`` only returns after emptying its input, so the input words
are exactly the result's word expansion, and the result keeps them as its
``expand()`` memo.  These tests check, for the results of the functions
that end in the peel, that the memo is a plain ``AssocSeries`` of the
result's arity and order and equal to a fresh ``Fraction`` expansion of the
coordinates (``oracles.fraction_expand``), also when the peeled input is a
``RationalUnivariateSeries``, whose series compare unequal to plain ones.
"""

import random
from fractions import Fraction

import pytest

from kvquad import (
    AssocSeries,
    KVSolution,
    LieElement,
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
    generator,
    kernel_series,
    kv1_residual,
    kv_rhs,
    quadratic_trace_tuple,
    simplicial,
    substitute_many,
    trace_pairing,
)
from kvquad.sampling import random_lie_element

from oracles import fraction_expand, random_assoc_series


def assert_memo_is_fresh_expansion(element: LieElement):
    memo = element._assoc
    assert type(memo) is AssocSeries
    assert (memo.arity, memo.order) == (element.arity, element.order)
    assert dict(memo.terms) == fraction_expand(element)
    assert memo == LieElement._make(element.arity, element.order, dict(element.terms)).expand()


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
