"""The word-basis commutator and the derivation action built on it.

``lyndon._commutator_ints`` is the one word-basis commutator; ``act``
splices the images [x_i, a_i] into one word expansion and projects once, and
``act_on_trace`` makes one action on the sum of the class representatives.
These seeded tests compare them with tuple-word oracles built from two
products per commutator, and with the per-class sum.
"""

import random
from fractions import Fraction

import pytest

import kvquad.tangential
from kvquad import (
    AssocSeries,
    LieElement,
    QuadTraceSeries,
    TangentialDerivation,
    TraceSeries,
    act,
    act_on_trace,
    quadratic_trace_tuple,
    tr,
    tr_quad,
    trace_pairing,
)
from kvquad.lyndon import _commutator_ints
from kvquad.words import _fractions, _pair_of
from kvquad.sampling import random_lie_element

from oracles import derivation_action, oadd, omul, oscale, random_assoc_series, to_word_dict


def tuple_map(terms: dict) -> dict:
    return {tuple(w): Fraction(c) for w, c in terms.items()}


@pytest.mark.parametrize("unit_left", [True, False], ids=["unit-left", "general-left"])
def test_commutator_truncates_like_products(unit_left):
    rng = random.Random(700 + unit_left)
    for _ in range(40):
        arity, order = rng.randint(1, 3), rng.randint(0, 7)
        left = random_assoc_series(rng, arity, 5, terms=rng.randint(1, 4)).terms
        if unit_left:
            left = {w: 1 for w in left}
        else:
            assert any(c != 1 for c in left.values())
        right = random_assoc_series(rng, arity, 6, terms=rng.randint(0, 8)).terms
        (nl, dl), (nr, dr) = _pair_of(left), _pair_of(right)
        got = _fractions((_commutator_ints(nl, nr, order), dl * dr))
        assert all(len(w) <= order and c for w, c in got.items())
        L, R = tuple_map(left), tuple_map(right)
        expected = oadd(omul(L, R, order), oscale(omul(R, L, order), -1))
        assert tuple_map(got) == expected


def random_derivation(rng, arity: int, order: int, zero_slot: int | None):
    components = [LieElement.zero(arity, order) if i == zero_slot
                  else random_lie_element(rng, arity, order, terms=4)
                  for i in range(arity)]
    return TangentialDerivation(components)


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("u_order, a_order", [(4, 6), (6, 4), (5, 5)])
@pytest.mark.parametrize("kind", ["lie", "assoc"])
def test_act_matches_oracle(arity, u_order, a_order, kind):
    rng = random.Random(1000 * arity + 10 * u_order + a_order + (kind == "lie"))
    for zero_slot in (None, 0, arity - 1):
        u = random_derivation(rng, arity, u_order, zero_slot)
        if kind == "lie":
            a = random_lie_element(rng, arity, a_order, terms=5)
            words = a.expand()
        else:
            a = random_assoc_series(rng, arity, a_order, terms=8)
            words = a
        got = act(u, a)
        assert type(got) is type(a)
        order = min(u_order, a_order)
        assert got.order == order
        expected = derivation_action([to_word_dict(c.expand()) for c in u.components],
                                     to_word_dict(words), order)
        got_words = got.expand() if kind == "lie" else got
        assert to_word_dict(got_words) == expected


@pytest.mark.parametrize("kind", [LieElement, AssocSeries])
def test_act_of_zero_derivation_keeps_the_argument_order(kind):
    rng = random.Random(1100)
    a = (random_lie_element(rng, 2, 7) if kind is LieElement
         else random_assoc_series(rng, 2, 7))
    got = act(TangentialDerivation.zero(2, 4), a)
    assert type(got) is kind and got.order == 7 and got.is_zero()


def per_class_action(u: TangentialDerivation, g):
    """The action on a trace series as one action per class, summed."""
    project = tr if isinstance(g, TraceSeries) else tr_quad
    result = type(g).zero(g.arity, g.order)
    for w, c in g.terms.items():
        result = result + project(act(u, AssocSeries.from_word(u.arity, g.order, w, c)))
    return result


@pytest.mark.parametrize("project, space", [(tr, TraceSeries), (tr_quad, QuadTraceSeries)])
@pytest.mark.parametrize("u_order, g_order", [(4, 6), (6, 4)])
def test_act_on_trace_matches_per_class_sum(project, space, u_order, g_order):
    rng = random.Random(1200 + u_order + (space is TraceSeries))
    for arity in (2, 3):
        u = random_derivation(rng, arity, u_order, zero_slot=None)
        # classes of length >= min(u_order, g_order) act to zero, so keep them short
        short = random_assoc_series(rng, arity, 3, terms=10)
        gs = [project(AssocSeries(arity, g_order, short.terms)), space.zero(arity, g_order)]
        for g in gs:
            got = act_on_trace(u, g)
            expected = per_class_action(u, g)
            assert type(got) is space
            assert got.order == expected.order
            assert got == expected
        assert not gs[0].is_zero()



def test_quadratic_trace_tuple_rejects_brackets_that_do_not_cancel(monkeypatch):
    """The balance check sum_i [x_i, a_i] = 0 runs on the slot words; an extra y in a_x breaks it."""
    bracket = kvquad.tangential._letter_bracket

    def perturbed(index, terms, order):
        if index == 0:
            terms = {**terms, b"\x01": terms.get(b"\x01", 0) + 1}
        return bracket(index, terms, order)

    p = trace_pairing(LieElement(2, 3, {b"\x00\x01": 1}), LieElement(2, 3, {b"\x00": 1}))
    assert quadratic_trace_tuple(p)  # balanced without the perturbation
    monkeypatch.setattr(kvquad.tangential, "_letter_bracket", perturbed)
    with pytest.raises(ValueError, match="sum_i"):
        quadratic_trace_tuple(p)
