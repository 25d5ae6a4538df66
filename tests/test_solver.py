import random
from fractions import Fraction

import pytest

from kvquad import (
    AB_to_ab,
    KVSolution,
    LieElement,
    ab_to_AB,
    bracket,
    canonical_solution,
    factorize,
    flow_check,
    gauge_family,
    generator,
    kv1_residual,
    kv_rhs,
    standard_gauge_pairs,
    word_from_str,
)
from kvquad.sampling import random_lie_element

from oracles import dynkin_bch, oadd, oscale, to_word_dict


def lyndon(order, spec):
    return LieElement(2, order, {word_from_str(w): c for w, c in spec.items()})


def bracket_identity(a, b, r):
    """[x, a] + [y, b] == r through the order of r, lifting the factors."""
    order = r.order
    x, y = generator(2, 0, order), generator(2, 1, order)
    return bracket(x, a.with_order(order)) + bracket(y, b.with_order(order)) == r


def test_kv_rhs_low_degrees():
    r = kv_rhs(4)
    assert r.degree_part(1).is_zero()
    assert r.degree_part(2) == lyndon(4, {"ab": Fraction(1, 2)})
    # oracle: x + y - ch(y, x) where ch(y, x) swaps the two letters of ch(x, y);
    # a degree-k part of ch does not depend on the truncation order
    swapped = {tuple(1 - letter for letter in w): c for w, c in dynkin_bch(8).items()}
    for order in range(2, 9):
        truncated = {w: c for w, c in swapped.items() if len(w) <= order}
        expected = oadd({(0,): Fraction(1), (1,): Fraction(1)}, oscale(truncated, -1))
        assert to_word_dict(kv_rhs(order).expand()) == expected


def test_kv_rhs_exactly_half_bracket_at_order_two():
    assert kv_rhs(2) == lyndon(2, {"ab": Fraction(1, 2)})


def test_kv_rhs_requires_order_two():
    with pytest.raises(ValueError):
        kv_rhs(1)


def test_factorize_single_bracket():
    r = lyndon(2, {"ab": 1})
    a, b = factorize(r)
    assert a == lyndon(1, {"b": Fraction(1, 2)})
    assert b == lyndon(1, {"a": Fraction(-1, 2)})
    assert bracket_identity(a, b, r)


def test_factorize_nested_bracket():
    r = lyndon(3, {"aab": 1})  # [x, [x, y]]
    a, b = factorize(r)
    assert bracket_identity(a, b, r)


def test_factorize_zero():
    a, b = factorize(LieElement.zero(2, 4))
    assert a.is_zero() and b.is_zero()


def test_factorize_rejects_low_degrees():
    with pytest.raises(ValueError):
        factorize(generator(2, 0, 3))


def test_factorize_random_lie_inputs():
    rng = random.Random(501)
    for _ in range(15):
        r = random_lie_element(rng, 2, 8, terms=6, min_degree=2)
        a, b = factorize(r)
        assert a.order == 7 and b.order == 7
        assert bracket_identity(a, b, r)


def test_ab_to_AB_zero():
    zero = LieElement.zero(2, 6)
    s = ab_to_AB(zero, zero)
    assert s.A.is_zero() and s.B.is_zero()


def test_ab_to_AB_kernel_expansion():
    # a = y: A picks up the t/(1-e^{-t}) chain y + [x,y]/2 + [x,[x,y]]/12 + 0 + ...
    y = generator(2, 1, 6)
    s = ab_to_AB(y, LieElement.zero(2, 6))
    assert s.A.coefficient(word_from_str("b")) == 1
    assert s.A.coefficient(word_from_str("ab")) == Fraction(1, 2)
    assert s.A.coefficient(word_from_str("aab")) == Fraction(1, 12)
    assert s.A.coefficient(word_from_str("aaab")) == 0
    assert s.A.coefficient(word_from_str("aaaab")) == Fraction(-1, 720)
    assert s.B.is_zero()


def test_ab_AB_roundtrip():
    rng = random.Random(502)
    for _ in range(10):
        a = random_lie_element(rng, 2, 8, terms=4)
        b = random_lie_element(rng, 2, 8, terms=4)
        s = ab_to_AB(a, b)
        assert AB_to_ab(s.A, s.B) == (a, b)


def test_canonical_solution_residual_vanishes(sol8):
    assert kv1_residual(sol8).is_zero()


def test_canonical_solution_degree_one_scalars(sol8):
    # measured values of this factorization scheme, recorded not prescribed
    assert sol8.a_scalar == 0
    assert sol8.b_scalar == Fraction(-1, 4)
    assert sol8.A.coefficient(word_from_str("b")) == Fraction(1, 4)
    assert sol8.method == "dynkin-first-letter"


def test_residual_of_zero_pair_is_minus_rhs():
    zero = LieElement.zero(2, 6)
    s = KVSolution(zero, zero)
    assert kv1_residual(s) == -kv_rhs(6)


def test_residual_detects_perturbation(sol6):
    perturbed = KVSolution(sol6.A + lyndon(6, {"ab": 1}), sol6.B)
    residual = kv1_residual(perturbed)
    assert not residual.is_zero()
    # (1 - exp(-ad_x)) kills constants, so the shift leads with [x, [x, y]]
    assert residual.degree_part(3) == lyndon(7, {"aab": 1})


def test_residual_detects_top_degree_perturbation(sol6):
    # the equation constrains the top degree only through the extra
    # residual degree; a degree-6 perturbation must still be seen
    top = lyndon(6, {"aaaaab": 1})
    perturbed = KVSolution(sol6.A + top, sol6.B)
    residual = kv1_residual(perturbed)
    assert not residual.is_zero()
    assert residual.truncated(6).is_zero()


def test_gauge_family_empty_pairs(sol6):
    assert gauge_family(sol6, []) == [sol6]


def test_gauge_family_members_solve(sol6):
    x, y = generator(2, 0, 6), generator(2, 1, 6)
    xy = bracket(x, y)
    pairs = [(x, y), (xy, xy), (x, x)]
    family = gauge_family(sol6, pairs)
    assert len(family) == 4
    for member in family:
        assert kv1_residual(member).is_zero()
    # the tr(xy) shift moves the measured b by its a2-slot contribution
    assert family[1].b_scalar == sol6.b_scalar + 1
    # the tr(x^2) shift is pure gauge in the x slot: only a_scalar moves
    assert family[3].b_scalar == sol6.b_scalar
    assert family[3].a_scalar == sol6.a_scalar + 2


def test_standard_gauge_pairs_catalog():
    pairs = standard_gauge_pairs(5, 6)
    assert len(pairs) == 5
    with pytest.raises(ValueError):
        standard_gauge_pairs(99, 6)


def test_flow_check_canonical(sol6):
    assert flow_check(sol6, [1, 2, 3, 4, 5, 6, 7])
    assert flow_check(sol6, [Fraction(1, 2), 1, -1, 2, -2, 3, -3])


def test_flow_check_rejects_zero_pair():
    zero = LieElement.zero(2, 4)
    s = KVSolution(zero, zero)
    assert not flow_check(s, [1, 2, 3, 4, 5])


def test_flow_check_sample_validation(sol6):
    with pytest.raises(ValueError):
        flow_check(sol6, [1, 2, 3])  # too few
    with pytest.raises(ValueError):
        flow_check(sol6, [0, 1, 2, 3, 4, 5, 6])  # zero sample
    with pytest.raises(ValueError):
        flow_check(sol6, [1, 1, 2, 3, 4, 5, 6])  # repeated sample


def test_solution_json_roundtrip(sol6):
    data = sol6.to_json_dict()
    assert set(data) == {"order", "A", "B", "method"}
    loaded = KVSolution.from_json_dict(data)
    assert loaded == sol6
    assert loaded.method == sol6.method


# --- the residual memo -------------------------------------------------------

def test_residual_memo_is_per_solution(sol6):
    assert kv1_residual(sol6).is_zero()  # fills the memo of sol6
    perturbed = KVSolution(sol6.A + lyndon(6, {"aab": 1}), sol6.B)
    residual = kv1_residual(perturbed)
    assert not residual.is_zero()
    assert kv1_residual(perturbed) is residual
    assert kv1_residual(sol6).is_zero()


def test_residual_memo_is_invisible(sol6):
    fresh = KVSolution(sol6.A, sol6.B, sol6.method)
    before = (sol6.to_json_dict(), repr(sol6))
    kv1_residual(sol6)
    assert (sol6.to_json_dict(), repr(sol6)) == before
    assert fresh == sol6 and sol6 == fresh
    assert fresh.to_json_dict() == sol6.to_json_dict()
    assert repr(fresh) == repr(sol6)


def test_solution_stays_immutable_with_memo(sol6):
    kv1_residual(sol6)
    with pytest.raises(AttributeError):
        sol6.A = sol6.B
    with pytest.raises(AttributeError):
        sol6._residual = LieElement.zero(2, 7)
    assert kv1_residual(sol6).is_zero()


def test_loaded_solution_computes_its_own_residual(sol6):
    kv1_residual(sol6)
    data = sol6.to_json_dict()
    loaded = KVSolution.from_json_dict(data)
    assert kv1_residual(loaded).is_zero()
    assert kv1_residual(loaded) is not kv1_residual(sol6)
    shifted = KVSolution(sol6.A + lyndon(6, {"ab": Fraction(1, 3)}), sol6.B)
    corrupted = KVSolution.from_json_dict(shifted.to_json_dict())
    assert kv1_residual(corrupted).degree_part(3) == lyndon(7, {"aab": Fraction(1, 3)})
