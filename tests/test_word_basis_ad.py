"""Word-basis adjoint action against independent and Lie-basis references.

``apply_operator_series``, ``ad_apply`` and ``kv1_residual`` apply ad in the
word basis and project to the Lyndon basis once.  These seeded tests compare
them with the tuple-word oracle (one commutator per power) and with the
Lie-basis formula that brackets once per power.
"""

import random
from fractions import Fraction

import pytest

from kvquad import (
    AssocSeries,
    KVSolution,
    LieElement,
    RationalUnivariateSeries,
    ad_apply,
    apply_operator_series,
    bracket,
    generator,
    kernel_series,
    kv1_residual,
    kv_rhs,
    lyndon_words,
)
from kvquad.lie import KERNEL_NAMES, _exp_minus_one
from kvquad.sampling import random_lie_element, random_rational

from oracles import ad_power_series, oadd, omul, oscale, random_assoc_series, to_word_dict


def kernels(order: int, rng: random.Random) -> list[RationalUnivariateSeries]:
    """Every named kernel, both exponential differences, and a random phi with phi_0 != 0."""
    b = Fraction(rng.choice([-7, -5, 1, 3]), rng.choice([2, 3, 4]))  # never an integer
    out = [kernel_series(name, order, b=b) for name in KERNEL_NAMES]
    out += [_exp_minus_one(order, 1), _exp_minus_one(order, -1)]
    coeffs = [random_rational(rng) for _ in range(order + 1)]
    coeffs[0] = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
    out.append(RationalUnivariateSeries(order, coeffs))
    return out


@pytest.mark.parametrize("arity, order", [(2, 6), (3, 5)])
def test_apply_operator_series_matches_oracle(arity, order):
    rng = random.Random(300 + arity)
    phis = kernels(order, rng)
    assert phis[-1].coefficient(0)
    for index in range(arity):
        for phi in phis:
            a = random_lie_element(rng, arity, order, terms=5)
            got = apply_operator_series(phi, index, a)
            assert got.order == order
            coeffs = [phi.coefficient(k) for k in range(order + 1)]
            expected = ad_power_series(coeffs, index, to_word_dict(a.expand()), order)
            assert to_word_dict(got.expand()) == expected


def test_apply_operator_series_rejects_out_of_range_index():
    a = random_lie_element(random.Random(310), 2, 5)
    phi = kernel_series("t/(exp(t)-1)", 5)
    for index in (-1, 2, 3):
        with pytest.raises(ValueError):
            apply_operator_series(phi, index, a)


def nested_commutators(u: dict, z: dict, order: int) -> dict:
    """sum of c * [u_0, [u_1, [..., z]]] over the words of u, on tuple words."""
    total: dict = {}
    for w, c in u.items():
        image = z
        for letter in reversed(w):
            gen = {(letter,): Fraction(1)}
            image = oadd(omul(gen, image, order), oscale(omul(image, gen, order), -1))
        total = oadd(total, oscale(image, c))
    return total


def test_ad_apply_matches_oracle():
    rng = random.Random(311)
    for arity, order in ((2, 6), (3, 5)):
        for _ in range(6):
            u = random_assoc_series(rng, arity, order - 1, terms=6)
            z = random_lie_element(rng, arity, order, terms=4)
            got = ad_apply(u, z)
            assert got.order == order
            expected = nested_commutators(to_word_dict(u), to_word_dict(z.expand()), order)
            assert to_word_dict(got.expand()) == expected
    # u longer than z: words of u that leave no room for z drop at every level
    u = random_assoc_series(rng, 3, 7, terms=12)
    z = random_lie_element(rng, 3, 4, terms=4)
    got = ad_apply(u, z)
    assert got.order == 4 and not got.is_zero()
    assert to_word_dict(got.expand()) == nested_commutators(to_word_dict(u), to_word_dict(z.expand()), 4)
    # z longer than u reaches: the result stops at u.order + 1, the unit's image too
    u = random_assoc_series(rng, 2, 2, terms=4) + AssocSeries.unit(2, 2)
    z = random_lie_element(rng, 2, 6, terms=6)
    got = ad_apply(u, z)
    assert got.order == 3
    z_low = {w: c for w, c in to_word_dict(z.expand()).items() if len(w) <= 3}
    assert to_word_dict(got.expand()) == nested_commutators(to_word_dict(u), z_low, 3)


def lie_basis_operator_series(phi, index, a):
    """The Lie-basis formula: one bracket with the generator per power of ad."""
    gen = generator(a.arity, index, a.order)
    result = phi.coefficient(0) * a
    power = a
    for k in range(1, a.order + 1):
        power = bracket(gen, power)
        result = result + phi.coefficient(k) * power
    return result


def lie_basis_residual(s: KVSolution) -> LieElement:
    order = s.order + 1
    return (lie_basis_operator_series(_exp_minus_one(order, -1), 0, s.A.with_order(order))
            + lie_basis_operator_series(_exp_minus_one(order, 1), 1, s.B.with_order(order))
            - kv_rhs(order))


def test_kv1_residual_matches_lie_basis_formula(sol6):
    rng = random.Random(312)
    basis = lyndon_words(2, sol6.order)
    nonzero = 0
    for degree in range(1, sol6.order + 1):
        for component in ("A", "B"):
            w = rng.choice([v for v in basis if len(v) == degree])
            c = random_rational(rng) or Fraction(1)
            shift = LieElement(2, sol6.order, {w: c})
            A, B = (sol6.A + shift, sol6.B) if component == "A" else (sol6.A, sol6.B + shift)
            perturbed = KVSolution(A, B)
            got = kv1_residual(perturbed)
            assert got.order == sol6.order + 1
            assert got.sorted_items() == lie_basis_residual(perturbed).sorted_items()
            nonzero += not got.is_zero()
    # only the shifts by x in A or by y in B are invisible to the equation
    assert nonzero >= 2 * sol6.order - 2


def test_kv1_residual_of_a_solution_is_zero(sol6):
    assert kv1_residual(sol6) == LieElement.zero(2, sol6.order + 1)
    assert lie_basis_residual(sol6).is_zero()
