"""Seeded random elements for the property suites.

All generators take an explicit random.Random so that every randomized check
is reproducible from a single seed.  Coefficients are small rationals; term
supports are sparse subsets of the available basis words.
"""

import random
from fractions import Fraction

from .lie import LieElement
from .lyndon import lyndon_words
from .tangential import TangentialDerivation
from .traces import TraceSeries, trace_pairing


def random_rational(rng: random.Random, max_num: int = 9, max_den: int = 6) -> Fraction:
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def random_lie_element(rng: random.Random, arity: int, order: int,
                       terms: int = 6, min_degree: int = 1) -> LieElement:
    basis = [w for w in lyndon_words(arity, order) if len(w) >= min_degree]
    chosen = rng.sample(basis, min(terms, len(basis)))
    return LieElement(arity, order, {w: random_rational(rng) for w in chosen})


def random_tangential_derivation(rng: random.Random, arity: int, order: int,
                                 terms: int = 4) -> TangentialDerivation:
    return TangentialDerivation(
        [random_lie_element(rng, arity, order, terms=terms) for _ in range(arity)])


def random_lie_pairs(rng: random.Random, arity: int, order: int,
                     count: int) -> list[tuple[LieElement, LieElement]]:
    """Pairs of nonzero Lie polynomials, suitable for trace pairings."""
    pairs = []
    while len(pairs) < count:
        left = random_lie_element(rng, arity, order, terms=3)
        right = random_lie_element(rng, arity, order, terms=3)
        if not left.is_zero() and not right.is_zero():
            pairs.append((left, right))
    return pairs


def random_gauge_pairs(rng: random.Random, order: int,
                       count: int) -> list[tuple[LieElement, LieElement, TraceSeries]]:
    """Triples (l, r, tr(l r)) with deg l + deg r <= order + 1 and tr(l r) nonzero.

    A gauge shift at this order transports the tuple of tr(l r), taken at
    order + 1; a zero pairing, such as tr(u [u, v]) = 0, would give the
    solution back.  ``solver.gauge_family`` reuses the pairing tested here.
    """
    pairs = []
    while len(pairs) < count:
        d = rng.randint(1, order)
        left = random_lie_element(rng, 2, d, terms=3)
        right = random_lie_element(rng, 2, order + 1 - d, terms=3)
        p = trace_pairing(left.with_order(order + 1), right.with_order(order + 1))
        if not p.is_zero():
            pairs.append((left, right, p))
    return pairs
