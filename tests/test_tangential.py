import random
from fractions import Fraction

import pytest

import kvquad.verify as verify
from kvquad import (
    ArityMismatchError,
    AssocSeries,
    LieElement,
    NotLieError,
    RationalUnivariateSeries,
    TangentialDerivation,
    TraceSeries,
    act,
    act_on_trace,
    bch,
    bch_multi,
    bracket,
    decompose,
    derivation_from_quadratic_trace,
    div,
    div_quad,
    generator,
    kernel_series,
    left_letter_mul,
    lyndon_words,
    quadratic_trace_tuple,
    simplicial,
    substitute,
    tau,
    tr,
    tr_quad,
    trace_pairing,
    trace_substitute,
    word_from_str,
)
from kvquad.sampling import (random_lie_element, random_lie_pairs, random_rational,
                             random_tangential_derivation)
from kvquad.solver import canonical_solution
from kvquad.tangential import (_FACES, _additive_face_sum, _coboundary, _face_words,
                                divergence_words, simplicial_words)
from kvquad.words import _fractions, _linear_sum, _substitute_ints

from oracles import lyndon_image_substitute, random_assoc_series, univariate_coboundary

X = generator(2, 0, 6)
Y = generator(2, 1, 6)
ZERO = LieElement.zero(2, 6)


def test_normalization_strips_own_linear_term():
    u = TangentialDerivation([Y + 3 * X, X])
    assert u.components[0] == Y  # the 3x part of the first slot is dropped
    assert u.components[1] == X  # x in the second slot stays
    # stripping never changes the action
    v = TangentialDerivation([Y, X])
    w = bch(6)
    assert act(u, w) == act(v, w)


def test_act_on_generators():
    u = TangentialDerivation([Y, ZERO])
    assert act(u, X) == bracket(X, Y)
    assert act(u, Y).is_zero()


def test_act_leibniz_on_bracket():
    rng = random.Random(401)
    u = random_tangential_derivation(rng, 2, 6)
    a1, a2 = u.components
    xy = bracket(X, Y)
    expected = bracket(bracket(X, a1), Y) + bracket(X, bracket(Y, a2))
    assert act(u, xy) == expected


def test_act_leibniz_on_assoc_products():
    rng = random.Random(402)
    for _ in range(10):
        u = random_tangential_derivation(rng, 2, 6)
        a = random_lie_element(rng, 2, 6, terms=3).expand()
        b = random_lie_element(rng, 2, 6, terms=3).expand()
        assert act(u, a * b) == act(u, a) * b + a * act(u, b)


def test_act_arity_mismatch():
    u = TangentialDerivation([Y, ZERO])
    with pytest.raises(ArityMismatchError):
        act(u, generator(3, 0, 6))


def test_bracket_antisymmetry_and_zero():
    rng = random.Random(403)
    u = random_tangential_derivation(rng, 2, 5)
    zero = TangentialDerivation.zero(2, 5)
    assert u.bracket(u).is_zero()
    assert u.bracket(zero).is_zero()
    assert zero.bracket(u).is_zero()


def test_bracket_is_commutator_of_actions():
    rng = random.Random(404)
    for _ in range(6):
        u = random_tangential_derivation(rng, 2, 5)
        v = random_tangential_derivation(rng, 2, 5)
        w = u.bracket(v)
        for i in range(2):
            xi = generator(2, i, 5)
            assert act(w, xi) == act(u, act(v, xi)) - act(v, act(u, xi))


def test_bracket_jacobi():
    rng = random.Random(405)
    for _ in range(4):
        u = random_tangential_derivation(rng, 2, 5, terms=3)
        v = random_tangential_derivation(rng, 2, 5, terms=3)
        w = random_tangential_derivation(rng, 2, 5, terms=3)
        total = (u.bracket(v.bracket(w)) + v.bracket(w.bracket(u))
                 + w.bracket(u.bracket(v)))
        assert total.is_zero()


def test_stripping_carries_the_word_expansion():
    """A kept word expansion loses the stripped x_i word with the coordinate."""
    ch = bch_multi(2, 6)  # keeps its words
    u = TangentialDerivation([ch, ch])
    for i, a in enumerate(u.components):
        assert bytes([i]) not in a.terms and bytes([i]) not in a._assoc.terms
        assert a._assoc.order == a.order
        assert a._assoc.terms == LieElement(2, 6, a.terms).expand().terms


@pytest.mark.parametrize("pattern", ["1,2", "2,3", "12,3", "1,23"])
def test_simplicial_matches_lyndon_image_oracle(pattern):
    rng = random.Random(407)
    u = random_tangential_derivation(rng, 2, 5)
    x3, y3, z3 = (generator(3, i, 5) for i in range(3))
    ch_xy, ch_yz = lyndon_image_substitute([bch(5)], (x3, y3)) + lyndon_image_substitute(
        [bch(5)], (y3, z3))
    args = {"1,2": (x3, y3), "2,3": (y3, z3), "12,3": (ch_xy, z3), "1,23": (x3, ch_yz)}[pattern]
    A3, B3 = lyndon_image_substitute(list(u.components), args)
    zero = LieElement.zero(3, 5)
    expected = {"1,2": (A3, B3, zero), "2,3": (zero, A3, B3),
                "12,3": (A3, A3, B3), "1,23": (A3, B3, B3)}[pattern]
    assert simplicial(u, pattern) == TangentialDerivation(expected)


def lyndon_route_embeddings(u: TangentialDerivation) -> dict:
    """The four embeddings' component word maps, through the bracketing images of the oracle."""
    order = u.order
    x3, y3, z3 = (generator(3, i, order) for i in range(3))
    ch = bch_multi(2, order)
    ch_xy, ch_yz = (lyndon_image_substitute([ch], args)[0] for args in ((x3, y3), (y3, z3)))
    out = {}
    for pattern, args in (("1,2", (x3, y3)), ("2,3", (y3, z3)),
                          ("12,3", (ch_xy, z3)), ("1,23", (x3, ch_yz))):
        A3, B3 = (dict(a.expand().terms)
                  for a in lyndon_image_substitute(list(u.components), args))
        out[pattern] = {"1,2": (A3, B3, {}), "2,3": ({}, A3, B3),
                        "12,3": (A3, A3, B3), "1,23": (A3, B3, B3)}[pattern]
    return out


@pytest.mark.parametrize("order", range(2, 9))
def test_simplicial_words_match_the_lyndon_image_route(order):
    """Relabels and the packed CH pass agree with substituting bracketings, word for word."""
    rng = random.Random(1520 + order)
    basis = lyndon_words(2, order)
    mixed = TangentialDerivation([
        LieElement(2, order, {w: Fraction(rng.randint(-10**6, 10**6), rng.choice((7, 11, 13, 10007)))
                              for w in rng.sample(basis, min(5, len(basis)))})
        for _ in range(2)])
    for u in (canonical_solution(order).derivation(), mixed):
        expected = lyndon_route_embeddings(u)
        for pattern in ("1,2", "2,3", "12,3", "1,23"):
            assert tuple(map(_fractions, simplicial_words(u, pattern))) == expected[pattern]


PLUS = ({b"\x00": 1, b"\x01": 1}, 1)  # x + y, the join of the additive faces


@pytest.mark.parametrize("order", range(1, 8))
def test_faces_match_the_substitution_route(order):
    """Every face with the CH join, and the signed sum of the faces with the join x + y
    (``_additive_face_sum``), equal substituting the letter images into nonzero trace
    series (``trace_substitute``) and Lie series (``substitute``); the CH faces of all
    four maps come from one call."""
    rng = random.Random(2600 + order)
    x, y, z = (generator(3, i, order) for i in range(3))
    g = tr(random_assoc_series(rng, 2, order, terms=10))
    gq = tr_quad(random_assoc_series(rng, 2, order, terms=10))
    A, B = (random_lie_element(rng, 2, order, terms=5) for _ in range(2))
    assert not any(series.is_zero() for series in (g, gq, A, B))
    maps = [g._pair, gq._pair, A.expand()._pair, B.expand()._pair]
    ch = bch(order)
    args = {"1,2": (x, y), "2,3": (y, z),
            "12,3": (substitute(ch, (x, y)), z), "1,23": (x, substitute(ch, (y, z)))}
    for pattern in _FACES:
        got = [AssocSeries._make(3, order, *m) for m in _face_words(maps, pattern, order)]
        assert tr(got[0]) == trace_substitute(g, args[pattern])
        assert tr_quad(got[1]) == trace_substitute(gq, args[pattern])
        assert got[2] == substitute(A, args[pattern]).expand()
        assert got[3] == substitute(B, args[pattern]).expand()
    plus = {"1,2": (x, y), "2,3": (y, z), "12,3": (x + y, z), "1,23": (x, y + z)}

    def face_sum(face):
        first, *rest = (face(plus[pattern]) * sign for pattern, sign in _FACES.items())
        return sum(rest, first)

    got = [AssocSeries._make(3, order, _additive_face_sum(ints), d) for ints, d in maps]
    assert tr(got[0]) == face_sum(lambda images: trace_substitute(g, images))
    assert tr_quad(got[1]) == face_sum(lambda images: trace_substitute(gq, images))
    assert got[2] == face_sum(lambda images: substitute(A, images)).expand()
    assert got[3] == face_sum(lambda images: substitute(B, images)).expand()
    assert order < 3 or not any(series.is_zero() for series in got)


@pytest.mark.parametrize("degree", range(1, 11))
def test_additive_face_sum_matches_the_substituted_faces(degree):
    """On seeded integer two-letter maps, words of every length through ``degree`` and one
    of that length, ``_additive_face_sum`` equals word for word, before any projection,
    ``_linear_sum`` of the four ``_substitute_ints`` faces with the letter images (x, y),
    (y, z), (x+y, z) and (x, y+z), signed by ``_FACES``."""
    rng = random.Random(3300 + degree)
    x, y, z = (({bytes([i]): 1}, 1) for i in range(3))
    images = {"1,2": [x, y], "2,3": [y, z],
              "12,3": [PLUS, z], "1,23": [x, ({b"\x01": 1, b"\x02": 1}, 1)]}
    for _ in range(5):
        ints = {bytes(rng.randrange(2) for _ in range(rng.randint(0, degree))):
                rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(8)}
        ints[bytes(rng.randrange(2) for _ in range(degree))] = rng.randint(1, 9)
        expected, d = _linear_sum((sign, *_substitute_ints((ints, 1), images[face], degree))
                                  for face, sign in _FACES.items())
        assert d == 1 and expected
        assert _additive_face_sum(ints) == expected


@pytest.mark.parametrize("order", range(1, 11))
def test_coboundary_matches_the_relabel_and_substitute_route(order):
    """h(x) + h(y) - h(join) for the Bernoulli kernel f and seeded one-letter maps, constant
    terms included, under both joins, equals relabelling h and substituting the join."""
    rng = random.Random(2800 + order)
    maps = [kernel_series("f", order)] + [
        RationalUnivariateSeries(order, [random_rational(rng) for _ in range(order + 1)])
        for _ in range(3)]
    ch = bch(order).expand()
    plus = AssocSeries._make(2, order, *PLUS)
    for h in maps:
        for join, words in ((None, ch), (ch._pair, ch), (PLUS, plus)):
            got = AssocSeries._make(2, order, *_coboundary(h._pair, order, join))
            assert got.order == order and got == univariate_coboundary(h, words)
    assert verify._bernoulli_side(order) == univariate_coboundary(maps[0], ch)


def test_simplicial_tuple_shapes():
    rng = random.Random(406)
    u = random_tangential_derivation(rng, 2, 5)
    A, B = u.components
    x3, y3, z3 = (generator(3, i, 5) for i in range(3))

    u12 = simplicial(u, "1,2")
    assert u12.components[2].is_zero()
    assert u12.components[0] == substitute(A, (x3, y3))
    assert u12.components[1] == substitute(B, (x3, y3))

    u23 = simplicial(u, "2,3")
    assert u23.components[0].is_zero()
    assert u23.components[1] == substitute(A, (y3, z3))
    assert u23.components[2] == substitute(B, (y3, z3))

    ch_xy = substitute(bch(5), (x3, y3))
    u123 = simplicial(u, "12,3")
    assert u123.components[0] == u123.components[1]
    # slot 0 may differ from the raw substitution by its x-linear normalization
    raw = substitute(A, (ch_xy, z3))
    stripped = dict(raw.terms)
    stripped.pop(b"\x00", None)
    assert dict(u123.components[0].terms) == stripped

    u1_23 = simplicial(u, "1,23")
    assert u1_23.components[1] == u1_23.components[2]

    assert simplicial(TangentialDerivation.zero(2, 5), "12,3").is_zero()
    with pytest.raises(ValueError):
        simplicial(u, "3,1")
    with pytest.raises(ArityMismatchError):
        simplicial(simplicial(u, "1,2"), "1,2")


def test_div_degree_one_tuples_vanish():
    u = TangentialDerivation([Y, X])
    assert div(u).is_zero()
    assert div_quad(u).is_zero()


def test_div_bracket_tuple():
    u = TangentialDerivation([bracket(X, Y), ZERO])
    assert div(u) == TraceSeries(2, 6, {word_from_str("ab"): -1})
    got = div_quad(u)
    assert dict(got.terms) == {word_from_str("ab"): Fraction(-1)}


def test_act_on_trace_examples():
    u = TangentialDerivation([Y, ZERO])
    unit_class = tr(AssocSeries.unit(2, 6))
    assert act_on_trace(u, unit_class).is_zero()
    assert act_on_trace(u, tr(X.expand())).is_zero()  # tr[x, y] = 0


def test_act_on_trace_representative_independence():
    u = TangentialDerivation([Y, ZERO])
    xy = AssocSeries.from_word(2, 6, word_from_str("ab"))
    yx = AssocSeries.from_word(2, 6, word_from_str("ba"))
    assert tr(act(u, xy)) == tr(act(u, yx))
    assert tr_quad(act(u, xy)) == tr_quad(act(u, yx))


def test_divergence_cocycle_identity():
    rng = random.Random(407)
    for _ in range(8):
        u = random_tangential_derivation(rng, 2, 5, terms=3)
        v = random_tangential_derivation(rng, 2, 5, terms=3)
        w = u.bracket(v)
        assert div(w) == act_on_trace(u, div(v)) - act_on_trace(v, div(u))
        assert div_quad(w) == act_on_trace(u, div_quad(v)) - act_on_trace(v, div_quad(u))


def test_divergence_simplicial_compatibility():
    rng = random.Random(408)
    x3, y3, z3 = (generator(3, i, 5) for i in range(3))
    ch = bch(5)
    pattern_args = {
        "1,2": (x3, y3),
        "2,3": (y3, z3),
        "12,3": (substitute(ch, (x3, y3)), z3),
        "1,23": (x3, substitute(ch, (y3, z3))),
    }
    for _ in range(5):
        u = random_tangential_derivation(rng, 2, 5, terms=3)
        g, gq = div(u), div_quad(u)
        for pattern, args in pattern_args.items():
            image = simplicial(u, pattern)
            assert div(image) == trace_substitute(g, args)
            assert div_quad(image) == trace_substitute(gq, args)


def test_lemma_correspondence_simple_pairing():
    p = trace_pairing(X, Y)
    a1, a2 = quadratic_trace_tuple(p)
    assert a1 == Y.truncated(5) and a2 == X.truncated(5)
    assert (bracket(X.truncated(5), a1) + bracket(Y.truncated(5), a2)).is_zero()


def test_lemma_correspondence_square_pairing():
    p = trace_pairing(X, X)
    a1, a2 = quadratic_trace_tuple(p)
    assert a1 == 2 * X.truncated(5)  # raw tuple keeps the x-linear term
    assert a2.is_zero()
    u = derivation_from_quadratic_trace(p)
    assert u.is_zero()  # normalization strips the pure-gauge slot


def test_lemma_correspondence_zero():
    assert derivation_from_quadratic_trace(TraceSeries.zero(2, 6)).is_zero()


def test_lemma_rejects_non_quadratic_traces():
    # tr((xy)^2) is not a pairing of Lie elements
    p = tr(AssocSeries.from_word(2, 6, word_from_str("abab")))
    with pytest.raises(NotLieError):
        quadratic_trace_tuple(p)


def test_key_vanishing_and_symmetric_partials():
    rng = random.Random(409)
    for arity in (2, 3):
        for left, right in random_lie_pairs(rng, arity, 6, 12):
            p = trace_pairing(left, right)
            components = quadratic_trace_tuple(p)
            balance = None
            for i, a_i in enumerate(components):
                term = bracket(generator(arity, i, a_i.order), a_i)
                balance = term if balance is None else balance + term
                partial = decompose(a_i.expand()).partials[i]
                assert tau(partial) == partial  # the symmetry step of the proof
            assert balance.is_zero()
            u = derivation_from_quadratic_trace(p)
            assert div_quad(u).is_zero()
            for a_i in components:  # the peeled words are kept as the expansion
                assert a_i._assoc.order == a_i.order
                assert a_i._assoc.terms == LieElement(arity, a_i.order, a_i.terms).expand().terms


def test_derivation_json_roundtrip():
    rng = random.Random(410)
    u = random_tangential_derivation(rng, 3, 4)
    data = u.to_json_dict()
    assert len(data["tuple"]) == 3
    assert TangentialDerivation.from_json_dict(data) == u


def right_letter_divergence(components, project):
    """sum_i project(x_i * (d_i a_i)) with d_i from ``decompose``, the paper's formula."""
    total = None
    for i, a_i in enumerate(components):
        partial = decompose(a_i.expand()).partials[i]
        piece = project(left_letter_mul(i, partial, a_i.order))
        total = piece if total is None else total + piece
    return total


def test_divergence_matches_right_letter_formula():
    rng = random.Random(411)
    for arity in (2, 3):
        for _ in range(12):
            order = rng.randint(2, 6)
            raw = [random_lie_element(rng, arity, order, terms=5)
                   + generator(arity, i, order) * rng.choice([1, -2, Fraction(1, 3)])
                   for i in range(arity)]
            u = TangentialDerivation(raw)  # drops the x_i-linear terms again
            for project, divergence in ((tr, div), (tr_quad, div_quad)):
                expected = right_letter_divergence(raw, project)
                got = project(divergence_words(raw))
                assert got == expected and got.order == expected.order == order
                assert divergence(u) == right_letter_divergence(u.components, project)
            # the x_i-linear terms are kept: tr sees each as the class [x_i]
            assert tr(divergence_words(raw)) != div(u)


@pytest.mark.parametrize("data", [{}, [], {"tuple": 3}], ids=["empty", "list", "int-tuple"])
def test_derivation_json_rejects_malformed_shapes(data):
    with pytest.raises(ValueError):
        TangentialDerivation.from_json_dict(data)
