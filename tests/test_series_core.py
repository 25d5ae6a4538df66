"""The shared sparse-series core, Lie membership and the input boundary."""

import copy
import pickle
import random
import re
import types
from fractions import Fraction

import pytest

import kvquad
from kvquad import (
    AssocSeries,
    KVSolution,
    LieElement,
    NotLieError,
    QuadTraceSeries,
    RationalUnivariateSeries,
    TraceSeries,
    VerificationReport,
    assoc_to_lie,
    canonical_solution,
    exp,
    gauge_family,
    kernel_series,
    kv1_residual,
    log,
    tr,
    tr_quad,
    simplicial_combination,
    standard_gauge_pairs,
    verify_prop_last,
)
from kvquad.lie import generator
from kvquad.tangential import TangentialDerivation, ch_defect
from kvquad.sampling import random_lie_element, random_rational

from oracles import (
    first_non_lie_degree,
    oexp,
    olog,
    random_assoc_series,
    series_inverse,
    to_word_dict,
    univariate_derivative,
    univariate_inverse,
    univariate_odd_part,
    univariate_shifted_down,
)

SERIES_CLASSES = (AssocSeries, LieElement, TraceSeries, QuadTraceSeries)


def test_all_names_resolve_and_none_is_a_module():
    for name in kvquad.__all__:
        assert not isinstance(getattr(kvquad, name), types.ModuleType), name
    assert "main" in kvquad.__all__ and "cli" not in kvquad.__all__


def test_not_lie_error_degree_matches_left_normed_oracle():
    rng = random.Random(902)
    lie_inputs = non_lie_inputs = 0
    for _ in range(150):
        arity = rng.choice([2, 3])
        order = rng.randint(2, 6)
        terms = dict(random_lie_element(rng, arity, order, terms=5).expand().terms)
        for _ in range(rng.choice([0, 0, 1, 2])):
            degree = rng.randint(1, order)
            w = bytes(rng.randrange(arity) for _ in range(degree))
            terms[w] = terms.get(w, Fraction(0)) + random_rational(rng)
            if rng.random() < 0.5:  # a symmetric or antisymmetric partner
                terms[w[::-1]] = terms.get(w[::-1], Fraction(0)) + rng.choice([1, -1])
        series = AssocSeries(arity, order, terms)
        expected = first_non_lie_degree(to_word_dict(series))
        if expected is None:
            lie_inputs += 1
            assert assoc_to_lie(series).expand() == series
        else:
            non_lie_inputs += 1
            with pytest.raises(NotLieError) as err:
                assoc_to_lie(series)
            assert err.value.degree == expected
            if expected > 0:  # the peel names its obstruction in the a..z form
                named = re.search(r"word '([a-z]+)' obstructs Lie membership", str(err.value))
                assert named and len(named[1]) == expected
    assert lie_inputs > 30 and non_lie_inputs > 30


def constructed(make, cls=None):
    """What a constructor call gives: (arity, order, terms) of its series, which must be
    of class ``cls`` when one is given, or the message it is refused with."""
    try:
        series = make()
    except ValueError as exc:
        return str(exc)
    assert cls is None or type(series) is cls
    return series.arity, series.order, dict(series.terms)


def by_constructor(cls, arity, order, terms):
    """The constructor's outcome; the univariate class's is the word series' over its one
    letter, and once the shape is valid any other arity is refused."""
    if cls is RationalUnivariateSeries:
        if arity > 1 and order >= 0:
            return "a univariate series has one letter: arity 1 and words of letter 0"
        cls = AssocSeries
    return constructed(lambda: cls(arity, order, terms))


# among them the shapes of AssocSeries.unit(0, -1), AssocSeries.letter(2, 1, 0),
# generator(2, 0, 0) and generator(2, 1, -1)
SHAPES = ((0, 3), (-1, 3), (0, -1), (1, -1), (2, -1), (1, 0), (2, 0), (1, 2), (2, 2), (3, 1))
KEYS = (b"", b"\x00", b"\x01", b"\x02", b"\x00\x01", b"\x01\x00", b"\x00\x00\x01")


@pytest.mark.parametrize("cls", SERIES_CLASSES + (RationalUnivariateSeries, TangentialDerivation),
                         ids=lambda c: c.__name__)
def test_zero_refuses_what_the_constructor_refuses(cls):
    """zero, and for series unit, letter, from_word and generator, refuse what the
    constructor refuses, with its message, and build the series it builds."""
    assert cls.zero(1, 0).is_zero()
    for arity, order in ((0, 3), (-1, 3), (1, -1), (2, -1)):
        with pytest.raises(ValueError, match="arity must be >= 1" if arity < 1 else "order must be >= 0"):
            cls.zero(arity, order)
    if cls is RationalUnivariateSeries:  # one letter: from_word's refusal at any other arity
        for arity in (2, 3):
            with pytest.raises(ValueError, match="a univariate series has one letter"):
                cls.zero(arity, 3)
        for coeffs in ([1], {0: 1}):  # the shape rule comes before the exponent check
            with pytest.raises(ValueError, match="^order must be >= 0$"):
                cls(-1, coeffs)
    if cls is TangentialDerivation:
        return
    letters = (cls.letter, generator) if cls is LieElement else (cls.letter,)
    for arity, order in SHAPES:
        shape = by_constructor(cls, arity, order, {})
        assert constructed(lambda: cls.zero(arity, order), cls) == shape
        if hasattr(cls, "unit"):
            assert constructed(lambda: cls.unit(arity, order), cls) == by_constructor(
                cls, arity, order, {b"": 1})
        for w in KEYS:
            assert constructed(lambda: cls.from_word(arity, order, w, Fraction(-2, 3)), cls) == (
                by_constructor(cls, arity, order, {w: Fraction(-2, 3)})), (arity, order, w)
        for index in (-1, 0, 1, 2, 3):
            if 0 <= index < arity:
                expected = by_constructor(cls, arity, order, {bytes([index]): 1})
            else:
                expected = shape if isinstance(shape, str) else (
                    f"letter {index} out of range for arity {arity}")
            for letter in letters:
                assert constructed(lambda: letter(arity, index, order), cls) == expected, (
                    arity, order, index)


@pytest.mark.parametrize("cls", SERIES_CLASSES, ids=lambda c: c.__name__)
def test_core_arithmetic_is_shared_and_typed(cls):
    a = cls(2, 3, {b"\x00\x01": Fraction(1, 2)})
    assert a + a == 2 * a == a * 2
    assert (a - a).is_zero() and -a + a == cls.zero(2, 3)
    assert a.truncated(1).is_zero() and a.truncated(5) is a
    assert repr(a).startswith(f"{cls.__name__}(arity=2, order=3, ")
    assert cls.from_json_dict(a.to_json_dict()) == a
    other = next(c for c in SERIES_CLASSES if c is not cls)(2, 3)
    assert a != other
    with pytest.raises(TypeError):
        a + other


BAD_SERIES_JSON = [
    [],
    "ab",
    {"order": 2, "terms": []},
    {"arity": 2, "terms": []},
    {"arity": 2, "order": 2},
    {"arity": "2", "order": 2, "terms": []},
    {"arity": 2, "order": 2.0, "terms": []},
    {"arity": True, "order": 2, "terms": []},
    {"arity": 2, "order": 2, "terms": {}},
    {"arity": 2, "order": 2, "terms": [["ab", "1"]]},
    {"arity": 2, "order": 2, "terms": [{"word": "ab"}]},
    {"arity": 2, "order": 2, "terms": [{"word": 1, "coeff": "1"}]},
    {"arity": 2, "order": 2, "terms": [{"word": "ab", "coeff": None}]},
    {"arity": 2, "order": 2, "terms": [{"word": "ab", "coeff": "1/0"}]},
    {"arity": 2, "order": 2, "terms": [{"word": "ab", "coeff": "x"}]},
    {"arity": 2, "order": 2, "terms": [{"word": "abc", "coeff": "1"}]},
]


@pytest.mark.parametrize("cls", (AssocSeries, LieElement), ids=lambda c: c.__name__)
@pytest.mark.parametrize("data", BAD_SERIES_JSON)
def test_malformed_series_json_raises_value_error(cls, data):
    with pytest.raises(ValueError):
        cls.from_json_dict(data)


@pytest.mark.parametrize("cls", (AssocSeries, LieElement), ids=lambda c: c.__name__)
def test_series_json_listing_a_word_twice_raises_value_error(cls):
    data = {"arity": 2, "order": 3,
            "terms": [{"word": "ab", "coeff": "1/2"}, {"word": "aab", "coeff": "1/5"},
                      {"word": "ab", "coeff": "1/3"}]}
    with pytest.raises(ValueError, match="lists word 'ab' twice"):
        cls.from_json_dict(data)
    del data["terms"][2]
    assert cls.from_json_dict(data).coefficient(b"\x00\x01") == Fraction(1, 2)


def test_trace_json_requires_its_space_and_lie_json_defaults_its_basis():
    g = QuadTraceSeries(2, 2, {b"\x00\x01": 1})
    data = g.to_json_dict()
    del data["space"]
    with pytest.raises(ValueError):
        QuadTraceSeries.from_json_dict(data)
    data = LieElement(2, 2, {b"\x00\x01": 1}).to_json_dict()
    del data["basis"]
    assert LieElement.from_json_dict(data) == LieElement(2, 2, {b"\x00\x01": 1})


@pytest.mark.parametrize("data", [
    [],
    {"B": {"arity": 2, "order": 1, "terms": []}},
    {"A": {"arity": 2, "order": 1, "terms": []}},
    {"A": [], "B": {"arity": 2, "order": 1, "terms": []}},
    {"A": {"arity": 2, "order": 1, "terms": []},
     "B": {"arity": 2, "order": 1, "terms": []}, "method": 3},
])
def test_malformed_solution_json_raises_value_error(data):
    with pytest.raises(ValueError):
        KVSolution.from_json_dict(data)


def test_gating_report_without_results_does_not_pass():
    assert not verify_prop_last([]).passed
    assert not VerificationReport("empty", 0, ()).passed
    assert VerificationReport("empty", 0, (), gating=False).passed


def value_objects():
    """One instance of every immutable value class, memos filled where they exist."""
    s = canonical_solution(4)
    assert kv1_residual(s).is_zero()  # fills the residual memo
    words = s.A.expand()  # fills the word-expansion memo
    return [words, s.A, tr(words), tr_quad(words), kernel_series("f", 4),
            s.derivation(), s]


@pytest.mark.parametrize("duplicate", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_value_classes_pickle_and_deepcopy(duplicate):
    for value in value_objects():
        dup = duplicate(value)
        assert type(dup) is type(value)
        assert dup == value and dup.order == value.order
        with pytest.raises(AttributeError):
            dup.order = 0
        if isinstance(value, KVSolution):
            assert dup.method == value.method
            assert kv1_residual(dup).is_zero() and kv1_residual(dup).order == value.order + 1


def test_value_classes_refuse_deletion(cold_caches):
    # the caches are cleared after the test, so a deletion let through hurts no other test
    s = canonical_solution(3)
    u = s.derivation()
    ch_defect(u)  # fills the defect memo
    simplicial_combination(s)  # fills the solution's memo dictionary
    member = gauge_family(s, standard_gauge_pairs(1, 3))[1]
    assert kv1_residual(member).is_zero()  # the residual joins the member's memo dictionary
    names = ("arity", "order", "_pair", "_assoc", "components", "_ch_defect",
             "A", "B", "method", "_memo", "_gauge")
    for value in value_objects() + [AssocSeries.letter(2, 0, 3), u, s, member]:
        before = pickle.dumps(value)
        deleted = [name for name in names if hasattr(value, name)]
        for name in deleted:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
        assert all(hasattr(value, name) for name in deleted)
        assert pickle.loads(before) == value
    assert canonical_solution(3).derivation() == u and ch_defect(u).is_zero() is False


def test_univariate_series_is_the_one_letter_word_series():
    assert issubclass(RationalUnivariateSeries, AssocSeries)
    assert kvquad.lie.RationalUnivariateSeries is kvquad.words.RationalUnivariateSeries
    assert kvquad.lie.univariate_substitute is kvquad.words.univariate_substitute
    for name in ("__setattr__", "is_zero", "__eq__", "__hash__", "__add__", "__sub__",
                 "__neg__", "__mul__", "__rmul__", "__str__", "__repr__"):
        assert name not in vars(RationalUnivariateSeries), name  # the core's own
    s = RationalUnivariateSeries(3, [1, Fraction(1, 2), 0, -1])
    assert s.terms == {b"": 1, b"\x00": Fraction(1, 2), b"\x00\x00\x00": -1}
    assert str(s) == "1 + 1/2*t^1 - t^3"
    assert repr(s) == "RationalUnivariateSeries(arity=1, order=3, 1 + 1/2*t^1 - t^3)"


def test_univariate_arithmetic_stays_univariate():
    s = RationalUnivariateSeries(4, {0: 1, 1: -2, 3: Fraction(1, 3)})
    t = RationalUnivariateSeries(3, {1: 1, 2: 5})
    for value in (s + t, s - t, -s, s * 3, 3 * s, s * Fraction(1, 2), s * t, t * s):
        assert type(value) is RationalUnivariateSeries
    assert (s * t).order == 3
    assert (s * t).coeffs == {1: 1, 2: 3, 3: -10}
    assert (s - s).is_zero() and s * 0 == RationalUnivariateSeries.zero(1, 4)


def test_univariate_from_word_takes_powers_of_the_one_letter():
    s = RationalUnivariateSeries.from_word(1, 3, b"\x00", Fraction(2, 3))
    assert type(s) is RationalUnivariateSeries
    assert s == RationalUnivariateSeries(3, {1: Fraction(2, 3)}) and s.order == 3
    assert RationalUnivariateSeries.from_word(1, 2, b"") == RationalUnivariateSeries.unit(1, 2)
    for arity, word in ((1, b"\x01"), (1, b"\x00\x01"), (2, b"\x00")):
        with pytest.raises(ValueError):
            RationalUnivariateSeries.from_word(arity, 3, word)


def test_univariate_unit_and_letter_take_the_one_letter():
    unit, t = RationalUnivariateSeries.unit(1, 3), RationalUnivariateSeries.letter(1, 0, 3)
    assert unit == RationalUnivariateSeries(3, {0: 1}) and t == RationalUnivariateSeries(3, {1: 1})
    assert all(type(s) is RationalUnivariateSeries and s.arity == 1 for s in (unit, t))
    for arity in (2, 3):
        with pytest.raises(ValueError, match="a univariate series has one letter"):
            RationalUnivariateSeries.unit(arity, 3)
        for index in range(arity):
            with pytest.raises(ValueError, match="a univariate series has one letter"):
                RationalUnivariateSeries.letter(arity, index, 3)
    with pytest.raises(ValueError, match="letter 1 out of range for arity 1"):
        RationalUnivariateSeries.letter(1, 1, 3)


def test_univariate_with_arity_widens_to_a_word_series():
    s = RationalUnivariateSeries(3, {0: 1, 2: Fraction(-1, 2)})
    assert s.with_arity(1) is s
    wide = s.with_arity(2)
    assert type(wide) is AssocSeries
    assert wide.arity == 2 and wide.order == 3
    assert wide.terms == {b"": 1, b"\x00\x00": Fraction(-1, 2)}
    with pytest.raises(ValueError):
        s.with_arity(0)


def test_univariate_inverse_matches_oracle():
    rng = random.Random(903)
    for _ in range(30):
        order = rng.randint(0, 9)
        coeffs = [random_rational(rng) for _ in range(order + 1)]
        coeffs[0] = coeffs[0] or Fraction(1)
        inverse = RationalUnivariateSeries(order, coeffs).inverse()
        assert type(inverse) is RationalUnivariateSeries and inverse.order == order
        assert [inverse.coefficient(k) for k in range(order + 1)] == series_inverse(coeffs)


def _same_series(got, want):
    assert type(got) is RationalUnivariateSeries
    assert (got.order, got.terms) == (want.order, want.terms)


@pytest.mark.parametrize("denominator", [1, 7, 10007])
def test_univariate_methods_match_the_former_formulas(denominator):
    """inverse, shifted_down, derivative and odd_part against their former bodies, errors too."""
    rng = random.Random(905 + denominator)
    for order in range(15):
        for _ in range(3):
            coeffs = {k: Fraction(rng.choice([0, rng.randint(-9, 9)]), denominator)
                      for k in range(order + 1)}
            s = RationalUnivariateSeries(order, coeffs)
            _same_series(s.derivative(), univariate_derivative(s))
            _same_series(s.odd_part(), univariate_odd_part(s))
            if s.coefficient(0):
                _same_series(s.inverse(), univariate_inverse(s))
            else:
                for method in (RationalUnivariateSeries.inverse, univariate_inverse):
                    with pytest.raises(ValueError, match="zero constant term"):
                        method(s)
            low = rng.randint(0, order)  # make t^0 .. t^(low-1) vanish
            shiftable = RationalUnivariateSeries(order, {k: c for k, c in coeffs.items() if k >= low})
            for k in range(-2, order + 3):
                for series in (s, shiftable):
                    try:
                        want = univariate_shifted_down(series, k)
                    except ValueError:
                        with pytest.raises(ValueError):
                            series.shifted_down(k)
                    else:
                        _same_series(series.shifted_down(k), want)
            with pytest.raises(ValueError):  # k above the order, even with every coefficient zero
                RationalUnivariateSeries(order).shifted_down(order + 1)


def test_univariate_exponents_are_checked():
    for coeffs in ({-1: 1}, {-1: 0}, {3: 1}):
        with pytest.raises(ValueError, match="exponent"):
            RationalUnivariateSeries(2, coeffs)
    assert RationalUnivariateSeries(2, {3: 0}).is_zero()  # a zero above the order is dropped
    s = RationalUnivariateSeries(2, {0: 5, 2: 1})
    assert s.coefficient(-1) == 0 and s.coefficient(0) == 5 and s.coefficient(3) == 0
    assert list(RationalUnivariateSeries(3, {3: 1, 0: 2, 1: 4}).coeffs) == [0, 1, 3]


def test_exp_and_log_match_oracles():
    rng = random.Random(904)
    for arity in (2, 3):
        for order in range(1, 8):
            for _ in range(3):
                a = random_assoc_series(rng, arity, order, terms=5, with_constant=False)
                got = exp(a)
                assert type(got) is AssocSeries and got.order == order
                assert to_word_dict(got) == oexp(to_word_dict(a), order)
                one_plus = AssocSeries.unit(arity, order) + a
                assert to_word_dict(log(one_plus)) == olog(to_word_dict(one_plus), order)
