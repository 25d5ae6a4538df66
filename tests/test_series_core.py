"""The shared sparse-series core, the right-normed expander and the input boundary."""

import copy
import pickle
import random
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
    TraceSeries,
    VerificationReport,
    assoc_to_lie,
    canonical_solution,
    kernel_series,
    kv1_residual,
    tr,
    tr_quad,
    verify_prop_last,
)
from kvquad.lyndon import right_normed_expansion
from kvquad.sampling import random_lie_element, random_rational

from oracles import first_non_lie_degree, right_nested, to_word_dict

SERIES_CLASSES = (AssocSeries, LieElement, TraceSeries, QuadTraceSeries)


def test_all_names_resolve_and_none_is_a_module():
    for name in kvquad.__all__:
        assert not isinstance(getattr(kvquad, name), types.ModuleType), name
    assert "main" in kvquad.__all__ and "cli" not in kvquad.__all__


def test_right_normed_expansion_matches_oracle():
    rng = random.Random(901)
    cache: dict = {}
    for _ in range(60):
        w = bytes(rng.randrange(3) for _ in range(rng.randint(1, 7)))
        assert to_word_dict(AssocSeries._make(3, 7, right_normed_expansion(w, cache))) \
            == right_nested(tuple(w))


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
            if expected > 0:  # rejected by the bracketing certificate, not by peeling
                assert "bracketing is not k times the identity" in str(err.value)
    assert lie_inputs > 30 and non_lie_inputs > 30


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
