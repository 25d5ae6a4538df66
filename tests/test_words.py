import copy
import pickle
import random
from fractions import Fraction

import pytest

from kvquad import (
    ArityMismatchError,
    AssocSeries,
    LieElement,
    QuadTraceSeries,
    TraceSeries,
    decompose,
    exp,
    format_rational,
    log,
    mul,
    parse_rational,
    substitute_words,
    tau,
    word_from_str,
    word_to_str,
)
from kvquad.verify import DegreeResult, VerificationReport, Witness
from kvquad.words import _word_name

from oracles import oadd, oexp, olog, omul, oscale, random_assoc_series, to_word_dict

X = AssocSeries.letter(2, 0, 6)
Y = AssocSeries.letter(2, 1, 6)
ONE = AssocSeries.unit(2, 6)


def from_str(order, spec):
    """Small builder: {"ab": coeff, ...} with a=0, b=1."""
    return AssocSeries(2, order, {word_from_str(w): c for w, c in spec.items()})


def test_word_codec_roundtrip():
    assert word_to_str(b"\x00\x01\x00") == "aba"
    assert word_from_str("aba") == b"\x00\x01\x00"
    assert word_from_str("") == b""
    with pytest.raises(ValueError):
        word_from_str("a1")


def test_word_to_str_names_every_letter_and_refuses_beyond_z():
    assert word_to_str(bytes(range(26))) == "abcdefghijklmnopqrstuvwxyz"
    assert word_to_str(bytes(range(25, -1, -1))) == "zyxwvutsrqponmlkjihgfedcba"
    assert word_to_str(b"") == ""
    for w in (b"\x1a", b"\x00\x1a", b"\xff"):
        with pytest.raises(ValueError, match="^letter index beyond 'z' cannot be serialized$"):
            word_to_str(w)
    assert _word_name(b"\x00\x19") == "'az'" and _word_name(b"\x00\x1a") == "[0, 26]"


def test_records_behave_as_frozen_dataclasses():
    """Decomposition and the verify records: construction, defaults, equality, hash,
    repr, immutability, and pickle and copy."""
    witness = Witness(2, item="ab", delta=Fraction(1, 2))
    assert witness == Witness(degree=2, item="ab", delta=Fraction(1, 2))
    assert hash(witness) == hash(Witness(2, "ab", Fraction(1, 2)))
    assert witness != Witness(2, "ab", 1) and witness != (2, "ab", Fraction(1, 2))
    assert repr(witness) == "Witness(degree=2, item='ab', delta=Fraction(1, 2))"
    assert DegreeResult(3, "pass") == DegreeResult(3, "pass", None)
    report = VerificationReport("c", 3, (DegreeResult(3, "fail", witness),))
    assert report.gating is True and report == VerificationReport("c", 3, report.results, True)
    assert repr(report) == (
        "VerificationReport(check='c', order=3, results=(DegreeResult(degree=3, status='fail', "
        "witness=Witness(degree=2, item='ab', delta=Fraction(1, 2))),), gating=True)")
    parts = decompose(from_str(2, {"": 2, "ab": 1}))
    assert repr(parts) == ("Decomposition(constant=Fraction(2, 1), partials=(AssocSeries(arity=2, "
                           "order=1, 0), AssocSeries(arity=2, order=1, a)), order=2)")
    for record in (witness, report, parts):
        for dup in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(dup) is type(record) and dup == record
        with pytest.raises(AttributeError, match=f"{type(record).__name__} is immutable"):
            record.order = 0
        with pytest.raises(AttributeError, match=f"{type(record).__name__} is immutable"):
            del record.order
    for bad in (lambda: Witness(1, "a"), lambda: Witness(1, "a", 0, 0),
                lambda: Witness(1, "a", degree=1), lambda: Witness(1, "a", 0, colour=0)):
        with pytest.raises(TypeError):
            bad()


def test_rational_codec():
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert format_rational(3) == "3/1"
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("7") == 7


@pytest.mark.parametrize("text", ["0.5", "1e5", " 3/4", "1/0", "-3/-4", "+1", "1/2/3", "", "½"])
def test_parse_rational_accepts_only_what_format_rational_writes(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_mul_monomials():
    assert X * Y == from_str(6, {"ab": 1})


def test_mul_telescoping():
    assert (ONE + X) * (ONE - X) == from_str(6, {"": 1, "aa": -1})


def test_mul_distributes():
    s = X + Y
    assert s * s == from_str(6, {"aa": 1, "ab": 1, "ba": 1, "bb": 1})


def test_mul_truncates_to_min_order():
    a = AssocSeries.letter(2, 0, 2)
    b = AssocSeries.from_word(2, 5, b"\x01\x01", 1)
    assert (a * b).order == 2
    assert (a * b).is_zero()  # degree 3 word falls outside order 2


def test_mul_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        mul(X, AssocSeries.letter(3, 0, 6))


def test_exp_of_zero_is_one():
    assert exp(AssocSeries.zero(2, 6)) == ONE


def test_exp_log_inverse_pair():
    assert log(exp(X)) == X
    assert exp(log(ONE + X)) == ONE + X


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        exp(ONE)


def test_log_requires_unit_constant():
    with pytest.raises(ValueError):
        log(X)


def test_log_exp_product_degree_two():
    # brute-force oracle expansion of the composed series
    ex = oexp({(0,): Fraction(1)}, 6)
    ey = oexp({(1,): Fraction(1)}, 6)
    oracle = olog(omul(ex, ey, 6), 6)
    got = log(exp(X) * exp(Y))
    assert to_word_dict(got) == oracle
    deg2 = got.homogeneous_part(2)
    assert deg2 == from_str(6, {"ab": Fraction(1, 2), "ba": Fraction(-1, 2)})


def test_tau_negates_generators():
    assert tau(X) == -X


def test_tau_reverses_words():
    assert tau(X * Y) == Y * X
    commutator = X * Y - Y * X
    assert tau(commutator) == -commutator


def test_tau_antiautomorphism_and_involution():
    rng = random.Random(101)
    for _ in range(50):
        a = random_assoc_series(rng, 2, 6)
        b = random_assoc_series(rng, 2, 6)
        assert tau(a * b) == tau(b) * tau(a)
        assert tau(tau(a)) == a


def test_decompose_single_word():
    d = decompose(ONE + X * Y)
    assert d.constant == 1
    assert d.partials[0].is_zero()
    assert d.partials[1] == AssocSeries.letter(2, 0, 5)


def test_decompose_commutator():
    d = decompose(X * Y - Y * X)
    assert d.partials[0] == -AssocSeries.letter(2, 1, 5)
    assert d.partials[1] == AssocSeries.letter(2, 0, 5)


def test_decompose_strips_last_letter_only():
    d = decompose(X * X * Y)
    assert d.partials[0].is_zero()
    assert d.partials[1] == from_str(5, {"aa": 1})


def test_decompose_reconstruct_roundtrip():
    rng = random.Random(102)
    for _ in range(50):
        a = random_assoc_series(rng, rng.choice([2, 3]), 8)
        assert decompose(a).reconstruct() == a


def test_mul_associative():
    rng = random.Random(103)
    for _ in range(25):
        a = random_assoc_series(rng, 2, 6, terms=5)
        b = random_assoc_series(rng, 2, 6, terms=5)
        c = random_assoc_series(rng, 2, 6, terms=5)
        assert (a * b) * c == a * (b * c)


def test_exp_log_random_roundtrip():
    rng = random.Random(104)
    for _ in range(20):
        a = random_assoc_series(rng, 2, 8, with_constant=False)
        assert log(exp(a)) == a
        u = AssocSeries.unit(2, 8) + a
        assert exp(log(u)) == u


def test_equality_over_common_order():
    short = AssocSeries(2, 2, {b"\x00": 1})
    longer = AssocSeries(2, 5, {b"\x00": 1, b"\x00" * 4: 7})
    assert short == longer  # degree-4 term is beyond the common order
    assert longer != short + AssocSeries.from_word(2, 2, b"\x01")


def test_series_validation():
    with pytest.raises(ValueError):
        AssocSeries(2, 3, {b"\x00\x02": 1})  # letter beyond arity
    with pytest.raises(ValueError):
        AssocSeries(2, 1, {b"\x00\x00": 1})  # word beyond order
    assert AssocSeries(2, 3, {b"\x00": 0}).is_zero()  # zero coefficients dropped


def test_keys_beyond_z_are_named_by_letter_indices():
    # such a word cannot be printed in letters; the message names its indices
    for cls in (AssocSeries, LieElement, TraceSeries, QuadTraceSeries):
        with pytest.raises(ValueError, match=r"^(word|class) \[27, 0\] uses letters beyond arity 2$"):
            cls(2, 3, {bytes([27, 0]): 1})
        with pytest.raises(ValueError, match=r"^(word|class) \[27, 0\] exceeds order 1$"):
            cls(30, 1, {bytes([27, 0]): 1})
    with pytest.raises(ValueError, match=r"^\[28, 27\] is not a Lyndon word$"):
        LieElement(30, 3, {bytes([28, 27]): 1})
    with pytest.raises(ValueError, match=r"^word 'ac' uses letters beyond arity 2$"):
        AssocSeries(2, 3, {b"\x00\x02": 1})


def test_json_roundtrip():
    s = from_str(4, {"": Fraction(2, 3), "ab": -1, "bbba": Fraction(5, 7)})
    data = s.to_json_dict()
    assert data["terms"][0] == {"word": "", "coeff": "2/3"}
    assert AssocSeries.from_json_dict(data) == s


def per_word_substitution(terms: dict, images: list[dict], order: int) -> dict:
    """sum_w c_w images[w_0] ... images[w_last] as one omul product per word."""
    total: dict = {}
    for w, c in terms.items():
        product = {(): Fraction(1)}
        for letter in w:
            product = omul(product, images[letter], order)
        total = oadd(total, oscale(product, c))
    return total


@pytest.mark.parametrize("order", range(1, 8))
def test_substitute_words_matches_per_word_products(order):
    """Two letters into three, signed non-integer images, words beyond the order."""
    rng = random.Random(900 + order)
    for _ in range(4):
        images = [random_assoc_series(rng, 3, order, terms=6, with_constant=False)
                  for _ in range(2)]
        terms = {}
        for _ in range(10):
            w = bytes(rng.randrange(2) for _ in range(rng.randint(0, order + 2)))
            terms[w] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
        got = substitute_words(terms, [image.terms for image in images], order)
        assert all(len(w) <= order and c for w, c in got.items())
        expected = per_word_substitution(
            to_word_dict(AssocSeries(2, order + 2, terms)),
            [to_word_dict(image) for image in images], order)
        assert {tuple(w): c for w, c in got.items()} == expected


def test_substitute_words_needs_images_without_constant_term():
    assert substitute_words({b"\x00": Fraction(1)}, [{b"\x01": Fraction(2)}], 3) == {
        b"\x01": Fraction(2)}
    with pytest.raises(ValueError):
        substitute_words({b"\x00": Fraction(1)}, [{b"": Fraction(1)}], 3)
