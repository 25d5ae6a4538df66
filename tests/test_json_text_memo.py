"""A series formats its JSON text once per indent and keeps it.

``_SparseSeries._json_text(pad)`` formats through ``_format_json`` on its first
call at ``pad`` and stores the (pad, text) pair in the ``_text`` slot; a later
call at that pad returns the stored string, and a call at another pad formats
again and replaces it.  These tests check the stored text against ``json.dumps``
at several indents for every kind of series the CLI writes, and against texts
written out by hand, that a refusal is never stored, that copies carry no memo,
and that racing threads agree.
"""

import copy
import json
import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from kvquad import (
    AssocSeries,
    LieElement,
    QuadTraceSeries,
    RationalUnivariateSeries,
    TraceSeries,
    canonical_solution,
    gauge_family,
    standard_gauge_pairs,
    tr,
)
from kvquad.sampling import random_lie_element

from oracles import random_assoc_series

PADS = ("", "  ", "      ")


def unset(series, slot: str) -> bool:
    """The memo ``slot`` is not filled yet; this probe neither formats nor peels."""
    try:
        object.__getattribute__(series, slot)
    except AttributeError:
        return True
    return False


def series_kinds():
    """(id, factory) for each kind of series the CLI writes; each call builds a fresh one."""
    rng = random.Random(3800)
    words = random_assoc_series(rng, 2, 5, terms=12)  # a constant term, signs, denominators
    coords = {b"\x00": Fraction(-7, 3), b"\x00\x01": 5, b"\x00\x00\x01": Fraction(1, 12)}
    lie_words = LieElement(2, 4, coords).expand()

    def peeled():
        element = LieElement.from_words(lie_words)
        element.terms  # the first coordinate read peels
        return element

    def gauge_a():
        return gauge_family(canonical_solution(5), standard_gauge_pairs(2, 5))[2].A

    return [
        ("assoc", lambda: AssocSeries._make(2, 5, *words._pair)),
        ("lie-peeled", peeled),
        ("lie-unpeeled", lambda: LieElement.from_words(lie_words)),
        ("gauge-member-A", gauge_a),
        ("trace", lambda: tr(words)),
        ("univariate", lambda: RationalUnivariateSeries(
            5, {0: Fraction(-1, 2), 3: 7, 4: Fraction(5, 9)})),
    ]


KINDS = series_kinds()


@pytest.mark.parametrize("make", [make for _, make in KINDS], ids=[name for name, _ in KINDS])
def test_the_text_is_json_dumps_at_each_pad_and_stored_per_pad(make, formatted):
    series = make()
    assert unset(series, "_text")
    texts = []
    for pad in PADS:
        text = series._json_text(pad)
        assert series._json_text(pad) is text  # the second call reads the memo
        assert object.__getattribute__(series, "_text") == (pad, text)
        texts.append(text)
    expected = json.dumps(series.to_json_dict(), indent=2)
    assert texts == [expected.replace("\n", "\n" + pad) for pad in PADS]
    assert len(formatted) == len(PADS)
    assert series._json_text(PADS[0]) == expected  # back at the first pad: formatted again
    assert len(formatted) == len(PADS) + 1


# (id, factory, text at pad "", text at pad "  "), written out by hand: they pin the
# layout itself, which the comparison with json.dumps(to_json_dict()) above does not
LAYOUTS = [
    ("assoc", lambda: AssocSeries(2, 2, {b"": 1, b"\x01\x00": Fraction(-3, 4)}), """{
  "arity": 2,
  "order": 2,
  "terms": [
    {
      "word": "",
      "coeff": "1/1"
    },
    {
      "word": "ba",
      "coeff": "-3/4"
    }
  ]
}""", """{
    "arity": 2,
    "order": 2,
    "terms": [
      {
        "word": "",
        "coeff": "1/1"
      },
      {
        "word": "ba",
        "coeff": "-3/4"
      }
    ]
  }"""),
    ("lie", lambda: LieElement(2, 2, {b"\x00\x01": Fraction(1, 2)}), """{
  "arity": 2,
  "order": 2,
  "basis": "lyndon",
  "terms": [
    {
      "word": "ab",
      "coeff": "1/2"
    }
  ]
}""", """{
    "arity": 2,
    "order": 2,
    "basis": "lyndon",
    "terms": [
      {
        "word": "ab",
        "coeff": "1/2"
      }
    ]
  }"""),
    ("trace", lambda: TraceSeries(2, 3, {b"\x00\x01": 2}), """{
  "arity": 2,
  "order": 3,
  "space": "tr",
  "terms": [
    {
      "word": "ab",
      "coeff": "2/1"
    }
  ]
}""", """{
    "arity": 2,
    "order": 3,
    "space": "tr",
    "terms": [
      {
        "word": "ab",
        "coeff": "2/1"
      }
    ]
  }"""),
    ("quad-trace", lambda: QuadTraceSeries(2, 4, {b"\x00\x00\x01\x01": Fraction(-1, 6)}), """{
  "arity": 2,
  "order": 4,
  "space": "trquad",
  "terms": [
    {
      "word": "aabb",
      "coeff": "-1/6"
    }
  ]
}""", """{
    "arity": 2,
    "order": 4,
    "space": "trquad",
    "terms": [
      {
        "word": "aabb",
        "coeff": "-1/6"
      }
    ]
  }"""),
    ("univariate", lambda: RationalUnivariateSeries(2, {0: Fraction(1, 3), 2: -1}), """{
  "order": 2,
  "coeffs": [
    "1/3",
    "0/1",
    "-1/1"
  ]
}""", """{
    "order": 2,
    "coeffs": [
      "1/3",
      "0/1",
      "-1/1"
    ]
  }"""),
    ("empty", lambda: AssocSeries.zero(2, 3), """{
  "arity": 2,
  "order": 3,
  "terms": []
}""", """{
    "arity": 2,
    "order": 3,
    "terms": []
  }"""),
]


@pytest.mark.parametrize("make, flush, padded", [layout[1:] for layout in LAYOUTS],
                         ids=[layout[0] for layout in LAYOUTS])
def test_the_text_has_the_documented_layout(make, flush, padded):
    assert make()._json_text("") == flush
    assert make()._json_text("  ") == padded


def test_an_unpeeled_element_is_peeled_by_its_first_write():
    element = dict(KINDS)["lie-unpeeled"]()
    assert unset(element, "_pair")
    text = element._json_text("")
    assert not unset(element, "_pair") and element._json_text("") is text
    assert text == json.dumps(LieElement(2, 4, dict(element.terms)).to_json_dict(), indent=2)


def test_a_letter_beyond_z_is_refused_on_every_call(formatted):
    series = AssocSeries(27, 3, {b"\x19\x1a": Fraction(-2, 5), b"\x00\x19": 1})
    for _ in range(2):
        with pytest.raises(ValueError, match="letter index beyond 'z' cannot be serialized"):
            series._json_text("  ")
        assert unset(series, "_text")
    assert len(formatted) == 2


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("make", [make for _, make in KINDS], ids=[name for name, _ in KINDS])
def test_a_copy_of_a_written_series_formats_its_own_text(make, duplicate, formatted):
    series = make()
    text = series._json_text("  ")
    dup = duplicate(series)
    assert type(dup) is type(series) and unset(dup, "_text")
    formatted.clear()
    assert dup._json_text("  ") == text
    assert len(formatted) == 1 and formatted[0] is dup


def test_racing_writers_of_one_fresh_series_get_equal_text():
    """Eight threads write one fresh series at once; each gets the sequential text."""
    rng = random.Random(3850)
    words = random_assoc_series(rng, 3, 6, terms=40)
    lie_words = random_lie_element(rng, 3, 6, terms=8).expand()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for make in (lambda: AssocSeries._make(3, 6, *words._pair),
                     lambda: LieElement.from_words(lie_words)):
            want = json.dumps(make().to_json_dict(), indent=2).replace("\n", "\n  ")
            fresh = make()
            barrier = threading.Barrier(8)

            def write():
                barrier.wait(timeout=60)
                return fresh._json_text("  ")

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [future.result(timeout=120)
                           for future in [pool.submit(write) for _ in range(8)]]
            assert results == [want] * 8
            assert fresh._json_text("  ") == want
    finally:
        sys.setswitchinterval(interval)
