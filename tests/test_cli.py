import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kvquad.cli
import kvquad.lie
import kvquad.sampling
import kvquad.solver
import kvquad.verify
from kvquad import (
    AssocSeries,
    KVSolution,
    LieElement,
    QuadTraceSeries,
    RationalUnivariateSeries,
    TraceSeries,
    bch_multi,
    kv1_residual,
    tr,
    tr_quad,
)
from kvquad.cli import BCH_WORD_CEILING, build_parser, main
from kvquad.words import _SparseSeries

from oracles import random_assoc_series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bch_command(capsys):
    code, out, _ = run(capsys, "bch", "--arity", "2", "--order", "3")
    assert code == 0
    data = json.loads(out)
    assert data == bch_multi(2, 3).to_json_dict()
    coeffs = {t["word"]: t["coeff"] for t in data["terms"]}
    assert coeffs["ab"] == "1/2"
    assert coeffs["aab"] == "1/12"
    assert coeffs["abb"] == "1/12"


def test_bch_rejects_bad_order(capsys):
    code, _, err = run(capsys, "bch", "--order", "0")
    assert code == 2
    assert "order" in err


def test_bch_refuses_an_oversized_request_up_front(capsys, monkeypatch):
    """One letter counts as two: its series is x alone, but the build's integers and
    recursion depth grow with the order, so it is refused from the two-letter order 16."""
    code, out, _ = run(capsys, "bch", "--arity", "1", "--order", "15")
    assert code == 0
    assert json.loads(out)["terms"] == [{"word": "a", "coeff": "1/1"}]

    def refuse(arity, order):
        raise AssertionError(f"the series was built at arity {arity}, order {order}")

    monkeypatch.setattr(kvquad.lie, "_ch_words", refuse)
    code, out, err = run(capsys, "bch", "--arity", "26", "--order", "10")
    assert code == 2 and not out
    assert err.count("\n") == 1 and f"ceiling of {BCH_WORD_CEILING} words" in err
    for order in ("16", "1000000000"):
        code, out, err = run(capsys, "bch", "--arity", "1", "--order", order)
        assert code == 2 and not out
        assert err.count("\n") == 1 and f"ceiling of {BCH_WORD_CEILING} words" in err


def test_solve_kv_and_verify_refuse_oversized_requests_up_front(capsys, monkeypatch, cold_caches):
    """Two letters at the order + 1 for every suite, homo too, and three letters at the
    three-letter order; a request below the ceiling goes on to build its series."""

    class Built(Exception):
        pass

    def build(*args):
        raise Built(*args)

    monkeypatch.setattr(kvquad.lie, "_ch_words", build)
    for argv in (["solve-kv", "--order", "15"],
                 ["solve-kv", "--order", "15", "--gauge", "2"],
                 ["verify", "--suite", "theorem", "--order", "15"],
                 ["verify", "--suite", "series", "--order", "15"],
                 ["verify", "--suite", "propU", "--order", "11"],
                 ["verify", "--suite", "propLast", "--order", "11"],
                 ["verify", "--suite", "cocycle", "--order", "11"],
                 ["verify", "--order", "11"],
                 ["verify", "--suite", "homo", "--order", "15"],
                 ["verify", "--suite", "homo", "--order", "20"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert err.count("\n") == 1 and f"ceiling of {BCH_WORD_CEILING} words" in err, argv
    for argv, built in ((["solve-kv", "--order", "14"], (2, 15)),  # 65535 words
                        (["verify", "--suite", "theorem", "--order", "14"], (2, 15)),
                        (["verify", "--suite", "propU", "--order", "10"], (2, 11))):  # 88573 in 3
        with pytest.raises(Built) as raised:
            main(argv)
        assert raised.value.args == built, argv
    monkeypatch.setattr(kvquad.cli, "homo_kernel", build)
    with pytest.raises(Built) as raised:
        main(["verify", "--suite", "homo", "--order", "14"])
    assert raised.value.args == (2,)
    assert capsys.readouterr().err == ""


def test_solve_kv_order_zero_is_usage_error(capsys):
    code, _, _ = run(capsys, "solve-kv", "--order", "0")
    assert code == 2


def test_solve_kv_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "solution.json"
    code, _, _ = run(capsys, "solve-kv", "--order", "5", "--out", str(out_file))
    assert code == 0
    loaded = KVSolution.from_json_dict(json.loads(out_file.read_text()))
    assert loaded.order == 5
    assert kv1_residual(loaded).is_zero()


def test_solve_kv_gauge_family(capsys):
    code, out, _ = run(capsys, "solve-kv", "--order", "4", "--gauge", "2")
    assert code == 0
    family = json.loads(out)["family"]
    assert len(family) == 3
    for member in family:
        assert kv1_residual(KVSolution.from_json_dict(member)).is_zero()


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--order", "4", "--suite", "series")
    assert code == 0
    assert "series: pass" in out


def test_verify_computes_the_base_residual_once(capsys, monkeypatch):
    """With --order, the two- and three-letter suites share one truncated solution, and a
    second run reads the residual memo of the cached canonical solution."""
    kvquad.solver.canonical_solution.cache_clear()  # a warm order-6 solution has its residual
    fresh = []
    residual = kvquad.solver.kv1_residual

    def recording(s):
        if getattr(s, "_gauge", None) is None and "residual" not in s._memo:
            fresh.append(s)
        return residual(s)

    for module in (kvquad.solver, kvquad.verify):
        monkeypatch.setattr(module, "kv1_residual", recording)
    counts = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--order", "6")
        assert code == 0 and "propU: pass" in out and "series: pass" in out
        counts.append(len(fresh))
    assert counts == [1, 1]


def test_verify_homo_suite_json(capsys):
    code, out, _ = run(capsys, "verify", "--order", "4", "--suite", "homo", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert {line["check"] for line in lines} == {"homo"}
    assert {line["degree"] for line in lines} == {2, 3, 4}
    assert all(line["status"] == "pass" for line in lines)


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_verify_corrupted_solution_fails_with_witness(tmp_path, capsys):
    out_file = tmp_path / "solution.json"
    run(capsys, "solve-kv", "--order", "5", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data["A"]["terms"][0]["coeff"] = "9/7"
    out_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--order", "5", "--suite", "theorem",
                       "--solution", str(out_file), "--json")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    failing = [line for line in lines if line["status"] == "fail"]
    assert failing
    assert all(line["witness"]["item"] for line in failing if "witness" in line)


def test_verify_loaded_solution_passes(tmp_path, capsys):
    out_file = tmp_path / "solution.json"
    run(capsys, "solve-kv", "--order", "5", "--out", str(out_file))
    code, out, _ = run(capsys, "verify", "--suite", "series",
                       "--solution", str(out_file))
    assert code == 0


def test_verify_expands_a_stored_solution_only_through_the_order_asked(tmp_path, capsys,
                                                                      monkeypatch):
    """A loaded solution is cut from its coordinates: no word above --order is expanded."""
    out_file = tmp_path / "solution.json"
    run(capsys, "solve-kv", "--order", "12", "--out", str(out_file))
    expansion, lengths = kvquad.lie.bracket_expansion, []

    def recording(w):
        lengths.append(len(w))
        return expansion(w)

    monkeypatch.setattr(kvquad.lie, "bracket_expansion", recording)
    code, out, _ = run(capsys, "verify", "--order", "6", "--solution", str(out_file))
    assert code == 0 and "propU: pass" in out
    assert lengths and max(lengths) == 6


def test_theorem_with_an_always_zero_pairing_is_usage_error(capsys, monkeypatch):
    # the randomized gauge members cannot be drawn: one error line, not a hang
    monkeypatch.setattr(kvquad.sampling, "trace_pairing",
                        lambda left, right: TraceSeries.zero(2, left.order))
    _assert_one_error_line(*run(capsys, "verify", "--suite", "theorem", "--seed", "0"))


def test_missing_solution_file(capsys):
    code, _, err = run(capsys, "verify", "--suite", "series", "--solution", "/nonexistent.json")
    assert code == 2
    assert "error" in err


def _assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solution_without_component_is_usage_error(tmp_path, capsys):
    out_file = tmp_path / "solution.json"
    run(capsys, "solve-kv", "--order", "3", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    del data["A"]
    out_file.write_text(json.dumps(data))
    _assert_one_error_line(*run(capsys, "verify", "--suite", "series",
                                "--solution", str(out_file)))


def test_solution_json_list_is_usage_error(tmp_path, capsys):
    out_file = tmp_path / "solution.json"
    out_file.write_text("[1, 2]")
    _assert_one_error_line(*run(capsys, "verify", "--suite", "series",
                                "--solution", str(out_file)))


def test_deeply_nested_solution_json_is_usage_error(tmp_path, capsys):
    out_file = tmp_path / "solution.json"
    out_file.write_text("[" * 100000 + "]" * 100000)
    _assert_one_error_line(*run(capsys, "verify", "--suite", "series",
                                "--solution", str(out_file)))


def test_solution_with_an_exponent_coefficient_is_refused_at_once(tmp_path, capsys):
    out_file = tmp_path / "solution.json"
    run(capsys, "solve-kv", "--order", "3", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data["A"]["terms"][0]["coeff"] = "1e999999999"
    out_file.write_text(json.dumps(data))
    _assert_one_error_line(*run(capsys, "verify", "--suite", "series",
                                "--solution", str(out_file)))


def test_verify_without_any_check_is_usage_error(capsys):
    _assert_one_error_line(*run(capsys, "verify", "--suite", "homo", "--order", "1"))


def test_solution_below_order_one_is_refused_by_its_order(tmp_path, capsys):
    out_file = tmp_path / "solution.json"
    zero = LieElement.zero(2, 0)
    out_file.write_text(json.dumps(KVSolution(zero, zero).to_json_dict()))
    for suite in ("all", "series", "homo"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--solution", str(out_file))
        _assert_one_error_line(code, out, err)
        assert err == f"error: {out_file}: solution order 0 is below 1\n"


def test_solution_with_a_non_lyndon_key_names_the_word(tmp_path, capsys):
    out_file = tmp_path / "solution.json"
    run(capsys, "solve-kv", "--order", "3", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    data["A"]["terms"].append({"word": "ba", "coeff": "1/2"})
    out_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--suite", "series", "--solution", str(out_file))
    _assert_one_error_line(code, out, err)
    assert "'ba' is not a Lyndon word" in err
    assert "Traceback" not in err and "\\x" not in err


def test_solution_listing_a_word_twice_is_usage_error(tmp_path, capsys):
    """A repeated word is refused, not read as its last coefficient."""
    out_file = tmp_path / "solution.json"
    run(capsys, "solve-kv", "--order", "3", "--out", str(out_file))
    data = json.loads(out_file.read_text())
    terms = data["A"]["terms"]
    [term] = [t for t in terms if t["word"] == "ab"]
    term["coeff"] = "1/2"
    terms.append({"word": "ab", "coeff": "1/3"})
    out_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--order", "3", "--solution", str(out_file))
    _assert_one_error_line(code, out, err)
    assert "LieElement JSON lists word 'ab' twice" in err


def test_python_dash_m_kvquad_prints_what_main_prints(capsys):
    """``python -m kvquad`` runs ``cli.main``: the same exit code and stdout bytes, no warning."""
    argv = ["verify", "--suite", "theorem", "--order", "4"]
    code = main(argv)
    out = capsys.readouterr().out
    source_root = str(Path(kvquad.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "kvquad", *argv], capture_output=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert (run.returncode, run.stdout) == (code, out.encode("utf-8"))
    assert code == 0 and run.stderr == b""


def _cli_payloads():
    solution = kvquad.solver.canonical_solution(5)
    family = kvquad.solver.gauge_family(solution, kvquad.solver.standard_gauge_pairs(3, 5))
    return ([bch_multi(arity, 4).to_json_dict() for arity in (1, 2, 3)]
            + [solution.to_json_dict(), {"family": [m.to_json_dict() for m in family]},
               solution.derivation().to_json_dict()])


EDGE_JSON_VALUES = [
    {}, [], (), {"a": {}, "b": [], "c": [{}, [[]], {"d": ()}]}, [[], [{}]],
    (1, ("x", ()), [2]), "", "é ☃ \U0001F600", 'say "hi"', "back\\slash",
    "\x00\x01\x1f\t\n\r\x7f", {"é\n\"": "ключ"}, -7, 0, 2 ** 70, True, False, None,
    {"mixed": [-1, True, None, "s", {"z": False}]},
]


SERIES_CLASSES = (AssocSeries, LieElement, TraceSeries, QuadTraceSeries, RationalUnivariateSeries)


def _series_payloads():
    """(id, payload) pairs whose leaves are series of every class, which the writer formats."""
    rng = random.Random(3500)
    words = random_assoc_series(rng, 2, 5, terms=12)  # a constant term, signs, denominators
    coords = {b"\x00": Fraction(-7, 3), b"\x00\x01": 5, b"\x00\x00\x01": Fraction(1, 12)}
    held_as_words = LieElement.from_words(LieElement(2, 4, coords).expand())
    held_as_coordinates = LieElement(2, 4, coords)
    solution = kvquad.solver.canonical_solution(5)
    family = kvquad.solver.gauge_family(solution, kvquad.solver.standard_gauge_pairs(4, 5))
    return [
        ("assoc", words),
        ("assoc-integers", AssocSeries(3, 3, {b"\x02\x00": -4, b"\x01": 9})),
        ("lie-held-as-words", held_as_words),
        ("lie-held-as-coordinates", held_as_coordinates),
        ("trace", tr(words)),
        ("quad-trace", tr_quad(words)),
        ("univariate", RationalUnivariateSeries(5, {0: Fraction(-1, 2), 3: 7, 4: Fraction(5, 9)})),
        ("univariate-order-0", RationalUnivariateSeries(0, [Fraction(-3, 4)])),
        *((f"empty-{cls.__name__}", cls.zero(1, 3)) for cls in SERIES_CLASSES),
        ("empty-at-order-0", AssocSeries.zero(2, 0)),
        ("arity-27-through-z", AssocSeries(27, 3, {b"\x19\x00": Fraction(-1, 9), b"\x03": 2})),
        ("nested", {"x": [words, {"y": (held_as_coordinates, [])}], "z": tr(words), "w": 1}),
        ("solution", solution._json_form()),
        ("gauge-family", {"family": [member._json_form() for member in family]}),
        ("bch", bch_multi(3, 4)),
    ]


def _as_dicts(value):
    """The payload with every series leaf replaced by its ``to_json_dict()``."""
    if isinstance(value, _SparseSeries):
        return value.to_json_dict()
    if isinstance(value, dict):
        return {key: _as_dicts(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_as_dicts(item) for item in value)
    return value


@pytest.mark.parametrize("payload", _cli_payloads() + EDGE_JSON_VALUES + [
    pytest.param(payload, id=name) for name, payload in _series_payloads()])
def test_indented_json_writer_matches_json_dumps(payload):
    assert kvquad.cli._indented_json(payload) == json.dumps(_as_dicts(payload), indent=2)


@pytest.mark.parametrize("cls", SERIES_CLASSES[:-1], ids=lambda c: c.__name__)
def test_indented_json_writer_refuses_a_letter_beyond_z_as_to_json_dict_does(cls):
    """A key holding letter 26 is refused with ``word_to_str``'s ValueError; 25 is written."""
    keys = {AssocSeries: b"\x19\x1a", LieElement: b"\x19\x1a", TraceSeries: b"\x00\x1a",
            QuadTraceSeries: b"\x00\x01\x1a"}
    series = cls(27, 3, {keys[cls]: Fraction(-2, 5), b"\x00\x19": 1})
    with pytest.raises(ValueError) as by_dicts:
        series.to_json_dict()
    with pytest.raises(ValueError) as by_text:
        kvquad.cli._indented_json({"series": [series]})
    assert str(by_text.value) == str(by_dicts.value) == (
        "letter index beyond 'z' cannot be serialized")
    below = cls(27, 3, {b"\x00\x19": Fraction(-1, 3)})
    assert kvquad.cli._indented_json(below) == json.dumps(below.to_json_dict(), indent=2)


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """Two runs share one parser, and a usage error after a good run still exits 2 with
    argparse's own message; ``build_parser`` still returns a fresh parser."""
    assert build_parser() is not build_parser()
    built = []
    monkeypatch.setattr(kvquad.cli, "build_parser", lambda: built.append(1) or build_parser())
    kvquad.cli._parser.cache_clear()
    try:
        assert run(capsys, "solve-kv", "--order", "3")[0] == 0
        assert run(capsys, "bch", "--order", "3")[0] == 0
        code, out, err = run(capsys, "solve-kv", "--gauge", "1")
        assert len(built) == 1
    finally:
        kvquad.cli._parser.cache_clear()
    with pytest.raises(SystemExit) as fresh:
        build_parser().parse_args(["solve-kv", "--gauge", "1"])
    assert (code, out) == (fresh.value.code, "") == (2, "")
    assert err == capsys.readouterr().err
    assert "error: the following arguments are required: --order" in err


@pytest.mark.parametrize("argv", [["bch", "--arity", "3", "--order", "3"],
                                  ["solve-kv", "--order", "4"],
                                  ["solve-kv", "--order", "4", "--gauge", "2"]])
def test_stdout_and_out_file_hold_the_indented_json(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
    out_file = tmp_path / "out.json"
    assert main([*argv, "--out", str(out_file)]) == 0
    assert out_file.read_text(encoding="utf-8") == out


def test_cli_imports_without_dataclasses_or_inspect():
    """The CLI's cold start loads neither ``dataclasses`` nor what it pulls in."""
    source_root = str(Path(kvquad.cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {source_root!r}); import kvquad.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    # -B: isolated mode ignores PYTHONDONTWRITEBYTECODE, and the import must leave no __pycache__
    run = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
