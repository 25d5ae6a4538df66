import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kvquad.cli
import kvquad.lie
import kvquad.solver
import kvquad.verify
from kvquad import KVSolution, bch_multi, kv1_residual
from kvquad.cli import BCH_WORD_CEILING, main


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
    def refuse(arity, order):
        raise AssertionError(f"the series was built at arity {arity}, order {order}")

    monkeypatch.setattr(kvquad.lie, "_ch_words", refuse)
    code, out, err = run(capsys, "bch", "--arity", "26", "--order", "10")
    assert code == 2 and not out
    assert err.count("\n") == 1 and f"ceiling of {BCH_WORD_CEILING} words" in err
    code, _, err = run(capsys, "bch", "--arity", "1", "--order", "1000000000")
    assert code == 2 and f"ceiling of {BCH_WORD_CEILING} words" in err


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
        if getattr(s, "_gauge", None) is None and getattr(s, "_residual", None) is None:
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
