"""The benchmark tracer in perfbench/tracer.py must resolve every traced function.

It looks each one up in its own module or class ``__dict__``, so a method that
only lives on a base class would make a traced benchmark run fail.
"""

import importlib.util
from pathlib import Path

import pytest

import kvquad
from kvquad import AssocSeries, LieElement

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("kvquad_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    def traced_methods():
        return (vars(AssocSeries)["__add__"], vars(LieElement)["expand"],
                vars(LieElement)["to_json_dict"])

    originals = traced_methods()
    main = kvquad.cli.main
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
    except LookupError as exc:
        pytest.fail(str(exc))
    try:
        x = AssocSeries.letter(2, 0, 2)
        x + x
        assert kvquad.cli.main is not main
    finally:
        tracer.uninstall()
    assert tracer.metrics()["words.add.calls"] == 1
    assert traced_methods() == originals
    assert kvquad.cli.main is main
