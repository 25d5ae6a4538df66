"""Byte-exact stdout of the demos.

The demos reach ``act_on_trace``, ``div`` and ``flow_check``, which no pinned
CLI run does.  Each runs in-process and the SHA-256 of its stdout is
compared with a recorded digest.  Update a digest only together with an
intended, documented output change.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

DIGESTS = {
    "01_campbell_hausdorff.py":
        "d909a0549fac13ad38905538df8cb8386aff94b46edc0de847b89166780edcf4",
    "02_factorize_and_solve.py":
        "0d83bdaede18732f25ac23cf92f3edd2dc42a29ee3ca3d3bca552ee18b86fa1c",
    "03_quadratic_trace_identity.py":
        "ae442c6f0c9d4be3d82027710a2225e297a59db607ff32795f7bc6f162eb40f2",
    "04_divergence_and_simplicial.py":
        "e8b25efb6c5836b5e836217afe642b6ee19c0c485354469c72a6d28147a05a52",
    "05_homogeneous_kernel.py":
        "c5d6ade55ecf4ef6b0278f53a05c3d7a149ba5bed9c2b94b8a183cb01f434e9a",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_bytes(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name]
