import pytest

import kvquad.lie
import kvquad.solver
import kvquad.verify
from kvquad import canonical_solution
from kvquad.words import _SparseSeries


@pytest.fixture(scope="session")
def sol6():
    return canonical_solution(6)


@pytest.fixture(scope="session")
def sol8():
    return canonical_solution(8)


@pytest.fixture
def cold_caches():
    """Empty every process cache for one test: the CH series and the weak references to
    held ones, the transport kernels, the right-hand side, the canonical solutions, the
    catalog gauge families and the Bernoulli sides.

    A memo left by another test then hides no build or peel.
    """
    caches = (kvquad.lie.log_exp_product, kvquad.lie._transport_kernel, kvquad.solver.kv_rhs,
              kvquad.solver.canonical_solution, kvquad.solver.standard_family,
              kvquad.verify._bernoulli_side,
              kvquad.verify._projected_bernoulli_side)

    def clear():
        for cache in caches:
            cache.cache_clear()
        kvquad.lie._highest.clear()

    clear()
    yield
    clear()


@pytest.fixture
def formatted(monkeypatch):
    """The series that each call of the JSON formatting step (``_format_json``, behind
    the ``_json_text`` memo) formats, in call order."""
    calls = []
    step = _SparseSeries._format_json
    monkeypatch.setattr(_SparseSeries, "_format_json",
                        lambda self, pad: calls.append(self) or step(self, pad))
    return calls
