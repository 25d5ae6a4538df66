import pytest

import kvquad.lie
import kvquad.solver
import kvquad.verify
from kvquad import canonical_solution


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
