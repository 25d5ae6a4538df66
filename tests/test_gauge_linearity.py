"""Gauge members are checked through linearity, and agree with a full recomputation.

``gauge_family`` keeps each member's base solution and its shift
``ab_to_AB(a', b')``.  The kv1 operators and the divergence are linear, so
``kv1_residual`` of a member sums the residual of the base with the operator
terms of the shift alone, and the trace identity's left side adds the
projected divergence words of the shift to that of the base.  These seeded
tests compare every such member with ``KVSolution(member.A, member.B)``,
which has no base link and is computed in full: the residual, the kv1,
theorem and full-trace reports byte for byte, also for shifts perturbed so
that the member fails (then the witnesses must agree).
"""

import pickle
import random

import pytest

import kvquad.solver as solver
from kvquad import KVSolution, canonical_solution, gauge_family, kv1_residual
from kvquad.sampling import random_gauge_pairs, random_lie_element
from kvquad.traces import tr, tr_quad
from kvquad.verify import (
    _trace_identity_sides,
    check_full_trace_equation,
    report_zero,
    verify_kv1,
    verify_theorem,
)

ORDERS = range(5, 11)
SEEDS = range(20)


def fresh(member: KVSolution) -> KVSolution:
    """The same pair without a base link, so every check runs in full."""
    return KVSolution(member.A, member.B, member.method)


def trace_lines(s: KVSolution) -> list:
    """The theorem and full-trace reports of both sides, whether or not s solves the equation."""
    lines = []
    for check, project in (("theorem", tr_quad), ("full-trace", tr)):
        lhs, rhs = _trace_identity_sides(s, project)
        lines.append(report_zero(check, lhs - rhs).to_json_lines())
    return lines


@pytest.fixture(scope="module")
def solutions():
    return {order: canonical_solution(order) for order in ORDERS}


@pytest.mark.parametrize("order", ORDERS)
def test_members_match_a_full_recomputation(solutions, order):
    s = solutions[order]
    for seed in SEEDS:
        for member in gauge_family(s, random_gauge_pairs(random.Random(seed), order, 2))[1:]:
            full = fresh(member)
            assert kv1_residual(member).to_json_dict() == kv1_residual(full).to_json_dict()
            assert kv1_residual(member).is_zero()
            for check in (verify_kv1, verify_theorem, check_full_trace_equation):
                assert check(member).to_json_lines() == check(full).to_json_lines()


@pytest.mark.parametrize("order", ORDERS)
def test_perturbed_shifts_fail_alike(solutions, order, monkeypatch):
    # a wrong transport: the shift gains a random Lie term in its A (even
    # seeds) or B (odd seeds) slot, so the member is no longer a solution
    s = solutions[order]
    transport = solver.ab_to_AB
    failed_trace = 0
    for seed in SEEDS:
        rng = random.Random(1000 * order + seed)
        pairs = random_gauge_pairs(rng, order, 1)
        delta = random_lie_element(rng, 2, order, terms=2, min_degree=2)

        def wrong(a, b, method="unspecified"):
            shift = transport(a, b, method)
            if seed % 2:
                return KVSolution(shift.A, shift.B + delta, method)
            return KVSolution(shift.A + delta, shift.B, method)

        monkeypatch.setattr(solver, "ab_to_AB", wrong)
        member = gauge_family(s, pairs)[1]
        monkeypatch.undo()
        full = fresh(member)
        assert not kv1_residual(member).is_zero()
        assert kv1_residual(member).to_json_dict() == kv1_residual(full).to_json_dict()
        assert verify_kv1(member).to_json_lines() == verify_kv1(full).to_json_lines()
        lines = trace_lines(member)
        assert lines == trace_lines(full)
        failed_trace += any(line["status"] == "fail" for line in lines[0])
        with pytest.raises(ValueError, match="does not solve"):
            verify_theorem(member)
    assert failed_trace >= len(SEEDS) // 2  # most perturbations also break the trace identity


def test_a_pickled_member_recomputes_in_full(solutions):
    order = 7
    s = solutions[order]
    member = gauge_family(s, random_gauge_pairs(random.Random(3), order, 1))[1]
    copy = pickle.loads(pickle.dumps(member))
    assert copy == member and getattr(copy, "_gauge", None) is None
    assert KVSolution.from_json_dict(member.to_json_dict()) == member
    for check in (verify_kv1, verify_theorem, check_full_trace_equation):
        assert check(copy).to_json_lines() == check(member).to_json_lines()


def test_gauge_family_computes_nothing_eagerly(solutions):
    s = fresh(solutions[6])
    family = gauge_family(s, random_gauge_pairs(random.Random(0), 6, 2))
    for member in family:
        assert getattr(member, "_residual", None) is None
        assert member._memo == {}
