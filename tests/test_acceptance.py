"""Acceptance criteria, one test per criterion.

Every check is an exact rational identity or an exact dimension count; the
stated runtime budgets are asserted with a monotonic clock.  Each criterion
prints its own pass/fail line so a plain run reads as a checklist.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import kvquad
from kvquad import (
    KVSolution,
    LieElement,
    act,
    bch,
    bch_multi,
    canonical_solution,
    decompose,
    div,
    div_quad,
    gauge_family,
    generator,
    homo_kernel,
    kernel_series,
    kv1_residual,
    left_letter_mul,
    quadratic_trace_tuple,
    simplicial,
    simplicial_combination,
    standard_gauge_pairs,
    substitute,
    tau,
    tr_quad,
    trace_pairing,
    trace_substitute,
    verify_cocycle_equation,
    verify_kv1,
    verify_prop_last,
    verify_series_identities,
    verify_theorem,
)
from kvquad.sampling import (
    random_lie_element,
    random_lie_pairs,
    random_tangential_derivation,
)
from kvquad.verify import measured_operator_coefficients

from oracles import bernoulli_kernel, dynkin_bch, left_nested, random_assoc_series, to_word_dict

SEED = 20250810


def _conclude(name: str, passed: bool, elapsed: float, budget: float | None = None):
    timing = f" [{elapsed:.2f}s" + (f" < {budget:.0f}s]" if budget else "]")
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}{timing}")
    assert passed, name
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_bch_oracle_equivalence():
    start = time.monotonic()
    library = to_word_dict(bch(5).expand())
    oracle = dynkin_bch(5)
    _conclude("1 bch-oracle", library == oracle, time.monotonic() - start, budget=1.0)


def test_criterion_2_canonical_solution_residual():
    start = time.monotonic()
    solution = canonical_solution(8)
    residual = kv1_residual(solution)
    _conclude("2 kv1-residual", residual.is_zero(), time.monotonic() - start, budget=10.0)


def test_criterion_3_main_theorem_with_gauge_family(sol8):
    start = time.monotonic()
    pairs = standard_gauge_pairs(5, 8)
    family = gauge_family(sol8, pairs)
    assert len(family) >= 6
    passed = all(verify_theorem(member).passed for member in family)
    _conclude("3 main-theorem", passed, time.monotonic() - start, budget=60.0)


def test_criterion_4_key_vanishing():
    start = time.monotonic()
    rng = random.Random(SEED)
    checked = 0
    passed = True
    for arity in (2, 3):
        for left, right in random_lie_pairs(rng, arity, 6, 10):
            components = quadratic_trace_tuple(trace_pairing(left, right))
            balance = None
            raw_divergence = None
            for i, a_i in enumerate(components):
                partial = decompose(a_i.expand()).partials[i]
                passed = passed and tau(partial) == partial
                term = generator(arity, i, a_i.order).bracket(a_i)
                balance = term if balance is None else balance + term
                piece = tr_quad(left_letter_mul(i, partial, a_i.order))
                raw_divergence = piece if raw_divergence is None else raw_divergence + piece
            passed = passed and balance.is_zero() and raw_divergence.is_zero()
            checked += 1
    _conclude("4 key-vanishing", passed and checked >= 20, time.monotonic() - start)


def test_criterion_5_simplicial_combination(sol6):
    start = time.monotonic()
    combination = simplicial_combination(sol6)
    annihilates = act(combination, bch_multi(3, 6)).is_zero()
    divergence_free = verify_prop_last([combination]).passed
    cocycle = verify_cocycle_equation(sol6).passed
    _conclude("5 three-letter-chain", annihilates and divergence_free and cocycle,
              time.monotonic() - start)


def test_criterion_6_homogeneous_kernel_classification():
    start = time.monotonic()
    dims = []
    passed = True
    for degree in range(2, 9):
        vectors, report = homo_kernel(degree)
        dims.append(len(vectors))
        passed = passed and report.passed
    passed = passed and dims == [1, 0, 1, 0, 1, 0, 1]
    _conclude("6 homo-kernel", passed, time.monotonic() - start)


def test_criterion_7_generating_series(sol8):
    start = time.monotonic()
    passed = verify_series_identities(sol8).passed
    alpha = measured_operator_coefficients(sol8.A)
    beta = measured_operator_coefficients(sol8.B)
    difference = beta.odd_part() - alpha.odd_part()
    oracle = bernoulli_kernel(8)
    for k in range(2, 9):
        passed = passed and Fraction(-2, k) * difference.coefficient(k - 1) == oracle[k]
    passed = passed and oracle[2] == Fraction(1, 12)
    passed = passed and kernel_series("f", 8).coefficient(2) == Fraction(1, 12)
    _conclude("7 generating-series", passed, time.monotonic() - start)


def test_criterion_8_structural_property_suites():
    start = time.monotonic()
    rng = random.Random(SEED)
    passed = True

    # odd powers of Lie elements vanish in the signed-reversal quotient
    for _ in range(50):
        arity = rng.choice([2, 3])
        alpha = random_lie_element(rng, arity, 8, terms=3).expand()
        power = alpha
        for k in range(1, 8):
            if k % 2 == 1:
                passed = passed and tr_quad(power).is_zero()
            power = power * alpha

    # tau is an involutive anti-automorphism
    for _ in range(50):
        a = random_assoc_series(rng, 2, 6, terms=4)
        b = random_assoc_series(rng, 2, 6, terms=4)
        passed = passed and tau(a * b) == tau(b) * tau(a) and tau(tau(a)) == a

    # right-letter decomposition reconstructs exactly
    for _ in range(50):
        a = random_assoc_series(rng, rng.choice([2, 3]), 8)
        passed = passed and decompose(a).reconstruct() == a

    # left-to-right bracketing is degree times the identity on Lie parts
    for _ in range(50):
        expansion = to_word_dict(random_lie_element(rng, 2, 6, terms=4).expand())
        for k in range(1, 7):
            part = {w: c for w, c in expansion.items() if len(w) == k}
            image: dict = {}
            for w, c in part.items():
                for v, m in left_nested(w).items():
                    image[v] = image.get(v, Fraction(0)) + c * m
            image = {w: c for w, c in image.items() if c}
            passed = passed and image == {w: k * c for w, c in part.items()}

    # divergence is a 1-cocycle
    from kvquad import act_on_trace
    for _ in range(50):
        order = rng.choice([3, 4, 5])
        u = random_tangential_derivation(rng, 2, order, terms=2)
        v = random_tangential_derivation(rng, 2, order, terms=2)
        w = u.bracket(v)
        passed = passed and div(w) == act_on_trace(u, div(v)) - act_on_trace(v, div(u))
        passed = passed and div_quad(w) == (act_on_trace(u, div_quad(v))
                                            - act_on_trace(v, div_quad(u)))

    # divergence transforms through all four simplicial embeddings
    for _ in range(50):
        order = rng.choice([3, 4, 5])
        x3, y3, z3 = (generator(3, i, order) for i in range(3))
        ch = bch(order)
        pattern_args = {
            "1,2": (x3, y3),
            "2,3": (y3, z3),
            "12,3": (substitute(ch, (x3, y3)), z3),
            "1,23": (x3, substitute(ch, (y3, z3))),
        }
        u = random_tangential_derivation(rng, 2, order, terms=2)
        g, gq = div(u), div_quad(u)
        for pattern, args in pattern_args.items():
            image = simplicial(u, pattern)
            passed = passed and div(image) == trace_substitute(g, args)
            passed = passed and div_quad(image) == trace_substitute(gq, args)

    _conclude("8 structural-suites", passed, time.monotonic() - start)


def _cli(*argv):
    """Run the CLI in a fresh interpreter on the package these tests import."""
    source_root = str(Path(kvquad.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "kvquad", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def test_criterion_9_cli_gate(tmp_path):
    start = time.monotonic()
    run = _cli("verify", "--order", "6", "--suite", "all")
    passed = run.returncode == 0

    # every stored coefficient, corrupted in turn, must be flagged
    solution = canonical_solution(6)
    for which in ("A", "B"):
        source = solution.A if which == "A" else solution.B
        for word in source.terms:
            terms = dict(source.terms)
            terms[word] += Fraction(1, 9)
            corrupted_elt = LieElement(2, 6, terms)
            corrupted = (KVSolution(corrupted_elt, solution.B) if which == "A"
                         else KVSolution(solution.A, corrupted_elt))
            report = verify_kv1(corrupted)
            passed = passed and not report.passed and report.witness is not None

    # and through the CLI: a corrupted stored file exits 1 with a witness
    stored = tmp_path / "solution.json"
    data = canonical_solution(6).to_json_dict()
    data["B"]["terms"][-1]["coeff"] = "5/3"
    stored.write_text(json.dumps(data))
    run_bad = _cli("verify", "--order", "6", "--suite", "all", "--solution", str(stored), "--json")
    passed = passed and run_bad.returncode == 1
    witnesses = [json.loads(line).get("witness") for line in run_bad.stdout.splitlines()
                 if json.loads(line)["status"] == "fail"]
    passed = passed and any(witnesses)
    _conclude("9 cli-gate", passed, time.monotonic() - start)
