import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from kvquad import (
    AssocSeries,
    KVSolution,
    LieElement,
    QuadTraceSeries,
    TangentialDerivation,
    act,
    bch,
    bch_multi,
    check_full_trace_equation,
    div_quad,
    gauge_family,
    generator,
    homo_kernel,
    quadratic_divergence_sides,
    simplicial,
    simplicial_combination,
    standard_gauge_pairs,
    substitute,
    tr_quad,
    trace_substitute,
    verify_cocycle_equation,
    verify_kv1,
    verify_prop_U,
    verify_prop_last,
    verify_series_identities,
    verify_theorem,
    word_from_str,
)
from kvquad.sampling import random_tangential_derivation
from kvquad.verify import _bernoulli_side

from oracles import bernoulli_kernel


def corrupt(s, word, eps=Fraction(1, 5)):
    terms = dict(s.A.terms)
    terms[word] = terms.get(word, Fraction(0)) + eps
    return KVSolution(LieElement(2, s.order, terms), s.B, s.method)


def test_verify_kv1_pass_and_fail(sol6):
    assert verify_kv1(sol6).passed
    bad = corrupt(sol6, word_from_str("ab"))
    report = verify_kv1(bad)
    assert not report.passed
    assert report.witness is not None
    assert report.witness.delta != 0


def test_verify_theorem_passes(sol6):
    report = verify_theorem(sol6)
    assert report.passed
    assert report.order == 6
    assert {r.status for r in report.results} == {"pass"}


def test_theorem_sides_match_divergence(sol8):
    lhs, _ = quadratic_divergence_sides(sol8)
    assert lhs == div_quad(sol8.derivation())


def test_verify_theorem_requires_solution(sol6):
    zero = LieElement.zero(2, 6)
    with pytest.raises(ValueError):
        verify_theorem(KVSolution(zero, zero))


def test_verify_theorem_catches_corruption(sol6):
    # a top-degree corruption passes nothing: kv1 or the theorem flags it
    for w in ("aaaaab", "aabbab"):
        bad = corrupt(sol6, word_from_str(w))
        kv1_ok = verify_kv1(bad).passed
        if kv1_ok:
            report = verify_theorem(bad)
            assert not report.passed
            assert report.witness is not None


def test_verify_prop_U(sol6):
    report = verify_prop_U(sol6)
    assert report.passed
    assert report.order == 6


def test_prop_U_anti_test(sol6):
    # a single simplicial image alone does not annihilate the series
    u12 = simplicial(sol6.derivation(), "1,2")
    defect = act(u12, bch_multi(3, 6))
    assert not defect.is_zero()
    assert min(len(w) for w in defect.terms) <= 3


def test_verify_prop_last_with_combination(sol6):
    U = simplicial_combination(sol6)
    report = verify_prop_last([U, TangentialDerivation.zero(3, 6)])
    assert report.passed


def test_verify_prop_last_gauge_difference(sol6):
    s4 = KVSolution(sol6.A.truncated(4), sol6.B.truncated(4), sol6.method)
    members = gauge_family(s4, standard_gauge_pairs(2, 4))
    combos = [simplicial_combination(m) for m in members[1:]]
    difference = combos[0] - combos[1]
    report = verify_prop_last([difference])
    assert report.passed


def test_verify_prop_last_skips_bad_instances():
    rng = random.Random(601)
    junk = random_tangential_derivation(rng, 3, 4)
    report = verify_prop_last([junk])
    statuses = {r.status for r in report.results}
    assert "skip" in statuses
    skip_entries = [r for r in report.results if r.status == "skip"]
    assert all(r.witness is not None for r in skip_entries)
    assert not report.passed


def test_verify_cocycle_equation(sol6):
    assert verify_cocycle_equation(sol6).passed


def test_cocycle_holds_for_coboundaries():
    # h(x) + h(y) - h(ch(x,y)) always satisfies the four-term equation
    order = 6
    h = tr_quad(AssocSeries.from_word(1, order, b"\x00" * 4))
    x, y, z = (generator(3, i, order) for i in range(3))
    ch = bch(order)
    ch_xy, ch_yz = substitute(ch, (x, y)), substitute(ch, (y, z))
    x2, y2 = generator(2, 0, order), generator(2, 1, order)
    ch_2 = bch(order)

    def coboundary(args2, ch_arg):
        return (trace_substitute(h, (args2[0],)) + trace_substitute(h, (args2[1],))
                - trace_substitute(h, (ch_arg,)))

    g_xy = coboundary((x, y), ch_xy)
    g_ch_z = coboundary((ch_xy, z), substitute(ch_2, (ch_xy, z)))
    g_x_ch = coboundary((x, ch_yz), substitute(ch_2, (x, ch_yz)))
    g_yz = coboundary((y, z), ch_yz)
    assert (g_xy + g_ch_z - g_x_ch - g_yz).is_zero()


def test_cocycle_anti_test_plain_class():
    # g = [xy] spans the degree-2 kernel of the additive equation, so it
    # passes that one exactly; the Campbell-Hausdorff version fails at
    # degree 4, the first degree with enough room (all two-letter quadratic
    # classes of degree 3 are zero classes)
    order = 4
    g = QuadTraceSeries(2, order, {word_from_str("ab"): 1})
    x, y, z = (generator(3, i, order) for i in range(3))
    additive = (trace_substitute(g, (x, y)) + trace_substitute(g, (x + y, z))
                - trace_substitute(g, (x, y + z)) - trace_substitute(g, (y, z)))
    assert additive.is_zero()
    ch = bch(order)
    combo = (trace_substitute(g, (x, y))
             + trace_substitute(g, (substitute(ch, (x, y)), z))
             - trace_substitute(g, (x, substitute(ch, (y, z))))
             - trace_substitute(g, (y, z)))
    assert combo.homogeneous_part(3).is_zero()
    assert combo.homogeneous_part(4).coefficient(word_from_str("aabc")) == Fraction(1, 6)


def test_homo_kernel_dimensions():
    for n, expected in [(2, 1), (3, 0), (4, 1), (5, 0), (6, 1), (7, 0), (8, 1)]:
        vectors, report = homo_kernel(n)
        assert len(vectors) == expected, f"degree {n}"
        assert report.passed, f"degree {n}: {report.summary()}"


def test_homo_kernel_degree_two_span():
    vectors, report = homo_kernel(2)
    assert report.passed
    (vec,) = vectors
    # spanned by [ab], proportional to the projection of (x+z)^2 - x^2 - z^2
    assert set(vec.terms) == {word_from_str("ab")}


def test_homo_kernel_rejects_degree_below_two():
    with pytest.raises(ValueError):
        homo_kernel(1)


def test_verify_series_identities(sol8):
    report = verify_series_identities(sol8)
    assert report.passed
    assert report.order == 7


def test_series_identities_for_gauge_members(sol6):
    members = gauge_family(sol6, standard_gauge_pairs(3, 6))
    seen_b = set()
    for member in members:
        assert verify_series_identities(member).passed
        seen_b.add(member.b_scalar)
    assert len(seen_b) > 1  # the measured b genuinely varies over the family


def test_series_identities_recover_bernoulli_kernel(sol8):
    # beta_odd - alpha_odd = -f'/2 reconstructs f, whose quadratic
    # coefficient is 1/12 by the independent division oracle
    from kvquad.verify import measured_operator_coefficients

    alpha = measured_operator_coefficients(sol8.A)
    beta = measured_operator_coefficients(sol8.B)
    difference = beta.odd_part() - alpha.odd_part()
    f_oracle = bernoulli_kernel(8)
    for k in range(2, 9):
        reconstructed = Fraction(-2, k) * difference.coefficient(k - 1)
        assert reconstructed == f_oracle[k]
    assert f_oracle[2] == Fraction(1, 12)


def test_full_trace_equation_is_informational(sol6):
    report = check_full_trace_equation(sol6)
    assert not report.gating
    assert report.passed  # informational reports never gate
    assert {r.status for r in report.results} == {"info"}
    failing = [r.degree for r in report.results if r.witness is not None]
    assert failing and failing[0] == 5  # the plain-trace identity genuinely fails


def test_report_json_lines(sol6):
    bad = corrupt(sol6, word_from_str("ab"))
    report = verify_kv1(bad)
    lines = report.to_json_lines()
    assert all(line["check"] == "kv1" for line in lines)
    failing = [line for line in lines if line["status"] == "fail"]
    assert failing and "witness" in failing[0]
    witness = failing[0]["witness"]
    assert set(witness) == {"degree", "item", "delta"}


def test_first_use_memos_under_threads(sol6):
    # four threads race on the first-use memos of one fresh solution (its
    # word expansions and residual) and on the Bernoulli-side cache
    checks = (verify_kv1, verify_theorem, check_full_trace_equation)

    def run(s, shift=0):
        rotated = checks[shift:] + checks[:shift]
        lines = {check.__name__: check(s).to_json_lines() for check in rotated}
        return [lines[check.__name__] for check in checks]

    data = sol6.to_json_dict()
    serial = run(KVSolution.from_json_dict(data))
    _bernoulli_side.cache_clear()
    shared = KVSolution.from_json_dict(data)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, shared, shift % 3) for shift in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 4
