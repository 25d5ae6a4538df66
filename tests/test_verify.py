import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

import kvquad.cli as cli
import kvquad.lie as lie
import kvquad.tangential as tangential
import kvquad.verify as verify
from kvquad import (
    AssocSeries,
    KVSolution,
    LieElement,
    QuadTraceSeries,
    TangentialDerivation,
    act,
    bch,
    bch_multi,
    canonical_solution,
    check_full_trace_equation,
    div_quad,
    gauge_family,
    generator,
    homo_kernel,
    lyndon_words,
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
from kvquad.sampling import (
    random_gauge_pairs,
    random_lie_element,
    random_rational,
    random_tangential_derivation,
)
from kvquad.verify import (
    DegreeResult,
    _bernoulli_side,
    _projected_bernoulli_side,
    measured_operator_coefficients,
    report_zero,
)

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


@pytest.mark.parametrize("order", range(2, 8))
def test_simplicial_combination_matches_four_embeddings(order):
    """One peel per component of the summed words equals the sum of the four embeddings."""
    s = canonical_solution(order)
    u = s.derivation()
    U = simplicial_combination(s)
    expected = (simplicial(u, "1,2") + simplicial(u, "12,3")
                - simplicial(u, "1,23") - simplicial(u, "2,3"))
    assert U == expected
    for a in U.components:
        assert a._assoc.order == order
        assert a._assoc.terms == LieElement(3, order, a.terms).expand().terms


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


def test_verify_all_acts_on_the_combination_once(monkeypatch, capsys):
    # propU and propLast both read the defect of U on ch(x,y,z), memoized on U; every
    # build of U's images, by ch_defect or by act, goes through tangential._images
    combinations, built_for = [], []
    build, original_images = cli.simplicial_combination, tangential._images

    def built(s):
        combinations.append(build(s))
        return combinations[-1]

    def counted(u, order):
        built_for.append(u)
        return original_images(u, order)

    monkeypatch.setattr(cli, "simplicial_combination", built)
    monkeypatch.setattr(tangential, "_images", counted)
    assert cli.main(["verify", "--suite", "all", "--order", "6"]) == 0
    [U] = combinations
    assert sum(u is U for u in built_for) == 1


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


def slow_prop_last_skip(u):
    """The skip line of ``verify_prop_last([u])`` from the full defect act(u, ch), or None."""
    full = act(u, bch_multi(u.arity, u.order))
    if full.is_zero():
        return None
    degree = min(len(w) for w, _ in full.sorted_items())
    return DegreeResult(degree, "skip",
                        verify._leading_witness(full, degree, prefix="instance 0: ch defect "))


def defect_instances(order):
    """Seeded three-letter derivations: random ones, U plus random higher terms, and zero."""
    rng = random.Random(2323)
    U = simplicial_combination(canonical_solution(order))
    instances = [random_tangential_derivation(rng, 3, order) for _ in range(4)]
    for i in range(3):  # [x_i, shift] is nonzero through the order, so the defect is too
        low = rng.randint(2, order - 1)
        basis = [w for w in lyndon_words(3, order - 1) if len(w) >= low]
        shift = LieElement(3, order, {w: random_rational(rng) or 1 for w in rng.sample(basis, 3)})
        instances.append(TangentialDerivation(
            [a + shift if j == i else a for j, a in enumerate(U.components)]))
    return instances + [U, TangentialDerivation.zero(3, order)]


@pytest.mark.parametrize("order", [5, 6])
def test_defect_reports_match_the_full_lie_defect(sol6, order):
    # ch_defect keeps the defect's word coefficients at Lyndon words only; the Lie
    # series act(u, ch) reports the same lines, degree by degree
    instances, skipped = defect_instances(order), 0
    for u in instances:
        full = act(u, bch_multi(3, order))
        assert isinstance(full, LieElement)
        got = verify_prop_U(sol6, u)
        assert got.to_json_lines() == report_zero("propU", full).to_json_lines()
        assert got.summary() == report_zero("propU", full).summary()
        skip = slow_prop_last_skip(u)
        assert [r for r in verify_prop_last([u]).results if r.status == "skip"] == (
            [skip] if skip else [])
        skipped += skip is not None
    assert skipped == len(instances) - 2  # all but U and the zero derivation


def test_perturbed_combination_witness_is_pinned(sol6):
    # recorded from the full Lie defect act(U', ch), before the defect was read at Lyndon words
    order = 6
    U = simplicial_combination(canonical_solution(order))
    x, y = generator(3, 0, order), generator(3, 1, order)
    shift = lie.bracket(x, lie.bracket(x, y)) * Fraction(1, 7)
    perturbed = TangentialDerivation([U.components[0] + shift, *U.components[1:]])
    assert verify_prop_last([perturbed]).to_json_lines() == [
        {"check": "propLast", "degree": 4, "status": "skip",
         "witness": {"degree": 4, "item": "instance 0: ch defect aaab", "delta": "1/7"}}]
    lines = verify_prop_U(sol6, perturbed).to_json_lines()
    assert [line["status"] for line in lines] == ["pass"] * 4 + ["fail"] * 3
    assert [line["witness"] for line in lines[4:]] == [
        {"degree": 4, "item": "aaab", "delta": "1/7"},
        {"degree": 5, "item": "aaabb", "delta": "1/14"},
        {"degree": 6, "item": "aaaabb", "delta": "1/84"}]


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


@pytest.mark.parametrize("order", [2, 5, 8])
def test_y_linear_word_coefficients_are_coordinates(order):
    """The series suite reads x and x^k y off the words; each equals its Lyndon coordinate."""
    rng = random.Random(1900 + order)
    y_linear = [b"\x00" * k + b"\x01" for k in range(order)]
    elements = [random_lie_element(rng, 2, order, terms=10)
                + LieElement(2, order, {w: random_rational(rng) for w in y_linear})
                for _ in range(4)]
    solutions = gauge_family(canonical_solution(order), random_gauge_pairs(rng, order, 2))
    elements += [component for s in solutions for component in (s.A, s.B)]
    for element in elements:
        measured = measured_operator_coefficients(element)
        assert [measured.coefficient(k) for k in range(order)] == [
            element.coefficient(w) for w in y_linear]
    for s in solutions:
        assert (s.a_scalar, s.b_scalar) == (s.A.coefficient(b"\x00"), s.B.coefficient(b"\x00"))
        assert s.A.coefficient(b"\x00\x01") or s.B.coefficient(b"\x00\x01")  # a y-linear term is met


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


def test_full_trace_reads_the_raw_pair(sol6):
    # the gauge members of tr(x*x) and tr(y*y) add 2x to A and 2y to B; the
    # derivation drops such own-linear terms, the trace identity must not
    x, y = generator(2, 0, 6), generator(2, 1, 6)
    for member, name in zip(gauge_family(sol6, [(x, x), (y, y)])[1:], ("a", "b")):
        witness = check_full_trace_equation(member).witness
        assert (witness.degree, witness.item, witness.delta) == (1, name, 2)
        assert verify_theorem(member).passed  # tr_quad kills the length-one classes


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
    # word expansions, residual and projected left sides), on the
    # Bernoulli-side caches, and on the Campbell-Hausdorff cache and its
    # truncations, each thread asking for orders 7-10 in its own order
    checks = (verify_kv1, verify_theorem, check_full_trace_equation)
    ch_orders = [list(range(7, 11)) for _ in range(4)]
    for seed, orders in enumerate(ch_orders):
        random.Random(1540 + seed).shuffle(orders)

    def run(s, shift=0, orders=()):
        ch = {order: bch_multi(2, order) for order in orders}
        rotated = checks[shift:] + checks[:shift]
        lines = {check.__name__: check(s).to_json_lines() for check in rotated}
        return [lines[check.__name__] for check in checks], ch

    data = sol6.to_json_dict()
    serial, _ = run(KVSolution.from_json_dict(data))
    _bernoulli_side.cache_clear()
    _projected_bernoulli_side.cache_clear()
    lie.log_exp_product.cache_clear()
    lie._highest.clear()
    shared = KVSolution.from_json_dict(data)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, shared, shift % 3, ch_orders[shift]) for shift in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [lines for lines, _ in results] == [serial] * 4
    for order in range(7, 11):
        fresh = lie.log_exp_product.__wrapped__(2, order)
        for _, ch in results:
            assert ch[order].order == order
            assert ch[order].to_json_dict() == fresh.to_json_dict()
            assert ch[order].expand().terms == fresh.expand().terms
