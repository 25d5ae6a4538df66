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
    TraceSeries,
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
    tr,
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
from kvquad.tangential import _FACES, ch_defect
from kvquad.verify import (
    DegreeResult,
    _bernoulli_side,
    _projected_bernoulli_side,
    measured_operator_coefficients,
    report_zero,
)

from oracles import bernoulli_kernel, leading_witnesses, random_assoc_series


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


def test_combination_is_memoized_on_the_solution(monkeypatch, cold_caches):
    # propU and propLast share one U, stored on the solution: one call per face in all
    faces, original = [], verify.simplicial_words
    monkeypatch.setattr(verify, "simplicial_words",
                        lambda u, pattern: faces.append(pattern) or original(u, pattern))
    assert cli.main(["verify", "--suite", "all", "--order", "6"]) == 0
    assert sorted(faces) == sorted(_FACES)
    s = canonical_solution(6)
    assert simplicial_combination(s) is simplicial_combination(s)
    assert len(faces) == 4
    # a gauge member's U is its own: built from its (A, B), not summed from its base's
    s4 = canonical_solution(4)
    for member in gauge_family(s4, standard_gauge_pairs(2, 4))[1:]:
        U = simplicial_combination(member)
        assert U is simplicial_combination(member) and U is not simplicial_combination(s4)
        assert U == simplicial_combination(KVSolution(member.A, member.B))


def witness_inputs(rng, order):
    """Series of every kind with failures in several degrees, a degree-0 key among them."""
    words = random_assoc_series(rng, 2, order, terms=12) - AssocSeries.unit(2, order) * 3
    coords = random_lie_element(rng, 3, order, terms=8)
    return [words, tr(words), tr_quad(words), TraceSeries(2, order, {b"": 2, b"\x01": 1}),
            QuadTraceSeries(1, order, {b"": Fraction(1, 3)}), coords,
            LieElement(3, order, dict(coords.terms)),  # coordinates not yet expanded
            LieElement.from_words(coords.expand()), act(TangentialDerivation([coords] * 3), coords)]


@pytest.mark.parametrize("order", [1, 3, 5])
def test_witnesses_match_the_sorted_items_route(order):
    rng = random.Random(2810 + order)
    zero_keys = 0
    rebuilt = witness_inputs(random.Random(2810 + order), order)  # the same inputs, anew
    for fresh, again in zip(witness_inputs(rng, order), rebuilt):
        for prefix in ("", "instance 1: ch defect "):
            got = verify._witnesses(fresh, prefix)  # a Lie series from words is peeled here
            assert got == leading_witnesses(again, prefix)
        zero_keys += 0 in got
        assert report_zero("check", fresh).results == verify._degree_report(
            "check", order, leading_witnesses(again)).results
    assert zero_keys == 5  # the word series, its two projections and the two trace series


def test_verify_prop_last_gauge_difference(sol6):
    s4 = KVSolution(sol6.A.truncated(4), sol6.B.truncated(4), sol6.method)
    members = gauge_family(s4, standard_gauge_pairs(2, 4))
    combos = [simplicial_combination(m) for m in members[1:]]
    difference = combos[0] - combos[1]
    report = verify_prop_last([difference])
    assert report.passed


@pytest.mark.parametrize("seed", range(3))
def test_verify_prop_last_on_gauge_brackets_and_differences(seed):
    """Non-vacuous propLast instances: with U the simplicial combination of the canonical
    solution and U' that of a random gauge member, [U, U'] and U' - U are nonzero and
    annihilate the three-letter CH series, so every degree is checked, none skipped."""
    s = canonical_solution(6)
    member = gauge_family(s, random_gauge_pairs(random.Random(seed), 6, 1))[1]
    U, U_prime = simplicial_combination(s), simplicial_combination(member)
    instances = [U.bracket(U_prime), U_prime - U]
    for u in instances:
        assert not u.is_zero()
        assert ch_defect(u).is_zero()
    report = verify_prop_last(instances)
    assert [r.status for r in report.results] == ["pass"] * 7
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
    return DegreeResult(degree, "skip", verify._witnesses(full, "instance 0: ch defect ")[degree])


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
def test_defect_reports_match_the_full_lie_defect(order):
    # ch_defect keeps the defect's word coefficients at Lyndon words only; the Lie
    # series act(u, ch) reports the same lines, degree by degree
    instances, skipped = defect_instances(order), 0
    for u in instances:
        full = act(u, bch_multi(3, order))
        assert isinstance(full, LieElement)
        got = report_zero("propU", ch_defect(u))
        assert got.to_json_lines() == report_zero("propU", full).to_json_lines()
        assert got.summary() == report_zero("propU", full).summary()
        skip = slow_prop_last_skip(u)
        assert [r for r in verify_prop_last([u]).results if r.status == "skip"] == (
            [skip] if skip else [])
        skipped += skip is not None
    assert skipped == len(instances) - 2  # all but U and the zero derivation


def test_perturbed_combination_witness_is_pinned():
    # recorded from the full Lie defect act(U', ch), before the defect was read at Lyndon words
    order = 6
    U = simplicial_combination(canonical_solution(order))
    x, y = generator(3, 0, order), generator(3, 1, order)
    shift = lie.bracket(x, lie.bracket(x, y)) * Fraction(1, 7)
    perturbed = TangentialDerivation([U.components[0] + shift, *U.components[1:]])
    assert verify_prop_last([perturbed]).to_json_lines() == [
        {"check": "propLast", "degree": 4, "status": "skip",
         "witness": {"degree": 4, "item": "instance 0: ch defect aaab", "delta": "1/7"}}]
    lines = report_zero("propU", ch_defect(perturbed)).to_json_lines()
    assert [line["status"] for line in lines] == ["pass"] * 4 + ["fail"] * 3
    assert [line["witness"] for line in lines[4:]] == [
        {"degree": 4, "item": "aaab", "delta": "1/7"},
        {"degree": 5, "item": "aaabb", "delta": "1/14"},
        {"degree": 6, "item": "aaaabb", "delta": "1/84"}]


def perturbed_pairs(order):
    """Seeded (A + shift, B) off the canonical pair, each shift a Lie polynomial in one degree:
    order - 1 (read at degree ``order``), ``order`` (read by no route of propU) and a low one."""
    rng = random.Random(3200 + order)
    s = canonical_solution(order)
    pairs = []
    for degree in sorted({order - 1, order, max(order - 3, 1)} - {0}):
        basis = [w for w in lyndon_words(2, order) if len(w) == degree]
        terms = {w: random_rational(rng) or 1 for w in rng.sample(basis, min(2, len(basis)))}
        pairs.append((degree, KVSolution(s.A + LieElement(2, order, terms), s.B)))
    return pairs


@pytest.mark.parametrize("order", range(1, 8))
def test_prop_U_through_the_cut_faces_matches_the_full_action(order, monkeypatch):
    # without a stored U, propU sums the faces of (A, B) cut at order - 1; the oracle acts
    # by the full-order U on the full ch(x, y, z), and a stored U is read as it is
    monkeypatch.setattr(verify, "_require_solution", lambda s: None)
    failed_at_top = 0
    for degree, s in perturbed_pairs(order):
        cut = verify_prop_U(s).to_json_lines()
        assert "U" not in s._memo
        expected = report_zero("propU", act(simplicial_combination(s), bch_multi(3, order)))
        assert cut == expected.to_json_lines()
        assert verify_prop_U(s).to_json_lines() == cut  # now through the stored U
        statuses = [line["status"] for line in cut]
        if degree == order:  # a top-degree shift is invisible through the order
            assert statuses == ["pass"] * (order + 1)
        elif degree == order - 1 and order >= 3:
            assert statuses[order] == "fail"
            failed_at_top += 1
    assert failed_at_top == (order >= 3)


@pytest.mark.parametrize("order", [4, 6])
def test_ch_defect_ignores_the_top_degree(order):
    # the images drop it, and ch(x_1..x_k) is read through order - 1: linear components
    # have images in degree 2, which meet ch's words of degree order - 1
    rng = random.Random(3300 + order)
    linear = TangentialDerivation([random_lie_element(rng, 3, order, terms=3)
                                   + generator(3, (i + 1) % 3, order) for i in range(3)])
    full_action = report_zero("propU", act(linear, bch_multi(3, order)))
    assert report_zero("propU", ch_defect(linear)).to_json_lines() == full_action.to_json_lines()
    assert not full_action.passed
    for u in defect_instances(order) + [linear]:
        top_dropped = TangentialDerivation(
            [a.truncated(order - 1).with_order(order) for a in u.components])
        cut, full = ch_defect(top_dropped), ch_defect(u)
        assert (cut.order, cut._pair) == (full.order, full._pair)


@pytest.mark.parametrize("order", [3, 5, 6])
def test_prop_U_builds_ch_and_the_faces_below_the_order(order, monkeypatch, cold_caches):
    built, face_orders = [], []
    build, faces = lie._ch_words, verify.simplicial_words
    monkeypatch.setattr(lie, "_ch_words",
                        lambda arity, n: built.append((arity, n)) or build(arity, n))
    monkeypatch.setattr(verify, "simplicial_words",
                        lambda u, pattern: face_orders.append(u.order) or faces(u, pattern))
    assert cli.main(["verify", "--suite", "propU", "--order", str(order)]) == 0
    assert [b for b in built if b[0] == 3] == [(3, order - 2)]
    assert face_orders == [order - 1] * len(_FACES)


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


def test_cocycle_faces_of_the_plain_class():
    # the face path of verify_cocycle_equation and homo_kernel on g = [xy]: zero with the
    # additive join, and 1/6 at [aabc] in degree 4 with the Campbell-Hausdorff join
    g = QuadTraceSeries(2, 4, {word_from_str("ab"): 1})
    ints, d = g._pair
    assert tr_quad(AssocSeries._make(3, 4, tangential._additive_face_sum(ints), d)).is_zero()
    combo = verify._face_sum(g._pair, 4)
    assert combo.homogeneous_part(3).is_zero()
    assert combo.homogeneous_part(4).coefficient(word_from_str("aabc")) == Fraction(1, 6)


@pytest.mark.parametrize("n", range(2, 10))
def test_homo_rows_match_the_substitution_route(monkeypatch, n):
    """The four-term rows handed to the kernel, one per three-letter class, equal the
    signed sums of ``trace_substitute`` at (x, y), (x+y, z), (x, y+z) and (y, z)."""
    seen = []

    def recording(rows, columns):
        seen.append(rows)
        return kernel(rows, columns)

    kernel = verify.rational_kernel
    monkeypatch.setattr(verify, "rational_kernel", recording)
    homo_kernel(n)
    x, y, z = (generator(3, i, n) for i in range(3))
    expected: dict[bytes, dict[int, Fraction]] = {}
    for j, rep in enumerate(verify._quad_class_basis(2, n)):
        g = QuadTraceSeries._make(2, n, {rep: 1})
        image = (trace_substitute(g, (x, y)) + trace_substitute(g, (x + y, z))
                 - trace_substitute(g, (x, y + z)) - trace_substitute(g, (y, z)))
        for w, c in image.terms.items():
            expected.setdefault(w, {})[j] = c
    assert len(seen) == (n not in (3, 5))  # degrees 3 and 5 have no nonzero class
    rows = [row for call in seen for row in call]  # in any order: the kernel is the same

    def key(row):
        return sorted(row.items())

    assert sorted(rows, key=key) == sorted(expected.values(), key=key)
    assert all(type(c) is int for row in rows for c in row.values())


def test_homo_kernel_builds_no_campbell_hausdorff_series(monkeypatch):
    # on a homogeneous class truncated at its degree only the linear part x + y of ch
    # survives, so the CH join would give the same rows: this pins the cheap join
    def no_ch(arity, order):
        raise AssertionError(f"unexpected CH series ({arity}, {order})")

    monkeypatch.setattr(tangential, "bch_multi", no_ch)
    assert all(homo_kernel(n)[1].passed for n in range(2, 8))


@pytest.mark.parametrize("n", [2, 7, 8])
def test_homo_kernel_substitutes_only_its_coboundary(monkeypatch, n):
    # the faces of every class come from letter choices (``_additive_face_sum``): the only
    # substitutions are the coboundary's three, however many classes there are
    calls = []

    def counting(terms, images, order):
        calls.append(order)
        return substitute_ints(terms, images, order)

    substitute_ints = tangential._substitute_ints
    monkeypatch.setattr(tangential, "_substitute_ints", counting)
    assert homo_kernel(n)[1].passed
    assert calls == [n] * 3


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


NOT_COBOUNDARY = ("kernel vector is not a coboundary", 0)
NO_ONE_LETTER_CLASS = ("nonzero kernel but no one-letter classes", 0)
NOT_SPANNED = ("kernel not spanned by (x+z)^n - x^n - z^n", 0)


def dimension(found, expected):
    return (f"kernel dimension {found}, expected {expected}", found - expected)


def wrong_kernels():
    """Faults the kernel could hand homo, with the witnesses each must give at degree n:
    no vectors, a stray unit vector beside the true kernel, and the true kernel zeroed."""
    return [
        (lambda true: [],
         lambda n: [dimension(0, 1)] if n % 2 == 0 else []),
        (lambda true: true + [{0: Fraction(1)}],
         lambda n: [dimension(2, 1), NOT_COBOUNDARY] if n % 2 == 0
         else [dimension(1, 0), NO_ONE_LETTER_CLASS]),
        (lambda true: [dict.fromkeys(vec, Fraction(0)) for vec in true],
         lambda n: [NOT_SPANNED] if n % 2 == 0 else []),
    ]


@pytest.mark.parametrize("fault", range(3), ids=["empty", "extra-unit", "zeroed"])
def test_homo_failure_witnesses_are_pinned(monkeypatch, fault):
    """Each certification of ``homo_kernel`` names its failure: the kernel dimension, a
    vector that is not a coboundary (or any nonzero vector when no one-letter class
    exists) and an even kernel the coboundary class does not span, in that order."""
    wrong, expected = wrong_kernels()[fault]
    kernel = verify.rational_kernel
    monkeypatch.setattr(verify, "rational_kernel", lambda rows, cols: wrong(kernel(rows, cols)))
    for n in range(2, 10):
        report = homo_kernel(n)[1]
        if n in (3, 5):  # no nonzero two-letter class: nothing reaches the kernel
            assert report.passed
            continue
        witnesses = [(r.witness.item, r.witness.delta) for r in report.results if r.witness]
        assert witnesses == expected(n), f"degree {n}"
        assert report.passed == (not witnesses)
        assert all(r.status == ("fail" if witnesses else "pass") for r in report.results)


def test_homo_kernel_rejects_degree_below_two():
    with pytest.raises(ValueError):
        homo_kernel(1)


@pytest.mark.parametrize("degree", [2.0, 4.5, Fraction(4), "4", None])
def test_homo_kernel_refuses_a_non_integer_degree(degree):
    with pytest.raises(ValueError, match="degree must be an integer"):
        homo_kernel(degree)


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
