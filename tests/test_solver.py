import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

import kvquad.sampling
import kvquad.solver
from kvquad import (
    KVSolution,
    LieElement,
    RationalUnivariateSeries,
    TraceSeries,
    ab_to_AB,
    bch_multi,
    bracket,
    canonical_solution,
    factorize,
    flow_check,
    gauge_family,
    generator,
    kv1_residual,
    kv_rhs,
    quadratic_trace_tuple,
    standard_family,
    standard_gauge_pairs,
    trace_pairing,
    verify_kv1,
    verify_theorem,
    word_from_str,
)
from kvquad.lie import without_letters
from kvquad.linalg import _reduced_rows
from kvquad.lyndon import lyndon_words
from kvquad.sampling import random_gauge_pairs, random_lie_element, random_lie_pairs

from oracles import (
    dynkin_bch,
    dynkin_split,
    inverse_route_gauge_family,
    inverse_transport,
    mirror,
    oadd,
    oscale,
    to_word_dict,
    two_sided_canonical_solution,
)


def lyndon(order, spec):
    return LieElement(2, order, {word_from_str(w): c for w, c in spec.items()})


def bracket_identity(a, b, r):
    """[x, a] + [y, b] == r through the order of r, lifting the factors."""
    order = r.order
    x, y = generator(2, 0, order), generator(2, 1, order)
    return bracket(x, a.with_order(order)) + bracket(y, b.with_order(order)) == r


def test_gauge_family_inverts_each_transport_kernel_once_per_order(monkeypatch, cold_caches):
    inverted = []
    inverse = RationalUnivariateSeries.inverse

    def counted(series):
        inverted.append(series)
        return inverse(series)

    monkeypatch.setattr(RationalUnivariateSeries, "inverse", counted)
    family = gauge_family(canonical_solution(6), standard_gauge_pairs(4, 6))
    assert len(family) == 5
    inverted = [repr(series) for series in inverted]  # equal reprs: the same kernel and order
    assert inverted and len(inverted) == len(set(inverted))


def test_kv_rhs_low_degrees():
    r = kv_rhs(4)
    assert r.degree_part(1).is_zero()
    assert r.degree_part(2) == lyndon(4, {"ab": Fraction(1, 2)})
    # oracle: x + y - ch(y, x) where ch(y, x) swaps the two letters of ch(x, y);
    # a degree-k part of ch does not depend on the truncation order
    swapped = {tuple(1 - letter for letter in w): c for w, c in dynkin_bch(8).items()}
    for order in range(2, 9):
        truncated = {w: c for w, c in swapped.items() if len(w) <= order}
        expected = oadd({(0,): Fraction(1), (1,): Fraction(1)}, oscale(truncated, -1))
        assert to_word_dict(kv_rhs(order).expand()) == expected


def test_kv_rhs_is_cached_per_order():
    first = kv_rhs(7)
    assert kv_rhs(7) is first
    swapped = {tuple(1 - letter for letter in w): c for w, c in dynkin_bch(7).items()}
    expected = oadd({(0,): Fraction(1), (1,): Fraction(1)}, oscale(swapped, -1))
    assert to_word_dict(first.expand()) == expected
    assert first.expand() is kv_rhs(7).expand()  # the word expansion is shared too


def test_kv_rhs_keeps_its_word_expansion():
    # kv_rhs reuses the Campbell-Hausdorff words; they must be exactly the
    # expansion of its Lyndon coordinates, which a fresh element recomputes
    for order in range(2, 11):
        r = kv_rhs(order)
        fresh = LieElement(2, order, dict(r.terms)).expand()
        assert r._assoc == fresh and r._assoc.order == fresh.order == order


def test_kv_rhs_exactly_half_bracket_at_order_two():
    assert kv_rhs(2) == lyndon(2, {"ab": Fraction(1, 2)})


def test_kv_rhs_requires_order_two():
    with pytest.raises(ValueError):
        kv_rhs(1)


def test_factorize_single_bracket():
    r = lyndon(2, {"ab": 1})
    a, b = factorize(r)
    assert a == lyndon(1, {"b": Fraction(1, 2)})
    assert b == lyndon(1, {"a": Fraction(-1, 2)})
    assert bracket_identity(a, b, r)


def test_factorize_nested_bracket():
    r = lyndon(3, {"aab": 1})  # [x, [x, y]]
    a, b = factorize(r)
    assert bracket_identity(a, b, r)


def test_factorize_zero():
    a, b = factorize(LieElement.zero(2, 4))
    assert a.is_zero() and b.is_zero()


def test_factorize_rejects_low_degrees():
    with pytest.raises(ValueError):
        factorize(generator(2, 0, 3))


def test_factorize_refuses_three_letters():
    with pytest.raises(ValueError, match="two letters"):
        factorize(without_letters(bch_multi(3, 4), range(3)))


def test_factorize_refuses_one_letter():
    with pytest.raises(ValueError, match="two letters"):
        factorize(LieElement.zero(1, 4))


def test_factorize_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order must be >= 0"):
        factorize(kv_rhs(5), -1)


def test_factorize_random_lie_inputs():
    rng = random.Random(501)
    for _ in range(15):
        r = random_lie_element(rng, 2, 8, terms=6, min_degree=2)
        a, b = factorize(r)
        assert a.order == 7 and b.order == 7
        assert bracket_identity(a, b, r)


def test_factorize_matches_right_nested_dynkin_split():
    rng = random.Random(502)
    inputs = [kv_rhs(n) for n in range(3, 10)]
    inputs += [random_lie_element(rng, 2, rng.randint(3, 7), terms=6, min_degree=2)
               for _ in range(20)]
    for r in inputs:
        a, b = factorize(r)
        assert a.order == b.order == r.order - 1
        assert [to_word_dict(a.expand()), to_word_dict(b.expand())] == dynkin_split(r)


def test_factorize_splits_once_for_an_antisymmetric_input_and_twice_otherwise(monkeypatch):
    """r - r(-y, -x) takes the mirror path; one added top-degree bracket, whose mirror is
    not its negative, takes the general one.  Both agree with the Dynkin split."""
    mirrored, original = [], kvquad.solver._mirror
    monkeypatch.setattr(kvquad.solver, "_mirror",
                        lambda e: mirrored.append(e) or original(e))
    rng = random.Random(504)
    for _ in range(20):
        order = rng.randint(3, 8)
        r = random_lie_element(rng, 2, order, terms=6, min_degree=2)
        antisymmetric = r - mirror(r)
        top = lyndon(order, {"a" * (order - 1) + "b": rng.choice([1, -2, Fraction(3, 5)])})
        for s, path in ((antisymmetric, 1), (antisymmetric + top, 0)):
            mirrored.clear()
            a, b = factorize(s)
            assert len(mirrored) == path
            assert [to_word_dict(a.expand()), to_word_dict(b.expand())] == dynkin_split(s)


def test_kv_rhs_is_antisymmetric_under_the_mirror():
    for n in range(2, 13):
        r = kv_rhs(n)
        assert mirror(r).expand()._pair == (-r).expand()._pair


def test_canonical_B_is_the_mirror_of_A():
    for n in range(1, 13):
        s = canonical_solution(n)
        assert s.B.expand()._pair == mirror(s.A).expand()._pair


@pytest.mark.parametrize("order", range(1, 11))
def test_canonical_solution_matches_the_two_sided_route(order):
    s, former = canonical_solution(order), two_sided_canonical_solution(order)
    for name in ("A", "B"):
        assert getattr(s, name).expand()._pair == getattr(former, name).expand()._pair
    assert s.to_json_dict() == former.to_json_dict()


def test_ab_to_AB_zero():
    zero = LieElement.zero(2, 6)
    s = ab_to_AB(zero, zero)
    assert s.A.is_zero() and s.B.is_zero()


def test_ab_to_AB_rejects_mismatched_inputs():
    two, three = LieElement.zero(2, 4), LieElement.zero(3, 4)
    for a, b in ((two, LieElement.zero(2, 3)), (three, two), (two, three),
                 (LieElement.zero(1, 4), two), (two, LieElement.zero(1, 4))):
        with pytest.raises(ValueError):
            ab_to_AB(a, b)


def test_ab_to_AB_kernel_expansion():
    # a = y: A picks up the t/(1-e^{-t}) chain y + [x,y]/2 + [x,[x,y]]/12 + 0 + ...
    y = generator(2, 1, 6)
    s = ab_to_AB(y, LieElement.zero(2, 6))
    assert s.A.coefficient(word_from_str("b")) == 1
    assert s.A.coefficient(word_from_str("ab")) == Fraction(1, 2)
    assert s.A.coefficient(word_from_str("aab")) == Fraction(1, 12)
    assert s.A.coefficient(word_from_str("aaab")) == 0
    assert s.A.coefficient(word_from_str("aaaab")) == Fraction(-1, 720)
    assert s.B.is_zero()


def test_ab_AB_roundtrip():
    rng = random.Random(502)
    for _ in range(10):
        a = random_lie_element(rng, 2, 8, terms=4)
        b = random_lie_element(rng, 2, 8, terms=4)
        s = ab_to_AB(a, b)
        assert inverse_transport(s.A, s.B) == (a, b)
        assert ab_to_AB(*inverse_transport(s.A, s.B)) == s


def test_ab_to_AB_is_additive():
    rng = random.Random(503)
    for order in range(1, 9):
        a1, b1, a2, b2 = (random_lie_element(rng, 2, order, terms=4) for _ in range(4))
        s1, s2 = ab_to_AB(a1, b1), ab_to_AB(a2, b2)
        assert ab_to_AB(a1 + a2, b1 + b2) == KVSolution(s1.A + s2.A, s1.B + s2.B)


def test_canonical_solution_residual_vanishes(sol8):
    assert kv1_residual(sol8).is_zero()


@pytest.mark.parametrize("order", range(1, 11))
def test_canonical_solution_is_cached_per_order(order):
    cached = canonical_solution(order)
    assert canonical_solution(order) is cached
    fresh = canonical_solution.__wrapped__(order)
    assert fresh is not cached
    for name in ("A", "B"):
        ours, built = getattr(cached, name), getattr(fresh, name)
        assert dict(ours.expand().terms) == dict(built.expand().terms)
        assert dict(ours.terms) == dict(built.terms)
    assert cached.to_json_dict() == fresh.to_json_dict()
    for check in (verify_kv1, verify_theorem):
        assert check(cached).to_json_lines() == check(fresh).to_json_lines()


def test_canonical_solution_serves_racing_threads():
    """Eight threads ask for an uncached order at once; each gauge family matches a fresh build."""
    order, pairs = 7, standard_gauge_pairs(4, 7)
    expected = [member.to_json_dict()
                for member in gauge_family(canonical_solution.__wrapped__(order), pairs)]
    canonical_solution.cache_clear()
    barrier = threading.Barrier(8)

    def build():
        barrier.wait(timeout=60)
        return [member.to_json_dict() for member in gauge_family(canonical_solution(order), pairs)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [future.result(timeout=120) for future in [pool.submit(build) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8
    assert canonical_solution(order) is canonical_solution(order)


def test_canonical_solution_degree_one_scalars(sol8):
    # measured values of this factorization scheme, recorded not prescribed
    assert sol8.a_scalar == 0
    assert sol8.b_scalar == Fraction(-1, 4)
    assert sol8.A.coefficient(word_from_str("b")) == Fraction(1, 4)
    assert sol8.method == "dynkin-first-letter"


def test_residual_of_zero_pair_is_minus_rhs():
    zero = LieElement.zero(2, 6)
    s = KVSolution(zero, zero)
    assert kv1_residual(s) == -kv_rhs(6)


def test_residual_detects_perturbation(sol6):
    perturbed = KVSolution(sol6.A + lyndon(6, {"ab": 1}), sol6.B)
    residual = kv1_residual(perturbed)
    assert not residual.is_zero()
    # (1 - exp(-ad_x)) kills constants, so the shift leads with [x, [x, y]]
    assert residual.degree_part(3) == lyndon(7, {"aab": 1})


def test_residual_detects_top_degree_perturbation(sol6):
    # the equation constrains the top degree only through the extra
    # residual degree; a degree-6 perturbation must still be seen
    top = lyndon(6, {"aaaaab": 1})
    perturbed = KVSolution(sol6.A + top, sol6.B)
    residual = kv1_residual(perturbed)
    assert not residual.is_zero()
    assert residual.truncated(6).is_zero()


def test_gauge_family_empty_pairs(sol6):
    assert gauge_family(sol6, []) == [sol6]


def test_gauge_family_members_solve(sol6):
    x, y = generator(2, 0, 6), generator(2, 1, 6)
    xy = bracket(x, y)
    pairs = [(x, y), (xy, xy), (x, x)]
    family = gauge_family(sol6, pairs)
    assert len(family) == 4
    for member in family:
        assert kv1_residual(member).is_zero()
    # the tr(xy) shift moves the measured b by its a2-slot contribution
    assert family[1].b_scalar == sol6.b_scalar + 1
    # the tr(x^2) shift is pure gauge in the x slot: only a_scalar moves
    assert family[3].b_scalar == sol6.b_scalar
    assert family[3].a_scalar == sol6.a_scalar + 2


def test_gauge_family_matches_inverse_route():
    # members are s plus the transported shift; the oracle inverts s and
    # transports each shifted factorization instead.  Odd seeds use a pair
    # that does not solve the equation.
    moved = 0
    for order in range(1, 9):
        for seed in range(3):
            rng = random.Random(600 + 10 * order + seed)
            if seed % 2:
                s = KVSolution(random_lie_element(rng, 2, order), random_lie_element(rng, 2, order),
                               method="random")
                assert not kv1_residual(s).is_zero()
            else:
                s = canonical_solution(order)
            pairs = random_lie_pairs(rng, 2, order, 3)
            family = gauge_family(s, pairs)
            assert ([m.to_json_dict() for m in family]
                    == [m.to_json_dict() for m in inverse_route_gauge_family(s, pairs)])
            moved += sum(m.A != s.A and m.B != s.B for m in family[1:])
    assert moved >= 40  # most of the 72 shifts move both components


def witt(n: int) -> int:
    """L(n), the number of two-letter Lyndon words of length n: (1/n) sum_{d | n} mu(d) 2^(n/d)."""

    def mobius(d: int) -> int:
        sign, p = 1, 2
        while d > 1:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    return sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_quadratic_traces_span_the_gauge_kernel():
    """The gauge classification that ``gauge_family`` rests on, certified through degree 9.

    The map (a, b) -> [x, a] + [y, b] sends pairs of degree n - 1 onto Lie
    degree n (``factorize`` inverts it), so its kernel has dimension
    2 L(n-1) - L(n).  The slots of tr(l r), for Lyndon words l <= r with
    |l| + |r| = n, lie in that kernel (``quadratic_trace_tuple`` checks the
    balance); as vectors over (letter, word) they must span it.
    """
    lyndon_basis = lyndon_words(2, 9)
    ranks = []
    for n in range(2, 11):
        columns, rows = {}, []
        for left in lyndon_basis:
            for right in lyndon_basis:
                if left <= right and len(left) + len(right) == n:
                    p = trace_pairing(LieElement(2, n, {left: 1}), LieElement(2, n, {right: 1}))
                    rows.append({columns.setdefault((i, w), len(columns)): c
                                 for i, a_i in enumerate(quadratic_trace_tuple(p))
                                 for w, c in a_i.expand().terms.items()})
        ranks.append(len(_reduced_rows(rows, len(columns))))
    assert ranks == [2 * witt(n - 1) - witt(n) for n in range(2, 11)]
    assert ranks == [3, 0, 1, 0, 3, 0, 6, 4, 13]


def test_standard_gauge_pairs_catalog():
    pairs = standard_gauge_pairs(5, 6)
    assert len(pairs) == 5
    with pytest.raises(ValueError):
        standard_gauge_pairs(99, 6)


@pytest.mark.parametrize("count", [-1, -3, -10])
def test_a_negative_catalog_count_is_refused_before_building(count, monkeypatch, cold_caches):
    """A negative count is no slice end: both readers of the catalog refuse it, build no
    generator and cache no family."""
    built = []
    monkeypatch.setattr(kvquad.solver, "generator", lambda *args: built.append(args))
    for read in (lambda: standard_gauge_pairs(count, 5), lambda: standard_family(5, count)):
        with pytest.raises(ValueError, match=f"catalog count must be >= 0, got {count}"):
            read()
    assert built == [] and standard_family.cache_info().currsize == 0


def fields(member: KVSolution) -> tuple:
    return member.A, member.B, member.order, member.method


@pytest.mark.parametrize("order", [5, 8])
@pytest.mark.parametrize("count", [1, 4, 10])
def test_standard_family_is_the_gauge_family_of_the_catalog(order, count, cold_caches):
    family = standard_family(order, count)
    assert type(family) is tuple and len(family) == count + 1
    built = gauge_family(canonical_solution.__wrapped__(order), standard_gauge_pairs(count, order))
    assert [fields(member) for member in family] == [fields(member) for member in built]
    assert family[0] is canonical_solution(order)
    assert standard_family(order, count) is family


def test_standard_family_serves_racing_threads(cold_caches):
    """Eight threads ask for an uncached family at once; each gets the sequential members."""
    order, count = 7, 4
    expected = [fields(member) for member in
                gauge_family(canonical_solution.__wrapped__(order),
                             standard_gauge_pairs(count, order))]
    barrier = threading.Barrier(8)

    def build():
        barrier.wait(timeout=60)
        return [fields(member) for member in standard_family(order, count)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [future.result(timeout=120) for future in [pool.submit(build) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8
    assert standard_family(order, count) is standard_family(order, count)


@pytest.mark.parametrize("order", [7, 9])
def test_standard_gauge_pairs_dead_entries(order):
    # (u, [u, v]) pairs to zero by invariance, tr(u [u, v]) = 0, so those
    # catalog members are the solution again
    pairs = standard_gauge_pairs(10, order)
    dead = [i for i, (left, right) in enumerate(pairs)
            if trace_pairing(left.with_order(order + 1), right.with_order(order + 1)).is_zero()]
    assert dead == [1, 2, 4, 5, 8]
    s = canonical_solution(order)
    family = gauge_family(s, pairs)
    assert [i for i, member in enumerate(family[1:]) if member == s] == dead


@pytest.mark.parametrize("order", range(1, 13))
def test_random_gauge_pairs_fit_and_pair(order):
    # the tuple of every drawn pair is nonzero, so is its shift: the transport
    # is invertible (test_ab_AB_roundtrip)
    for seed in range(40):
        pairs = random_gauge_pairs(random.Random(seed), order, 2)
        assert len(pairs) == 2
        for left, right, paired in pairs:
            assert max(map(len, left.terms)) + max(map(len, right.terms)) <= order + 1
            p = trace_pairing(left.with_order(order + 1), right.with_order(order + 1))
            assert paired == p and paired.order == order + 1  # the pairing gauge_family reuses
            assert not all(a.is_zero() for a in quadratic_trace_tuple(p))


def test_random_gauge_pairs_refuse_a_pairing_that_is_always_zero(monkeypatch):
    # a broken pairing must fail the draw, not loop forever
    calls = []

    def zero(left, right):
        calls.append(1)
        return TraceSeries.zero(2, left.order)

    monkeypatch.setattr(kvquad.sampling, "trace_pairing", zero)
    with pytest.raises(ValueError, match=f"order 5: {kvquad.sampling.MAX_ZERO_PAIRINGS} draws"):
        random_gauge_pairs(random.Random(0), 5, 2)
    assert len(calls) == kvquad.sampling.MAX_ZERO_PAIRINGS


@pytest.mark.parametrize("order", range(1, 9))
def test_random_gauge_pairs_shift_the_solution(order):
    # on the zero pair each member is its shift; a zero shift would give s back.
    # Orders 9-12 rest on the nonzero tuples checked above: transporting their
    # shifts costs about ten times as much as orders 1-8 together.
    zero = LieElement.zero(2, order)
    s = KVSolution(zero, zero)
    for seed in range(40):
        family = gauge_family(s, random_gauge_pairs(random.Random(seed), order, 2))
        assert all(member != s for member in family[1:])


def test_flow_check_canonical(sol6):
    assert flow_check(sol6, [1, 2, 3, 4, 5, 6, 7])
    assert flow_check(sol6, [Fraction(1, 2), 1, -1, 2, -2, 3, -3])


def test_flow_check_rejects_zero_pair():
    zero = LieElement.zero(2, 4)
    s = KVSolution(zero, zero)
    assert not flow_check(s, [1, 2, 3, 4, 5])


def test_flow_check_sample_validation(sol6):
    with pytest.raises(ValueError):
        flow_check(sol6, [1, 2, 3])  # too few
    with pytest.raises(ValueError):
        flow_check(sol6, [0, 1, 2, 3, 4, 5, 6])  # zero sample
    with pytest.raises(ValueError):
        flow_check(sol6, [1, 1, 2, 3, 4, 5, 6])  # repeated sample


def test_solution_json_roundtrip(sol6):
    data = sol6.to_json_dict()
    assert set(data) == {"order", "A", "B", "method"}
    loaded = KVSolution.from_json_dict(data)
    assert loaded == sol6
    assert loaded.method == sol6.method
    # the loader's messages, which `verify --solution` prints after "error:"
    with pytest.raises(ValueError, match=r"^solution JSON must be an object, got list$"):
        KVSolution.from_json_dict([data])
    with pytest.raises(ValueError, match=r"^solution JSON lacks 'B'$"):
        KVSolution.from_json_dict({"A": data["A"]})


@pytest.mark.parametrize("order", [99, 5, "x", "6", 6.0, None, True])
def test_solution_json_order_must_be_the_order_of_its_series(sol6, order):
    data = sol6.to_json_dict()
    with pytest.raises(ValueError, match=r"^solution JSON 'order' must be 6, the order of A "
                                         r"and B, got "):
        KVSolution.from_json_dict({**data, "order": order})
    del data["order"]  # a file without "order" reads it from A and B
    assert KVSolution.from_json_dict(data) == sol6


# --- the residual memo -------------------------------------------------------

def test_residual_memo_is_per_solution(sol6):
    assert kv1_residual(sol6).is_zero()  # fills the memo of sol6
    perturbed = KVSolution(sol6.A + lyndon(6, {"aab": 1}), sol6.B)
    residual = kv1_residual(perturbed)
    assert not residual.is_zero()
    assert kv1_residual(perturbed) is residual
    assert kv1_residual(sol6).is_zero()


def test_residual_memo_is_invisible(sol6):
    fresh = KVSolution(sol6.A, sol6.B, sol6.method)
    before = (sol6.to_json_dict(), repr(sol6))
    kv1_residual(sol6)
    assert (sol6.to_json_dict(), repr(sol6)) == before
    assert fresh == sol6 and sol6 == fresh
    assert fresh.to_json_dict() == sol6.to_json_dict()
    assert repr(fresh) == repr(sol6)


def test_solution_stays_immutable_with_memo(sol6):
    kv1_residual(sol6)
    with pytest.raises(AttributeError):
        sol6.A = sol6.B
    with pytest.raises(AttributeError):
        sol6._memo = {"residual": LieElement.zero(2, 7)}
    assert kv1_residual(sol6).is_zero()


def test_loaded_solution_computes_its_own_residual(sol6):
    kv1_residual(sol6)
    data = sol6.to_json_dict()
    loaded = KVSolution.from_json_dict(data)
    assert kv1_residual(loaded).is_zero()
    assert kv1_residual(loaded) is not kv1_residual(sol6)
    shifted = KVSolution(sol6.A + lyndon(6, {"ab": Fraction(1, 3)}), sol6.B)
    corrupted = KVSolution.from_json_dict(shifted.to_json_dict())
    assert kv1_residual(corrupted).degree_part(3) == lyndon(7, {"aab": Fraction(1, 3)})
