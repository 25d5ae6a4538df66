"""Both kernel paths and the sparse integer elimination against the dense Fraction
Gauss-Jordan oracle.

``rational_kernel`` and ``rational_solve`` take sparse rows ``{column: value}``
over ``ncols`` columns.  Rows with at most two nonzeros each give their kernel
through a weighted union-find; any other matrix, and every solve, is cleared to
integers and kept in sparse reduced echelon form.  The reduced row echelon form
is unique, so the kernel basis and the solution with free variables zero must
equal the oracle's exactly once densified, whatever the row order or the path.
"""

import random
from fractions import Fraction

import pytest

import kvquad.verify as verify
from kvquad import linalg
from kvquad.linalg import rational_kernel, rational_solve

from oracles import fraction_kernel, fraction_solve


def _entry(rng):
    if rng.random() < 0.4:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _random_matrix(rng, nrows, ncols, rank):
    """nrows x ncols of rank at most ``rank``, with zero, duplicate and scaled rows."""
    left = [[_entry(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[_entry(rng) for _ in range(ncols)] for _ in range(rank)]
    rows = [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(ncols)] for i in range(nrows)]
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("zero", "duplicate", "scaled"))
        source = rng.choice(rows)
        extra = {"zero": [Fraction(0)] * ncols,
                 "duplicate": list(source),
                 "scaled": [Fraction(-3, 2) * v for v in source]}[kind]
        rows.insert(rng.randint(0, len(rows)), extra)
    return rows


def _cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        shape = rng.choice(("tall", "wide", "square"))
        small, large = rng.randint(1, 4), rng.randint(5, 9)
        nrows, ncols = {"tall": (large, small), "wide": (small, large),
                        "square": (small, small)}[shape]
        rank = rng.randint(0, min(nrows, ncols))
        yield rng, _random_matrix(rng, nrows, ncols, rank)


def _sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _dense(vec, ncols):
    return [Fraction(vec.get(c, 0)) for c in range(ncols)]  # entries may be integers


def _sparse_fractions(vectors):
    """Every stored entry is a nonzero Fraction."""
    return all(isinstance(v, Fraction) and v for vec in vectors for v in vec.values())


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_oracle(seed):
    ranks = set()
    for _, rows in _cases(seed, 60):
        ncols = len(rows[0])
        got = rational_kernel(_sparse(rows), ncols)
        assert [_dense(vec, ncols) for vec in got] == fraction_kernel(rows)
        assert _sparse_fractions(got)
        ranks.add(len(got) == 0)
    assert ranks == {True, False}  # full column rank and rank-deficient both seen


@pytest.mark.parametrize("seed", range(4))
def test_solve_matches_oracle(seed):
    outcomes = set()
    for rng, rows in _cases(100 + seed, 60):
        ncols = len(rows[0])
        x0 = [_entry(rng) for _ in range(ncols)]
        consistent = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
        arbitrary = [_entry(rng) for _ in rows]
        for rhs in (consistent, arbitrary):
            got = rational_solve(_sparse(rows), rhs, ncols)
            outcomes.add(got is not None)
            if got is None:
                assert fraction_solve(rows, rhs) is None
            else:
                dense = _dense(got, ncols)
                assert dense == fraction_solve(rows, rhs)
                assert _sparse_fractions([got])
                assert [sum((a * x for a, x in zip(row, dense)), Fraction(0))
                        for row in rows] == rhs
        assert rational_solve(_sparse(rows), consistent, ncols) is not None
    assert outcomes == {True, False}


def test_integer_entries_and_row_order():
    # explicit zeros and an empty row are allowed
    rows = [{0: 2, 1: 4, 2: -6}, {0: 1, 1: 2, 2: -3}, {0: 0, 1: 3, 2: 3}, {}]
    dense = [[Fraction(row.get(c, 0)) for c in range(3)] for row in rows]
    expected = [{0: Fraction(5), 1: Fraction(-1), 2: Fraction(1)}]
    assert rational_kernel(rows, 3) == expected
    assert [_dense(vec, 3) for vec in expected] == fraction_kernel(dense)
    assert rational_kernel(rows[::-1], 3) == expected


def test_homo_matrices_match_oracle(monkeypatch):
    seen = []

    def checked(rows, ncols):
        got = rational_kernel(rows, ncols)
        dense = [_dense(row, ncols) for row in rows]
        assert [_dense(vec, ncols) for vec in got] == fraction_kernel(dense)
        seen.append(len(rows))
        return got

    monkeypatch.setattr(verify, "rational_kernel", checked)
    for degree in range(2, 10):
        _, report = verify.homo_kernel(degree)
        assert report.passed
    assert len(seen) >= 5  # odd degrees with no two-letter classes build no matrix


def _pair_matrix(rng):
    """Rows with at most two nonzeros each, and their column count.

    Most rows tie two columns by the ratio of a hidden vector: a random forest, or
    balanced merges of 32 columns whose trees are deep enough to be compressed.
    Extra ties close cycles, some of them against the hidden ratio; one-entry rows
    kill columns; rows are repeated and scaled, padded with explicit zeros and left
    empty; integral values are written as ``int`` or ``Fraction`` at random; and
    the last few columns no row touches.
    """
    balanced = rng.random() < 0.25
    used = 32 if balanced else rng.randint(1, 12)
    ncols = used + rng.randint(0, 3)
    hidden = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
              for _ in range(used)]

    def tie(i, j, consistent=True):
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3))
        b = -a * hidden[i] / hidden[j]
        return {i: a, j: b if consistent else 2 * b}

    if balanced:
        ties = [tie(k, k + step) for step in (1, 2, 4, 8, 16) for k in range(0, used, 2 * step)]
    else:
        order = rng.sample(range(used), used)
        ties = [tie(rng.choice(order[:k]), order[k]) for k in range(1, used) if rng.random() < 0.8]
        rng.shuffle(ties)
    extra = []
    for _ in range(rng.randint(0, 4) if used > 1 else 0):
        i, j = rng.sample(range(used), 2)
        extra.append(tie(i, j, consistent=rng.random() < 0.6))
    for _ in range(rng.randint(0, 2)):
        extra.append({rng.randrange(used): Fraction(rng.randint(1, 4), rng.randint(1, 3))})
    for _ in range(rng.randint(0, 3)):
        source = rng.choice(ties + extra or [{}])
        scale = rng.choice((1, -1, Fraction(-3, 2), 4))
        extra.append({c: scale * v for c, v in source.items()})
    for _ in range(rng.randint(0, 2)):
        extra.append(rng.choice(({}, {rng.randrange(ncols): 0})))
    rng.shuffle(extra)
    rows = ties + extra or [{}]
    for row in rng.sample(rows, min(len(rows), 3)):
        zero = rng.randrange(ncols)
        row.setdefault(zero, 0)
    for row in rows:
        for c, v in row.items():
            if v.denominator == 1 and rng.random() < 0.5:
                row[c] = int(v)
    return rows, ncols


@pytest.fixture
def eliminations(monkeypatch):
    """The ``ncols`` of each call to ``linalg._reduced_rows``, which still runs."""
    calls = []
    reduced_rows = linalg._reduced_rows
    monkeypatch.setattr(linalg, "_reduced_rows",
                        lambda rows, ncols: calls.append(ncols) or reduced_rows(rows, ncols))
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_pair_kernel_matches_oracle_and_elimination(monkeypatch, eliminations, seed):
    """Rows with at most two nonzeros never reach ``_reduced_rows``; their basis equals
    the oracle's and, entry for entry and in order, the elimination's on the same rows."""
    seen = set()
    rng = random.Random(200 + seed)
    for _ in range(50):
        rows, ncols = _pair_matrix(rng)
        assert max(sum(map(bool, row.values())) for row in rows) <= 2
        got = rational_kernel(rows, ncols)
        assert not eliminations
        dense = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
        assert [_dense(vec, ncols) for vec in got] == fraction_kernel(dense)
        assert _sparse_fractions(got)
        with monkeypatch.context() as forced:
            forced.setattr(linalg, "_at_most_two_nonzeros", lambda rows: False)
            assert rational_kernel(rows, ncols) == got
        assert eliminations == [ncols]
        eliminations.clear()
        support = {c for vec in got for c in vec}
        seen.add("killed" if len(support) < ncols else "all live")
        seen.add("tied" if any(len(vec) > 1 for vec in got) else "untied")
    assert seen == {"killed", "all live", "tied", "untied"}


def test_pair_kernel_cycles_and_single_entries():
    # a triangle whose ratios close keeps its vector, normalized at its largest column
    closed = [{0: 1, 1: -2}, {1: 3, 2: -3}, {0: 2, 2: -4}]
    assert rational_kernel(closed, 3) == [{0: Fraction(2), 1: Fraction(1), 2: Fraction(1)}]
    # one ratio off and the cycle kills it; so does a one-entry row anywhere on it
    assert rational_kernel(closed[:2] + [{0: 2, 2: -5}], 3) == []
    assert rational_kernel(closed + [{1: Fraction(1, 3)}], 4) == [{3: Fraction(1)}]
    # an explicit zero makes a row no wider, and a zeroed row ties nothing
    assert rational_kernel([{0: 1, 1: 0, 2: -1}, {1: 0}], 3) == [
        {1: Fraction(1)}, {0: Fraction(1), 2: Fraction(1)}]


def test_a_row_with_three_nonzeros_takes_the_elimination(eliminations):
    pairs = [{0: 1, 1: -1}, {2: Fraction(1, 2), 3: 0, 1: 5}]
    assert rational_kernel(pairs, 5) == [
        {0: Fraction(-1, 10), 1: Fraction(-1, 10), 2: Fraction(1)}, {3: Fraction(1)}, {4: Fraction(1)}]
    assert eliminations == []
    rows = pairs + [{1: 1, 3: 2, 4: -1}]
    got = rational_kernel(rows, 5)
    assert eliminations == [5]
    dense = [[Fraction(row.get(c, 0)) for c in range(5)] for row in rows]
    assert [_dense(vec, 5) for vec in got] == fraction_kernel(dense)


def test_homo_rows_have_at_most_two_nonzeros(monkeypatch, eliminations):
    """Each four-term row of homo's matrix ties at most two classes in degrees 2-12, so
    its kernel is read by union-find and never reaches the elimination."""
    widest = []

    def recording(rows, ncols):
        widest.append(max(sum(map(bool, row.values())) for row in rows))
        return kernel(rows, ncols)

    kernel = verify.rational_kernel
    monkeypatch.setattr(verify, "rational_kernel", recording)
    for degree in range(2, 13):
        assert verify.homo_kernel(degree)[1].passed, f"degree {degree}"
    assert len(widest) == 9 and max(widest) <= 2  # degrees 3 and 5 build no matrix
    assert eliminations == []


def test_solve_rejects_more_equations_than_right_hand_sides():
    # zip() used to drop the second equation and return [1]
    with pytest.raises(ValueError):
        rational_solve([{0: Fraction(1)}, {0: Fraction(1)}], [Fraction(1)], 1)
    with pytest.raises(ValueError):
        rational_solve([{0: Fraction(1)}], [Fraction(1), Fraction(2)], 1)
    with pytest.raises(ValueError):
        rational_solve([], [Fraction(1)], 1)


@pytest.mark.parametrize("rows, ncols", [
    ([{0: 1, 1: 2}, {2: 3}], 2),     # past the end in a later row; column 2 is not the rhs
    ([{1: 1}, {-1: 2}], 2),          # negative column
    ([{0: 1}, {0: 0, 3: 0}], 2),     # out of range with a zero value
    ([{0: 1}, {1: 1}, {0: 1, 2: 1}], 2),  # after full rank, when no more rows are eliminated
    ([{1: 1, 0.5: 2}], 2),           # a float column in range, beside an integer one
    ([{0: 1}, {Fraction(1): 1}], 2), # equal to the integer column 1, but not an int
    ([{"1": 1}], 2),                 # a string does not compare with the bounds
], ids=["past-end", "negative", "zero-value", "after-full-rank", "float", "fraction", "string"])
def test_out_of_range_columns_raise_value_error(rows, ncols):
    with pytest.raises(ValueError):
        rational_kernel(rows, ncols)
    with pytest.raises(ValueError):
        rational_solve(rows, [0] * len(rows), ncols)


def test_empty_inputs():
    # with no equations every unit vector spans the kernel and zero is the solution
    assert rational_kernel([], 0) == []
    assert rational_kernel([], 3) == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    assert rational_solve([], [], 0) == {}
    assert rational_solve([], [], 2) == {}
    assert rational_kernel([{}], 0) == []
    assert rational_kernel([{}, {}], 2) == [{0: Fraction(1)}, {1: Fraction(1)}]
    assert rational_solve([{}], [Fraction(0)], 0) == {}
    assert rational_solve([{}], [Fraction(1)], 0) is None
    assert rational_solve([{}], [Fraction(1)], 2) is None
