"""Sparse integer elimination against the dense Fraction Gauss-Jordan oracle.

``rational_kernel`` and ``rational_solve`` take sparse rows ``{column: value}``
over ``ncols`` columns, clear them to integers and keep a sparse reduced
echelon form.  The reduced row echelon form is unique, so the kernel basis and
the solution with free variables zero must equal the oracle's exactly once
densified, whatever the row order or the elimination strategy.
"""

import random
from fractions import Fraction

import pytest

import kvquad.verify as verify
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
], ids=["past-end", "negative", "zero-value", "after-full-rank"])
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
