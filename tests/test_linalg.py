"""Sparse integer elimination against the dense Fraction Gauss-Jordan oracle.

``rational_kernel`` and ``rational_solve`` clear rows to integers and keep a
sparse reduced echelon form.  The reduced row echelon form is unique, so the
kernel basis and the solution with free variables zero must equal the
oracle's exactly, whatever the row order or the elimination strategy.
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


def _all_fractions(vectors):
    return all(isinstance(v, Fraction) for vec in vectors for v in vec)


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_oracle(seed):
    ranks = set()
    for _, rows in _cases(seed, 60):
        got = rational_kernel(rows)
        assert got == fraction_kernel(rows)
        assert _all_fractions(got)
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
            got = rational_solve(rows, rhs)
            assert got == fraction_solve(rows, rhs)
            outcomes.add(got is not None)
            if got is not None:
                assert _all_fractions([got])
                assert [sum((a * x for a, x in zip(row, got)), Fraction(0))
                        for row in rows] == rhs
        assert rational_solve(rows, consistent) is not None
    assert outcomes == {True, False}


def test_integer_entries_and_row_order():
    rows = [[2, 4, -6], [1, 2, -3], [0, 3, 3], [0, 0, 0]]
    expected = fraction_kernel([[Fraction(v) for v in row] for row in rows])
    assert rational_kernel(rows) == expected == [[Fraction(5), Fraction(-1), Fraction(1)]]
    assert rational_kernel(rows[::-1]) == expected


def test_homo_matrices_match_oracle(monkeypatch):
    seen = []

    def checked(rows):
        got = rational_kernel(rows)
        assert got == fraction_kernel(rows)
        seen.append(len(rows))
        return got

    monkeypatch.setattr(verify, "rational_kernel", checked)
    for degree in range(2, 8):
        _, report = verify.homo_kernel(degree)
        assert report.passed
    assert len(seen) >= 4  # odd degrees with no two-letter classes build no matrix


def test_solve_rejects_more_equations_than_right_hand_sides():
    # zip() used to drop the second equation and return [1]
    with pytest.raises(ValueError):
        rational_solve([[Fraction(1)], [Fraction(1)]], [Fraction(1)])
    with pytest.raises(ValueError):
        rational_solve([[Fraction(1)]], [Fraction(1), Fraction(2)])
    with pytest.raises(ValueError):
        rational_solve([], [Fraction(1)])


@pytest.mark.parametrize("rows", [
    [[1, 2], [3]],       # short later row: used to raise IndexError
    [[1], [2, 3]],       # long later row: its extra entry used to be ignored
    [[1, 0], [0, 1, 1]],
], ids=["short", "long", "long-last-row"])
def test_ragged_rows_raise_value_error(rows):
    with pytest.raises(ValueError):
        rational_kernel(rows)
    with pytest.raises(ValueError):
        rational_solve(rows, [0] * len(rows))


def test_empty_inputs():
    assert rational_kernel([]) == []
    assert rational_solve([], []) is None
    assert rational_kernel([[]]) == []
    assert rational_solve([[]], [Fraction(0)]) == []
    assert rational_solve([[]], [Fraction(1)]) is None
