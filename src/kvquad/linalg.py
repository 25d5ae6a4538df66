"""Exact rational linear algebra: kernel and solve by fraction-free elimination.

A matrix is a list of sparse rows ``{column: Rational}`` over ``ncols``
columns, a missing column being zero, and vectors come back sparse as
``{column: Fraction}``.  The homogeneous-kernel matrices are tall (22690 x
224 in degree 12, at most two nonzeros per row), so each row is cleared to
integers with the lcm of its denominators, stored as ``{column: int}`` and
kept primitive by its gcd (fraction-free elimination; the gcd division keeps
the integers small, as Bareiss's exact division by the previous pivot does).
An incoming row is reduced against at most one stored row per column, and
elimination stops once the rank equals the column count.  The stored rows
are kept in reduced row echelon form, which is unique, so the kernel basis
(one vector per free column) and the solution (free variables zero) do not
depend on the row order.
"""

import math
from fractions import Fraction


def _check_columns(rows, ncols: int):
    for row in rows:
        if row and not (min(row) >= 0 and max(row) < ncols):
            raise ValueError(f"columns {min(row)}..{max(row)} are not all in [0, {ncols})")


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """Primitive integer combination of ``row`` and ``pivot_row`` that is zero at ``col``."""
    g = math.gcd(row[col], pivot_row[col])
    a, p = row[col] // g, pivot_row[col] // g
    out = {c: v * p for c, v in row.items()}
    for c, v in pivot_row.items():
        w = out.get(c, 0) - a * v
        if w:
            out[c] = w
        else:
            del out[c]
    return _primitive(out)


def _reduced_rows(rows, ncols: int) -> dict[int, dict[int, int]]:
    """Pivot column -> primitive integer row of the reduced row echelon form.

    The stored rows stay reduced: each is zero at every other pivot column,
    and its pivot is its least column.  An incoming row is cleared at the
    pivot columns it meets; what is left becomes a new pivot row, and its
    pivot column is cleared from the stored rows.
    """
    reduced: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(reduced) == ncols:
            break
        entries = {c: v for c, v in row.items() if v}
        if not entries:
            continue
        scale = math.lcm(*(v.denominator for v in entries.values()))
        r = _primitive({c: v.numerator * (scale // v.denominator) for c, v in entries.items()})
        for p in [c for c in r if c in reduced]:
            r = _eliminate(r, reduced[p], p)
        if r:
            lead = min(r)
            for p, stored in reduced.items():
                if lead in stored:
                    reduced[p] = _eliminate(stored, r, lead)
            reduced[lead] = r
    return reduced


def rational_kernel(rows: list[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right kernel; one sparse vector per free column."""
    _check_columns(rows, ncols)
    reduced = _reduced_rows(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in reduced:
            continue
        vec = {f: Fraction(1)}
        for p, r in reduced.items():
            if f in r:
                vec[p] = Fraction(-r[f], r[p])
        basis.append(vec)
    return basis


def rational_solve(rows: list[dict[int, Fraction]], rhs: list[Fraction],
                   ncols: int) -> dict[int, Fraction] | None:
    """One sparse solution of rows * x = rhs, or None when inconsistent."""
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    _check_columns(rows, ncols)
    reduced = _reduced_rows(({**row, ncols: b} for row, b in zip(rows, rhs)), ncols + 1)
    if ncols in reduced:
        return None
    return {p: Fraction(r[ncols], r[p]) for p, r in reduced.items() if ncols in r}
