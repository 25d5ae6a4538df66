"""Exact rational linear algebra: kernel and solve by fraction-free elimination.

Matrices are lists of equal-length rows of Fractions (ints work too).  The
homogeneous-kernel matrices are tall and sparse (3210 x 78 in degree 10), so
each row is cleared to integers with the lcm of its denominators and stored
as ``{column: int}``, kept primitive by its gcd (fraction-free elimination;
the gcd division keeps the integers small, as Bareiss's exact division by
the previous pivot does).  An incoming row is reduced against at most one
stored row per column, and rows stop being read once the rank equals the
column count.  The stored rows are kept in reduced row echelon form, which
is unique, so the kernel basis (one vector per free column) and the solution
(free variables zero) do not depend on the elimination order.
"""

import math
from fractions import Fraction


def _row_length(rows) -> int:
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return ncols


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
        entries = {c: v for c, v in enumerate(row) if v}
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


def rational_kernel(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel; one vector per free column."""
    if not rows:
        return []
    ncols = _row_length(rows)
    reduced = _reduced_rows(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in reduced:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for p, r in reduced.items():
            if f in r:
                vec[p] = Fraction(-r[f], r[p])
        basis.append(vec)
    return basis


def rational_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of rows * x = rhs, or None when inconsistent."""
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    if not rows:
        return None
    ncols = _row_length(rows)
    reduced = _reduced_rows(([*row, b] for row, b in zip(rows, rhs)), ncols + 1)
    if ncols in reduced:
        return None
    solution = [Fraction(0)] * ncols
    for p, r in reduced.items():
        if ncols in r:
            solution[p] = Fraction(r[ncols], r[p])
    return solution
