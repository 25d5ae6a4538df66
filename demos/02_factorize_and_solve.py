"""Constructing a rational solution of the Kashiwara-Vergne equation.

The right-hand side x + y - ch(y, x) starts in degree two, and every Lie
monomial splits off its first letter: grouping the nested bracketings by
that letter writes the series as [x, a] + [y, b].  Pushing a and b through
the kernels t/(1-e^{-t}) and t/(e^t-1) in the respective adjoint slots gives
the pair (A, B) solving

    (1 - exp(-ad_x)) A + (exp(ad_y) - 1) B = x + y - ch(y, x).

Since ch(x, y) = -ch(-y, -x), the defect changes sign under the mirror
x -> -y, y -> -x, and the first-letter split commutes with it, so b is a with
x and y exchanged and odd degrees negated.  The second kernel is the first at
-t, so B is the same mirror of A: only a is computed and transported.
"""

from kvquad import (
    bracket, canonical_solution, factorize, flow_check, generator,
    kv1_residual, kv_rhs,
)

order = 8
rhs = kv_rhs(order + 1)
print("defect x + y - ch(y, x), low degrees:", rhs.truncated(3))

a, b = factorize(rhs, order)
x, y = generator(2, 0, order + 1), generator(2, 1, order + 1)
identity = bracket(x, a.with_order(order + 1)) + bracket(y, b.with_order(order + 1))
print("factorization [x,a] + [y,b] reproduces the defect:", identity == rhs)

solution = canonical_solution(order)
print("\nA low degrees:", solution.A.truncated(3))
print("B low degrees:", solution.B.truncated(3))
print("degree-one scalars: a =", solution.a_scalar, " b =", solution.b_scalar)
print("residual of the equation is exactly zero:", kv1_residual(solution).is_zero())

# the flow reformulation at rational sample points
samples = list(range(1, order + 2))
print("flow characterization holds at samples", samples, "->",
      flow_check(solution, samples))
