"""Truncated free Lie algebra in the Lyndon basis.

A Lie series is stored by its coordinates on standard Lyndon bracketings.
Conversion to the word basis expands each bracketing; conversion back peels
lexicographically least words, after certifying Lie membership degree by
degree with the right-normed bracketing map (which acts as k times the
identity on homogeneous Lie elements of degree k, and maps every word into
the Lie algebra, by the Dynkin-Specht-Wever theorem).  The Campbell-Hausdorff
series, generator substitution, degree scaling and univariate operator
kernels in a single adjoint slot all live here.
"""

import functools
import math
from fractions import Fraction
from types import MappingProxyType

from .lyndon import (
    bracket_expansion,
    commutator,
    is_lyndon,
    lyndon_coordinates,
    right_normed_expansion,
    standard_factorization,
)
from .words import (
    ArityMismatchError,
    AssocSeries,
    Rational,
    _SparseSeries,
    _accumulate,
    format_rational,
    log as assoc_log,
    parse_rational,
    substitute_letter_linear,
)


class NotLieError(ValueError):
    """A series failed the Lie-membership test; ``degree`` locates the defect."""

    def __init__(self, message: str, degree: int):
        super().__init__(f"{message} (degree {degree})")
        self.degree = degree


class LieElement(_SparseSeries):
    """Truncated Lie series: sparse Lyndon-word coordinates, exact rationals.

    Keys of ``terms`` are Lyndon words of length between 1 and ``order``;
    the element they denote is the corresponding standard bracketing.
    Instances are immutable.
    """

    __slots__ = ("_assoc",)  # the word expansion, computed on first use
    _tag = ("basis", "lyndon")
    _tag_required = False

    def _check_key(self, w: bytes):
        if not is_lyndon(w):
            raise ValueError(f"{w!r} is not a Lyndon word")
        super()._check_key(w)

    degree_part = _SparseSeries.homogeneous_part
    # kept in the class's own __dict__, where perfbench/tracer.py looks it up
    to_json_dict = _SparseSeries.to_json_dict

    def with_order(self, order: int) -> "LieElement":
        """Reinterpret the stored terms at another truncation order.

        Lowering the order truncates.  Raising it declares the element a
        polynomial equal to its stored terms, which is only meaningful for
        explicitly constructed polynomials, not for truncations of series.
        """
        if order >= self.order:
            return LieElement._make(self.arity, order, dict(self._terms))
        return self.truncated(order)

    def expand(self) -> AssocSeries:
        """The canonical embedding into the free associative algebra."""
        try:
            return self._assoc
        except AttributeError:
            out: dict[bytes, Fraction] = {}
            for w, c in self._terms.items():
                for v, k in bracket_expansion(w).items():
                    _accumulate(out, v, c * k)
            assoc = AssocSeries._make(self.arity, self.order, out)
            object.__setattr__(self, "_assoc", assoc)
            return assoc

    def bracket(self, other: "LieElement") -> "LieElement":
        return bracket(self, other)


def generator(arity: int, index: int, order: int) -> LieElement:
    """The generator x_index as a LieElement."""
    if not 0 <= index < arity:
        raise ValueError(f"generator {index} out of range for arity {arity}")
    return LieElement._make(arity, order, {bytes([index]): Fraction(1)})


def _right_normed_sides(terms, arity: int, cache: dict) -> list[dict[bytes, Fraction]]:
    """sum of c * [w_0, [w_1, [..., w_last]]] over ``terms``, split by outer letter.

    Slot i holds the sum of c * [w_1, [..., w_last]] over the words starting
    with letter i, so the whole sum is sum_i [x_i, slot i].  Words must have
    length >= 2.  ``cache`` is the caller's per-call expansion cache.
    """
    sides: list[dict[bytes, Fraction]] = [{} for _ in range(arity)]
    for w, c in terms.items():
        target = sides[w[0]]
        for v, k in right_normed_expansion(w[1:], cache).items():
            _accumulate(target, v, c * k)
    return sides


def _project_to_lie(a: AssocSeries, validate: bool) -> LieElement:
    if a.constant_term:
        raise NotLieError("nonzero constant term", 0)
    coords: dict[bytes, Fraction] = {}
    by_degree: dict[int, dict[bytes, Fraction]] = {}
    for w, c in a.terms.items():
        if w:
            by_degree.setdefault(len(w), {})[w] = c
    cache: dict[bytes, dict[bytes, int]] = {}
    for k in sorted(by_degree):
        part = by_degree[k]
        if validate and k > 1:
            delta: dict[bytes, Fraction] = {}
            for i, side in enumerate(_right_normed_sides(part, a.arity, cache)):
                for v, c in commutator({bytes([i]): 1}, side, k).items():
                    _accumulate(delta, v, c)
            if delta != {w: k * c for w, c in part.items()}:
                raise NotLieError("right-normed bracketing is not k times the identity", k)
        try:
            coords.update(lyndon_coordinates(part))
        except ValueError as exc:
            raise NotLieError(str(exc), k) from None
    return LieElement._make(a.arity, a.order, coords)


def assoc_to_lie(a: AssocSeries) -> LieElement:
    """Inverse of the embedding on the Lie subspace; checked degree by degree."""
    return _project_to_lie(a, validate=True)


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Lie bracket, computed as a commutator of word expansions."""
    a._check_compatible(b)
    order = min(a.order, b.order)
    words = commutator(a.expand()._terms, b.expand()._terms, order)
    return _project_to_lie(AssocSeries._make(a.arity, order, words), validate=False)


@functools.lru_cache(maxsize=None)
def log_exp_product(arity: int, order: int) -> LieElement:
    """log(e^{x_0} e^{x_1} ... e^{x_{arity-1}}) as a Lie series."""
    if order < 1:
        raise ValueError("order must be >= 1")
    product = AssocSeries.unit(arity, order)
    for i in range(arity):
        exponential = AssocSeries._make(
            arity, order,
            {bytes([i]) * k: Fraction(1, math.factorial(k)) for k in range(0, order + 1)})
        product = product * exponential
    return _project_to_lie(assoc_log(product), validate=True)


def bch_multi(arity: int, order: int) -> LieElement:
    """log of the product of the generator exponentials, as a Lie series."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    return log_exp_product(arity, order)


def bch(order: int) -> LieElement:
    """The two-letter Campbell-Hausdorff series through the given degree."""
    return bch_multi(2, order)


def _is_increasing_generator_tuple(args) -> bool:
    indices = []
    for arg in args:
        items = list(arg._terms.items())
        if len(items) != 1:
            return False
        (w, c), = items
        if len(w) != 1 or c != 1:
            return False
        indices.append(w[0])
    return all(x < y for x, y in zip(indices, indices[1:]))


def substitute_many(elements, args) -> list[LieElement]:
    """Apply the Lie homomorphism generator i -> args[i] to several elements.

    The bracketing images of shared Lyndon subwords are computed once.
    """
    args = tuple(args)
    if not args:
        raise ValueError("substitution needs at least one argument")
    arity_out = args[0].arity
    args_order = args[0].order
    for arg in args:
        if not isinstance(arg, LieElement):
            raise TypeError("substitution arguments must be LieElements")
        if arg.arity != arity_out:
            raise ArityMismatchError("substitution arguments must share one arity")
        if arg.order != args_order:
            raise ValueError("substitution arguments must share one order")
    for a in elements:
        if a.arity != len(args):
            raise ArityMismatchError(
                f"element arity {a.arity} needs {a.arity} arguments, got {len(args)}")
    orders = [min(a.order, args_order) for a in elements]

    if _is_increasing_generator_tuple(args):
        # order-preserving letter relabeling keeps Lyndon words Lyndon
        mapping = [next(iter(arg._terms))[0] for arg in args]
        return [
            LieElement._make(arity_out, order,
                             {bytes(mapping[letter] for letter in w): c
                              for w, c in a._terms.items() if len(w) <= order})
            for a, order in zip(elements, orders)
        ]

    args_ass = [arg.expand() for arg in args]
    cache: dict[bytes, AssocSeries] = {}

    def image(w: bytes) -> AssocSeries:
        hit = cache.get(w)
        if hit is not None:
            return hit
        if len(w) == 1:
            result = args_ass[w[0]]
        else:
            u, v = standard_factorization(w)
            words = commutator(image(u)._terms, image(v)._terms, args_order)
            result = AssocSeries._make(arity_out, args_order, words)
        cache[w] = result
        return result

    out = []
    for a, order in zip(elements, orders):
        total = AssocSeries.zero(arity_out, order)
        for w, c in a._terms.items():
            if len(w) <= order:
                total = total + image(w).truncated(order) * c
        out.append(_project_to_lie(total, validate=False))
    return out


def substitute(a: LieElement, args) -> LieElement:
    """The unique Lie homomorphism sending generator i to args[i], applied to a."""
    return substitute_many([a], args)[0]


def scale(a: LieElement, t: Rational) -> LieElement:
    """Substitute x_i -> t*x_i: the degree-k part picks up t^k."""
    t = Fraction(t)
    return LieElement._make(a.arity, a.order,
                            {w: c * t ** len(w) for w, c in a._terms.items()})


def ch_t(t: Rational, order: int, arity: int = 2) -> LieElement:
    """The rescaled Campbell-Hausdorff series: degree-k part times t^(k-1)."""
    t = Fraction(t)
    if not t:
        raise ValueError("ch_t requires t != 0")
    return scale(bch_multi(arity, order), t) * (1 / t)


class RationalUnivariateSeries:
    """Truncated power series in one variable t with exact rational coefficients."""

    __slots__ = ("order", "_coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("order must be >= 0")
        cleaned = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
            for k, c in items:
                c = Fraction(c)
                if not c:
                    continue
                if not 0 <= k <= order:
                    raise ValueError(f"exponent {k} outside [0, {order}]")
                cleaned[k] = c
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("RationalUnivariateSeries is immutable")

    def __reduce__(self):
        return RationalUnivariateSeries, (self.order, self._coeffs)

    @property
    def coeffs(self):
        return MappingProxyType(self._coeffs)

    def coefficient(self, k: int) -> Fraction:
        return self._coeffs.get(k, Fraction(0))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        if not isinstance(other, RationalUnivariateSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return all(self.coefficient(k) == other.coefficient(k) for k in range(n + 1))

    __hash__ = None

    def __add__(self, other):
        order = min(self.order, other.order)
        out = {k: c for k, c in self._coeffs.items() if k <= order}
        for k, c in other._coeffs.items():
            if k <= order:
                _accumulate(out, k, c)
        return RationalUnivariateSeries(order, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalUnivariateSeries(self.order, {k: -c for k, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, RationalUnivariateSeries):
            order = min(self.order, other.order)
            out: dict[int, Fraction] = {}
            for k1, c1 in self._coeffs.items():
                for k2, c2 in other._coeffs.items():
                    if k1 + k2 <= order:
                        _accumulate(out, k1 + k2, c1 * c2)
            return RationalUnivariateSeries(order, out)
        return RationalUnivariateSeries(
            self.order, {k: Fraction(other) * c for k, c in self._coeffs.items()})

    __rmul__ = __mul__

    def inverse(self) -> "RationalUnivariateSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coefficient(0)
        if not c0:
            raise ValueError("series with zero constant term has no inverse")
        inv = {0: 1 / c0}
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                ck = self._coeffs.get(k)
                if ck:
                    acc += ck * inv.get(n - k, Fraction(0))
            if acc:
                inv[n] = -acc / c0
        return RationalUnivariateSeries(self.order, inv)

    def shifted_down(self, k: int = 1) -> "RationalUnivariateSeries":
        """Exact division by t^k; the low coefficients must vanish."""
        for j in range(k):
            if self.coefficient(j):
                raise ValueError(f"coefficient of t^{j} is nonzero; cannot divide by t^{k}")
        return RationalUnivariateSeries(
            self.order - k, {e - k: c for e, c in self._coeffs.items() if e >= k})

    def derivative(self) -> "RationalUnivariateSeries":
        return RationalUnivariateSeries(
            max(self.order - 1, 0),
            {k - 1: k * c for k, c in self._coeffs.items() if k >= 1})

    def odd_part(self) -> "RationalUnivariateSeries":
        return RationalUnivariateSeries(
            self.order, {k: c for k, c in self._coeffs.items() if k % 2 == 1})

    def __str__(self):
        if not self._coeffs:
            return "0"
        return " + ".join(f"{c}*t^{k}" for k, c in sorted(self._coeffs.items()))

    def __repr__(self):
        return f"RationalUnivariateSeries(order={self.order}, {self})"

    def to_json_dict(self) -> dict:
        return {"order": self.order,
                "coeffs": [format_rational(self.coefficient(k))
                           for k in range(self.order + 1)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalUnivariateSeries":
        return cls(data["order"], [parse_rational(c) for c in data["coeffs"]])


def _exp_minus_one(order: int, sign: int) -> RationalUnivariateSeries:
    """e^t - 1 for sign +1, 1 - e^{-t} for sign -1; shifted down once, the quotient by t."""
    return RationalUnivariateSeries(
        order, {k: Fraction(sign ** (k + 1), math.factorial(k)) for k in range(1, order + 1)})


KERNEL_NAMES = ("f", "t/(1-exp(-t))", "t/(exp(t)-1)", "alpha", "beta_odd")


def kernel_series(name: str, order: int, b: Rational | None = None) -> RationalUnivariateSeries:
    """Named operator kernels, expanded exactly by series division.

    ``alpha`` and ``beta_odd`` take the rational parameter ``b`` (the degree-one
    x-coefficient of the second solution component); both have a simple pole
    cancellation which is carried out exactly at one extra working order.
    """
    if name == "f":
        # t/(e^t - 1) - 1 + t/2: the Bernoulli generating series without
        # its constant and linear terms
        inv = _exp_minus_one(order + 1, 1).shifted_down(1).inverse()
        return inv + RationalUnivariateSeries(order, {0: -1, 1: Fraction(1, 2)})
    if name == "t/(1-exp(-t))":
        return _exp_minus_one(order + 1, -1).shifted_down(1).inverse()
    if name == "t/(exp(t)-1)":
        return _exp_minus_one(order + 1, 1).shifted_down(1).inverse()
    if name in ("alpha", "beta_odd"):
        if b is None:
            raise ValueError(f"kernel {name!r} needs the rational parameter b")
        b = Fraction(b)
        working = order + 1  # one extra order pays for the pole cancellation
        e_plus = _exp_minus_one(working + 1, 1).shifted_down(1)    # (e^t-1)/t
        e_minus = _exp_minus_one(working + 1, -1).shifted_down(1)  # (1-e^{-t})/t
        inv_minus = e_minus.inverse()              # t/(1-e^{-t})
        inv_both = (e_plus * e_minus).inverse()    # t^2/((e^t-1)(1-e^{-t}))
        if name == "alpha":
            # b*t/(1-e^{-t}) - t/((e^t-1)(1-e^{-t})) + 1/(1-e^{-t})
            return b * inv_minus + (inv_minus - inv_both).shifted_down(1)
        exp_plus_one = _exp_minus_one(working, 1) + RationalUnivariateSeries(working, {0: 2})
        # (b/2)t - (1/2) t/((e^t-1)(1-e^{-t})) + (1/4)(e^t+1)/(e^t-1)
        pole_part = Fraction(-1, 2) * inv_both + Fraction(1, 4) * (exp_plus_one * e_plus.inverse())
        linear = RationalUnivariateSeries(order, {1: b / 2} if order >= 1 else {})
        return linear + pole_part.shifted_down(1)
    raise ValueError(f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}")


def univariate_substitute(phi: RationalUnivariateSeries, a: AssocSeries) -> AssocSeries:
    """phi(a) = sum of phi_k a^k for a word series with zero constant term."""
    if a.constant_term:
        raise ValueError("substitution into a univariate series needs zero constant term")
    if phi.order < a.order:
        raise ValueError("univariate series truncated below the word-series order")
    unit = AssocSeries.unit(a.arity, a.order)
    result = unit * phi.coefficient(0)
    power = unit
    for k in range(1, a.order + 1):
        power = power * a
        if power.is_zero():
            break
        ck = phi.coefficient(k)
        if ck:
            result = result + power * ck
    return result


def _operator_series_words(phi: RationalUnivariateSeries, index: int,
                           a: LieElement) -> dict[bytes, Fraction]:
    """Word expansion of sum of phi_k (ad of generator index)^k applied to a.

    ``a`` is expanded once and every power of ad acts on words, truncated at
    ``a.order``; the caller projects the sum back to the Lyndon basis once.
    """
    if phi.order < a.order:
        raise ValueError("operator kernel truncated below the series order")
    if not 0 <= index < a.arity:
        raise ValueError(f"generator {index} out of range for arity {a.arity}")
    letter = {bytes([index]): 1}
    out: dict[bytes, Fraction] = {}
    power, k = a.expand()._terms, 0
    while power:  # each power of ad raises the least degree, so this ends by k = order
        ck = phi.coefficient(k)
        if ck:
            for w, c in power.items():
                _accumulate(out, w, ck * c)
        power, k = commutator(letter, power, a.order), k + 1
    return out


def apply_operator_series(phi: RationalUnivariateSeries, index: int, a: LieElement) -> LieElement:
    """Sum of phi_k (ad of generator index)^k applied to a.

    Computed in the word basis from one expansion of ``a``, then projected
    to the Lyndon basis once.
    """
    words = _operator_series_words(phi, index, a)
    return _project_to_lie(AssocSeries._make(a.arity, a.order, words), validate=False)


def ad_apply(a: AssocSeries, z: LieElement) -> LieElement:
    """Extended adjoint action: a word acts as nested bracketing onto z.

    The nested brackets are computed in the word basis, sharing the action
    of common word prefixes, and the sum is projected to the Lyndon basis once.
    """
    if a.arity != z.arity:
        raise ArityMismatchError(f"arity mismatch: {a.arity} vs {z.arity}")
    order = min(z.order, a.order + 1)
    z_words = z.truncated(order).expand()._terms

    def act(terms) -> dict[bytes, Fraction]:
        # sum of c * ad_w z over ``terms``, split by the first letter of w
        out: dict[bytes, Fraction] = {}
        by_first: dict[int, dict[bytes, Fraction]] = {}
        for w, c in terms.items():
            if not w:
                for v, k in z_words.items():
                    _accumulate(out, v, c * k)
            elif len(w) < order:
                by_first.setdefault(w[0], {})[w[1:]] = c
        for i, rest in by_first.items():
            for v, k in commutator({bytes([i]): 1}, act(rest), order).items():
                _accumulate(out, v, k)
        return out

    return _project_to_lie(AssocSeries._make(z.arity, order, act(a._terms)), validate=False)


def directional_derivative(a, index: int, z):
    """Leibniz derivative: replace one occurrence of x_index by z, sum over occurrences.

    ``a`` may be an AssocSeries or a LieElement and the result has the same
    kind.  ``z`` may live over an extended alphabet (one fresh letter models
    the free direction slot); the result then lives there too.
    """
    if isinstance(z, LieElement):
        z_ass = z.expand()
    elif isinstance(z, AssocSeries):
        z_ass = z
    else:
        raise TypeError(f"direction must be a series, got {type(z).__name__}")
    if isinstance(a, AssocSeries):
        return substitute_letter_linear(a, index, z_ass)
    if isinstance(a, LieElement):
        spliced = substitute_letter_linear(a.expand(), index, z_ass)
        return _project_to_lie(spliced, validate=False)
    raise TypeError(f"expected a series, got {type(a).__name__}")
