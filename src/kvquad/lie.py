"""Truncated free Lie algebra: word expansions first, Lyndon coordinates on read.

A Lie series is stored by its word expansion, the image under the canonical
embedding into the free associative algebra.  The embedding is injective, so
equality, sums, zero tests, scaling and truncation all run on words, and the
package's operations build their results from words (``LieElement.from_words``).
The coordinates on standard Lyndon bracketings are a memo filled on the first
read: the Lyndon peel takes least words degree by degree, and a non-Lyndon
least word proves a part is not Lie (``NotLieError``); both forms are pairs of
integer numerators over one denominator.  ``assoc_to_lie`` runs
the peel at once, where it is the membership check.  An element made from
coordinates keeps them and expands on the first ``expand()``.  Powers of one
ad and the extended adjoint action ad_w z = [w_0, [w_1, [..., z]]] act on
words through one nested-ad kernel, a letter bracket per level, on pairs.  The
Campbell-Hausdorff series (the logarithm of the product of the letters'
exponentials, on the integer word kernels; a lower order is truncated from a
held higher one), generator substitution, degree scaling and univariate
operator kernels in one adjoint slot all live here.
"""

import functools
import math
import weakref
from fractions import Fraction

from .lyndon import (
    _letter_bracket,
    bracket_expansion,
    commutator,
    is_lyndon,
    lyndon_coordinates,
)
from .words import (  # RationalUnivariateSeries and univariate_substitute are re-exported
    ArityMismatchError,
    AssocSeries,
    Rational,
    RationalUnivariateSeries,
    _SparseSeries,
    _linear_sum,
    _substitute_ints,
    _word_name,
    exp,
    log,
    mul,
    substitute_letter_linear,
    univariate_substitute,
)


class NotLieError(ValueError):
    """A series failed the Lie-membership test; ``degree`` locates the defect."""

    def __init__(self, message: str, degree: int):
        super().__init__(f"{message} (degree {degree})")
        self.degree = degree


class LieElement(_SparseSeries):
    """Truncated Lie series over ``arity`` letters, exact rationals.

    The stored form is the word expansion (``expand()``), on which equality,
    sums, zero tests, scaling and truncation run.  The core's pair holds the
    coordinates on standard Lyndon bracketings (``terms`` reads them), keyed
    by Lyndon words of length 1 to ``order``: a memo that the first read
    peels from the words (``NotLieError`` if they are not Lie), after which
    every read is a plain slot read.  An element made from coordinates (the
    constructor, ``_make``, JSON, ``generator``) keeps them and expands
    them on the first ``expand()``, the one place where the two forms meet.
    Instances are immutable.
    """

    # the word expansion; weak references to the highest CH series.  Unset slots
    # (``_assoc`` or the core's ``_pair``) are the memos still to compute; each is
    # published by one assignment.
    __slots__ = ("_assoc", "__weakref__")
    _tag = ("basis", "lyndon")
    _tag_required = False

    @classmethod
    def from_words(cls, words: AssocSeries) -> "LieElement":
        """The Lie series whose word expansion is ``words``; nothing is checked yet.

        The first coordinate read peels the words and raises NotLieError
        there if they are not Lie; ``assoc_to_lie`` peels at once.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "arity", words.arity)
        object.__setattr__(self, "order", words.order)
        if type(words) is not AssocSeries:  # a one-letter RationalUnivariateSeries compares apart
            words = AssocSeries._make(words.arity, words.order, *words._pair)
        object.__setattr__(self, "_assoc", words)
        return self

    def __getattr__(self, name):
        # reached only for a slot never filled: the coordinates are peeled on first read
        if name != "_pair":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        coords = _peel(self._assoc)
        object.__setattr__(self, "_pair", coords)
        return coords

    def __reduce__(self):
        # a copy is rebuilt from the words and peels its own coordinates when read
        return type(self).from_words, (self.expand(),)

    def _check_key(self, w: bytes):
        super()._check_key(w)
        if not is_lyndon(w):
            raise ValueError(f"{_word_name(w)} is not a Lyndon word")

    # kept in the class's own __dict__, where perfbench/tracer.py looks it up
    to_json_dict = _SparseSeries.to_json_dict

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.expand() == other.expand()

    def is_zero(self) -> bool:
        return self.expand().is_zero()

    def __add__(self, other):
        """The sum of the words."""
        self._check_compatible(other)
        return LieElement.from_words(self.expand() + other.expand())

    def _termwise(self, f, order: int | None = None, over: int = 1) -> "LieElement":
        """The core's ``_termwise`` on the words: negation, scaling, truncation and the
        homogeneous parts all come here."""
        return LieElement.from_words(AssocSeries._termwise(self.expand(), f, order, over))

    degree_part = _SparseSeries.homogeneous_part

    def with_order(self, order: int) -> "LieElement":
        """Reinterpret the stored terms at another truncation order.

        Lowering the order truncates.  Raising it declares the element a
        polynomial equal to its stored terms, which is only meaningful for
        explicitly constructed polynomials, not for truncations of series;
        a polynomial expands alike at every order.
        """
        return self._termwise(lambda ints: {w: n for w, n in ints.items() if len(w) <= order},
                              order)

    def expand(self) -> AssocSeries:
        """The canonical embedding into the free associative algebra.

        Stored for every element the package builds; for one made from
        coordinates, their numerators times the integer bracket expansions,
        summed in integers by ``_linear_sum`` over the coordinates' denominator.
        """
        try:
            return self._assoc
        except AttributeError:
            coords, d = self._pair
            words, _ = _linear_sum((n, bracket_expansion(w), 1) for w, n in coords.items())
            assoc = AssocSeries._make(self.arity, self.order, words, d)
            object.__setattr__(self, "_assoc", assoc)
            return assoc

    def bracket(self, other: "LieElement") -> "LieElement":
        return bracket(self, other)


def _peel(words: AssocSeries) -> tuple[dict[bytes, int], int]:
    """Lyndon coordinates of Lie words, degree by degree, over the words' denominator.

    The peel of each homogeneous part either empties it, which writes it as
    a combination of Lyndon bracketings, or meets a non-Lyndon least word;
    that raises NotLieError at the part's degree.
    """
    by_degree: dict[int, dict[bytes, int]] = {}
    for w, n in words._pair[0].items():
        by_degree.setdefault(len(w), {})[w] = n
    if 0 in by_degree:
        raise NotLieError("nonzero constant term", 0)
    coords: dict[bytes, int] = {}
    for k in sorted(by_degree):
        try:
            coords.update(lyndon_coordinates((by_degree[k], words._pair[1]))[0])
        except ValueError as exc:
            raise NotLieError(str(exc), k) from None
    return coords, words._pair[1]


def generator(arity: int, index: int, order: int) -> LieElement:
    """The generator x_index as a LieElement."""
    if not 0 <= index < arity:
        raise ValueError(f"generator {index} out of range for arity {arity}")
    return LieElement._make(arity, order, {bytes([index]): 1})


def assoc_to_lie(a: AssocSeries) -> LieElement:
    """Inverse of the embedding on the Lie subspace; checked degree by degree now.

    The Lyndon peel runs before the result is returned, so a series that is
    not Lie raises NotLieError at the degree of its first non-Lie part.
    ``a`` is exactly the result's word expansion, and is kept as such.
    """
    series = LieElement.from_words(a)
    series._pair  # the first read peels: the membership check
    return series


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Lie bracket, computed as a commutator of word expansions."""
    a._check_compatible(b)
    order = min(a.order, b.order)
    words = commutator(a.expand()._pair, b.expand()._pair, order)
    return LieElement.from_words(AssocSeries._make(a.arity, order, *words))


def _ch_words(arity: int, order: int) -> tuple[dict[bytes, int], int]:
    """Word coefficients of log(e^{x_0} ... e^{x_{arity-1}}) through ``order``, as a pair.

    The definition itself, on the integer word kernels: the ``mul`` product
    of the letters' ``exp`` and that product's ``log``.
    """
    letters = (exp(AssocSeries.letter(arity, i, order)) for i in range(arity))
    return log(functools.reduce(mul, letters))._pair


@functools.lru_cache(maxsize=8)
def log_exp_product(arity: int, order: int) -> LieElement:
    """log(e^{x_0} e^{x_1} ... e^{x_{arity-1}}) as a Lie series.

    The series is stored as the word coefficients of the product of the
    exponentials and its logarithm.  Its first coordinate read peels them,
    which both projects and certifies them: a wrong coefficient raises
    NotLieError there.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return LieElement.from_words(AssocSeries._make(arity, order, *_ch_words(arity, order)))


_highest: dict[int, weakref.ref] = {}  # arity -> the highest-order series built, while held


def bch_multi(arity: int, order: int) -> LieElement:
    """log of the product of the generator exponentials, as a Lie series.

    The series through ``order`` is the truncation of any higher one in as
    many letters, so the highest order built, while still held (by the cache
    above or by a caller), serves it, word expansion included; otherwise it
    is built at the order asked, never higher.  The reference is replaced by
    one assignment, so racing threads can at worst hold a lower order.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    held = _highest.get(arity)
    series = held() if held is not None else None
    if series is not None and series.order >= order:
        return series.truncated(order)
    series = log_exp_product(arity, order)  # above any order still held
    _highest[arity] = weakref.ref(series)
    return series


def bch(order: int) -> LieElement:
    """The two-letter Campbell-Hausdorff series through the given degree."""
    return bch_multi(2, order)


def substitute_many(elements, args) -> list[LieElement]:
    """Apply the Lie homomorphism generator i -> args[i] to several elements.

    Each element's words go through the associative substitution kernel
    ``_substitute_ints`` on the arguments' word expansions; the results are
    stored as those words.
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
    images = [arg.expand()._pair for arg in args]
    out = []
    for a in elements:
        order = min(a.order, args_order)
        words = _substitute_ints(a.expand()._pair, images, order)
        out.append(LieElement.from_words(AssocSeries._make(arity_out, order, *words)))
    return out


def substitute(a: LieElement, args) -> LieElement:
    """The unique Lie homomorphism sending generator i to args[i], applied to a."""
    return substitute_many([a], args)[0]


def scale(a: LieElement, t: Rational) -> LieElement:
    """Substitute x_i -> t*x_i: the degree-k part of the stored form picks up t^k."""
    t = Fraction(t)  # t^k = p^k q^(order-k) / q^order
    powers = [t.numerator ** k * t.denominator ** (a.order - k) for k in range(a.order + 1)]
    return a._termwise(lambda ints: {w: n * powers[len(w)] for w, n in ints.items()},
                       over=t.denominator ** a.order)


def without_letters(a: LieElement, letters) -> LieElement:
    """a without its terms x_i, i in letters: its words lose the one-letter words x_i."""
    drop = {bytes([i]) for i in letters}  # no bracketing but x_i's own expands to the word x_i
    if drop.isdisjoint(a.expand()._pair[0]):
        return a
    return a._termwise(lambda ints: {w: n for w, n in ints.items() if w not in drop})


def ch_t(t: Rational, order: int, arity: int = 2) -> LieElement:
    """The rescaled Campbell-Hausdorff series: degree-k part times t^(k-1)."""
    t = Fraction(t)
    if not t:
        raise ValueError("ch_t requires t != 0")
    return scale(bch_multi(arity, order), t) * (1 / t)


def _exp_minus_one(order: int, sign: int) -> RationalUnivariateSeries:
    """e^t - 1 for sign +1, 1 - e^{-t} for sign -1; shifted down once, the quotient by t."""
    return RationalUnivariateSeries(
        order, {k: Fraction(sign ** (k + 1), math.factorial(k)) for k in range(1, order + 1)})


KERNEL_NAMES = ("f", "t/(1-exp(-t))", "t/(exp(t)-1)", "alpha", "beta_odd")


def kernel_series(name: str, order: int, b: Rational | None = None) -> RationalUnivariateSeries:
    """Named operator kernels, expanded exactly by series division.

    ``alpha`` and ``beta_odd`` take the rational parameter ``b`` (the degree-one
    x-coefficient of the second solution component).  Both come from the two
    transport kernels k1 = t/(1-e^{-t}) and k2 = t/(e^t-1) of ``ab_to_AB``:
    alpha = b k1 + k1(1 - k2)/t and beta_odd = (b/2)t + (t/4 + k2(1 - k1)/2)/t,
    where each division by t is exact and costs one extra working order.
    """
    if name == "f":
        # t/(e^t - 1) - 1 + t/2: the Bernoulli generating series without
        # its constant and linear terms
        return (kernel_series("t/(exp(t)-1)", order)
                + RationalUnivariateSeries(order, {0: -1, 1: Fraction(1, 2)}))
    if name == "t/(1-exp(-t))":
        return _exp_minus_one(order + 1, -1).shifted_down(1).inverse()
    if name == "t/(exp(t)-1)":
        return _exp_minus_one(order + 1, 1).shifted_down(1).inverse()
    if name in ("alpha", "beta_odd"):
        if b is None:
            raise ValueError(f"kernel {name!r} needs the rational parameter b")
        b = Fraction(b)
        working = order + 1  # one extra order pays for the division by t
        k1 = kernel_series("t/(1-exp(-t))", working)
        k2 = kernel_series("t/(exp(t)-1)", working)
        one = RationalUnivariateSeries(working, {0: 1})
        if name == "alpha":
            # b*k1 + k1(1 - k2)/t
            return b * k1 + (k1 * (one - k2)).shifted_down(1)
        # (b/2)t + (t/4 + k2(1 - k1)/2)/t
        linear = RationalUnivariateSeries(order, {1: b / 2} if order >= 1 else {})
        quarter_t = RationalUnivariateSeries(working, {1: Fraction(1, 4)})
        return linear + (quarter_t + Fraction(1, 2) * (k2 * (one - k1))).shifted_down(1)
    raise ValueError(f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}")


def _ad_ints(terms: dict, z_words: dict, order: int) -> dict[bytes, int]:
    """``_ad_words`` on integer word maps; zeros dropped."""
    out: dict[bytes, int] = {}
    by_first: dict[int, dict[bytes, int]] = {}
    for w, c in terms.items():
        if not w:
            for v, k in z_words.items():
                if len(v) <= order:
                    out[v] = out.get(v, 0) + c * k
        elif len(w) < order:
            by_first.setdefault(w[0], {})[w[1:]] = c
    for i, rest in by_first.items():
        for v, k in _letter_bracket(i, _ad_ints(rest, z_words, order - 1), order).items():
            out[v] = out.get(v, 0) + k
    return {w: n for w, n in out.items() if n}


def _ad_words(terms, z_words, order: int) -> tuple[dict[bytes, int], int]:
    """Sum of c * ad_w z over the words w of ``terms``, in the word basis.

    ad_w z = [w_0, [w_1, [..., [w_last, z]]]] with z given by its word map.
    Words sharing a first letter share that outermost bracket, and each level
    down truncates one degree lower, at what the brackets still to come keep.
    The sum is bilinear in ``terms`` and ``z_words``, two pairs, so it runs on
    their numerators and lies over the product of their denominators.
    """
    (t, dt), (z, dz) = terms, z_words
    return _ad_ints(t, z, order), dt * dz


def _ad_polynomial(phi: RationalUnivariateSeries, index: int, arity: int, order: int):
    """Pair of sum phi_k x_index^k, k < order; ``_ad_words`` runs Horner's scheme for
    phi(ad x_index) on it, acting on a series of that arity and order."""
    if phi.order < order:
        raise ValueError("operator kernel truncated below the series order")
    if not 0 <= index < arity:
        raise ValueError(f"generator {index} out of range for arity {arity}")
    ints, d = phi._pair
    return {w.replace(b"\x00", bytes([index])): n for w, n in ints.items() if len(w) < order}, d


def apply_operator_series(phi: RationalUnivariateSeries, index: int, a: LieElement) -> LieElement:
    """Sum of phi_k (ad of generator index)^k applied to a.

    Computed in the word basis from one expansion of ``a``, and stored as
    those words.
    """
    words = _ad_words(_ad_polynomial(phi, index, a.arity, a.order), a.expand()._pair, a.order)
    return LieElement.from_words(AssocSeries._make(a.arity, a.order, *words))


def ad_apply(a: AssocSeries, z: LieElement) -> LieElement:
    """Extended adjoint action: a word acts as nested bracketing onto z.

    The nested brackets are computed in the word basis, sharing the action
    of common word prefixes, and the result is stored as those words.
    """
    if a.arity != z.arity:
        raise ArityMismatchError(f"arity mismatch: {a.arity} vs {z.arity}")
    order = min(z.order, a.order + 1)
    words = _ad_words(a._pair, z.expand()._pair, order)
    return LieElement.from_words(AssocSeries._make(z.arity, order, *words))


def directional_derivative(a, index: int, z):
    """Leibniz derivative: replace one occurrence of x_index by z, sum over occurrences.

    ``a`` may be an AssocSeries or a LieElement and the result has the same
    kind.  ``z`` may live over an extended alphabet (one fresh letter models
    the free direction slot); the result then lives there too.  A Lie ``a``
    along a Lie ``z`` gives Lie words, stored as they are; along any other
    series the words are peeled at once, which checks that they are Lie.
    """
    if not isinstance(z, AssocSeries | LieElement):
        raise TypeError(f"direction must be a series, got {type(z).__name__}")
    if not isinstance(a, AssocSeries | LieElement):
        raise TypeError(f"expected a series, got {type(a).__name__}")
    is_lie = isinstance(a, LieElement)
    words = substitute_letter_linear(a.expand() if is_lie else a, index,
                                     z.expand() if isinstance(z, LieElement) else z)
    if not is_lie:
        return words
    return LieElement.from_words(words) if isinstance(z, LieElement) else assoc_to_lie(words)
