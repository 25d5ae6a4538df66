"""Words and truncated series in the free associative algebra.

Coefficients are exact :class:`fractions.Fraction` values throughout; nothing
in this package touches floating point.  A word over an alphabet of ``arity``
generators is stored as :class:`bytes` of letter indices, so words compare,
hash, slice and reverse cheaply and lexicographic order on words is letterwise
order on indices.  Series are sparse maps from words to nonzero coefficients,
truncated at a fixed degree; every operation is pure and returns a new series
truncated at the smaller operand order.  That sparse-series core is shared by
the Lie series of :mod:`kvquad.lie` and the trace series of :mod:`kvquad.traces`.
"""

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

Rational = Fraction | int


class ArityMismatchError(ValueError):
    """Operands live over alphabets of different sizes."""


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def word_to_str(w: bytes) -> str:
    """Encode a word as a string, letter index 0 -> 'a', 1 -> 'b', ..."""
    if any(letter >= 26 for letter in w):
        raise ValueError("letter index beyond 'z' cannot be serialized")
    return "".join(_ALPHABET[letter] for letter in w)


def word_from_str(s: str) -> bytes:
    """Decode a word from its 'a'..'z' string form."""
    letters = []
    for ch in s:
        idx = _ALPHABET.find(ch)
        if idx < 0:
            raise ValueError(f"invalid word character {ch!r}")
        letters.append(idx)
    return bytes(letters)


def format_rational(q: Rational) -> str:
    """Render a rational as 'p/q' with q > 0 and gcd(p, q) = 1."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


class _SparseSeries:
    """Immutable sparse map from words to nonzero rationals, truncated at ``order``.

    The shared core of word, Lie and cyclic-trace series: subclasses decide
    what a key denotes (a word, a Lyndon bracketing, a cyclic class) through
    ``_check_key``, and how it prints through ``_name``.  Two series compare
    equal when they have the same type and arity and agree coefficientwise up
    to the smaller of the two truncation orders; binary operations truncate
    to the smaller order.
    """

    __slots__ = ("arity", "order", "_terms")
    _key_kind = "word"
    _tag: tuple[str, str] | None = None  # (key, value) written after "order" in JSON
    _tag_required = True

    def __init__(self, arity: int, order: int, terms=None):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if order < 0:
            raise ValueError("order must be >= 0")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "order", order)
        cleaned = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                w = bytes(w)
                self._check_key(w)
                cleaned[w] = c
        object.__setattr__(self, "_terms", cleaned)

    def _check_key(self, w: bytes):
        if len(w) > self.order:
            raise ValueError(f"{self._key_kind} {word_to_str(w)!r} exceeds order {self.order}")
        if any(letter >= self.arity for letter in w):
            raise ValueError(
                f"{self._key_kind} {word_to_str(w)!r} uses letters beyond arity {self.arity}")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which never sets a memo slot
        return type(self), (self.arity, self.order, self._terms)

    @classmethod
    def _make(cls, arity, order, terms):
        """Trusted constructor: drops zeros, skips key validation."""
        self = object.__new__(cls)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_terms", {w: c for w, c in terms.items() if c})
        return self

    @classmethod
    def zero(cls, arity, order):
        return cls._make(arity, order, {})

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def coefficient(self, w: bytes) -> Fraction:
        return self._terms.get(bytes(w), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_items(self):
        """Terms sorted by (degree, word); the canonical iteration order."""
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def homogeneous_part(self, degree: int):
        return type(self)._make(
            self.arity, self.order,
            {w: c for w, c in self._terms.items() if len(w) == degree})

    def truncated(self, order: int):
        if order >= self.order:
            return self
        return type(self)._make(
            self.arity, order,
            {w: c for w, c in self._terms.items() if len(w) <= order})

    def with_arity(self, arity: int):
        """The same series viewed over a larger alphabet."""
        if arity < self.arity:
            raise ValueError("cannot shrink arity")
        return type(self)._make(arity, self.order, dict(self._terms))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.arity != other.arity:
            return False
        n = min(self.order, other.order)
        for w, c in self._terms.items():
            if len(w) <= n and other._terms.get(w) != c:
                return False
        for w in other._terms:
            if len(w) <= n and w not in self._terms:
                return False
        return True

    __hash__ = None

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self._terms)
        order = min(self.order, other.order)
        for w, c in other._terms.items():
            _accumulate(out, w, c)
        return type(self)._make(
            self.arity, order, {w: c for w, c in out.items() if len(w) <= order})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)._make(self.arity, self.order,
                                {w: -c for w, c in self._terms.items()})

    def __mul__(self, scalar: Rational):
        scalar = Fraction(scalar)
        if not scalar:
            return type(self).zero(self.arity, self.order)
        return type(self)._make(self.arity, self.order,
                                {w: scalar * c for w, c in self._terms.items()})

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.arity != other.arity:
            raise ArityMismatchError(f"arity mismatch: {self.arity} vs {other.arity}")

    def _name(self, w: bytes) -> str | None:
        """How a key prints; None prints the bare coefficient (the constant term)."""
        return word_to_str(w) if w else None

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.sorted_items():
            name = self._name(w)
            if name is None:
                parts.append(f"{c}")
            else:
                parts.append(name if c == 1 else f"-{name}" if c == -1 else f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"{type(self).__name__}(arity={self.arity}, order={self.order}, {self})"

    def to_json_dict(self) -> dict:
        data = {"arity": self.arity, "order": self.order}
        if self._tag is not None:
            data[self._tag[0]] = self._tag[1]
        data["terms"] = [{"word": word_to_str(w), "coeff": format_rational(c)}
                         for w, c in self.sorted_items()]
        return data

    @classmethod
    def from_json_dict(cls, data: dict):
        """Inverse of ``to_json_dict``; any malformed input raises ValueError."""
        name = cls.__name__
        if not isinstance(data, dict):
            raise ValueError(f"{name} JSON must be an object, got {type(data).__name__}")
        missing = [key for key in ("arity", "order", "terms") if key not in data]
        if missing:
            raise ValueError(f"{name} JSON lacks {', '.join(map(repr, missing))}")
        for key in ("arity", "order"):
            if type(data[key]) is not int:
                raise ValueError(f"{name} JSON {key!r} must be an integer")
        if cls._tag is not None:
            key, value = cls._tag
            got = data.get(key, None if cls._tag_required else value)
            if got != value:
                raise ValueError(f"expected {key} {value!r}, got {got!r}")
        raw = data["terms"]
        if not isinstance(raw, list) or not all(
                isinstance(t, dict) and isinstance(t.get("word"), str)
                and isinstance(t.get("coeff"), str) for t in raw):
            raise ValueError(f"{name} JSON 'terms' must be a list of objects "
                             "with string 'word' and 'coeff'")
        try:
            terms = {word_from_str(t["word"]): parse_rational(t["coeff"]) for t in raw}
        except ZeroDivisionError:
            raise ValueError(f"{name} JSON has a coefficient with zero denominator") from None
        return cls(data["arity"], data["order"], terms)


class AssocSeries(_SparseSeries):
    """Truncated element of the free associative algebra on ``arity`` letters.

    ``terms`` maps words (bytes, length <= order, letters < arity) to nonzero
    rational coefficients.  Instances are immutable and safe to share.
    """

    __slots__ = ()
    # kept in the class's own __dict__, where perfbench/tracer.py looks it up
    __add__ = _SparseSeries.__add__

    @classmethod
    def unit(cls, arity, order):
        return cls._make(arity, order, {b"": Fraction(1)})

    @classmethod
    def from_word(cls, arity, order, w: bytes, coeff: Rational = 1):
        return cls(arity, order, {bytes(w): Fraction(coeff)})

    @classmethod
    def letter(cls, arity, index, order):
        """The length-1 word x_index as a series."""
        if not 0 <= index < arity:
            raise ValueError(f"letter {index} out of range for arity {arity}")
        return cls._make(arity, order, {bytes([index]): Fraction(1)})

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get(b"", Fraction(0))

    def __mul__(self, other):
        if isinstance(other, AssocSeries):
            return mul(self, other)
        return _SparseSeries.__mul__(self, other)

    def _by_degree(self):
        buckets: dict[int, list] = {}
        for w, c in self._terms.items():
            buckets.setdefault(len(w), []).append((w, c))
        return buckets


def _accumulate(d: dict, w: bytes, c: Fraction):
    cur = d.get(w)
    if cur is None:
        if c:
            d[w] = c
    else:
        tot = cur + c
        if tot:
            d[w] = tot
        else:
            del d[w]


def mul(a: AssocSeries, b: AssocSeries) -> AssocSeries:
    """Concatenation product, truncated at min(a.order, b.order)."""
    a._check_compatible(b)
    order = min(a.order, b.order)
    out: dict[bytes, Fraction] = {}
    b_buckets = b._by_degree()
    for wa, ca in a._terms.items():
        room = order - len(wa)
        if room < 0:
            continue
        for lb, items in b_buckets.items():
            if lb > room:
                continue
            for wb, cb in items:
                _accumulate(out, wa + wb, ca * cb)
    return AssocSeries._make(a.arity, order, out)


def exp(a: AssocSeries) -> AssocSeries:
    """Truncated exponential; requires zero constant term."""
    if a.constant_term:
        raise ValueError("exp requires a series with zero constant term")
    result = AssocSeries.unit(a.arity, a.order)
    power = result
    for k in range(1, a.order + 1):
        power = power * a * Fraction(1, k)
        if power.is_zero():
            break
        result = result + power
    return result


def log(a: AssocSeries) -> AssocSeries:
    """Truncated logarithm; requires constant term 1."""
    if a.constant_term != 1:
        raise ValueError("log requires a series with constant term 1")
    u = a - AssocSeries.unit(a.arity, a.order)
    result = AssocSeries.zero(a.arity, a.order)
    power = AssocSeries.unit(a.arity, a.order)
    for k in range(1, a.order + 1):
        power = power * u
        if power.is_zero():
            break
        result = result + power * Fraction((-1) ** (k + 1), k)
    return result


def tau(a: AssocSeries) -> AssocSeries:
    """The anti-involution: (-1)^length times word reversal, extended linearly.

    It is the unique anti-automorphism that negates every Lie element.
    """
    return AssocSeries._make(
        a.arity, a.order,
        {w[::-1]: c if len(w) % 2 == 0 else -c for w, c in a._terms.items()})


@dataclass(frozen=True)
class Decomposition:
    """Writing of a series as constant + sum_i (partials[i] * x_i).

    ``partials[i]`` collects the prefixes of the words ending in letter i, so
    the generator is stripped on the right.  ``reconstruct`` inverts the
    decomposition exactly through the original order.
    """

    constant: Fraction
    partials: tuple[AssocSeries, ...]
    order: int

    @property
    def arity(self) -> int:
        return len(self.partials)

    def reconstruct(self) -> AssocSeries:
        out = {b"": self.constant} if self.constant else {}
        for i, part in enumerate(self.partials):
            suffix = bytes([i])
            for w, c in part._terms.items():
                _accumulate(out, w + suffix, c)
        return AssocSeries._make(self.arity, self.order, out)


def decompose(a: AssocSeries) -> Decomposition:
    """Split off the right-most letter of every word."""
    partial_terms: list[dict[bytes, Fraction]] = [{} for _ in range(a.arity)]
    for w, c in a._terms.items():
        if w:
            _accumulate(partial_terms[w[-1]], w[:-1], c)
    sub_order = max(a.order - 1, 0)
    partials = tuple(AssocSeries._make(a.arity, sub_order, d) for d in partial_terms)
    return Decomposition(constant=a.constant_term, partials=partials, order=a.order)


def left_letter_mul(index: int, a: AssocSeries, order: int | None = None) -> AssocSeries:
    """x_index * a without lowering the truncation order.

    Unlike :func:`mul`, the result order defaults to a.order + 1: prefixing a
    letter determines one more degree exactly.
    """
    if order is None:
        order = a.order + 1
    prefix = bytes([index])
    return AssocSeries._make(
        a.arity, order,
        {prefix + w: c for w, c in a._terms.items() if len(w) + 1 <= order})


def substitute_letter_linear(a: AssocSeries, index: int, z: AssocSeries) -> AssocSeries:
    """Leibniz substitution derivative on the word level.

    Replaces one occurrence of letter ``index`` by ``z`` in every word of
    ``a``, summed over occurrences.  ``z`` may live over a larger alphabet;
    the result does too.
    """
    if z.arity < a.arity:
        z = z.with_arity(a.arity)
    order = min(a.order, z.order)
    z_buckets = z._by_degree()
    out: dict[bytes, Fraction] = {}
    for w, c in a._terms.items():
        for pos, letter in enumerate(w):
            if letter != index:
                continue
            head, tail = w[:pos], w[pos + 1:]
            room = order - (len(w) - 1)
            for lz, items in z_buckets.items():
                if lz > room:
                    continue
                for wz, cz in items:
                    _accumulate(out, head + wz + tail, c * cz)
    return AssocSeries._make(z.arity, order, out)
