"""Words and truncated series in the free associative algebra.

Coefficients are exact rationals; nothing in this package touches floating
point.  A word over an alphabet of ``arity`` generators is stored as
:class:`bytes` of letter indices, so words compare, hash, slice and reverse
cheaply and lexicographic order on words is letterwise order on indices.
Series are sparse maps from words to nonzero coefficients, truncated at a
fixed degree; every operation is pure and returns a new series truncated at
the smaller operand order.  A series stores the pair (integer numerators by
word, one positive denominator) in lowest terms; a ``Fraction`` is built only
when a coefficient is read, and JSON and ``str`` format p/q from the pair.
That core is shared by the Lie series of :mod:`kvquad.lie`, the trace series
of :mod:`kvquad.traces` and the power series in one variable, word series
over one letter.  The word kernels (``mul``, the substitution
``_substitute_ints`` behind Lie, simplicial and trace substitution, the
Leibniz splice ``_splice_ints`` and its pull form ``_splice_at``;
expansion, brackets, nested ad and peel in :mod:`kvquad.lyndon` and
:mod:`kvquad.lie`) take and return such pairs or their numerators.  One
first-letter Horner recursion, ``_horner``, runs substitution and nested ad.
"""

import math
import re
from fractions import Fraction
from types import MappingProxyType

Rational = Fraction | int


class ArityMismatchError(ValueError):
    """Operands live over alphabets of different sizes."""


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_LETTERS = _ALPHABET.encode("ascii").ljust(256, b"?")  # bytes.translate table: index i -> 'a' + i
_BEYOND_Z = "letter index beyond 'z' cannot be serialized"


def word_to_str(w: bytes) -> str:
    """Encode a word as a string, letter index 0 -> 'a', 1 -> 'b', ..."""
    if w and max(w) >= 26:
        raise ValueError(_BEYOND_Z)
    return w.translate(_LETTERS).decode("ascii")


def _word_name(w: bytes) -> str:
    """A word for messages: quoted letters, or its letter indices when one is beyond 'z'."""
    return str(list(w)) if w and max(w) >= 26 else repr(word_to_str(w))


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


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # no exponents: '1e9999' is huge


def parse_rational(s: str) -> Fraction:
    """Inverse of ``format_rational``: '[-]p[/q]' in decimal digits with q > 0, else ValueError."""
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"coefficient {s[:40]!r} is not of the form '[-]p[/q]' with q > 0")
    return Fraction(s)


def _pair_of(terms) -> tuple[dict[bytes, int], int]:
    """A map with rational values as numerators over the lcm of its denominators: lowest terms."""
    terms = {w: c for w, c in terms.items() if c}
    d = math.lcm(*(c.denominator for c in terms.values()))
    return {w: c.numerator * (d // c.denominator) for w, c in terms.items()}, d


def _normal(ints: dict, d: int) -> tuple[dict[bytes, int], int]:
    """(ints, d) in lowest terms: zeros dropped and gcd(d, *numerators) = 1, so {} is over 1."""
    if 0 in ints.values():
        ints = {w: n for w, n in ints.items() if n}
    g = math.gcd(d, *ints.values()) if d != 1 else 1
    return ({w: n // g for w, n in ints.items()}, d // g) if g != 1 else (ints, d)


def _fractions(pair) -> dict[bytes, Fraction]:
    """The public view of a pair: one ``Fraction`` per word with a nonzero numerator."""
    ints, d = pair
    return {w: Fraction(n, d) for w, n in ints.items() if n}


def _ratio(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, d > 0."""
    g = math.gcd(n, d)
    return n // g, d // g


def _canonical(ints: dict) -> list[bytes]:
    """The words of a map sorted by (degree, word); the canonical iteration order."""
    return sorted(ints, key=lambda w: (len(w), w))


def _check_json_object(data, name: str, required=()):
    """ValueError unless ``data`` is a JSON object holding every key of ``required``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} JSON must be an object, got {type(data).__name__}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{name} JSON lacks {', '.join(map(repr, missing))}")


class _Frozen:
    """Base of the immutable value types: their slots are set once, by ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class _SparseSeries(_Frozen):
    """Immutable sparse map from words to nonzero rationals, truncated at ``order``.

    The shared core of word, Lie and cyclic-trace series: subclasses decide
    which shapes exist through ``_check_shape``, what a key denotes (a word,
    a Lyndon bracketing, a cyclic class) through ``_check_key``, and how it
    prints through ``_name``; every public constructor applies both checks.
    The coefficients live in one slot, ``_pair``: integer numerators by key
    over one positive denominator, in lowest terms (``_normal``).  Two series
    compare equal when they have the same type and arity and agree
    coefficientwise up to the smaller of the two truncation orders; binary
    operations truncate to the smaller order.
    """

    __slots__ = ("arity", "order", "_pair")
    _key_kind = "word"
    _tag: tuple[str, str] | None = None  # (key, value) written after "order" in JSON
    _tag_required = True

    def __init__(self, arity: int, order: int, terms=None):
        self._check_shape(arity, order)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "order", order)
        pair = _pair_of({bytes(w): Fraction(c) for w, c in (terms or {}).items()})
        for w in pair[0]:
            self._check_key(w)
        object.__setattr__(self, "_pair", pair)

    def _check_key(self, w: bytes):
        if len(w) > self.order:
            raise ValueError(f"{self._key_kind} {_word_name(w)} exceeds order {self.order}")
        if any(letter >= self.arity for letter in w):
            raise ValueError(
                f"{self._key_kind} {_word_name(w)} uses letters beyond arity {self.arity}")

    @classmethod
    def _check_shape(cls, arity: int, order: int):
        """The shape rule of the constructor and of every named constructor."""
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if order < 0:
            raise ValueError("order must be >= 0")

    def __reduce__(self):
        # pickle and copy rebuild the pair through _make, which never sets a memo slot
        return type(self)._make, (self.arity, self.order, *self._pair)

    @classmethod
    def _make(cls, arity, order, ints, d=1):
        """Trusted constructor from numerators over d: lowest terms, no key validation."""
        self = object.__new__(cls)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_pair", _normal(ints, d))
        return self

    @classmethod
    def zero(cls, arity, order):
        cls._check_shape(arity, order)
        return cls._make(arity, order, {})

    @classmethod
    def from_word(cls, arity, order, w: bytes, coeff: Rational = 1):
        """coeff times the one key w, refused as the constructor refuses it."""
        cls._check_shape(arity, order)
        coeff = Fraction(coeff)
        series = cls._make(arity, order, {bytes(w): coeff.numerator}, coeff.denominator)
        for key in series._pair[0]:
            series._check_key(key)
        return series

    @classmethod
    def letter(cls, arity, index, order):
        """The length-1 word x_index as a series."""
        cls._check_shape(arity, order)
        if not 0 <= index < arity:
            raise ValueError(f"letter {index} out of range for arity {arity}")
        return cls.from_word(arity, order, bytes([index]))

    @property
    def terms(self):
        return MappingProxyType(_fractions(self._pair))

    def coefficient(self, w: bytes) -> Fraction:
        ints, d = self._pair
        return Fraction(ints.get(bytes(w), 0), d)

    def is_zero(self) -> bool:
        return not self._pair[0]

    def sorted_items(self):
        """Terms sorted by (degree, word); the canonical iteration order."""
        ints, d = self._pair
        return [(w, Fraction(ints[w], d)) for w in _canonical(ints)]

    def _termwise(self, f, order: int | None = None, over: int = 1):
        """f, a map of numerator dicts, applied to the numerators, whose denominator is
        multiplied by ``over``; truncated at ``order``, by default self's."""
        order = self.order if order is None else order
        return type(self)._make(self.arity, order, f(self._pair[0]), self._pair[1] * over)

    def homogeneous_part(self, degree: int):
        return self._termwise(lambda ints: {w: n for w, n in ints.items() if len(w) == degree})

    def truncated(self, order: int):
        if order >= self.order:
            return self
        return self._termwise(lambda ints: {w: n for w, n in ints.items() if len(w) <= order},
                              order)

    def with_arity(self, arity: int):
        """The same series viewed over a larger alphabet."""
        if arity < self.arity:
            raise ValueError("cannot shrink arity")
        return type(self)._make(arity, self.order, *self._pair)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        n = min(self.order, other.order)  # lowest terms are unique: compare the pairs
        return self.arity == other.arity and self.truncated(n)._pair == other.truncated(n)._pair

    __hash__ = None

    def __add__(self, other):
        self._check_compatible(other)
        order = min(self.order, other.order)
        (a, da), (b, db) = self._pair, other._pair
        d = math.lcm(da, db)
        ka, kb = d // da, d // db
        out = {w: n * ka for w, n in a.items() if len(w) <= order}
        for w, n in b.items():
            if len(w) <= order:
                out[w] = out.get(w, 0) + n * kb
        return type(self)._make(self.arity, order, out, d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._termwise(lambda ints: {w: -n for w, n in ints.items()})

    def __mul__(self, scalar: Rational):
        scalar = Fraction(scalar)
        return self._termwise(lambda ints: {w: scalar.numerator * n for w, n in ints.items()},
                              over=scalar.denominator)

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
        ints, d = self._pair
        if not ints:
            return "0"
        parts = []
        for w in _canonical(ints):
            p, q = _ratio(ints[w], d)
            c = f"{p}" if q == 1 else f"{p}/{q}"
            name = self._name(w)
            parts.append(c if name is None else {"1": name, "-1": f"-{name}"}.get(c, f"{c}*{name}"))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"{type(self).__name__}(arity={self.arity}, order={self.order}, {self})"

    def to_json_dict(self) -> dict:
        data = {"arity": self.arity, "order": self.order}
        if self._tag is not None:
            data[self._tag[0]] = self._tag[1]
        ints, d = self._pair
        data["terms"] = [{"word": word_to_str(w), "coeff": "%d/%d" % _ratio(ints[w], d)}
                         for w in _canonical(ints)]
        return data

    def _json_text(self, pad: str = "") -> str:
        """``json.dumps(self.to_json_dict(), indent=2)`` written at indent ``pad``.

        The text is formatted from the pair, one fixed template per term, and no
        per-term dict is built: a word is letters a-z, a coefficient is '-0-9/'
        and the tag is a plain name, so nothing needs a JSON escape.  A letter
        beyond 'z' is refused once for the series, with ``word_to_str``'s message.
        """
        ints, d = self._pair
        if max(b"".join(ints), default=0) >= len(_ALPHABET):
            raise ValueError(_BEYOND_Z)
        p2, p4, p6 = pad + "  ", pad + "    ", pad + "      "
        head = f'{{\n{p2}"arity": {self.arity},\n{p2}"order": {self.order},\n{p2}'
        if self._tag is not None:
            head += '"%s": "%s",\n%s' % (*self._tag, p2)
        if not ints:
            return f'{head}"terms": []\n{pad}}}'
        item = "{\n" + p6 + '"word": "%s",\n' + p6 + '"coeff": "%d/%d"\n' + p4 + "}"
        terms = (",\n" + p4).join([item % (w.translate(_LETTERS).decode("ascii"), n // g, d // g)
                                   for w in _canonical(ints)
                                   for n in (ints[w],) for g in (math.gcd(n, d),)])
        return f'{head}"terms": [\n{p4}{terms}\n{p2}]\n{pad}}}'

    @classmethod
    def from_json_dict(cls, data: dict):
        """Inverse of ``to_json_dict``; any malformed input raises ValueError."""
        name = cls.__name__
        _check_json_object(data, name, ("arity", "order", "terms"))
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
        terms = {}
        for t in raw:
            w = word_from_str(t["word"])
            if w in terms:  # a dict would keep the last coefficient silently
                raise ValueError(f"{name} JSON lists {cls._key_kind} {_word_name(w)} twice")
            terms[w] = parse_rational(t["coeff"])
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
        return cls.from_word(arity, order, b"")

    @property
    def constant_term(self) -> Fraction:
        return _SparseSeries.coefficient(self, b"")

    def __mul__(self, other):
        if isinstance(other, AssocSeries):
            return mul(self, other)
        return _SparseSeries.__mul__(self, other)


def _common_denominator(pairs) -> tuple[list[dict[bytes, int]], int]:
    """The numerators of several pairs over d, the lcm of their denominators, and d."""
    pairs = list(pairs)
    d = math.lcm(*(di for _, di in pairs))
    return [ints if di == d else {w: n * (d // di) for w, n in ints.items()}
            for ints, di in pairs], d


def _linear_sum(parts) -> tuple[dict[bytes, int], int]:
    """sum of k * ints / d over (k, ints, d) parts, k an integer, over the lcm of the d."""
    parts = list(parts)
    d = math.lcm(*(di for _, _, di in parts))
    out: dict[bytes, int] = {}
    for k, ints, di in parts:
        k *= d // di
        for w, n in ints.items():
            out[w] = out.get(w, 0) + k * n
    return {w: n for w, n in out.items() if n}, d


def _by_length(terms: dict) -> dict[int, list]:
    """The items of a word map grouped by word length, so whole lengths can be skipped."""
    buckets: dict[int, list] = {}
    for w, c in terms.items():
        buckets.setdefault(len(w), []).append((w, c))
    return buckets


def _mul_into(out: dict, left: dict, right: dict, room: int):
    """Add the products of the words of two integer maps, through length ``room``, into out."""
    buckets = _by_length(right)
    for u, a in left.items():
        fit = room - len(u)
        if fit < 0:
            continue
        for length, items in buckets.items():
            if length <= fit:
                for v, b in items:
                    w = u + v
                    out[w] = out.get(w, 0) + a * b


def mul(a: AssocSeries, b: AssocSeries) -> AssocSeries:
    """Concatenation product, truncated at min(a.order, b.order).

    The products of numerators are summed in integers over the product of
    the two operands' denominators.
    """
    a._check_compatible(b)
    order = min(a.order, b.order)
    (na, da), (nb, db) = a._pair, b._pair
    out: dict[bytes, int] = {}
    _mul_into(out, na, nb, order)
    return type(a)._make(a.arity, order, out, da * db)


def _horner(terms: dict, leaf, step, room: int) -> dict:
    """sum of t_w act_{w_0} act_{w_1} ... act_{w_last} leaf over the words w of an integer map.

    Horner's scheme over first letters: words sharing a first letter share
    that outermost action, and every action adds at least one letter, so the
    words after it get one letter less room and words longer than ``room``
    are dropped.  ``leaf(t, room)`` is a fresh map, t times the innermost
    operand through ``room``; ``step(out, i, inner, room)`` adds the action
    of letter i on the inner sum into out, through ``room``.  Zeros are dropped.
    """
    out: dict[bytes, int] = {}
    by_first: dict[int, dict[bytes, int]] = {}
    for w, t in terms.items():
        if len(w) > room:
            continue
        if w:
            by_first.setdefault(w[0], {})[w[1:]] = t
        else:
            out = leaf(t, room)
    for i, rest in by_first.items():
        step(out, i, _horner(rest, leaf, step, room - 1), room)
    return {w: n for w, n in out.items() if n}


def substitute_words(terms, images, order: int) -> dict[bytes, Fraction]:
    """sum_w c_w images[w_0] images[w_1] ... for rational word maps, through ``order``.

    The homomorphism sending letter i to ``images[i]``, none with a constant
    term, applied to ``terms``: ``_substitute_ints`` on the maps' pairs.
    """
    return _fractions(_substitute_ints(_pair_of(terms), [_pair_of(i) for i in images], order))


def _substitute_ints(terms, images, order: int):
    """``substitute_words`` on pairs: the result's pair, in lowest terms.

    No image has a constant term, so a word w only reaches degrees >= |w|
    and the truncation is exact.  Horner's scheme over first letters sums in
    integers: with the images over one denominator D and the terms over T,
    the numerator of c_w is scaled by D^(order-|w|), so every product lies
    over T * D^order.  ``terms`` may be a list of pairs that share the
    images; the result is then the list of their results, from one Horner
    pass over integers that hold every map's numerator at a stride of K bits
    (Kronecker substitution).  With d = D and S the largest sum of one
    image's |numerators|, an output numerator is at most sum |n| *
    max(d, S)^order; K is the bit length of that bound plus a sign bit, so
    the packed sums split back by symmetric residues (``_unpack``).
    """
    if any(b"" in ints for ints, _ in images):
        raise ValueError("substituted images must have zero constant term")
    scaled, d = _common_denominator(images)
    several = isinstance(terms, list)
    maps = [({w: n for w, n in ints.items() if len(w) <= order}, t)
            for ints, t in (terms if several else [terms])]
    if len(maps) == 1:
        numerators = maps[0][0]
    else:
        bound = max(sum(map(abs, nums.values())) for nums, _ in maps) * max(
            [d, *(sum(map(abs, image.values())) for image in scaled)]) ** order
        stride = bound.bit_length() + 1
        numerators = {}
        for k, (nums, _) in enumerate(maps):
            for w, n in nums.items():
                numerators[w] = numerators.get(w, 0) + (n << stride * k)
    # the leaf is the empty word, and letter i's step multiplies by images[i] on the left
    sums = _horner({w: n * d ** (order - len(w)) for w, n in numerators.items()},
                   lambda t, room: {b"": t},
                   lambda out, i, inner, room: _mul_into(out, scaled[i], inner, room), order)
    sums = [sums] if len(maps) == 1 else _unpack(sums, stride, len(maps))
    out = [_normal(ints, t * d ** order) for ints, (_, t) in zip(sums, maps)]
    return out if several else out[0]


def _unpack(packed: dict, stride: int, count: int) -> list[dict[bytes, int]]:
    """The ``count`` integer maps whose numerators sum to ``packed`` at ``stride`` bits each.

    Each digit is read as the symmetric residue in [-2^(stride-1), 2^(stride-1)),
    so every numerator must lie in that range; zeros are dropped.
    """
    half, mask = 1 << (stride - 1), (1 << stride) - 1
    out: list[dict[bytes, int]] = [{} for _ in range(count)]
    for w, p in packed.items():
        for part in out[:-1]:
            r = p & mask
            if r >= half:
                r -= mask + 1
            if r:
                part[w] = r
            p = (p - r) >> stride
        if p:
            out[-1][w] = p
    return out


_ONE_LETTER = "a univariate series has one letter: arity 1 and words of letter 0"


class RationalUnivariateSeries(AssocSeries):
    """Truncated power series in one variable t with exact rational coefficients.

    The word series over one letter, t^k being the word of k letters; the
    constructor, ``coeffs``, ``coefficient`` and the JSON form use exponents.
    """

    __slots__ = ()

    def __init__(self, order: int, coeffs=None):  # coeffs: a dict or a list keyed by exponent
        self._check_shape(1, order)
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs or ())
        terms = {}
        for k, c in items:
            if k < 0 or (k > order and Fraction(c)):
                raise ValueError(f"exponent {k} outside [0, {order}]")
            terms[b"\x00" * k] = c
        super().__init__(1, order, terms)

    @classmethod
    def _check_shape(cls, arity: int, order: int):
        """The word series' checks first, then any arity but 1 refused."""
        super()._check_shape(arity, order)
        if arity != 1:
            raise ValueError(_ONE_LETTER)

    def with_arity(self, arity: int):
        """Itself over one letter; over more letters a plain word series in letter 0."""
        if arity == 1:
            return self
        return AssocSeries._make(1, self.order, *self._pair).with_arity(arity)

    @property
    def coeffs(self):
        """The nonzero coefficients keyed by exponent, in ascending order."""
        return MappingProxyType({len(w): c for w, c in self.sorted_items()})

    def coefficient(self, k: int) -> Fraction:
        return super().coefficient(b"\x00" * k) if k >= 0 else Fraction(0)

    def inverse(self) -> "RationalUnivariateSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With c the constant term and v = 1 - a/c, 1/a = (1/c) sum_k v^k: the
        geometric series substituted into v.
        """
        c = self.constant_term
        if not c:
            raise ValueError("series with zero constant term has no inverse")
        geometric = RationalUnivariateSeries(self.order, [1] * (self.order + 1))
        return univariate_substitute(geometric, self.unit(1, self.order) - self * (1 / c)) * (1 / c)

    def shifted_down(self, k: int = 1) -> "RationalUnivariateSeries":
        """Exact division by t^k, k <= order; the low coefficients must vanish."""
        for j in range(k):
            if b"\x00" * j in self._pair[0]:
                raise ValueError(f"coefficient of t^{j} is nonzero; cannot divide by t^{k}")
        if k > self.order:
            raise ValueError(f"cannot divide a series of order {self.order} by t^{k}")
        return self._termwise(lambda ints: {b"\x00" * (len(w) - k): n for w, n in ints.items()},
                              self.order - k)

    def derivative(self) -> "RationalUnivariateSeries":
        return self._termwise(lambda ints: {w[1:]: len(w) * n for w, n in ints.items() if w},
                              max(self.order - 1, 0))

    def odd_part(self) -> "RationalUnivariateSeries":
        return self._termwise(lambda ints: {w: n for w, n in ints.items() if len(w) % 2})

    def _name(self, w: bytes) -> str | None:
        return f"t^{len(w)}" if w else None

    def to_json_dict(self) -> dict:
        ints, d = self._pair
        return {"order": self.order,
                "coeffs": ["%d/%d" % _ratio(ints.get(b"\x00" * k, 0), d)
                           for k in range(self.order + 1)]}

    def _json_text(self, pad: str = "") -> str:
        """``json.dumps(self.to_json_dict(), indent=2)`` at indent ``pad``: the exponent layout."""
        ints, d = self._pair
        p2, p4 = pad + "  ", pad + "    "
        coeffs = (",\n" + p4).join(['"%d/%d"' % _ratio(ints.get(b"\x00" * k, 0), d)
                                    for k in range(self.order + 1)])  # order >= 0: never empty
        return f'{{\n{p2}"order": {self.order},\n{p2}"coeffs": [\n{p4}{coeffs}\n{p2}]\n{pad}}}'

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalUnivariateSeries":
        """Inverse of ``to_json_dict``; any malformed input raises ValueError."""
        name = cls.__name__
        _check_json_object(data, name)
        if type(data.get("order")) is not int:
            raise ValueError(f"{name} JSON 'order' must be an integer")
        coeffs = data.get("coeffs")
        if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
            raise ValueError(f"{name} JSON 'coeffs' must be a list of strings")
        return cls(data["order"], [parse_rational(c) for c in coeffs])


def univariate_substitute(phi: RationalUnivariateSeries, a: AssocSeries) -> AssocSeries:
    """phi(a) = sum of phi_k a^k for a word series with zero constant term.

    phi's words are the powers of its one letter, so phi(a) is ``_substitute_ints``
    with that letter's image a, Horner's scheme in integers; ``exp`` and ``log``
    substitute their coefficient series.  The result has the type of ``a``.
    """
    if a.constant_term:
        raise ValueError("substitution into a univariate series needs zero constant term")
    if phi.order < a.order:
        raise ValueError("univariate series truncated below the word-series order")
    return type(a)._make(a.arity, a.order, *_substitute_ints(phi._pair, [a._pair], a.order))


def exp(a: AssocSeries) -> AssocSeries:
    """Truncated exponential, sum of a^k/k!; requires zero constant term."""
    top = math.factorial(a.order)  # 1/k! = (order!/k!) / order!
    return univariate_substitute(RationalUnivariateSeries._make(
        1, a.order, {b"\x00" * k: top // math.factorial(k) for k in range(a.order + 1)}, top), a)


def log(a: AssocSeries) -> AssocSeries:
    """Truncated logarithm, sum of (-1)^(k+1) u^k/k for u = a - 1; requires constant term 1."""
    if a.constant_term != 1:
        raise ValueError("log requires a series with constant term 1")
    top = math.lcm(*range(1, a.order + 1))  # 1/k = (top/k) / top
    phi = {b"\x00" * k: (-1) ** (k + 1) * (top // k) for k in range(1, a.order + 1)}
    return univariate_substitute(RationalUnivariateSeries._make(1, a.order, phi, top),
                                 a - a.unit(a.arity, a.order))


def tau(a: AssocSeries) -> AssocSeries:
    """The anti-involution: (-1)^length times word reversal, extended linearly.

    It is the unique anti-automorphism that negates every Lie element.
    """
    ints, d = a._pair
    return AssocSeries._make(
        a.arity, a.order, {w[::-1]: n if len(w) % 2 == 0 else -n for w, n in ints.items()}, d)


class _Record(_Frozen):
    """Immutable record whose fields are its ``__slots__``, in order.

    It is built from positional or keyword arguments, ``_defaults`` filling the
    fields left out, and behaves as a frozen dataclass: equality and hash over
    the tuple of fields (equal only to a record of the same class), the repr
    ``Name(field=value, ...)``, ``AttributeError`` on assignment, and pickle
    and copy through the constructor.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields, name = self.__slots__, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes at most {len(fields)} arguments, got {len(args)}")
        values = {**self._defaults, **dict(zip(fields, args))}
        for key, value in kwargs.items():
            if key not in fields or key in fields[:len(args)]:
                raise TypeError(f"{name} got an unexpected or repeated argument {key!r}")
            values[key] = value
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name} is missing {', '.join(map(repr, missing))}")
        for key in fields:
            object.__setattr__(self, key, values[key])

    def _fields(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{key}={getattr(self, key)!r}" for key in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()


class Decomposition(_Record):
    """Writing of a series as constant + sum_i (partials[i] * x_i).

    ``partials[i]`` collects the prefixes of the words ending in letter i, so
    the generator is stripped on the right.  ``reconstruct`` inverts the
    decomposition exactly through the original order.
    """

    __slots__ = ("constant", "partials", "order")
    constant: Fraction
    partials: tuple[AssocSeries, ...]
    order: int

    @property
    def arity(self) -> int:
        return len(self.partials)

    def reconstruct(self) -> AssocSeries:
        c = Fraction(self.constant)
        parts = [(1, {b"": c.numerator}, c.denominator)] + [
            (1, {w + bytes([i]): n for w, n in part._pair[0].items()}, part._pair[1])
            for i, part in enumerate(self.partials)]
        return AssocSeries._make(self.arity, self.order, *_linear_sum(parts))


def decompose(a: AssocSeries) -> Decomposition:
    """Split off the right-most letter of every word."""
    ints, d = a._pair
    partial_ints: list[dict[bytes, int]] = [{} for _ in range(a.arity)]
    for w, n in ints.items():
        if w:
            partial_ints[w[-1]][w[:-1]] = n
    sub_order = max(a.order - 1, 0)
    partials = tuple(AssocSeries._make(a.arity, sub_order, p, d) for p in partial_ints)
    return Decomposition(constant=a.constant_term, partials=partials, order=a.order)


def left_letter_mul(index: int, a: AssocSeries, order: int | None = None) -> AssocSeries:
    """x_index * a without lowering the truncation order.

    Unlike :func:`mul`, the result order defaults to a.order + 1: prefixing a
    letter determines one more degree exactly.
    """
    if order is None:
        order = a.order + 1
    prefix = bytes([index])
    ints, d = a._pair
    return AssocSeries._make(
        a.arity, order, {prefix + w: n for w, n in ints.items() if len(w) + 1 <= order}, d)


def _splice_ints(terms: dict, images: dict, order: int) -> dict[bytes, int]:
    """Leibniz splice on integer maps: c_w k_u w[:p] u w[p+1:] for each u in images[w[p]].

    Summed over the words w of ``terms`` and the positions p of the letters
    that have an image; words beyond ``order`` are dropped.
    """
    buckets = {i: _by_length(image) for i, image in images.items()}
    out: dict[bytes, int] = {}
    for w, c in terms.items():
        room = order - (len(w) - 1)
        for pos, letter in enumerate(w):
            head, tail = w[:pos], w[pos + 1:]
            for length, items in buckets.get(letter, {}).items():
                if length <= room:
                    for u, k in items:
                        v = head + u + tail
                        out[v] = out.get(v, 0) + c * k
    return out


def _splice_at(terms: dict, images: dict, targets) -> dict[bytes, int]:
    """``_splice_ints`` read at ``targets`` alone: the pull form of the Leibniz splice.

    The coefficient at a target v sums c_w k_u over every split v = head u tail
    with u in images[i] and w = head x_i tail; no other word is formed.  Each
    candidate u, a slice of v at a length some image has, is looked up in
    each letter's image in turn.  Zeros are dropped.
    """
    letters = [(bytes([i]), image) for i, image in images.items()]
    lengths = sorted({len(u) for image in images.values() for u in image})
    out: dict[bytes, int] = {}
    for v in targets:
        n, total = len(v), 0
        for pos in range(n):
            for length in lengths:
                end = pos + length
                if end > n:
                    break
                u = v[pos:end]
                for letter, image in letters:
                    k = image.get(u)
                    if k:
                        c = terms.get(v[:pos] + letter + v[end:])
                        if c:
                            total += c * k
        if total:
            out[v] = total
    return out


def substitute_letter_linear(a: AssocSeries, index: int, z: AssocSeries) -> AssocSeries:
    """Leibniz substitution derivative on the word level.

    Replaces one occurrence of letter ``index`` by ``z`` in every word of
    ``a``, summed over occurrences: the splice of the one image ``z``, on
    integer numerators over the product of the two denominators.  ``z`` may
    live over a larger alphabet; the result does too.
    """
    order = min(a.order, z.order)
    (na, da), (nz, dz) = a._pair, z._pair
    return AssocSeries._make(max(a.arity, z.arity), order,
                             _splice_ints(na, {index: nz}, order), da * dz)
