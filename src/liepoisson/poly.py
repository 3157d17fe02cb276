"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial maps monomials to nonzero rational coefficients, stored as
integer numerators over one positive denominator with no common factor, so
arithmetic and normal forms work on Python ints, divide out one gcd per
result, and equality is structural.  The module also provides
single-divisor normal forms, the package's one monomial enumerator
``monomial_keys``, an expression parser and a matching printer.

Inside the package a monomial in n variables is one int, its packed
exponent vector (Monagan and Pearce, CASC 2007): n + 1 fields of
``FIELD_BITS = 16`` bits, the exponent of x_i in field i (x_0 lowest) and
the total degree in the top field.  Integer order is then the package's
graded lexicographic order: degree, then exponents from the last variable
to the first.  (It only picks which monomials stand for a basis of a
quotient, since a normal form modulo one divisor is unique.)  Monomials
multiply by adding keys.  The top bit of each field is a guard bit, so
exponents and degrees are capped at ``EXPONENT_CAP = 2**15 - 1``: no field
of a sum of two keys carries into the next, and x^a divides x^b exactly
when ``b - a`` has no guard bit set (a borrow sets the guard bit of the
lowest field where a exceeds b).  Monomials come in as exponent tuples,
and the constructor and the parser refuse one past the cap; ``terms``,
``sorted_terms``, ``leading_term`` and the printer give tuples and
``Fraction`` coefficients.  ``num`` and ``from_numerators`` use keys.

Normal forms modulo d = lc * x^lm + tail are linear, so a ``Reducer``
memoizes that of every reducible monomial it meets.  For m = u + lm,

    nf(x^m) = sum over tail terms c * x^t of -(c / lc) * nf(x^(u + t)),

where nf(x^w) = x^w unless lm divides w.  Each x^(u + t) is smaller than
x^m, so the recursion ends; it runs on an explicit stack.
"""

from __future__ import annotations

import re
import struct
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

Monomial = tuple[int, ...]

FIELD_BITS = 16
EXPONENT_CAP = (1 << FIELD_BITS - 1) - 1
FIELD_MASK = (1 << FIELD_BITS) - 1

_SCALAR_TYPES = (int, Fraction)


def pack(m: Monomial) -> int:
    """The key of the exponent tuple ``m``.  Raises ValueError on a negative
    exponent, and on a degree past EXPONENT_CAP, which bounds every exponent."""
    if min(m, default=0) < 0:
        raise ValueError(f"negative exponent in monomial {tuple(m)}")
    key = sum(m)
    if key > EXPONENT_CAP:
        raise ValueError(f"a monomial of degree {key} exceeds the exponent and degree cap {EXPONENT_CAP}")
    for e in reversed(m):
        key = key << FIELD_BITS | e
    return key


def unpack(key: int, nvars: int) -> Monomial:
    """The exponent tuple of the key of a monomial in ``nvars`` variables."""
    return struct.unpack_from(f"<{nvars}H", key.to_bytes(2 * nvars + 2, "little"))  # the 16-bit fields, x_0's first


class Polynomial:
    """A sparse polynomial in ``nvars`` variables over the rationals.

    The coefficients are integer numerators ``num`` (monomial key to
    nonzero int) over one denominator ``den``, kept canonical: ``den > 0``
    and ``gcd(den, *num.values()) == 1``, so the zero polynomial is ``{}``
    over 1 and equality is structural.  ``terms`` renders the coefficients
    as ``Fraction`` values, keyed by exponent tuples, in a new dict;
    changing that dict leaves the polynomial unchanged.
    """

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Fraction | int] | None = None):
        self.nvars = nvars
        clean: dict[int, Fraction] = {}
        for m, c in (terms or {}).items():
            if len(m) != nvars:
                raise ValueError(f"monomial {m} does not have {nvars} exponents")
            key, c = pack(m), c if type(c) is Fraction else Fraction(c)
            if c:
                clean[key] = c
        # each c is in lowest terms, so the numerators over the lcm share no factor with it
        self.den = lcm(*(c.denominator for c in clean.values()))
        self.num = {m: c.numerator * (self.den // c.denominator) for m, c in clean.items()}

    @classmethod
    def from_numerators(cls, nvars: int, num: Mapping[int, int], den: int) -> "Polynomial":
        """The polynomial with coefficients ``num[m] / den``, for monomial keys
        ``m``, integer ``num`` values and a nonzero integer ``den``: zero
        numerators are dropped, the common factor is divided out and ``den``
        made positive."""
        nonzero = {m: a for m, a in num.items() if a}
        g = gcd(den, *nonzero.values())
        if den < 0:
            g = -g
        p = cls.__new__(cls)
        p.nvars = nvars
        p.num = {m: a // g for m, a in nonzero.items()} if g != 1 else nonzero
        p.den = den // g
        return p

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The coefficients as ``Fraction`` values, in a new dict."""
        den, n = self.den, self.nvars
        return {unpack(m, n): Fraction(a, den) for m, a in self.num.items()}

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: Fraction | int) -> "Polynomial":
        value = Fraction(value)
        return cls.from_numerators(nvars, {0: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        return cls.from_numerators(nvars, {1 << FIELD_BITS * index | 1 << FIELD_BITS * nvars: 1}, 1)

    @classmethod
    def monomial(cls, nvars: int, m: Monomial, coeff: Fraction | int = 1) -> "Polynomial":
        return cls(nvars, {m: Fraction(coeff)})

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, _SCALAR_TYPES):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.den == other.den and self.num == other.num

    __hash__ = None  # mutable term map; polynomials are not hashable

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("polynomials have different variable counts")
            return other
        if isinstance(other, _SCALAR_TYPES):
            return Polynomial.constant(self.nvars, other)
        return None

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """``self + sign * other`` over the lcm of the two denominators."""
        da, db = self.den, other.den
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        acc = {m: a * sa for m, a in self.num.items()}
        get = acc.get
        for m, b in other.num.items():
            acc[m] = get(m, 0) + b * sb
        return Polynomial.from_numerators(self.nvars, acc, den)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p.nvars = self.nvars
        p.num = {m: -a for m, a in self.num.items()}
        p.den = self.den
        return p

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._plus(self, -1)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, _SCALAR_TYPES):
            c = Fraction(other)
            n = c.numerator
            num = {m: a * n for m, a in self.num.items()}
            return Polynomial.from_numerators(self.nvars, num, self.den * c.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = add_product({}, self.num, other.num)
        check_degree(acc, self.nvars, "product")
        return Polynomial.from_numerators(self.nvars, acc, self.den * other.den)

    __rmul__ = __mul__

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial.  The largest key has it."""
        if not self.num:
            return -1
        return max(self.num) >> FIELD_BITS * self.nvars

    def is_homogeneous(self) -> bool:
        shift = FIELD_BITS * self.nvars
        return len({m >> shift for m in self.num}) <= 1

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get(0, 0), self.den)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending monomial order (canonical enumeration)."""
        return [(unpack(m, self.nvars), Fraction(self.num[m], self.den)) for m in sorted(self.num, reverse=True)]

    def leading_term(self) -> tuple[Monomial, Fraction]:
        if not self.num:
            raise ValueError("the zero polynomial has no leading term")
        m = max(self.num)
        return unpack(m, self.nvars), Fraction(self.num[m], self.den)

    def __repr__(self) -> str:
        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"Polynomial({format_polynomial(self, names)!r})"


def add_product(acc: dict[int, int], f: Mapping[int, int], g: Mapping[int, int], s: int = 1) -> dict[int, int]:
    """Add ``s`` times the product of the numerators ``f`` and ``g``, keyed by
    monomial, into ``acc`` and return it: the package's one product loop."""
    get, g_terms = acc.get, g.items()
    for ma, ca in f.items():
        ca *= s
        for mb, cb in g_terms:
            m = ma + mb
            acc[m] = get(m, 0) + ca * cb
    return acc


def check_degree(acc: Mapping[int, int], nvars: int, what: str) -> None:
    """Raise ValueError if a key of ``acc``, a sum of products or brackets of
    polynomials within the cap, has a degree past EXPONENT_CAP."""
    # the fields of a sum of two keys do not carry, so the top field of the largest key is its degree
    if acc and (degree := max(acc) >> FIELD_BITS * nvars) > EXPONENT_CAP:
        raise ValueError(f"a {what} of degree {degree} exceeds the cap {EXPONENT_CAP}")


def _combine(parts) -> tuple[dict[int, int], int]:
    """Sum of ``n * num / d`` over ``parts`` as numerators over ``scale``, the lcm of the d."""
    scale = lcm(*(d for _, (_, d) in parts))
    acc: dict[int, int] = {}
    get = acc.get
    for n, (num, d) in parts:
        s = n * (scale // d)
        for w, a in num.items():
            acc[w] = get(w, 0) + s * a
    return acc, scale


class Reducer:
    """Normal forms modulo one nonzero divisor, memoized per monomial.

    The memo maps each reducible monomial key met so far to its normal
    form, kept as integer numerators over one denominator.  It only grows,
    and results do not depend on which polynomials were reduced before.
    """

    def __init__(self, divisor: Polynomial):
        if not divisor:
            raise ValueError("cannot reduce modulo the zero polynomial")
        self.nvars = divisor.nvars
        self._lm = lm = max(divisor.num)
        self._guards = sum(1 << FIELD_BITS * i + FIELD_BITS - 1 for i in range(self.nvars + 1))
        # x^lm = sum over the tail of -(c_t / c_lm) x^t, as numerators over
        # self._den = c_lm; a negative one is made positive in each result
        self._tail = {t: -c for t, c in divisor.num.items() if t != lm}
        self._den = divisor.num[lm]
        self._memo: dict[int, tuple[dict[int, int], int]] = {}

    def divisible(self, m: int) -> bool:
        """Whether the leading monomial divides the monomial of key ``m``."""
        return not (m - self._lm) & self._guards

    def _monomial_nf(self, m: int) -> tuple[dict[int, int], int]:
        memo, lm, guards = self._memo, self._lm, self._guards
        stack = [m]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            u = top - lm
            children = [(u + t, n) for t, n in self._tail.items()]
            missing = [w for w, _ in children if w not in memo and not (w - lm) & guards]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            # every reducible child is in the memo now; the others are normal
            acc, scale = _combine([(n, memo[w] if w in memo else ({w: 1}, 1)) for w, n in children])
            den = self._den * scale
            g = gcd(den, *acc.values())
            memo[top] = ({w: a // g for w, a in acc.items() if a}, den // g)
        return memo[m]

    def reduce(self, f: Polynomial) -> Polynomial:
        """The unique remainder of ``f``: no monomial is divisible by the leading one."""
        if f.nvars != self.nvars:
            raise ValueError("polynomials have different variable counts")
        return self.reduce_numerators(f.num, f.den)

    def reduce_numerators(self, num: Mapping[int, int], den: int) -> Polynomial:
        """The canonical remainder of the numerators ``num`` over ``den``, as
        ``Polynomial.from_numerators`` takes them."""
        acc, scale = self.remainder(num)
        return Polynomial.from_numerators(self.nvars, acc, den * scale)

    def remainder(self, num: Mapping[int, int]) -> tuple[Mapping[int, int], int]:
        """The remainder of the numerators ``num``, keyed by monomial with zeros
        allowed, as ``(acc, scale)``: it is ``acc / scale``, for a positive
        scale, and ``(num, 1)`` if no monomial of ``num`` is reducible."""
        lm, guards, memo = self._lm, self._guards, self._memo
        reducible = [m for m, a in num.items() if a and not (m - lm) & guards]
        if not reducible:
            return num, 1
        forms = [memo[m] if m in memo else self._monomial_nf(m) for m in reducible]
        # a memo denominator is negative when the leading coefficient is; lcm is not
        scale = lcm(*(d for _, d in forms))
        acc = {m: a * scale for m, a in num.items()} if scale != 1 else dict(num)
        get = acc.get
        for m, (nf, d) in zip(reducible, forms):
            del acc[m]
            s = num[m] * (scale // d)
            for w, b in nf.items():  # normal monomials, so none is a reducible key still in acc
                acc[w] = get(w, 0) + s * b
        return acc, scale


def monomial_keys(nvars: int, degree: int) -> list[int]:
    """Keys of the degree-``degree`` monomials in ``nvars`` variables,
    descending, or ValueError on a degree outside 0..EXPONENT_CAP.  The
    degree starts in x_0's field; for each variable from the last to x_1, a
    key with r units there is followed by those moving r, ..., 0 to it."""
    if not 0 <= degree <= EXPONENT_CAP:
        raise ValueError(f"a degree of {degree} is outside 0..{EXPONENT_CAP}")
    keys = [degree << FIELD_BITS * nvars | degree] if nvars or not degree else []  # no variable: the constant only
    for i in range(nvars - 1, 0, -1):
        step = (1 << FIELD_BITS * i) - 1  # one unit from x_0's field to x_i's
        keys = [  # a key with no unit left in x_0's field is complete
            j for k in keys for j in (range(k + (k & FIELD_MASK) * step, k - 1, -step) if k & FIELD_MASK else (k,))
        ]
    return keys


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """The exponent tuples of ``monomial_keys``, in its order: the last
    exponent runs down from ``degree``, then the one before it, and so on."""
    return [unpack(k, nvars) for k in monomial_keys(nvars, degree)]


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# An integer (a run of decimal digits), a word, or any other non-space
# character; a word that starts with a letter or '_' is a name.
_TOKEN = re.compile(r"\d+|\w+|\S")


def is_name(text: str) -> bool:
    """Whether ``text`` reads as one variable name of the grammar below."""
    return (text[:1].isalpha() or text[:1] == "_") and _TOKEN.fullmatch(text) is not None


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """Parse polynomial text over the given variable names.

    poly   := [sign] term (sign term)*
    term   := factor ('*' factor)*
    factor := integer ['/' integer] | name ['^' integer]

    An integer is a run of decimal digits, and a name is a letter or '_'
    followed by letters, digits or '_'.  Whitespace between tokens is
    insignificant; exponents are non-negative integers, and a term's degree
    is at most EXPONENT_CAP.  Malformed text raises PolynomialSyntaxError at
    the offending position.
    """
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    index = {name: i for i, name in enumerate(names)}
    # (position, token) pairs; the empty token marks the end of the text.
    tokens = [(m.start(), m.group()) for m in _TOKEN.finditer(text)] + [(len(text), "")]
    if tokens[0][1] == "":
        raise PolynomialSyntaxError("empty expression", len(text))

    def integer(k: int) -> tuple[int, int]:
        pos, tok = tokens[k]
        if not tok.isdecimal():
            raise PolynomialSyntaxError("expected an integer", pos)
        try:
            return pos, int(tok)
        except ValueError:  # more digits than Python converts to an int
            limit = sys.get_int_max_str_digits()
            raise PolynomialSyntaxError(f"integer of {len(tok)} digits exceeds the limit of {limit}", pos) from None

    nvars = len(names)
    acc: dict[Monomial, Fraction] = {}
    k = 1 if tokens[0][1] in ("+", "-") else 0
    sign = -1 if tokens[0][1] == "-" else 1
    coeff, exps = Fraction(1), [0] * nvars
    while True:
        pos, tok = tokens[k]
        if tok.isdecimal():
            num, den = integer(k)[1], 1
            if tokens[k + 1][1] == "/":
                den_pos, den = integer(k + 2)
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", den_pos)
                k += 2
            coeff *= Fraction(num, den)
        elif is_name(tok):
            if tok not in index:
                raise PolynomialSyntaxError(f"unknown variable '{tok}'", pos)
            exp = 1
            if tokens[k + 1][1] == "^":
                exp = integer(k + 2)[1]
                k += 2
            exps[index[tok]] += exp
            if sum(exps) > EXPONENT_CAP:
                raise PolynomialSyntaxError(f"degree {sum(exps)} exceeds the cap {EXPONENT_CAP}", pos)
        else:
            raise PolynomialSyntaxError("expected a number or a variable", pos)
        pos, tok = tokens[k + 1]
        k += 2
        if tok == "*":
            continue
        m = tuple(exps)
        acc[m] = acc.get(m, 0) + sign * coeff
        if tok == "":
            return Polynomial(nvars, acc)
        if tok not in ("+", "-"):
            raise PolynomialSyntaxError(f"unexpected character '{tok[0]}'", pos)
        sign = -1 if tok == "-" else 1
        coeff, exps = Fraction(1), [0] * nvars


def format_polynomial(p: Polynomial, names: Sequence[str]) -> str:
    """Render a polynomial with terms in descending graded-lex order.

    Re-parsing the output over the same names recovers the polynomial.
    """
    if len(names) != p.nvars:
        raise ValueError(f"expected {p.nvars} names, got {len(names)}")
    if not p:
        return "0"
    parts: list[str] = []
    for k, (m, c) in enumerate(p.sorted_terms()):
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, m) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if k == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
