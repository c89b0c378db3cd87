"""Exact arithmetic in the truncated Novikov ring.

Elements are finite formal sums ``c1*T^(e1) + c2*T^(e2) + ...`` with rational
coefficients and non-negative rational exponents, kept in canonical form
(strictly increasing exponents, no zero coefficients, empty sum = 0).  All
arithmetic is exact; truncation below an energy cutoff is a ring quotient.

Each exponent, coefficient and energy is an ``int`` when it is integral and
a ``Fraction`` when it is not, never a float or a bool: every number a
public constructor, ``monomial``, ``from_terms``, ``shift``, ``truncate``,
``parse`` or a spectrum takes in is validated by ``exact_rational`` and
stored in that normal form (``_rational``), and ring arithmetic on ints
gives ints, so integral data never meets ``Fraction``.  A sum or product
of ``Fraction`` values that lands on an integer may stay an integral
``Fraction``; an int and the equal ``Fraction`` compare, hash and print
alike, so which of the two holds a value never shows.  No value is ever
divided here.

Elements are frozen.  The public constructor validates canonical form;
ring results are built by a trusted constructor that skips the check,
because the operations produce canonical terms from canonical operands:
addition merges the two sorted term tuples, and multiplication by zero,
by the shared unit ``one()`` or by a monomial needs no re-sorting.
``zero()`` and ``one()`` return shared instances, and ``monomial`` returns
them for a zero coefficient and for ``1*T^0``.

Textual element grammar, accepted by :func:`parse` and emitted canonically
by ``str``::

    expr     = ["-"] term { ("+" | "-") term }
    term     = factor { "*" factor }
    factor   = rational | tpower | "(" expr ")"
    tpower   = "T" [ "^" exponent ]
    exponent = integer | "(" rational ")"
    rational = integer [ "/" positive-integer ]

Canonical output sorts terms by exponent, elides unit coefficients and the
exponent 1 (``T`` rather than ``1*T^1``), writes integer exponents as
``T^n`` and fractional ones as ``T^(p/q)``.  ``parse(str(x)) == x`` and
``str(parse(s)) == s`` on canonical strings.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .frozen import Frozen

Rational = int | Fraction

INFINITY = math.inf


class NovikovParseError(ValueError):
    """Raised on malformed element text; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def exact_rational(x: Rational) -> Rational:
    """``x`` itself if it is an ``int`` or a ``Fraction``, the one rule for
    numbers given to ``novikov`` and ``geomodel``; else ``ValueError``."""
    if x.__class__ is int or x.__class__ is Fraction:
        return x
    raise ValueError(f"{x!r} is not an int or a Fraction")


def _rational(x: Rational) -> Rational:
    """``x`` in its normal form: the ``int`` when it is integral, else the
    ``Fraction``; ``ValueError`` (from ``exact_rational``) for anything else."""
    if x.__class__ is int:
        return x
    exact_rational(x)
    return x.numerator if x.denominator == 1 else x


class NovikovElement(Frozen):
    """A finite sum of monomials ``coeff * T^exponent`` in canonical form.

    ``terms`` is a tuple of ``(exponent, coefficient)`` pairs with strictly
    increasing non-negative exponents and nonzero coefficients.  The public
    constructor validates them and stores each number in normal form;
    results the class computes itself from canonical operands are built by
    the trusted :meth:`_of`.  Equality and hash are those of ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Rational, Rational], ...]):
        terms = tuple((_rational(e), _rational(c)) for e, c in terms)
        last = None
        for exponent, coefficient in terms:
            if exponent < 0:
                raise ValueError(f"negative exponent {exponent}")
            if coefficient == 0:
                raise ValueError("zero coefficient stored")
            if last is not None and exponent <= last:
                raise ValueError("exponents not strictly increasing")
            last = exponent
        Frozen.__init__(self, terms)

    @staticmethod
    def _of(terms: tuple[tuple[Rational, Rational], ...]) -> "NovikovElement":
        """Trusted constructor for canonical terms this class computed."""
        element = object.__new__(NovikovElement)
        Frozen.__init__(element, terms)
        return element

    @staticmethod
    def zero() -> "NovikovElement":
        return _ZERO

    @staticmethod
    def one() -> "NovikovElement":
        return _ONE

    @staticmethod
    def monomial(coefficient: Rational, exponent: Rational) -> "NovikovElement":
        c, e = _rational(coefficient), _rational(exponent)
        if c == 0:
            return _ZERO
        if c == 1 and e == 0:
            return _ONE
        return NovikovElement(((e, c),))

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Rational, Rational]]) -> "NovikovElement":
        """Build from (exponent, coefficient) pairs, merging and normalizing."""
        acc: dict[Rational, Rational] = {}
        for exponent, coefficient in pairs:
            e, c = _rational(exponent), _rational(coefficient)
            acc[e] = acc.get(e, 0) + c
        return NovikovElement(
            tuple((e, c) for e, c in sorted(acc.items()) if c != 0)
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "NovikovElement") -> "NovikovElement":
        if not isinstance(other, NovikovElement):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        # Merge the two sorted term tuples, dropping sums that cancel.
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ea, eb = a[i][0], b[j][0]
            if ea < eb:
                out.append(a[i])
                i += 1
            elif eb < ea:
                out.append(b[j])
                j += 1
            else:
                c = a[i][1] + b[j][1]
                if c:
                    out.append((ea, c))
                i += 1
                j += 1
        return NovikovElement._of(tuple(out) + a[i:] + b[j:])

    def __neg__(self) -> "NovikovElement":
        return NovikovElement._of(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "NovikovElement") -> "NovikovElement":
        return self + (-other)

    def __mul__(self, other: "NovikovElement") -> "NovikovElement":
        if not isinstance(other, NovikovElement):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _ZERO
        if self is _ONE:
            return other
        if other is _ONE:
            return self
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:  # a monomial shifts and scales the other factor
            ((ea, ca),) = a
            return NovikovElement._of(tuple((ea + e, ca * c) for e, c in b))
        return NovikovElement.from_terms(
            (e1 + e2, c1 * c2) for e1, c1 in a for e2, c2 in b
        )

    def shift(self, delta: Rational) -> "NovikovElement":
        """Multiply by T^delta; delta may be negative if all exponents stay >= 0."""
        d = _rational(delta)
        terms = tuple((e + d, c) for e, c in self.terms)
        return NovikovElement(terms) if d < 0 else NovikovElement._of(terms)

    def truncate(self, cutoff: Rational) -> "NovikovElement":
        """Drop every term whose exponent is >= cutoff (strict-below kept)."""
        e_max = _rational(cutoff)
        if not self.terms or self.terms[-1][0] < e_max:
            return self
        return NovikovElement._of(tuple((e, c) for e, c in self.terms if e < e_max))

    def valuation(self):
        """Smallest exponent, or +inf for the zero element."""
        if not self.terms:
            return INFINITY
        return self.terms[0][0]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            body = _format_monomial(abs(c), e)
            if i == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"NovikovElement.parse({str(self)!r})"


def _format_rational(x: Rational) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _format_monomial(coefficient: Rational, exponent: Rational) -> str:
    if exponent == 0:
        return _format_rational(coefficient)
    if exponent == 1:
        t = "T"
    elif exponent.denominator == 1:
        t = f"T^{exponent.numerator}"
    else:
        t = f"T^({_format_rational(exponent)})"
    if coefficient == 1:
        return t
    return f"{_format_rational(coefficient)}*{t}"


_ZERO = NovikovElement(())
_ONE = NovikovElement(((0, 1),))  # before any monomial()
T = NovikovElement.monomial(1, 1)


class GappedSpectrum(Frozen):
    """A finite additively closed set of energies below a cutoff, built from
    its generators and cutoff alone.

    ``generators`` are kept sorted and each once, and ``closure`` is derived
    from them: every sum of generators (with repetition) that stays strictly
    below ``cutoff``, always including 0, in increasing order.  A cutoff or
    generator that is not positive is rejected.  Equality is that of
    the generators and the cutoff, which decide the closure.
    """

    __slots__ = ("generators", "cutoff", "closure", "_members")

    def __init__(self, generators: tuple[Rational, ...], cutoff: Rational):
        cutoff = _rational(cutoff)
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        generators = tuple(sorted({_rational(g) for g in generators}))
        for g in generators:
            if g <= 0:
                raise ValueError(f"generators must be positive, got {g}")
        reached = {0}
        frontier = [0]
        while frontier:
            base = frontier.pop()
            for g in generators:
                e = _rational(base + g)
                if e < cutoff and e not in reached:
                    reached.add(e)
                    frontier.append(e)
        Frozen.__init__(self, generators, cutoff, tuple(sorted(reached)), frozenset(reached))

    def __contains__(self, energy: Rational) -> bool:
        return _rational(energy) in self._members

    def splits(self, energy: Rational) -> list[tuple[Rational, Rational]]:
        """All ordered pairs (e1, e2) in the closure with e1 + e2 == energy."""
        e = _rational(energy)
        return [(a, e - a) for a in self.closure if (e - a) in self._members and a <= e]


def spectrum_closure(
    generators: Iterable[Rational], cutoff: Rational
) -> GappedSpectrum:
    """The spectrum that a finite set of positive energies generates below
    ``cutoff``: ``GappedSpectrum`` on any iterable of generators."""
    return GappedSpectrum(tuple(generators), cutoff)


# --- parser -----------------------------------------------------------------

_WS = " \t"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _WS:
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise NovikovParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise NovikovParseError("expected integer", start)
        return int(self.text[start:self.pos])

    def rational(self) -> Rational:
        num = self.integer()
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            den = self.integer()
            if den <= 0:
                raise NovikovParseError("denominator must be positive", start)
            return Fraction(num, den)
        return num


def parse(text: str) -> NovikovElement:
    """Parse an element expression; raises :class:`NovikovParseError`."""
    sc = _Scanner(text)
    value = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise NovikovParseError("trailing input", sc.pos)
    return value


def _parse_expr(sc: _Scanner) -> NovikovElement:
    negate = False
    if sc.peek() == "-":
        sc.pos += 1
        negate = True
    value = _parse_term(sc)
    if negate:
        value = -value
    while sc.peek() in ("+", "-"):
        op = sc.peek()
        sc.pos += 1
        rhs = _parse_term(sc)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_term(sc: _Scanner) -> NovikovElement:
    value = _parse_factor(sc)
    while sc.peek() == "*":
        sc.pos += 1
        value = value * _parse_factor(sc)
    return value


def _parse_factor(sc: _Scanner) -> NovikovElement:
    ch = sc.peek()
    if ch == "(":
        sc.pos += 1
        value = _parse_expr(sc)
        sc.expect(")")
        return value
    if ch == "T":
        sc.pos += 1
        if sc.peek() == "^":
            sc.pos += 1
            sc.skip_ws()
            start = sc.pos
            if sc.peek() == "(":
                sc.pos += 1
                exponent = sc.rational()
                sc.expect(")")
            else:
                exponent = sc.integer()
            if exponent < 0:
                raise NovikovParseError("negative exponent", start)
            return NovikovElement.monomial(1, exponent)
        return T
    if ch.isdigit() or ch == "-":
        return NovikovElement.monomial(sc.rational(), 0)
    raise NovikovParseError("expected rational, 'T' or '('", sc.pos)
