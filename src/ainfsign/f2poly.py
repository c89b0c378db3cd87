"""Zhegalkin (algebraic normal form) polynomials over GF(2), plus a small
expression DSL for mod-2 sign formulas.

An :class:`F2Poly` is a canonical XOR-set of monomials; each monomial is a
set of variable names (the empty monomial is the constant 1, the empty set
of monomials is 0).  It is stored as one ``int``: bit n says whether the
monomial at position n of its :class:`Ring` occurs, so a sum is one XOR and
a product ORs the monomials' variable masks.  Polynomials built together
share a ring, which they alone hold (a constant may have none); when two
rings meet, the polynomial of the smaller is re-encoded into the larger.
No ring is global, so bit positions never depend on earlier, unrelated
work.  Idempotence ``x*x = x`` is built into the representation, which is
sound here because every variable denotes an integer parity and
``n*n = n mod 2``.  Equivalence names a minimal counterexample in closed
form, for any number of variables.

DSL grammar (also in ``docs/sign_expr.ebnf``)::

    expr   = ["-"] term { ("+" | "-") term }
    term   = factor { "*" factor }
    factor = integer | name | "(" expr ")" | "-" factor | sum
    sum    = "Sum" "(" name "=" expr ".." expr "," expr ")"
    name   = (letter | "_") { letter | digit | "_" }

Sum bounds must elaborate to concrete integers.  Inside ``Sum(p=a..b, body)``
a bare ``p`` evaluates to the running index and a name of the form
``base_p`` elaborates to ``base_<value>``; an empty range (a > b) is 0.
Subtraction coincides with addition mod 2 but is kept distinct in the AST,
because ``eval_int`` subtracts.
"""

from __future__ import annotations

from collections.abc import Mapping

from .frozen import Frozen

_ONE = frozenset([frozenset()])  # the monomial set of the constant 1


class Ring:
    """Bit positions shared by polynomials built together: variable v (in
    order of first use) is bit v of a monomial's mask, and the constant 1
    (mask 0) has position 0.  Positions are only appended."""

    __slots__ = ("variables", "masks", "positions")

    def __init__(self):
        self.variables: dict[str, int] = {}  # name -> its number
        self.masks = [0]  # position -> monomial mask
        # key -> position, the key being the mask below 2^61 and the mask
        # plus its bit length above: an int hashes to itself mod 2^61 - 1, so
        # the masks of variables past the 61st alone would share 61 hashes
        self.positions = {0: 0}

    def encode(self, monomials) -> int:
        """The bits of the sum of ``monomials``, appending what is new."""
        variables, out = self.variables, 0
        for names in monomials:
            mask = 0
            for name in names:
                mask |= 1 << variables.setdefault(name, len(variables))
            out ^= 1 << self.position(mask)
        return out

    def position(self, mask: int) -> int:
        """The position of the monomial ``mask``, appended if it is new."""
        key = mask + mask.bit_length() if mask >> 61 else mask
        found = self.positions.get(key)
        if found is None:
            found = self.positions[key] = len(self.masks)
            self.masks.append(mask)
        return found


def _picked(bits: int, items: list) -> list:
    """The items at the positions of the set bits of ``bits``, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(items[low.bit_length() - 1])
        bits ^= low
    return out


class F2Poly:
    """Multivariate polynomial over GF(2) in algebraic normal form."""

    __slots__ = ("ring", "bits")

    def __init__(self, monomials: frozenset = frozenset(), ring: Ring | None = None,
                 bits: int | None = None):
        """The sum of ``monomials`` (sets of variable names) in ``ring``, or
        the sum that ``bits`` already encodes in it."""
        if bits is None:
            if ring is None and any(monomials):
                ring = Ring()
            bits = len(monomials) if ring is None else ring.encode(monomials)
        self.ring = ring
        self.bits = bits

    @staticmethod
    def zero() -> "F2Poly":
        return F2Poly()

    @staticmethod
    def one() -> "F2Poly":
        return F2Poly(_ONE)

    @staticmethod
    def const(n: int) -> "F2Poly":
        return F2Poly.one() if n % 2 else F2Poly.zero()

    @staticmethod
    def var(name: str, ring: Ring | None = None) -> "F2Poly":
        return F2Poly(frozenset([frozenset([name])]), ring)

    @property
    def monomials(self) -> frozenset:
        """The monomials, each the frozenset of its variables' names."""
        if self.ring is None:
            return _ONE if self.bits else frozenset()
        names = list(self.ring.variables)
        return frozenset([frozenset(_picked(mask, names))
                          for mask in _picked(self.bits, self.ring.masks)])

    def is_zero(self) -> bool:
        return not self.bits

    def variables(self) -> frozenset:
        return frozenset().union(*self.monomials)

    def _aligned(self, other: "F2Poly") -> tuple:
        """(ring, own bits, other's bits) for operands of different rings:
        the polynomial of the smaller ring is re-encoded into the larger."""
        ring, theirs = self.ring, other.ring
        if theirs is None:
            return ring, self.bits, other.bits
        if ring is None or len(ring.masks) < len(theirs.masks):
            return theirs, theirs.encode(self.monomials), other.bits
        return ring, self.bits, ring.encode(other.monomials)

    def __add__(self, other: ScalarOrPoly) -> "F2Poly":
        if isinstance(other, F2Poly):
            if other.ring is self.ring:
                return F2Poly((), self.ring, self.bits ^ other.bits)
            ring, mine, theirs = self._aligned(other)
            return F2Poly((), ring, mine ^ theirs)
        if isinstance(other, int):
            # an odd integer toggles the constant monomial
            return F2Poly((), self.ring, self.bits ^ 1) if other & 1 else self
        return NotImplemented

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __neg__(self) -> "F2Poly":
        return self

    def __mul__(self, other: ScalarOrPoly) -> "F2Poly":
        if isinstance(other, int):
            return self if other & 1 else F2Poly((), self.ring, 0)
        if not isinstance(other, F2Poly):
            return NotImplemented
        ring, mine, theirs = ((self.ring, self.bits, other.bits) if self.ring is other.ring
                              else self._aligned(other))
        if ring is None:  # two constants
            return F2Poly((), None, mine & theirs)
        positions, right = ring.positions, _picked(theirs, ring.masks)
        out = 0
        for left in _picked(mine, ring.masks):
            for mask in right:
                mask |= left  # x*x = x
                key = mask + mask.bit_length() if mask >> 61 else mask  # as in position
                out ^= 1 << (positions[key] if key in positions else ring.position(mask))
        return F2Poly((), ring, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.bits == other & 1
        if not isinstance(other, F2Poly):
            return NotImplemented
        if self.ring is other.ring:
            return self.bits == other.bits
        return self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash(self.monomials)

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """GF(2) evaluation; every variable must be assigned."""
        total = 0
        for m in self.monomials:
            prod = 1
            for v in m:
                if v not in assignment:
                    raise KeyError(f"unassigned variable {v!r}")
                prod &= assignment[v] & 1
                if not prod:
                    break
            total ^= prod
        return total

    def __str__(self) -> str:
        if not self.bits:
            return "0"
        keys = sorted(self.monomials, key=lambda m: (len(m), tuple(sorted(m))))
        return " + ".join("1" if not m else "*".join(sorted(m)) for m in keys)

    def __repr__(self) -> str:
        return f"<F2Poly {self}>"


def anf_equivalent(p: F2Poly, q: F2Poly) -> tuple[bool, dict | None]:
    """Decide p == q over GF(2); on failure return a witness assignment.

    The witness sets the fewest possible variables to 1 and, among those,
    is lexicographically smallest in the names that are set; it is the
    deterministic counterexample contract used throughout the provers.  No
    assignment is searched: if d is the least monomial degree of p + q, an
    assignment with fewer than d ones makes every monomial 0, and one with
    exactly d ones gives 1 exactly when its ones form a monomial.  So the
    witness sets the lexicographically first degree-d monomial.
    """
    diff = p + q
    if diff.is_zero():
        return True, None
    degree = min(map(len, diff.monomials))
    ones = min(tuple(sorted(m)) for m in diff.monomials if len(m) == degree)
    return False, {n: int(n in ones) for n in sorted(diff.variables())}


ScalarOrPoly = int | F2Poly


# --- sign-expression DSL -----------------------------------------------------


class _Node(Frozen):
    """A syntax-tree node: ``Frozen`` sets, compares, hashes and prints its
    fields."""

    __slots__ = ()


class IntLit(_Node):
    __slots__ = ("value",)


class Name(_Node):
    __slots__ = ("name",)


class Neg(_Node):
    __slots__ = ("operand",)


class BinOp(_Node):
    __slots__ = ("op", "left", "right")  # op: '+', '-' or '*'


class IndexedSum(_Node):
    __slots__ = ("var", "lower", "upper", "body")


SignExpr = IntLit | Name | Neg | BinOp | IndexedSum


class SignExprError(ValueError):
    """Parse or elaboration failure, with a 0-based text offset when parsing."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """Return (kind, value, position) without consuming."""
        self._skip()
        i = self.pos
        text = self.text
        if i >= len(text):
            return ("eof", "", i)
        ch = text[i]
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            return ("int", text[i:j], i)
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            return ("name", text[i:j], i)
        if text.startswith("..", i):
            return ("..", "..", i)
        if ch in "+-*()=,":
            return (ch, ch, i)
        raise SignExprError(f"unexpected character {ch!r}", i)

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise SignExprError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.pos = tok[2] + len(tok[1])
        return tok


def parse_sign_expr(text: str) -> SignExpr:
    toks = _Tokens(text)
    expr = _parse_sum_expr(toks)
    kind, value, pos = toks.peek()
    if kind != "eof":
        raise SignExprError(f"trailing input {value!r}", pos)
    return expr


def _parse_sum_expr(toks: _Tokens) -> SignExpr:
    if toks.peek()[0] == "-":
        toks.take()
        expr: SignExpr = Neg(_parse_product(toks))
    else:
        expr = _parse_product(toks)
    while toks.peek()[0] in ("+", "-"):
        op = toks.take()[0]
        expr = BinOp(op, expr, _parse_product(toks))
    return expr


def _parse_product(toks: _Tokens) -> SignExpr:
    expr = _parse_atom(toks)
    while toks.peek()[0] == "*":
        toks.take()
        expr = BinOp("*", expr, _parse_atom(toks))
    return expr


def _parse_atom(toks: _Tokens) -> SignExpr:
    kind, value, pos = toks.peek()
    if kind == "int":
        toks.take()
        return IntLit(int(value))
    if kind == "name":
        toks.take()
        if value == "Sum" and toks.peek()[0] == "(":
            toks.take("(")
            var = toks.take("name")[1]
            toks.take("=")
            lower = _parse_sum_expr(toks)
            toks.take("..")
            upper = _parse_sum_expr(toks)
            toks.take(",")
            body = _parse_sum_expr(toks)
            toks.take(")")
            return IndexedSum(var, lower, upper, body)
        return Name(value)
    if kind == "(":
        toks.take()
        expr = _parse_sum_expr(toks)
        toks.take(")")
        return expr
    if kind == "-":
        toks.take()
        return Neg(_parse_atom(toks))
    raise SignExprError(
        f"expected integer, name or '(', found {value or 'end of input'!r}", pos
    )


def _resolve_name(name: str, env: Mapping[str, int]) -> str:
    """Rewrite a trailing ``_<loopvar>`` subscript to its current value."""
    if "_" in name:
        base, _, suffix = name.rpartition("_")
        if suffix in env:
            return f"{base}_{env[suffix]}"
    return name


def to_anf(
    expr: SignExpr,
    bindings: Mapping[str, ScalarOrPoly] | None = None,
) -> F2Poly:
    """Elaborate an expression to canonical ANF.

    ``bindings`` maps names to integers (reduced mod 2) or F2Poly values;
    unbound names become variables of the result.
    """
    bindings = bindings or {}
    return _elaborate(expr, bindings, {})


def _elaborate(
    expr: SignExpr,
    bindings: Mapping[str, ScalarOrPoly],
    env: dict[str, int],
) -> F2Poly:
    if isinstance(expr, IntLit):
        return F2Poly.const(expr.value)
    if isinstance(expr, Name):
        if expr.name in env:
            return F2Poly.const(env[expr.name])
        name = _resolve_name(expr.name, env)
        if name in bindings:
            value = bindings[name]
            return value if isinstance(value, F2Poly) else F2Poly.const(value)
        return F2Poly.var(name)
    if isinstance(expr, Neg):
        return _elaborate(expr.operand, bindings, env)
    if isinstance(expr, BinOp):
        left = _elaborate(expr.left, bindings, env)
        right = _elaborate(expr.right, bindings, env)
        return left * right if expr.op == "*" else left + right
    if isinstance(expr, IndexedSum):
        lo = _int_bound(expr.lower, bindings, env)
        hi = _int_bound(expr.upper, bindings, env)
        # XOR the terms' monomials into one set: adding F2Polys term by term
        # would rebuild the growing sum at every step
        total: set = set()
        for value in range(lo, hi + 1):
            inner = dict(env)
            inner[expr.var] = value
            total.symmetric_difference_update(_elaborate(expr.body, bindings, inner).monomials)
        return F2Poly(frozenset(total))
    raise TypeError(f"not a sign expression: {expr!r}")


def _int_bound(
    expr: SignExpr, bindings: Mapping[str, ScalarOrPoly], env: dict[str, int]
) -> int:
    try:
        return eval_int(expr, {**{k: v for k, v in bindings.items() if isinstance(v, int)}, **env})
    except SignExprError as exc:
        raise SignExprError(f"sum bound is not a concrete integer: {exc}") from exc


def eval_int(expr: SignExpr, env: Mapping[str, int]) -> int:
    """Plain integer evaluation; the independent oracle for mod-2 elaboration."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Name):
        name = _resolve_name(expr.name, env)
        if name in env:
            return int(env[name])
        raise SignExprError(f"unbound variable {name!r}")
    if isinstance(expr, Neg):
        return -eval_int(expr.operand, env)
    if isinstance(expr, BinOp):
        left, right = eval_int(expr.left, env), eval_int(expr.right, env)
        return left * right if expr.op == "*" else (left + right if expr.op == "+" else left - right)
    if isinstance(expr, IndexedSum):
        lo, hi = eval_int(expr.lower, env), eval_int(expr.upper, env)
        total = 0
        for value in range(lo, hi + 1):
            inner = dict(env)
            inner[expr.var] = value
            total += eval_int(expr.body, inner)
        return total
    raise TypeError(f"not a sign expression: {expr!r}")
