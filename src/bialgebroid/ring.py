"""Exact multivariate polynomials over the rationals.

A polynomial is stored sparsely as a mapping from exponent tuples to
nonzero Fractions, relative to a fixed ordered tuple of variable names.
All arithmetic is exact; there is no floating point anywhere.

Stored coefficients are always Fractions, but the kernels make as few as
they can.  A product with a one-term factor, the common case, shifts and
scales the other factor's terms, one to one; any other product adds the
products of coefficients term by term.  Sums, products and derivatives
add or scale the stored Fractions directly, never from a Fraction(0) seed.

The text format is the one used by every file format in this package:

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | name | '(' expr ')'
    rational := int ('/' nat)?

Digits are ASCII 0-9, parentheses nest at most 100 deep, a power or a
product stays within fixed bounds on its degree, term count and
coefficient size (see _MAX_POWER_DEGREE), whitespace is insignificant
and there is no implicit multiplication, so ``x^2 - 1/2*y`` parses but
``2x`` does not.  (The
optional leading sign on an expr is a documented superset of the base
grammar; it makes printing and parsing mutual inverses.)  An integer
literal longer than Python's int digit limit (4300 by default) is a
PolynomialError, like any other malformed text.  parse_rational reads
one signed constant, ['+'|'-'] rational, in the same grammar.

The module ends with the base-geometry formulas that every other layer
uses, each written once: divergence, a vector field applied to a function,
the bracket of two fields, and polynomial matrices.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add
from typing import Dict, Iterator, Mapping, Tuple

Exponent = Tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/]))")


class PolynomialError(ValueError):
    """Raised on malformed polynomial text or mismatched variable contexts."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise PolynomialError(f"expected an int or Fraction coefficient, got {type(value).__name__}")


def _add_term(out: Dict[Exponent, Fraction], exps: Exponent, c: Fraction) -> None:
    """Add c to out[exps], dropping the key when the sum is zero."""
    s = out.get(exps)
    if s is None:
        out[exps] = c
    else:
        s += c
        if s:
            out[exps] = s
        else:
            del out[exps]


class Polynomial:
    """Sparse exact polynomial in a fixed tuple of named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Tuple[str, ...], terms: Mapping[Exponent, Fraction] | None = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PolynomialError(f"duplicate variable names in {variables!r}")
        for v in variables:
            if not _NAME_RE.fullmatch(v):
                raise PolynomialError(f"invalid variable name {v!r}")
        clean: Dict[Exponent, Fraction] = {}
        if terms:
            nvars = len(variables)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise PolynomialError(f"bad exponent tuple {exps!r} for {nvars} variables")
                c = _as_fraction(coeff)
                if c:
                    _add_term(clean, exps, c)
        self.variables = variables
        self.terms = clean

    @classmethod
    def _raw(cls, variables: Tuple[str, ...], terms: Dict[Exponent, Fraction]) -> "Polynomial":
        # trusted constructor: terms already canonical (no zeros, right arity)
        self = object.__new__(cls)
        self.variables = variables
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls._raw(tuple(variables), {})

    @classmethod
    def const(cls, variables, value) -> "Polynomial":
        variables = tuple(variables)
        c = _as_fraction(value)
        if not c:
            return cls._raw(variables, {})
        return cls._raw(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, variables, name: str) -> "Polynomial":
        variables = tuple(variables)
        try:
            i = variables.index(name)
        except ValueError:
            raise PolynomialError(f"unknown variable {name!r}; context is {variables!r}") from None
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls._raw(variables, {exps: Fraction(1)})

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (error if non-constant)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise PolynomialError(f"polynomial {self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- arithmetic ---------------------------------------------------

    def _check_context(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise PolynomialError(
                f"variable mismatch: {self.variables!r} vs {other.variables!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            _add_term(out, exps, c)
        return Polynomial._raw(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Polynomial._raw(self.variables, {})
            return Polynomial._raw(self.variables, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_context(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return Polynomial._raw(self.variables, {})
        if len(b) == 1:
            # a times one term c x^f: every x^e goes to x^(e+f), one to one
            (f, c), = b.items()
            return Polynomial._raw(self.variables,
                                   {tuple(map(add, e, f)): k * c for e, k in a.items()})
        out: Dict[Exponent, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                _add_term(out, tuple(map(add, e1, e2)), c1 * c2)
        return Polynomial._raw(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PolynomialError(f"exponent must be a nonnegative int, got {n!r}")
        out = Polynomial.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus ------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Partial derivative with respect to the named variable."""
        try:
            i = self.variables.index(name)
        except ValueError:
            raise PolynomialError(f"unknown variable {name!r}; context is {self.variables!r}") from None
        # x^e -> k x^(e - 1_i), k = e_i, is one to one on the terms it keeps
        out: Dict[Exponent, Fraction] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k:
                out[exps[:i] + (k - 1,) + exps[i + 1:]] = c if k == 1 else c * k
        return Polynomial._raw(self.variables, out)

    # -- printing and parsing ------------------------------------------

    def _sorted_terms(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("- " if coeff < 0 else "+ ") + body)
        head = pieces[0]
        head = ("-" + head[2:]) if head.startswith("- ") else head[2:]
        return " ".join([head] + pieces[1:])

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r}, vars={self.variables!r})"

    @classmethod
    def parse(cls, text: str, variables) -> "Polynomial":
        if not isinstance(text, str):
            raise PolynomialError(f"expected polynomial text, got {type(text).__name__}")
        return _Parser(text, tuple(variables)).parse()


def parse_rational(text: str) -> Fraction:
    """A signed rational constant, ['+'|'-'] int ('/' nat)?, as in polynomial
    text; anything else, a zero denominator included, is a PolynomialError."""
    return _Parser(text, ()).parse_rational()


def _int_literal(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise PolynomialError(
            f"integer literal of {len(text)} digits exceeds Python's int digit limit", pos) from None


# Deepest parenthesis nesting the parser accepts.  Each level costs four
# Python frames, so this bound keeps a parse far below the recursion limit.
_MAX_NESTING = 100

# Largest power base^n or product a*b the parser computes.  A non-constant
# result may have total degree up to _MAX_POWER_DEGREE and, by the
# multinomial count of a power or the la*lb count of a product, up to
# _MAX_POWER_TERMS terms; a power has coefficients of at most
# _MAX_POWER_BITS bits in numerator or denominator, a product of about as
# many.  A result past the degree or term bound, or one whose factors' bits
# alone pass the bit bound, is refused before any multiplication: without
# a bound, "(x1+x2+x3+1)^100000" runs for minutes, and so does a product of
# two powers within the bounds.
_MAX_POWER_DEGREE = 64
_MAX_POWER_TERMS = 2000
_MAX_POWER_BITS = 4096


def _bits(c: Fraction) -> int:
    """floor(log2) of the larger of |numerator| and denominator of c."""
    return max(abs(c.numerator), c.denominator).bit_length() - 1


def _coefficient_bits(p: Polynomial) -> int:
    """floor(log2) of the largest numerator or denominator of p, 0 for p = 0."""
    return max(map(_bits, p.terms.values()), default=0)


def _power(base: Polynomial, n: int, exponent: str, pos: int) -> Polynomial:
    """base^n, or PolynomialError at pos if it passes a _MAX_POWER_* bound.

    The total degree, the multinomial term count and n * floor(log2 m) <=
    floor(log2 m^n) bound the work before anything is multiplied; the power
    is then measured by its actual bits, as _check_product measures its
    factors.
    """
    too_large = PolynomialError(
        f"power ^{exponent} exceeds {_MAX_POWER_BITS} coefficient bits", pos)
    if n * _coefficient_bits(base) > _MAX_POWER_BITS:
        raise too_large
    if base.total_degree() * n > _MAX_POWER_DEGREE:
        raise PolynomialError(
            f"power ^{exponent} exceeds total degree {_MAX_POWER_DEGREE}", pos)
    # a base of at most one term has a power of at most one (and 0^0 would
    # make math.comb(-1, 0) raise)
    if len(base.terms) > 1 and math.comb(len(base.terms) + n - 1, n) > _MAX_POWER_TERMS:
        raise PolynomialError(
            f"power ^{exponent} of {len(base.terms)} terms may exceed "
            f"{_MAX_POWER_TERMS} terms", pos)
    power = base ** n
    if _coefficient_bits(power) > _MAX_POWER_BITS:
        raise too_large
    return power


def _check_product(a: Polynomial, b: Polynomial, pos: int) -> None:
    """Raise PolynomialError at pos if a*b passes a _MAX_POWER_* bound."""
    if _coefficient_bits(a) + _coefficient_bits(b) > _MAX_POWER_BITS:
        raise PolynomialError(f"product exceeds {_MAX_POWER_BITS} coefficient bits", pos)
    if a.total_degree() + b.total_degree() > _MAX_POWER_DEGREE:
        raise PolynomialError(f"product exceeds total degree {_MAX_POWER_DEGREE}", pos)
    if len(a.terms) * len(b.terms) > _MAX_POWER_TERMS:
        raise PolynomialError(
            f"product of {len(a.terms)} and {len(b.terms)} terms may exceed "
            f"{_MAX_POWER_TERMS} terms", pos)


class _Parser:
    """Recursive-descent parser for the polynomial grammar above."""

    def __init__(self, text: str, variables: Tuple[str, ...]):
        self.text = text
        self.variables = variables
        self.depth = 0
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise PolynomialError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
                break
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("eof", "", len(self.text))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        kind, val, pos = self._next()
        if kind != "op" or val != op:
            raise PolynomialError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> Polynomial:
        result = self._expr()
        self._expect_eof()
        return result

    def parse_rational(self) -> Fraction:
        sign = self._sign()
        kind, val, pos = self._peek()
        if kind != "int":
            raise PolynomialError(f"expected a rational number, found {val or 'end of input'!r}", pos)
        value = self._base().constant_value() * sign
        self._expect_eof()
        return value

    def _expect_eof(self):
        kind, val, pos = self._peek()
        if kind != "eof":
            raise PolynomialError(f"trailing input starting with {val!r}", pos)

    def _sign(self) -> int:
        """Consume an optional leading '+' or '-'."""
        kind, val, _ = self._peek()
        if kind == "op" and val in "+-":
            self.i += 1
            return -1 if val == "-" else 1
        return 1

    def _expr(self) -> Polynomial:
        sign = self._sign()
        result = self._term() * sign
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                self.i += 1
                t = self._term()
                result = result - t if val == "-" else result + t
            else:
                return result

    def _term(self) -> Polynomial:
        result = self._factor()
        while True:
            kind, val, pos = self._peek()
            if kind == "op" and val == "*":
                self.i += 1
                factor = self._factor()
                _check_product(result, factor, pos)
                result = result * factor
            else:
                return result

    def _factor(self) -> Polynomial:
        base = self._base()
        kind, val, _ = self._peek()
        if kind == "op" and val == "^":
            self.i += 1
            kind, val, pos = self._next()
            if kind != "int":
                raise PolynomialError(f"expected an integer exponent, found {val or 'end of input'!r}", pos)
            n = _int_literal(val, pos)
            return _power(base, n, val, pos)
        return base

    def _base(self) -> Polynomial:
        kind, val, pos = self._next()
        if kind == "int":
            num = _int_literal(val, pos)
            kind2, val2, _ = self._peek()
            if kind2 == "op" and val2 == "/":
                self.i += 1
                kind3, val3, pos3 = self._next()
                if kind3 != "int":
                    raise PolynomialError(f"expected a denominator, found {val3 or 'end of input'!r}", pos3)
                den = _int_literal(val3, pos3)
                if den == 0:
                    raise PolynomialError("zero denominator", pos3)
                return Polynomial.const(self.variables, Fraction(num, den))
            return Polynomial.const(self.variables, num)
        if kind == "name":
            if val not in self.variables:
                raise PolynomialError(f"unknown variable {val!r}; context is {self.variables!r}", pos)
            return Polynomial.variable(self.variables, val)
        if kind == "op" and val == "(":
            if self.depth == _MAX_NESTING:
                raise PolynomialError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
            self.depth += 1
            inner = self._expr()
            self._expect_op(")")
            self.depth -= 1
            return inner
        raise PolynomialError(f"expected a number, variable, or '(', found {val or 'end of input'!r}", pos)


def divergence(components, variables) -> Polynomial:
    """Divergence sum_a d(Y^a)/d(x_a) of a base vector field given by components."""
    variables = tuple(variables)
    components = tuple(components)
    if len(components) != len(variables):
        raise PolynomialError(f"{len(components)} components for {len(variables)} variables")
    out = Polynomial.zero(variables)
    for comp, name in zip(components, variables):
        out = out + comp.diff(name)
    return out


def apply_field(y, f: Polynomial, variables) -> Polynomial:
    """Y f = sum_a Y^a d(f)/d(x_a) for a base vector field Y given by
    components; a zero component, or a zero derivative, costs no product."""
    out = Polynomial.zero(variables)
    for comp, name in zip(y, variables):
        if comp:
            df = f.diff(name)
            if df:
                out = out + comp * df
    return out


def field_bracket(y, z, variables):
    """Commutator [Y, Z] of base vector fields given componentwise:
    [Y, Z]^b = Y(Z^b) - Z(Y^b)."""
    return tuple(apply_field(y, zb, variables) - apply_field(z, yb, variables)
                 for yb, zb in zip(y, z))


def identity_matrix(n: int, variables):
    """The n x n identity matrix of polynomials, as a list of rows."""
    one, zero = Polynomial.const(variables, 1), Polynomial.zero(variables)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matrix_product(a, b, variables):
    """The product of a p x q and a q x r polynomial matrix, as a list of p
    rows of r entries; r is read off b's rows, so q = 0 gives p empty rows."""
    zero = Polynomial.zero(variables)
    r = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [zero] * r
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y if y else s for s, y in zip(acc, b_row)]
        out.append(acc)
    return out


def first_non_skew(matrix):
    """The first (i, j), 0-based and row by row, with matrix[i][j] !=
    -matrix[j][i], or None for a skew matrix.  It always has i <= j: an
    entry below the diagonal fails only with its mirror above it, which
    comes earlier."""
    for i, row in enumerate(matrix):
        for j in range(i, len(matrix)):
            if row[j] != -matrix[j][i]:
                return i, j
    return None
