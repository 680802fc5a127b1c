"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``d`` variables is held as integer numerators over one
positive denominator.  ``numerators`` maps exponent tuples (length ``d``,
non-negative ints) to nonzero Python ints, and ``denominator`` is the least
positive integer that clears every coefficient, so it and the numerators
have no common factor and equal polynomials have equal representations.
Every exact operation (sums, products, powers, derivatives, substitution,
evaluation and division) runs in Python ints on that form, each by one
path: a scalar is a constant polynomial to every operation, and printing
reads the numerators too.

Variables are named ``x, y, z`` for ``d <= 3`` and ``x1 ... xd`` beyond, both
for parsing and printing; parsing also takes names the caller gives, and
splits text into ASCII tokens by one regular expression.  Term order
everywhere is graded lexicographic: lower total degree first, ties broken by
tuple comparison of the exponents.  A polynomial's own terms keep the order
in which its operation produced them, and float sums over its terms follow
that order.

The module imports no numpy.  Polynomials are evaluated at float points by
`quadrature.eval_floats`, in the float layer; `MonomialBasis.eval_float`,
which tabulates the monomials of a basis, imports numpy when it runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import comb, gcd, lcm, prod
from operator import index
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

Exponent = tuple[int, ...]

#: total degree reported for the zero polynomial
NEG_INF = float("-inf")

RationalLike = int | Fraction

# Polynomial forbids attribute assignment; its constructors set slots with this
_set = object.__setattr__


def _rational(value: RationalLike | str) -> RationalLike:
    """An int or Fraction as it is (both carry numerator and denominator),
    a string parsed to a Fraction."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def variable_names(dim: int) -> list[str]:
    if dim <= 3:
        return ["x", "y", "z"][:dim]
    return [f"x{i + 1}" for i in range(dim)]


def grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    return (sum(exponent), exponent)


class Polynomial:
    """Immutable sparse polynomial over the rationals, held as integer
    numerators over one positive denominator."""

    __slots__ = ("dim", "numerators", "denominator")

    def __init__(self, dim: int, terms: Mapping[Exponent, RationalLike | str]):
        """The polynomial sum of coeff * x^exponent over the mapping; zero
        coefficients are dropped."""
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        clean: dict[Exponent, RationalLike] = {}
        for exponent, coeff in terms.items():
            try:
                # index() takes Python and numpy integers and refuses 1.5,
                # which int() would truncate
                exponent = tuple(map(index, exponent))
            except TypeError:
                raise ValueError(f"non-integer exponent {exponent}") from None
            if len(exponent) != dim or any(e < 0 for e in exponent):
                raise ValueError(f"bad exponent {exponent} for dimension {dim}")
            value = _rational(coeff)
            if value:
                clean[exponent] = value
        denominator = lcm(*(c.denominator for c in clean.values()))
        _set(self, "dim", dim)
        numerators = {e: c.numerator * (denominator // c.denominator) for e, c in clean.items()}
        _set(self, "numerators", numerators)
        _set(self, "denominator", denominator)

    @classmethod
    def _new(cls, dim: int, numerators: dict[Exponent, int], denominator: int) -> Polynomial:
        """A polynomial on numerators that are already valid and reduced:
        exponent tuples of length dim and non-negative ints mapped to nonzero
        ints, over a positive denominator sharing no factor with all of
        them (1 when there are none).  For the results of arithmetic."""
        p = object.__new__(cls)
        _set(p, "dim", dim)
        _set(p, "numerators", numerators)
        _set(p, "denominator", denominator)
        return p

    @classmethod
    def _reduced(cls, dim: int, numerators: dict[Exponent, int], denominator: int) -> Polynomial:
        """`_new` after dividing valid numerators and a positive denominator
        by their common factor."""
        if denominator != 1:
            if not numerators:
                denominator = 1
            else:
                g = gcd(denominator, *numerators.values())
                if g != 1:
                    numerators = {e: n // g for e, n in numerators.items()}
                    denominator //= g
        return cls._new(dim, numerators, denominator)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dim: int) -> Polynomial:
        return cls._new(dim, {}, 1)

    @classmethod
    def constant(cls, dim: int, value: RationalLike | str) -> Polynomial:
        value = _rational(value)
        return cls._new(dim, {(0,) * dim: value.numerator} if value else {}, value.denominator)

    @classmethod
    def variable(cls, dim: int, axis: int) -> Polynomial:
        if not 0 <= axis < dim:
            raise IndexError(f"axis {axis} out of range for dimension {dim}")
        exponent = tuple(1 if i == axis else 0 for i in range(dim))
        return cls._new(dim, {exponent: 1}, 1)

    @classmethod
    def monomial(cls, dim: int, exponent: Exponent) -> Polynomial:
        return cls(dim, {tuple(exponent): 1})

    # ------------------------------------------------------------------
    # structure

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def total_degree(self) -> int | float:
        if not self.numerators:
            return NEG_INF
        return max(map(sum, self.numerators))

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self.numerators.get((0,) * self.dim, 0), self.denominator)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Largest term in graded-lex order; raises on the zero polynomial."""
        if not self.numerators:
            raise ValueError("zero polynomial has no leading term")
        exponent = max(self.numerators, key=grlex_key)
        return exponent, Fraction(self.numerators[exponent], self.denominator)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return (
                self.dim == other.dim
                and self.denominator == other.denominator
                and self.numerators == other.numerators
            )
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.dim, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.dim, self.denominator, frozenset(self.numerators.items())))

    def __bool__(self) -> bool:
        return bool(self.numerators)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
            return other
        return Polynomial.constant(self.dim, other)

    def _add(self, other: Polynomial, sign: int) -> Polynomial:
        """self + sign * other over the lcm of the two denominators: the
        terms of self in their order, then the new terms of other in theirs."""
        d1, d2 = self.denominator, other.denominator
        if d1 == d2:
            denominator = d1
            terms = dict(self.numerators)
        else:
            denominator = lcm(d1, d2)
            scale = denominator // d1
            terms = {e: n * scale for e, n in self.numerators.items()}
            sign *= denominator // d2
        for exponent, n in other.numerators.items():
            n *= sign
            value = terms.get(exponent)
            if value is None:
                terms[exponent] = n
                continue
            value += n
            if value:
                terms[exponent] = value
            else:
                del terms[exponent]
        return Polynomial._reduced(self.dim, terms, denominator)

    def __add__(self, other) -> Polynomial:
        return self._add(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        negated = {e: -n for e, n in self.numerators.items()}
        return Polynomial._new(self.dim, negated, self.denominator)

    def __sub__(self, other) -> Polynomial:
        return self._add(self._coerce(other), -1)

    def __rsub__(self, other) -> Polynomial:
        return (-self) + other

    def __mul__(self, other) -> Polynomial:
        """Exact product: integer numerators multiplied term by term, over
        the product of the two denominators.  A scalar is the constant
        polynomial, whose one term keeps self's terms in their order."""
        other = self._coerce(other)
        right = list(other.numerators.items())
        product: dict[Exponent, int] = {}
        for e1, c1 in self.numerators.items():
            for e2, c2 in right:
                key = tuple(map(int.__add__, e1, e2))
                product[key] = product.get(key, 0) + c1 * c2
        return Polynomial._reduced(
            self.dim, {e: v for e, v in product.items() if v}, self.denominator * other.denominator
        )

    __rmul__ = __mul__

    def __pow__(self, power: int) -> Polynomial:
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.dim, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def derivative(self, axis: int) -> Polynomial:
        if not 0 <= axis < self.dim:
            raise IndexError(f"axis {axis} out of range for dimension {self.dim}")
        terms: dict[Exponent, int] = {}
        for exponent, n in self.numerators.items():
            k = exponent[axis]
            if k == 0:
                continue
            terms[exponent[:axis] + (k - 1,) + exponent[axis + 1 :]] = n * k
        return Polynomial._reduced(self.dim, terms, self.denominator)

    def gradient(self) -> list[Polynomial]:
        return [self.derivative(i) for i in range(self.dim)]

    # ------------------------------------------------------------------
    # evaluation and substitution

    def __call__(self, point: Sequence[RationalLike]) -> Fraction:
        if len(point) != self.dim:
            raise ValueError(f"point length {len(point)} != dimension {self.dim}")
        point = [_rational(v) for v in point]
        denominator = lcm(*(v.denominator for v in point))
        axes = [[v.numerator * (denominator // v.denominator)] for v in point]
        numerators, scale = self.grid_values(axes, denominator)
        return Fraction(numerators[0], scale)

    def grid_values(self, axes: Sequence[Sequence[int]], denominator: int) -> tuple[list[int], int]:
        """Exact values on the tensor grid whose axis a holds the nodes
        axes[a][i] / denominator.

        The axes are integer node numerators over one positive common
        denominator D, as a `TensorGrid` holds them.  Returns integer
        numerators, one per node in ``itertools.product`` order, over one
        positive denominator.  A polynomial of total degree n with
        numerators c_e over s takes the value sum_e c_e X^e D^(n-|e|) /
        (s D^n) at the node X / D, summed in integers.  Each axis node's
        powers are computed once, and the sum is contracted one axis at a
        time, so terms that agree on the remaining axes share their partial
        sums.
        """
        if len(axes) != self.dim:
            raise ValueError(f"{len(axes)} grid axes != dimension {self.dim}")
        if not self.numerators:
            return [0] * prod(len(axis) for axis in axes), 1
        degree = self.total_degree
        # partial[rest]: over the nodes of the axes done so far, the sums of
        # the terms whose exponents on the remaining axes are `rest`
        partial = {e: [n * denominator ** (degree - sum(e))] for e, n in self.numerators.items()}
        for nodes in axes:
            powers = [[x**p for x in nodes] for p in range(max(e[0] for e in partial) + 1)]
            reduced: dict[Exponent, list[int]] = {}
            for e, sums in partial.items():
                values = [s * x for s in sums for x in powers[e[0]]]
                rest = e[1:]
                if rest in reduced:
                    reduced[rest] = [a + b for a, b in zip(reduced[rest], values)]
                else:
                    reduced[rest] = values
            partial = reduced
        return partial[()], self.denominator * denominator**degree

    def compose(self, substitution: Sequence[Polynomial]) -> Polynomial:
        """Exact composition p(s_1, ..., s_d).

        The terms of p are taken in graded-lex order, each built as its
        integer numerator n times the powers s_i ** e_i in axis order,
        summed, and the sum is divided by p's denominator once.
        """
        if len(substitution) != self.dim:
            raise ValueError("substitution length must match dimension")
        if not substitution:
            return self
        target = substitution[0].dim
        if any(s.dim != target for s in substitution):
            raise ValueError("substitution entries must share one dimension")
        result = Polynomial.zero(target)
        for exponent, n in sorted(self.numerators.items(), key=lambda item: grlex_key(item[0])):
            term = Polynomial.constant(target, n)
            for s, e in zip(substitution, exponent):
                if e:
                    term = term * s**e
            result = result + term
        return result * Fraction(1, self.denominator)

    # ------------------------------------------------------------------
    # printing

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.dim}, {format_poly(self)!r})"


@dataclass(frozen=True)
class TensorGrid:
    """Rational points on a tensor grid, the one form of many exact points.

    Axis a holds the nodes axes[a][i] / denominator, integer numerators over
    one positive denominator, as `Polynomial.grid_values` reads them, and
    nodes[k] is the k-th point's index in the ``itertools.product`` order
    of the axes, which is the order of `grid_values`' values.  The axes
    are kept whole even where no point uses a node, so a grid's points are
    always read on the axes it was built on.  As a sequence the grid is its
    points: ``len`` counts them, and iterating yields them in order as
    tuples of Fractions, each built from its node index when it is reached.
    """

    axes: list[list[int]]
    denominator: int
    nodes: list[int]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[tuple[Fraction, ...]]:
        # product order varies the last axis fastest
        backwards = self.axes[::-1]
        for node in self.nodes:
            point = []
            for axis in backwards:
                node, i = divmod(node, len(axis))
                point.append(Fraction(axis[i], self.denominator))
            yield tuple(point[::-1])


def _primitive(p: Polynomial, divisor: Polynomial) -> tuple[int, dict[Exponent, int], Exponent]:
    """The divisor's numerators as content * primitive part: (content > 0,
    the primitive part's numerators, its leading exponent)."""
    if p.dim != divisor.dim:
        raise ValueError("dimension mismatch")
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    content = gcd(*divisor.numerators.values())
    primitive = {e: n // content for e, n in divisor.numerators.items()}
    return content, primitive, max(primitive, key=grlex_key)


def _subtract(
    work: dict[Exponent, int], delta: Exponent, factor: int, primitive: dict[Exponent, int]
) -> None:
    """work -= factor * x^delta * primitive, dropping the terms that cancel."""
    for e2, c2 in primitive.items():
        key = tuple(map(int.__add__, delta, e2))
        value = work.get(key, 0) - factor * c2
        if value:
            work[key] = value
        else:
            work.pop(key, None)


def poly_divmod(p: Polynomial, divisor: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Single-divisor multivariate division under graded-lex order.

    Returns (quotient, remainder) with p = quotient * divisor + remainder and
    no remainder term divisible by the divisor's leading monomial.  For one
    divisor this representation is unique, so remainder == 0 iff divisor | p.

    The division runs in ints: p's numerators are divided by the primitive
    part of the divisor's, and when a leading coefficient is not a multiple
    of the divisor's, the work left, the quotient and the remainder so far
    are scaled by the least factor that makes it one.
    """
    content, primitive, lead_exp = _primitive(p, divisor)
    lead = primitive[lead_exp]
    work = dict(p.numerators)
    quotient: dict[Exponent, int] = {}
    remainder: dict[Exponent, int] = {}
    # scale * p.numerators == quotient * primitive + remainder + work
    scale = 1
    while work:
        exponent = max(work, key=grlex_key)
        coeff = work[exponent]
        delta = tuple(a - b for a, b in zip(exponent, lead_exp))
        if any(e < 0 for e in delta):
            remainder[exponent] = coeff
            del work[exponent]
            continue
        if coeff % lead:
            m = abs(lead) // gcd(coeff, lead)
            work = {e: v * m for e, v in work.items()}
            quotient = {e: v * m for e, v in quotient.items()}
            remainder = {e: v * m for e, v in remainder.items()}
            scale *= m
            coeff *= m
        factor = coeff // lead
        quotient[delta] = factor
        _subtract(work, delta, factor, primitive)
    # p = quotient * primitive / (scale s) + remainder / (scale s), with s
    # p's denominator and primitive = divisor * its denominator / content
    denominator = scale * p.denominator
    return (
        Polynomial._reduced(
            p.dim, {e: v * divisor.denominator for e, v in quotient.items()}, denominator * content
        ),
        Polynomial._reduced(p.dim, remainder, denominator),
    )


def exact_divide(p: Polynomial, divisor: Polynomial) -> Polynomial | None:
    """Quotient p / divisor if the division is exact, else None: the
    quotient of `poly_divmod` when its remainder is zero, which for one
    divisor is exactly when the divisor divides p."""
    quotient, remainder = poly_divmod(p, divisor)
    return None if remainder else quotient


class MonomialBasis:
    """All exponent vectors of total degree <= max_degree, graded-lex ordered.

    There is one basis per (dim, max_degree): `MonomialBasis(dim, degree)`
    builds it on first use and afterwards returns that same object.  A
    shared basis is immutable: its sequences are tuples, `index` is a
    read-only mapping and attributes cannot be set.  A basis is published
    only once it is complete, so a thread that builds the same basis at the
    same time gets the first one published, never a partial one.

    `exponent_columns[i]` holds the i-th entry of every exponent, in basis
    order, and `degree_slices[n]` the positions of the degree-n exponents.
    """

    __slots__ = (
        "dim", "max_degree", "exponents", "index", "exponent_columns", "degree_slices",
    )

    _shared: dict[tuple[int, int], MonomialBasis] = {}

    def __new__(cls, dim: int, max_degree: int):
        key = (dim, max_degree)
        basis = cls._shared.get(key)
        if basis is None:
            # setdefault publishes the finished basis in one step; a thread
            # that loses the race drops its own copy
            basis = cls._shared.setdefault(key, cls._build(dim, max_degree))
        return basis

    @classmethod
    def _build(cls, dim: int, max_degree: int) -> MonomialBasis:
        if dim < 1 or max_degree < 0:
            raise ValueError("need dim >= 1 and max_degree >= 0")
        basis = object.__new__(cls)
        cube = iter_product(range(max_degree + 1), repeat=dim)
        exponents = tuple(sorted((e for e in cube if sum(e) <= max_degree), key=grlex_key))
        slices, start = [], 0
        for degree in range(max_degree + 1):
            count = comb(degree + dim - 1, degree)
            slices.append(slice(start, start + count))
            start += count
        _set(basis, "dim", dim)
        _set(basis, "max_degree", max_degree)
        _set(basis, "exponents", exponents)
        _set(basis, "index", MappingProxyType({e: i for i, e in enumerate(exponents)}))
        _set(basis, "exponent_columns", tuple(zip(*exponents)))
        _set(basis, "degree_slices", tuple(slices))
        return basis

    def __setattr__(self, name, value):
        raise AttributeError("MonomialBasis is immutable")

    def __len__(self) -> int:
        return len(self.exponents)

    def eval_float(self, points):
        """Vandermonde-style (N, len(basis)) float array of monomial values
        at the (N, dim) array `points`: the one float method of the exact
        basis, which imports numpy when it runs.

        Each axis contributes one power table x_i^0 .. x_i^max_degree, built
        by repeated multiplication; the rows of all axes' tables are gathered
        by exponent (`exponent_columns`) and multiplied together.  The result is the transpose of
        that (len(basis), N) product, so its columns are contiguous.  In one
        variable the table is already in basis order and is returned as it
        is.
        """
        import numpy as np

        points = np.asarray(points, dtype=float)
        out = None
        for axis in range(self.dim):
            table = np.empty((self.max_degree + 1, points.shape[0]))
            table[0] = 1.0
            for k in range(1, self.max_degree + 1):
                np.multiply(table[k - 1], points[:, axis], out=table[k])
            if self.dim == 1:
                # the exponents are 0 .. max_degree: the table is the result
                return table.T
            rows = table[list(self.exponent_columns[axis])]
            if out is None:
                out = rows
            else:
                out *= rows
        return out.T


# ----------------------------------------------------------------------
# text format:  sum of terms  c*x^i*y^j*z^k  (| '*' and '^1' optional).
# The parser accepts a superset: parentheses, '-' groups, '/' by a rational
# constant, and caller-supplied extra symbol names (used for catalog
# parameters and closed-form index variables).


def format_poly(p: Polynomial) -> str:
    """The text of p over the standard variable names, terms in grlex order."""
    if p.is_zero:
        return "0"
    names = variable_names(p.dim)
    pieces: list[str] = []
    for exponent in sorted(p.numerators, key=grlex_key):
        n = p.numerators[exponent]
        factors = []
        for name, e in zip(names, exponent):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        magnitude = Fraction(abs(n), p.denominator)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        if not pieces:
            pieces.append(body if n > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if n > 0 else f"- {body}")
    return " ".join(pieces)


class PolyParseError(ValueError):
    pass


# after any whitespace, an ASCII integer, name, operator or parenthesis, or
# else one stray character; compiled on first use, not at import
_TOKEN_PATTERN = r"\s*(?:([0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()])|(\S))"


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for token, stray in re.findall(_TOKEN_PATTERN, text):
        if stray:
            raise PolyParseError(f"unexpected character {stray!r} in polynomial text")
        tokens.append(token)
    return tokens


class _Parser:
    """Recursive-descent parser producing an exact Polynomial over `names`."""

    def __init__(self, tokens: list[str], names: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.names = list(names)
        self.slot = {name: i for i, name in enumerate(self.names)}
        self.dim = len(self.names)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise PolyParseError("unexpected end of polynomial text")
        self.pos += 1
        return token

    def parse(self) -> Polynomial:
        value = self.expression()
        if self.peek() is not None:
            raise PolyParseError(f"trailing input near {self.peek()!r}")
        return value

    def expression(self) -> Polynomial:
        negate = False
        while self.peek() in {"+", "-"}:
            if self.take() == "-":
                negate = not negate
        value = -self.term() if negate else self.term()
        while self.peek() in {"+", "-"}:
            if self.take() == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            token = self.peek()
            if token == "*":
                self.take()
                value = value * self.factor()
            elif token == "/":
                self.take()
                denom = self.factor()
                if denom.total_degree > 0:
                    raise PolyParseError("division only by a nonzero rational constant")
                const = denom.constant_term
                if const == 0:
                    raise PolyParseError("division by zero")
                value = value * (Fraction(1) / const)
            elif token is not None and (token[0].isalnum() or token[0] == "_" or token == "("):
                # implicit multiplication: 2x, x y, 3(1-x)
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Polynomial:
        base = self.atom()
        while self.peek() == "^":
            self.take()
            token = self.take()
            neg = False
            if token == "-":
                neg = True
                token = self.take()
            if not token.isdigit():
                raise PolyParseError(f"exponent must be an integer, got {token!r}")
            if neg:
                raise PolyParseError("negative exponents are not supported")
            base = base**int(token)
        return base

    def atom(self) -> Polynomial:
        token = self.take()
        if token == "(":
            value = self.expression()
            if self.take() != ")":
                raise PolyParseError("unbalanced parentheses")
            return value
        if token == "-":
            return -self.atom()
        if token == "+":
            return self.atom()
        if token.isdigit():
            return Polynomial.constant(self.dim, int(token))
        if token in self.slot:
            return Polynomial.variable(self.dim, self.slot[token])
        raise PolyParseError(f"unknown symbol {token!r}")


def parse_poly(text: str, dim: int | None = None, names: Sequence[str] | None = None) -> Polynomial:
    """Parse polynomial text over the standard variables or explicit names."""
    if names is None:
        if dim is None:
            raise ValueError("give either dim or names")
        names = variable_names(dim)
    poly = _Parser(_tokenize(text), names).parse()
    if dim is not None and poly.dim != dim:
        raise PolyParseError("parsed dimension mismatch")
    return poly


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PolyParseError(f"bad rational literal {text!r}") from exc
