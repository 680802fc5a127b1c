"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``d`` variables is stored as a dict mapping exponent tuples
(length ``d``, non-negative ints) to nonzero ``Fraction`` coefficients.  All
arithmetic is exact; floating point never enters this module.

Variables are named ``x, y, z`` for ``d <= 3`` and ``x1 ... xd`` beyond, both
for parsing and printing.  Term order everywhere is graded lexicographic:
lower total degree first, ties broken by tuple comparison of the exponents.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, prod
from operator import index
from typing import Iterable, Mapping, Sequence

import numpy as np

Exponent = tuple[int, ...]

#: total degree reported for the zero polynomial
NEG_INF = float("-inf")

RationalLike = int | Fraction

#: points per block in eval_floats
EVAL_BLOCK = 1 << 16


def _as_fraction(value: RationalLike | str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def variable_names(dim: int) -> list[str]:
    if dim <= 3:
        return ["x", "y", "z"][:dim]
    return [f"x{i + 1}" for i in range(dim)]


def grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    return (sum(exponent), exponent)


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Exponent, RationalLike] | Iterable[tuple[Exponent, RationalLike]] = ()):
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        # a Mapping's keys cannot repeat; only other iterables need summing
        unique = isinstance(terms, Mapping)
        clean: dict[Exponent, Fraction] = {}
        for exponent, coeff in terms.items() if unique else terms:
            try:
                # index() takes Python and numpy integers and refuses 1.5,
                # which int() would truncate
                exponent = tuple(map(index, exponent))
            except TypeError:
                raise ValueError(f"non-integer exponent {exponent}") from None
            if len(exponent) != dim or any(e < 0 for e in exponent):
                raise ValueError(f"bad exponent {exponent} for dimension {dim}")
            value = _as_fraction(coeff)
            if not unique and exponent in clean:
                value += clean[exponent]
            if value:
                clean[exponent] = value
            else:
                clean.pop(exponent, None)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _from_valid(cls, dim: int, terms: dict[Exponent, Fraction]) -> Polynomial:
        """A polynomial on terms that are already valid: exponent tuples of
        length dim and non-negative ints, mapped to nonzero Fractions.  For
        the results of arithmetic, whose terms come from valid operands."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dim: int) -> Polynomial:
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: RationalLike | str) -> Polynomial:
        return cls(dim, {(0,) * dim: _as_fraction(value)})

    @classmethod
    def variable(cls, dim: int, axis: int) -> Polynomial:
        if not 0 <= axis < dim:
            raise IndexError(f"axis {axis} out of range for dimension {dim}")
        exponent = tuple(1 if i == axis else 0 for i in range(dim))
        return cls(dim, {exponent: Fraction(1)})

    @classmethod
    def monomial(cls, dim: int, exponent: Exponent, coeff: RationalLike = 1) -> Polynomial:
        return cls(dim, {tuple(exponent): _as_fraction(coeff)})

    # ------------------------------------------------------------------
    # structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int | float:
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.dim, Fraction(0))

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Largest term in graded-lex order; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exponent = max(self.terms, key=grlex_key)
        return exponent, self.terms[exponent]

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.dim == other.dim and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.dim, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
            return other
        return Polynomial.constant(self.dim, other)

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        terms = dict(self.terms)
        for exponent, coeff in other.terms.items():
            value = terms.get(exponent)
            if value is None:
                terms[exponent] = coeff
                continue
            value += coeff
            if value:
                terms[exponent] = value
            else:
                del terms[exponent]
        return Polynomial._from_valid(self.dim, terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._from_valid(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> Polynomial:
        return (-self) + other

    def __mul__(self, other) -> Polynomial:
        """Exact product.  Two polynomials are multiplied as integer
        numerators over the product of their coefficients' lcm
        denominators, with one Fraction per result term."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.dim)
            return Polynomial._from_valid(self.dim, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        left, s1 = self._integer_terms()
        right, s2 = other._integer_terms()
        product: dict[Exponent, int] = {}
        for e1, c1 in left:
            for e2, c2 in right:
                key = tuple(map(int.__add__, e1, e2))
                product[key] = product.get(key, 0) + c1 * c2
        denominator = s1 * s2
        return Polynomial._from_valid(
            self.dim, {e: Fraction(v, denominator) for e, v in product.items() if v}
        )

    def _integer_terms(self) -> tuple[list[tuple[Exponent, int]], int]:
        """The terms times the lcm s of the coefficients' denominators, as
        (exponent, integer) pairs, and s."""
        scale = lcm(*(c.denominator for c in self.terms.values()))
        return [(e, c.numerator * (scale // c.denominator)) for e, c in self.terms.items()], scale

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
        terms: dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            k = exponent[axis]
            if k == 0:
                continue
            terms[exponent[:axis] + (k - 1,) + exponent[axis + 1 :]] = coeff * k
        return Polynomial._from_valid(self.dim, terms)

    def gradient(self) -> list[Polynomial]:
        return [self.derivative(i) for i in range(self.dim)]

    # ------------------------------------------------------------------
    # evaluation and substitution

    def __call__(self, point: Sequence[RationalLike]) -> Fraction:
        if len(point) != self.dim:
            raise ValueError(f"point length {len(point)} != dimension {self.dim}")
        numerators, denominator = self.grid_values([[v] for v in point])
        return Fraction(numerators[0], denominator)

    def grid_values(self, axes: Sequence[Sequence[RationalLike]]) -> tuple[list[int], int]:
        """Exact values on the tensor grid axes[0] x ... x axes[dim-1].

        Returns integer numerators, one per node in ``itertools.product``
        order, over one positive denominator.  With every node coordinate
        written as X/D over one common denominator D and the coefficients as
        c_e/s over theirs, a polynomial of total degree n takes the value
        sum_e c_e X^e D^(n-|e|) / (s D^n), summed in integers.  Each axis
        node's powers are computed once, and the sum is contracted one axis
        at a time, so terms that agree on the remaining axes share their
        partial sums.
        """
        if len(axes) != self.dim:
            raise ValueError(f"{len(axes)} grid axes != dimension {self.dim}")
        # ints carry numerator and denominator already; other input is checked
        axes = [
            [v if isinstance(v, (int, Fraction)) else _as_fraction(v) for v in axis] for axis in axes
        ]
        if not self.terms:
            return [0] * prod(len(axis) for axis in axes), 1
        degree = max(sum(e) for e in self.terms)
        scale = lcm(*(c.denominator for c in self.terms.values()))
        common = lcm(*(v.denominator for axis in axes for v in axis))
        # partial[rest]: over the nodes of the axes done so far, the sums of
        # the terms whose exponents on the remaining axes are `rest`
        partial = {
            e: [c.numerator * (scale // c.denominator) * common ** (degree - sum(e))]
            for e, c in self.terms.items()
        }
        for axis in axes:
            nodes = [v.numerator * (common // v.denominator) for v in axis]
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
        return partial[()], scale * common**degree

    def eval_float(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, dim) float array; returns length-N array
        (`eval_floats` of this polynomial alone)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.shape[1] != self.dim:
            raise ValueError("point array has wrong width")
        return eval_floats([self], points.T)[0]

    def compose(self, substitution: Sequence[Polynomial]) -> Polynomial:
        """Exact composition p(s_1, ..., s_d)."""
        if len(substitution) != self.dim:
            raise ValueError("substitution length must match dimension")
        if not substitution:
            return Polynomial(0, self.terms)
        target = substitution[0].dim
        subs = []
        for s in substitution:
            if s.dim != target:
                raise ValueError("substitution entries must share one dimension")
            subs.append(s)
        # cache powers of each substituted polynomial
        powers: list[dict[int, Polynomial]] = [{0: Polynomial.constant(target, 1)} for _ in subs]
        result = Polynomial.zero(target)
        for exponent, coeff in self.sorted_terms():
            term = Polynomial.constant(target, coeff)
            for axis, e in enumerate(exponent):
                if e:
                    cache = powers[axis]
                    if e not in cache:
                        top = max(cache)
                        acc = cache[top]
                        for k in range(top + 1, e + 1):
                            acc = acc * subs[axis]
                            cache[k] = acc
                    term = term * cache[e]
            result = result + term
        return result

    def partial_evaluate(self, assignments: Mapping[int, RationalLike]) -> Polynomial:
        """Fix some axes to rational values; remaining axes keep their order."""
        fixed = {axis: _as_fraction(v) for axis, v in assignments.items()}
        keep = [i for i in range(self.dim) if i not in fixed]
        terms: dict[Exponent, Fraction] = {}
        for exponent, coeff in self.terms.items():
            for axis, value in fixed.items():
                e = exponent[axis]
                if e:
                    coeff = coeff * value**e
            key = tuple(exponent[i] for i in keep)
            total = terms.get(key, Fraction(0)) + coeff
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        return Polynomial(len(keep), terms)

    # ------------------------------------------------------------------
    # printing

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.dim}, {format_poly(self)!r})"


def eval_floats(polys: Sequence[Polynomial], coordinates: np.ndarray) -> np.ndarray:
    """Every polynomial of `polys` at the points whose coordinates are the
    rows of the (dim, N) array `coordinates`: a (len(polys), N) array.

    Each axis's powers come from repeated multiplication, shared by all
    terms of all the polynomials, over column blocks of EVAL_BLOCK so
    temporaries stay bounded for large N.  A term is its first power times
    its coefficient, times its other powers in axis order, added to its
    polynomial's sum in term order; so each value is the same float whatever
    else is evaluated beside it.
    """
    coordinates = np.asarray(coordinates, dtype=float)
    dim, count = coordinates.shape
    if any(p.dim != dim for p in polys):
        raise ValueError("point array has wrong width")
    # per polynomial, its terms as ([(axis, power) with power > 0], coeff)
    terms = [
        [
            ([(axis, e) for axis, e in enumerate(exponent) if e], float(coeff))
            for exponent, coeff in p.terms.items()
        ]
        for p in polys
    ]
    top = [max((e[axis] for p in polys for e in p.terms), default=0) for axis in range(dim)]
    out = np.zeros((len(polys), count))
    for start in range(0, count, EVAL_BLOCK):
        block = coordinates[:, start : start + EVAL_BLOCK]
        powers = []
        for axis in range(dim):
            table = [None, block[axis]]
            for _ in range(2, top[axis] + 1):
                table.append(table[-1] * table[1])
            powers.append(table)
        term = np.empty(block.shape[1])
        for acc, poly_terms in zip(out[:, start : start + EVAL_BLOCK], terms):
            for factors, coeff in poly_terms:
                if not factors:
                    acc += coeff
                    continue
                (axis, e), *others = factors
                np.multiply(powers[axis][e], coeff, out=term)
                for axis, e in others:
                    term *= powers[axis][e]
                acc += term
    return out


def tensor_grid(
    points: Sequence[Sequence[int | Fraction]], dim: int
) -> tuple[list[list[Fraction]], list[int]]:
    """The smallest tensor grid holding the points, as axes for
    `Polynomial.grid_values`, and each point's node index in its order.

    Each axis holds the distinct coordinates on it, in order of first
    appearance.  Points on a tensor grid (interior grids, clipped or not)
    make a grid no larger than theirs; scattered points make the whole
    product grid.  Coordinates are keyed by (numerator, denominator), since
    hashing a Fraction costs a modular inverse.
    """
    if any(len(p) != dim for p in points):
        raise ValueError(f"point length != dimension {dim}")
    axes: list[list[Fraction]] = []
    nodes = [0] * len(points)
    for a in range(dim):
        column = [(p[a].numerator, p[a].denominator) for p in points]
        where = {key: i for i, key in enumerate(dict.fromkeys(column))}
        axes.append([Fraction(*key) for key in where])
        nodes = [node * len(where) + where[key] for node, key in zip(nodes, column)]
    return axes, nodes


def poly_divmod(p: Polynomial, divisor: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Single-divisor multivariate division under graded-lex order.

    Returns (quotient, remainder) with p = quotient * divisor + remainder and
    no remainder term divisible by the divisor's leading monomial.  For one
    divisor this representation is unique, so remainder == 0 iff divisor | p.
    """
    if p.dim != divisor.dim:
        raise ValueError("dimension mismatch")
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    lead_exp, lead_coeff = divisor.leading_term()
    quotient: dict[Exponent, Fraction] = {}
    remainder: dict[Exponent, Fraction] = {}
    work = dict(p.terms)
    while work:
        exponent = max(work, key=grlex_key)
        coeff = work[exponent]
        delta = tuple(a - b for a, b in zip(exponent, lead_exp))
        if any(e < 0 for e in delta):
            remainder[exponent] = coeff
            del work[exponent]
            continue
        factor = coeff / lead_coeff
        quotient[delta] = quotient.get(delta, Fraction(0)) + factor
        # subtracting factor * divisor cancels the leading term exactly
        for e2, c2 in divisor.terms.items():
            key = tuple(a + b for a, b in zip(delta, e2))
            value = work.get(key, Fraction(0)) - factor * c2
            if value:
                work[key] = value
            else:
                work.pop(key, None)
    return Polynomial(p.dim, quotient), Polynomial(p.dim, remainder)


def exact_divide(p: Polynomial, divisor: Polynomial) -> Polynomial | None:
    """Quotient p / divisor if the division is exact, else None."""
    quotient, remainder = poly_divmod(p, divisor)
    return quotient if remainder.is_zero else None


class MonomialBasis:
    """All exponent vectors of total degree <= max_degree, graded-lex ordered."""

    def __init__(self, dim: int, max_degree: int):
        if dim < 1 or max_degree < 0:
            raise ValueError("need dim >= 1 and max_degree >= 0")
        self.dim = dim
        self.max_degree = max_degree
        self.exponents: list[Exponent] = sorted(
            self._enumerate(dim, max_degree), key=grlex_key
        )
        self.index = {e: i for i, e in enumerate(self.exponents)}
        self.exponent_array = np.array(self.exponents, dtype=np.intp)
        self.degree_slices: list[slice] = []
        start = 0
        for degree in range(max_degree + 1):
            count = comb(degree + dim - 1, degree)
            self.degree_slices.append(slice(start, start + count))
            start += count

    @staticmethod
    def _enumerate(dim: int, max_degree: int) -> Iterable[Exponent]:
        def rec(prefix: tuple[int, ...], remaining: int, budget: int):
            if remaining == 1:
                for e in range(budget + 1):
                    yield prefix + (e,)
                return
            for e in range(budget + 1):
                yield from rec(prefix + (e,), remaining - 1, budget - e)

        yield from rec((), dim, max_degree)

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def coordinates(self, p: Polynomial) -> list[Fraction]:
        """Coefficient vector of p over the basis; errors if p does not fit."""
        if p.dim != self.dim:
            raise ValueError("dimension mismatch")
        coords = [Fraction(0)] * len(self)
        for exponent, coeff in p.terms.items():
            pos = self.index.get(exponent)
            if pos is None:
                raise ValueError(f"monomial {exponent} outside basis of degree {self.max_degree}")
            coords[pos] = coeff
        return coords

    def eval_float(self, points: np.ndarray) -> np.ndarray:
        """Vandermonde-style (N, len(basis)) float array of monomial values.

        Each axis contributes one power table x_i^0 .. x_i^max_degree, built
        by repeated multiplication; the rows of all axes' tables are gathered
        by exponent and multiplied together.  The result is the transpose of
        that (len(basis), N) product, so its columns are contiguous.  In one
        variable the table is already in basis order and is returned as it
        is.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, self.dim)
        out = None
        for axis in range(self.dim):
            table = np.empty((self.max_degree + 1, points.shape[0]))
            table[0] = 1.0
            for k in range(1, self.max_degree + 1):
                np.multiply(table[k - 1], points[:, axis], out=table[k])
            if self.dim == 1:
                # the exponents are 0 .. max_degree: the table is the result
                return table.T
            rows = table[self.exponent_array[:, axis]]
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


def format_poly(p: Polynomial, names: Sequence[str] | None = None) -> str:
    if p.is_zero:
        return "0"
    names = list(names) if names is not None else variable_names(p.dim)
    pieces: list[str] = []
    for exponent, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(names, exponent):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


class PolyParseError(ValueError):
    pass


_TOKEN_END = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_END:
            tokens.append(ch)
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r} in polynomial text")
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
        sign = 1
        while self.peek() in {"+", "-"}:
            if self.take() == "-":
                sign = -sign
        value = self.term() * sign
        while self.peek() in {"+", "-"}:
            op = self.take()
            value = value + self.term() * (1 if op == "+" else -1)
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
                if denom.total_degree not in (0, NEG_INF):
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
