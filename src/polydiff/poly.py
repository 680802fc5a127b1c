"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``d`` variables is held as integer numerators over one
positive denominator.  ``numerators`` maps exponent tuples (length ``d``,
non-negative ints) to nonzero Python ints, and ``denominator`` is the least
positive integer that clears every coefficient, so it and the numerators
have no common factor and equal polynomials have equal representations.
Every exact operation (sums, products, powers, derivatives, substitution,
evaluation and division) runs in Python ints on that form.  ``terms``, the
same coefficients as ``Fraction``s in the same order, is a read-only view
built on first access for printing and reports; no arithmetic reads it.

Two float evaluators sit beside the exact layer: `eval_floats` evaluates
polynomials at float points, each coefficient converted once as numerator /
denominator (Python's correctly rounded int division, the value
``float(Fraction)`` gives), and `MonomialBasis.eval_float` tabulates the
monomials of a basis.

Variables are named ``x, y, z`` for ``d <= 3`` and ``x1 ... xd`` beyond, both
for parsing and printing.  Term order everywhere is graded lexicographic:
lower total degree first, ties broken by tuple comparison of the exponents.
A polynomial's own terms keep the order in which its operation produced
them, and float sums over its terms follow that order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

Exponent = tuple[int, ...]

#: total degree reported for the zero polynomial
NEG_INF = float("-inf")

RationalLike = int | Fraction

#: points per block in eval_floats
EVAL_BLOCK = 1 << 16

# Polynomial forbids attribute assignment; its constructors set slots with this
_set = object.__setattr__


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
    """Immutable sparse polynomial over the rationals, held as integer
    numerators over one positive denominator."""

    __slots__ = ("dim", "numerators", "denominator", "_terms")

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
        denominator = lcm(*(c.denominator for c in clean.values()))
        _set(self, "dim", dim)
        numerators = {e: c.numerator * (denominator // c.denominator) for e, c in clean.items()}
        _set(self, "numerators", numerators)
        _set(self, "denominator", denominator)
        _set(self, "_terms", None)

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
        _set(p, "_terms", None)
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
        value = _as_fraction(value)
        return cls._new(dim, {(0,) * dim: value.numerator} if value else {}, value.denominator)

    @classmethod
    def variable(cls, dim: int, axis: int) -> Polynomial:
        if not 0 <= axis < dim:
            raise IndexError(f"axis {axis} out of range for dimension {dim}")
        exponent = tuple(1 if i == axis else 0 for i in range(dim))
        return cls._new(dim, {exponent: 1}, 1)

    @classmethod
    def monomial(cls, dim: int, exponent: Exponent, coeff: RationalLike = 1) -> Polynomial:
        return cls(dim, {tuple(exponent): _as_fraction(coeff)})

    # ------------------------------------------------------------------
    # structure

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """The coefficients as Fractions, in term order: a read-only view,
        built on first access, for printing and reports."""
        if self._terms is None:
            d = self.denominator
            terms = {e: Fraction(n, d) for e, n in self.numerators.items()}
            _set(self, "_terms", MappingProxyType(terms))
        return self._terms

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

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

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
        the product of the two denominators."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.dim)
            factor = other.numerator
            return Polynomial._reduced(
                self.dim,
                {e: n * factor for e, n in self.numerators.items()},
                self.denominator * other.denominator,
            )
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
        numerators, denominator = self.grid_values([[v] for v in point])
        return Fraction(numerators[0], denominator)

    def grid_values(self, axes: Sequence[Sequence[RationalLike]]) -> tuple[list[int], int]:
        """Exact values on the tensor grid axes[0] x ... x axes[dim-1].

        Returns integer numerators, one per node in ``itertools.product``
        order, over one positive denominator.  With every node coordinate
        written as X/D over one common denominator D, a polynomial of total
        degree n with numerators c_e over s takes the value
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
        if not self.numerators:
            return [0] * prod(len(axis) for axis in axes), 1
        degree = self.total_degree
        common = lcm(*(v.denominator for axis in axes for v in axis))
        # partial[rest]: over the nodes of the axes done so far, the sums of
        # the terms whose exponents on the remaining axes are `rest`
        partial = {e: [n * common ** (degree - sum(e))] for e, n in self.numerators.items()}
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
        return partial[()], self.denominator * common**degree

    def compose(self, substitution: Sequence[Polynomial]) -> Polynomial:
        """Exact composition p(s_1, ..., s_d).

        The terms of p are taken in graded-lex order, each as its integer
        numerator times its cached powers of the s_i, summed, and the sum
        is divided by p's denominator once.
        """
        if len(substitution) != self.dim:
            raise ValueError("substitution length must match dimension")
        if not substitution:
            return self
        target = substitution[0].dim
        if any(s.dim != target for s in substitution):
            raise ValueError("substitution entries must share one dimension")
        # cache powers of each substituted polynomial
        powers: list[dict[int, Polynomial]] = [{1: s} for s in substitution]
        result = Polynomial.zero(target)
        for exponent, n in sorted(self.numerators.items(), key=lambda item: grlex_key(item[0])):
            term = None
            for axis, e in enumerate(exponent):
                if e:
                    cache = powers[axis]
                    if e not in cache:
                        top = max(cache)
                        acc = cache[top]
                        for k in range(top + 1, e + 1):
                            acc = acc * substitution[axis]
                            cache[k] = acc
                    term = cache[e] if term is None else term * cache[e]
            result = result + (Polynomial.constant(target, n) if term is None else term * n)
        return result if self.denominator == 1 else result * Fraction(1, self.denominator)

    def partial_evaluate(self, assignments: Mapping[int, RationalLike]) -> Polynomial:
        """Fix some axes to rational values; remaining axes keep their order.

        A fixed value p/q whose axis has largest power t enters a term of
        power e as p^e q^(t-e), over q^t, so the sum runs in integers over
        one denominator.
        """
        fixed = {axis: _as_fraction(v) for axis, v in assignments.items()}
        if any(not 0 <= axis < self.dim for axis in fixed):
            raise IndexError(f"axis out of range for dimension {self.dim}")
        keep = [i for i in range(self.dim) if i not in fixed]
        denominator = self.denominator
        weights = []
        for axis, value in fixed.items():
            top = max([e[axis] for e in self.numerators], default=0)
            p, q = value.numerator, value.denominator
            weights.append((axis, [p**k * q ** (top - k) for k in range(top + 1)]))
            denominator *= q**top
        terms: dict[Exponent, int] = {}
        for exponent, n in self.numerators.items():
            for axis, weight in weights:
                n *= weight[exponent[axis]]
            key = tuple([exponent[i] for i in keep])
            total = terms.get(key, 0) + n
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        return Polynomial._reduced(len(keep), terms, denominator)

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
            ([(axis, e) for axis, e in enumerate(exponent) if e], n / p.denominator)
            for exponent, n in p.numerators.items()
        ]
        for p in polys
    ]
    top = [max((e[axis] for p in polys for e in p.numerators), default=0) for axis in range(dim)]
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
        for exponent, n in p.numerators.items():
            pos = self.index.get(exponent)
            if pos is None:
                raise ValueError(f"monomial {exponent} outside basis of degree {self.max_degree}")
            coords[pos] = Fraction(n, p.denominator)
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
