"""The integer representation of `Polynomial` against a Fraction-dict oracle.

Each reference below keeps a polynomial as a dict {exponent: Fraction} and
runs the operation term by term in Fractions, with the loops and insertion
order of the Fraction-coefficient implementation it replaced.  Float sums
over a polynomial's terms follow its term order, so every operation is
checked for its coefficients and for the order it produces them in.
"""

import json
import random
import shlex
import string
from fractions import Fraction
from importlib import resources
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st
from test_poly import integer_axes

from polydiff.catalog import Template
from polydiff.poly import (
    MonomialBasis,
    Polynomial,
    PolyParseError,
    _tokenize,
    exact_divide,
    format_poly,
    grlex_key,
    parse_poly,
    poly_divmod,
    variable_names,
)

SETTINGS = settings(max_examples=100, deadline=None)

# ----------------------------------------------------------------------
# the oracle


def ref_from_terms(terms):
    """The constructor: the coefficients as Fractions, zeros dropped."""
    return {e: Fraction(c) for e, c in terms.items() if Fraction(c)}


def ref_add(a, b):
    terms = dict(a)
    for exponent, coeff in b.items():
        value = terms.get(exponent)
        if value is None:
            terms[exponent] = coeff
            continue
        value += coeff
        if value:
            terms[exponent] = value
        else:
            del terms[exponent]
    return terms


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_sub(a, b):
    return ref_add(a, ref_neg(b))


def ref_scale(a, s):
    return {e: c * s for e, c in a.items()} if s else {}


def ref_mul(a, b):
    product_terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            product_terms[key] = product_terms.get(key, 0) + c1 * c2
    return {e: Fraction(v) for e, v in product_terms.items() if v}


def ref_pow(a, dim, power):
    result = {(0,) * dim: Fraction(1)}
    base = a
    while power:
        if power & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base) if power > 1 else base
        power >>= 1
    return result


def ref_derivative(a, axis):
    terms = {}
    for exponent, coeff in a.items():
        k = exponent[axis]
        if k:
            terms[exponent[:axis] + (k - 1,) + exponent[axis + 1 :]] = coeff * k
    return terms


def ref_partial_evaluate(a, dim, assignments):
    keep = [i for i in range(dim) if i not in assignments]
    terms = {}
    for exponent, coeff in a.items():
        for axis, value in assignments.items():
            if exponent[axis]:
                coeff = coeff * value ** exponent[axis]
        key = tuple(exponent[i] for i in keep)
        total = terms.get(key, Fraction(0)) + coeff
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)
    return terms


def ref_compose(a, subs, target):
    """Terms in graded-lex order, each the constant times the powers of the
    substituted polynomials in axis order, each power by `ref_pow`, added
    up."""
    result = {}
    for exponent, coeff in sorted(a.items(), key=lambda item: grlex_key(item[0])):
        term = {(0,) * target: coeff}
        for sub, e in zip(subs, exponent):
            if e:
                term = ref_mul(term, ref_pow(sub, target, e))
        result = ref_add(result, term)
    return result


def ref_value(a, point):
    total = Fraction(0)
    for exponent, coeff in a.items():
        term = coeff
        for x, e in zip(point, exponent):
            term *= Fraction(x) ** e
        total += term
    return total


def ref_divmod(a, b):
    lead_exp = max(b, key=grlex_key)
    lead = b[lead_exp]
    quotient, remainder, work = {}, {}, dict(a)
    while work:
        exponent = max(work, key=grlex_key)
        coeff = work[exponent]
        delta = tuple(x - y for x, y in zip(exponent, lead_exp))
        if any(e < 0 for e in delta):
            remainder[exponent] = coeff
            del work[exponent]
            continue
        factor = coeff / lead
        quotient[delta] = quotient.get(delta, Fraction(0)) + factor
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(delta, e2))
            value = work.get(key, Fraction(0)) - factor * c2
            if value:
                work[key] = value
            else:
                work.pop(key, None)
    return quotient, remainder


def ref_format(a, dim):
    """The text of a polynomial held as Fractions: its terms in graded-lex
    order, each as sign, magnitude and factors, the first sign unspaced."""
    if not a:
        return "0"
    names = variable_names(dim)
    pieces = []
    for exponent, coeff in sorted(a.items(), key=lambda item: grlex_key(item[0])):
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponent) if e]
        magnitude = abs(coeff)
        body = "*".join(factors if factors and magnitude == 1 else [str(magnitude)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


# ----------------------------------------------------------------------
# checks


def assert_matches(p, terms, dim):
    """p holds exactly `terms`, in their order, on a reduced integer form."""
    assert p.dim == dim
    assert list(p.numerators) == list(terms)
    assert all(type(n) is int and n for n in p.numerators.values())
    assert type(p.denominator) is int and p.denominator > 0
    assert gcd(p.denominator, *p.numerators.values()) == 1
    for exponent, n in p.numerators.items():
        assert Fraction(n, p.denominator) == terms[exponent]


coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.sampled_from([Fraction(1, 6), Fraction(-5, 4), Fraction(7, 9)]),
)


@st.composite
def term_maps(draw, dim, max_exponent=3, max_terms=6):
    """{exponent: coefficient}, zero coefficients included."""
    exponent = st.tuples(*[st.integers(0, max_exponent)] * dim)
    return draw(st.dictionaries(exponent, st.one_of(coefficients, st.just(0)), max_size=max_terms))


@st.composite
def poly_pairs(draw, count=1, dims=(1, 2, 3), max_exponent=3, max_terms=6):
    """`count` polynomials of one dimension, with their oracle terms; some
    share exponents so that sums cancel."""
    dim = draw(st.sampled_from(dims))
    out = []
    for _ in range(count):
        terms = draw(term_maps(dim, max_exponent, max_terms))
        if out and draw(st.booleans()):
            # reuse the exponents of the previous polynomial
            terms.update((e, draw(coefficients)) for e in out[-1][1])
        out.append((Polynomial(dim, terms), ref_from_terms(terms)))
    return dim, out


@SETTINGS
@given(poly_pairs(1))
def test_constructor_matches_oracle(case):
    dim, [(p, terms)] = case
    assert_matches(p, terms, dim)


@SETTINGS
@given(poly_pairs(2))
def test_sum_difference_and_negation_match_oracle(case):
    dim, [(p, a), (q, b)] = case
    assert_matches(p + q, ref_add(a, b), dim)
    assert_matches(p - q, ref_sub(a, b), dim)
    assert_matches(-p, ref_neg(a), dim)
    assert_matches(p - p, {}, dim)
    c = Fraction(3, 4)
    assert_matches(p + c, ref_add(a, {(0,) * dim: c}), dim)
    assert_matches(c - p, ref_add(ref_neg(a), {(0,) * dim: c}), dim)


@SETTINGS
@given(poly_pairs(2), st.one_of(coefficients, st.just(0)))
def test_products_and_scalar_products_match_oracle(case, scalar):
    dim, [(p, a), (q, b)] = case
    assert_matches(p * q, ref_mul(a, b), dim)
    # a scalar is the constant polynomial, on either side of *
    for s in (scalar, 0, 1, -1, Fraction(-1, 2), Fraction(-9, 4)):
        assert_matches(p * s, ref_scale(a, Fraction(s)), dim)
        assert_matches(s * p, ref_scale(a, Fraction(s)), dim)
        assert_matches(p * Polynomial.constant(dim, s), ref_scale(a, Fraction(s)), dim)


@SETTINGS
@given(poly_pairs(1), st.integers(0, 4))
def test_power_matches_oracle(case, power):
    dim, [(p, a)] = case
    assert_matches(p**power, ref_pow(a, dim, power), dim)


@SETTINGS
@given(poly_pairs(1))
def test_derivative_matches_oracle(case):
    dim, [(p, a)] = case
    for axis in range(dim):
        assert_matches(p.derivative(axis), ref_derivative(a, axis), dim)


@SETTINGS
@given(poly_pairs(1, dims=(2, 3, 4)), st.data())
def test_partial_evaluate_matches_oracle(case, data):
    # a catalog template fixes its trailing parameters: p's text, read with
    # the fixed axes as parameters, instantiated at their values
    dim, [(p, a)] = case
    axes = data.draw(st.sets(st.integers(0, dim - 1), min_size=1))
    assignments = {axis: data.draw(st.one_of(coefficients, st.just(0))) for axis in sorted(axes)}
    fixed = {axis: Fraction(v) for axis, v in assignments.items()}
    names = variable_names(dim)
    template = Template(
        format_poly(p), [n for i, n in enumerate(names) if i not in fixed], [names[i] for i in fixed]
    )
    got = template.instantiate({names[i]: v for i, v in assignments.items()})
    # the text lists p's terms in graded-lex order, and so does the result
    in_text_order = dict(sorted(a.items(), key=lambda item: grlex_key(item[0])))
    assert_matches(got, ref_partial_evaluate(in_text_order, dim, fixed), dim - len(axes))


@SETTINGS
@given(poly_pairs(1, max_exponent=6, max_terms=4), st.integers(1, 3), st.data())
def test_compose_matches_oracle(case, target, data):
    dim, [(p, a)] = case
    subs = []
    for _ in range(dim):
        # exponent 0 draws a constant substitution
        terms = data.draw(term_maps(target, max_exponent=data.draw(st.integers(0, 2)), max_terms=3))
        subs.append((Polynomial(target, terms), ref_from_terms(terms)))
    # p over 6 as well, so the final division by p's denominator shows
    for q, b in ((p, a), (p * Fraction(5, 6), ref_scale(a, Fraction(5, 6)))):
        got = q.compose([s for s, _ in subs])
        assert_matches(got, ref_compose(b, [t for _, t in subs], target), target)


def test_format_matches_fraction_reference():
    # seeded polynomials in dims 1-4 with zero, negative and fractional
    # coefficients, among them the zero polynomial, leading negative terms
    # and coefficients of magnitude 1 on constant and non-constant terms
    rng = random.Random(45)
    values = [0, 1, -1, 2, -7, Fraction(1, 3), Fraction(-5, 4), Fraction(-1, 6), Fraction(12, 7)]
    signs = set()
    for trial in range(300):
        dim = 1 + trial % 4
        terms = {
            tuple(rng.randint(0, 3) for _ in range(dim)): rng.choice(values)
            for _ in range(rng.randint(0, 6))
        }
        p, a = Polynomial(dim, terms), ref_from_terms(terms)
        text = format_poly(p)
        assert text == ref_format(a, dim), terms
        assert parse_poly(text, dim) == p
        if a:
            signs.add(text.startswith("-"))
    assert signs == {True, False}


@SETTINGS
@given(poly_pairs(1), st.data())
def test_evaluation_on_points_and_grids_matches_oracle(case, data):
    dim, [(p, a)] = case
    axes = [data.draw(st.lists(coefficients, min_size=1, max_size=3)) for _ in range(dim)]
    numerators, denominator = p.grid_values(*integer_axes(axes))
    assert type(denominator) is int and denominator > 0
    nodes = list(product(*axes))
    assert len(numerators) == len(nodes)
    for numerator, node in zip(numerators, nodes):
        assert type(numerator) is int
        assert Fraction(numerator, denominator) == ref_value(a, node)
        value = p(node)
        assert type(value) is Fraction and value == ref_value(a, node)


@SETTINGS
@given(poly_pairs(2))
def test_division_matches_oracle(case):
    dim, [(p, a), (divisor, b)] = case
    if divisor.is_zero:
        with pytest.raises(ZeroDivisionError):
            poly_divmod(p, divisor)
        return
    ref_q, ref_r = ref_divmod(a, b)
    quotient, remainder = poly_divmod(p, divisor)
    assert_matches(quotient, ref_q, dim)
    assert_matches(remainder, ref_r, dim)
    expected = quotient if not ref_r else None
    assert exact_divide(p, divisor) == expected
    # a product always divides exactly, in the oracle's order
    ref_q, ref_r = ref_divmod(ref_mul(a, b), b)
    assert ref_r == {}
    assert_matches(exact_divide(p * divisor, divisor), ref_q, dim)


def test_exact_divide_by_a_non_primitive_non_monic_divisor():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    q = x**2 * Fraction(1, 3) - x * y * 5 + Fraction(7, 2)
    for divisor in (x * 6 + 4, (x * 6 + 4) * Fraction(5, 7), y * x * -10 + y * y * 4 - 6):
        assert divisor.denominator != 1 or gcd(*divisor.numerators.values()) > 1
        p = divisor * q
        assert exact_divide(p, divisor) == q
        quotient, remainder = poly_divmod(p, divisor)
        assert quotient == q and remainder.is_zero
        # the remainder of p + 1 is not zero, so the division is not exact
        assert exact_divide(p + 1, divisor) is None
        assert exact_divide(p + x**3, divisor) is None
        quotient, remainder = poly_divmod(p + 1, divisor)
        assert not remainder.is_zero and quotient * divisor + remainder == p + 1
    # the first leading coefficient divides (3 | 3), the next does not
    # (3 does not divide -2): 3x + 2 does not divide 3x^2 + 1
    assert exact_divide(x**2 * 3 + 1, x * 3 + 2) is None


@SETTINGS
@given(poly_pairs(2))
def test_equal_polynomials_hash_equal(case):
    dim, [(p, a), (q, b)] = case
    pairs = [
        (p * q, q * p),
        ((p + q) - q, p),
        (p * Fraction(2, 3) * Fraction(3, 2), p),
        (Polynomial(dim, dict(a)), p),
    ]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)
        assert left.numerators == right.numerators and left.denominator == right.denominator


def test_constants_equal_ints_and_fractions():
    for dim in (1, 2, 3):
        assert Polynomial.zero(dim) == 0
        assert Polynomial.constant(dim, 4) == 4
        assert Polynomial.constant(dim, Fraction(-3, 8)) == Fraction(-3, 8)
        assert Polynomial.constant(dim, "6/4") == Fraction(3, 2)
        assert Polynomial.constant(dim, 4) != Fraction(4, 3)
        assert Polynomial.variable(dim, 0) != 1
        half = Polynomial.variable(dim, 0) * Fraction(1, 2)
        assert (half - half + Fraction(5, 6)) == Fraction(5, 6)
        assert hash(Polynomial.constant(dim, Fraction(6, 4))) == hash(Polynomial(dim, {(0,) * dim: "3/2"}))


# ----------------------------------------------------------------------
# the character scanner and the recursive exponent enumerator that the
# regular-expression tokenizer and the product enumeration replaced

_REF_TOKEN_END = {"+", "-", "*", "/", "^", "(", ")"}


def ref_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _REF_TOKEN_END:
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


def ref_enumerate(dim, max_degree):
    def rec(prefix, remaining, budget):
        if remaining == 1:
            for e in range(budget + 1):
                yield prefix + (e,)
            return
        for e in range(budget + 1):
            yield from rec(prefix + (e,), remaining - 1, budget - e)

    yield from rec((), dim, max_degree)


def _scanned(tokenize, text):
    """The tokens of text, or the message of the PolyParseError it raises."""
    try:
        return tokenize(text)
    except PolyParseError as exc:
        return f"PolyParseError: {exc}"


def _catalog_texts():
    def walk(value):
        if isinstance(value, str):
            yield value
        elif isinstance(value, dict):
            for item in value.values():
                yield from walk(item)
        elif isinstance(value, list):
            for item in value:
                yield from walk(item)

    raw = json.loads(resources.files("polydiff").joinpath("data/models.json").read_text())
    return list(walk(raw))


def _readme_cli_arguments():
    """Every argument of every `polydiff` command line in the README."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [line for line in readme.read_text().splitlines() if line.startswith("polydiff ")]
    return [word for line in lines for word in shlex.split(line, comments=True)]


def test_tokenizer_matches_the_scanner_on_catalog_and_readme_texts():
    texts = _catalog_texts() + _readme_cli_arguments()
    assert len(texts) > 600 and "1-x^2-y^2" in texts and "det^-1/2" in texts
    for text in texts:
        assert _scanned(_tokenize, text) == _scanned(ref_tokenize, text), text


# characters of ASCII tokens, whitespace, and stray ASCII characters
_ASCII_SAMPLE = string.digits + "xyzpt_AZ+-*/^() \t\n" + ".,=#$!?;:[]{}<>'`|&%~@\\\"\x00\x1f\x7f"


@seed(48)
@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from(_ASCII_SAMPLE)))
def test_tokenizer_matches_the_scanner_on_ascii_text(text):
    assert _scanned(_tokenize, text) == _scanned(ref_tokenize, text)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_monomial_basis_matches_the_recursive_enumeration(dim):
    for degree in range(13):
        expected = tuple(sorted(ref_enumerate(dim, degree), key=grlex_key))
        assert MonomialBasis(dim, degree).exponents == expected
