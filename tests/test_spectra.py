"""Spectra: exact graded eigenvalues, eigenbases, closed-form comparison."""

import random
from dataclasses import replace
from fractions import Fraction
from math import lcm, sqrt

import numpy as np
import pytest

from polydiff import spectra
from polydiff.catalog import get_descriptor, get_model, model_names
from polydiff.operator import GradedOperatorMatrix, product_operator
from polydiff.poly import Polynomial
from polydiff.quadrature import COVER_SAMPLERS, Moments, sample_domain
from polydiff.spectra import (
    compare_closed_form,
    eigenbasis,
    graded_eigenvalues,
    pencil_gaps,
)
from test_operator import dense_rows
from test_quadrature import moments_of, sampler_points


def test_degree_zero_block_is_zero():
    for name in ("hermite1d", "deltoid", "gaussian_plane"):
        spectrum = graded_eigenvalues(get_model(name).operator, 0)
        assert spectrum.multiset(0) == [Fraction(0)]


def test_disk_spectrum_is_sphere_spectrum():
    model = get_model("disk")  # a=b=0, c=1, p=-1/2
    spectrum = graded_eigenvalues(model.operator, 8)
    for k in range(9):
        values = spectrum.multiset(k)
        assert values == [Fraction(-k * (k + 1))] * (k + 1)


def test_jacobi_closed_form_to_degree_12():
    model = get_model("jacobi1d", {"a": "5/2", "b": "3"})
    a, b = Fraction(5, 2), Fraction(3)
    spectrum = graded_eigenvalues(model.operator, 12)
    for n in range(13):
        assert spectrum.multiset(n) == [-n * (n + a + b - 1)]


def test_eigenvalue_count_matches_harmonic_dimension():
    from math import comb

    model = get_model("deltoid")
    spectrum = graded_eigenvalues(model.operator, 6)
    for n in range(7):
        assert len(spectrum.multiset(n)) == comb(n + 1, n)


def test_all_eigenvalues_nonpositive():
    for name in ("square", "deltoid", "swallowtail", "nodal_cubic_cover_3d"):
        spectrum = graded_eigenvalues(get_model(name).operator, 6)
        for n in range(7):
            assert all(float(v) <= 1e-9 for v in spectrum.multiset(n))


def test_compare_closed_form_deltoid_three_parameter_values():
    for p in ("-1/2", "0", "1/2"):
        model = get_model("deltoid", {"p": p})
        assert compare_closed_form(model, 8) == []


def test_compare_closed_form_detects_corruption(monkeypatch):
    model = get_model("deltoid")
    claimed = model.claimed_spectrum()
    shifted = replace(claimed, formula=claimed.formula + 1)
    monkeypatch.setattr(model, "claimed_spectrum", lambda: shifted)
    # degree 0 too: the tabulated 0 becomes 1
    assert compare_closed_form(model, 6) == list(range(7))


@pytest.mark.parametrize("offset", [0.0, 1e-9])
def test_compare_closed_form_never_matches_a_numeric_block(offset, monkeypatch):
    # degree 3 reported as a numeric fallback at floats within 1e-8 of the
    # exact, tabulated eigenvalues: close, or even equal as a float, is not
    # a confirmation
    model = get_model("deltoid")
    original = spectra.block_eigenvalues

    def numeric_degree_three(block, scale):
        entries = original(block, scale)
        if len(block) != 4:
            return entries
        return [
            spectra.EigenvalueEntry(float(e.value) + offset, e.multiplicity, "numeric-block")
            for e in entries
        ]

    monkeypatch.setattr(spectra, "block_eigenvalues", numeric_degree_three)
    assert compare_closed_form(model, 6) == [3]


def test_product_spectrum_is_sumset():
    left = get_model("laguerre1d", {"a": "2"}).operator
    right = get_model("hermite1d").operator
    product = product_operator(left, right)
    spectrum = graded_eigenvalues(product, 6)
    for n in range(7):
        assert spectrum.multiset(n) == [Fraction(-n)] * (n + 1)


def test_eigenbasis_degree_zero_is_inverse_sqrt_mass():
    model = get_model("square", {"a": "0", "b": "0", "c": "0", "d": "0"})
    eb = eigenbasis(Moments(model, 4, model.sampler()), 2)
    constant = eb.per_degree[0][0]
    # mass 4 on the uniform square
    assert abs(constant.coefficients[0] - 0.5) < 1e-12
    assert all(abs(c) < 1e-14 for c in constant.coefficients[1:])


def test_eigenbasis_square_is_tensor_basis():
    model = get_model("square", {"a": "1", "b": "1", "c": "1", "d": "1"})
    eb = eigenbasis(Moments(model, 8, model.sampler()), 4)
    # eigenvalues per degree are sums n1(n1+3) + n2(n2+3)
    for n, level in enumerate(eb.per_degree):
        expected = sorted(
            Fraction(-(k * (k + 3) + (n - k) * ((n - k) + 3))) for k in range(n + 1)
        )
        assert sorted(f.eigenvalue for f in level) == expected
    assert eb.gram_deviation() < 1e-6
    assert max(eb.residuals()) < 1e-7
    # each function is the float rounding of an exact eigenvector
    m = np.array(dense_rows(GradedOperatorMatrix(model.operator, 4)), dtype=float)
    for f in eb.all_functions():
        assert f.exact and f.residual == 0.0
        r = m @ f.coefficients - float(f.eigenvalue) * f.coefficients
        assert np.abs(r).max() <= 1e-12 * np.abs(m).max() * np.abs(f.coefficients).max()


def test_eigenbasis_disk_degree_one():
    model = get_model("disk")
    eb = eigenbasis(Moments(model, 2, model.sampler()), 1)
    level = eb.per_degree[1]
    assert len(level) == 2
    assert level[0].eigenvalue == level[1].eigenvalue == Fraction(-2)
    # mutually orthogonal under the measure and spanned by {X, Y}
    overlap = eb.gram[1, 2]
    assert abs(overlap) < 1e-10
    for f in level:
        assert abs(f.coefficients[0]) < 1e-10  # no constant part


def test_eigenbasis_mc_domain_quality():
    model = get_model("nodal_cubic")
    # the cover's Monte Carlo draw, not the exact rule Moments would pick
    sampler = model.sampler(seed=11, sample_count=200_000)
    sample = sampler_points(model, sampler)
    assert sample.proposals == 200_000
    moments = moments_of(model, 9, sample)
    eb = eigenbasis(moments, 4)
    assert eb.gram_deviation() < 5e-2
    assert max(eb.residuals()) < 1e-7
    assert pencil_gaps(eb).max() < 5e-2


@pytest.mark.parametrize("rule", ["exact", "monte-carlo"])
def test_negative_pencil_eigenvalue_raises_on_every_rule(monkeypatch, rule):
    # the energy form is a positively weighted sum of grad f^t g grad f on
    # any rule, so an eigenvalue at -1e-4 of the scale is never noise
    model = get_model("deltoid")
    sampler = model.sampler(seed=5, sample_count=20_000)
    if rule == "exact":
        sample = sample_domain(model, sampler, 5)
    else:
        sample = sampler_points(model, sampler)
    assert (sample.proposals is None) == (rule == "exact")
    moments = moments_of(model, 5, sample)
    solve = spectra.generalized_sym_eig

    def shifted(a, b):
        values = solve(a, b)
        values[0] = -1e-4 * max(np.abs(values).max(), 1.0)
        return values

    monkeypatch.setattr(spectra, "generalized_sym_eig", shifted)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        eigenbasis(moments, 2)


def test_eigenbasis_refuses_moments_below_twice_its_degree():
    # degree 3 reads the Gram of cubics, moments to degree 6; the rule of
    # degree-5 moments is not exact there
    model = get_model("triangle")
    moments = Moments(model, 5, model.sampler())
    with pytest.raises(ValueError, match="needs moments to degree 6, not 5"):
        eigenbasis(moments, 3)
    assert eigenbasis(moments, 2).max_degree == 2


def test_eigenbasis_deterministic():
    model = get_model("triangle")
    eb1 = eigenbasis(Moments(model, 6, model.sampler()), 3)
    eb2 = eigenbasis(Moments(model, 6, model.sampler()), 3)
    for f1, f2 in zip(eb1.all_functions(), eb2.all_functions()):
        assert np.array_equal(f1.coefficients, f2.coefficients)


def test_cross_validation_gauss_tight():
    # the Gauss models on their own rules, the covers on their exact cover
    # rules: the full pencil, one eigenvalue per eigenfunction, on every one
    for name in ("jacobi1d", "square", "disk", "triangle", *sorted(COVER_SAMPLERS)):
        model = get_model(name)
        sampler = model.sampler()
        eb = eigenbasis(Moments(model, 13, sampler), 6)
        assert len(eb.pencil_eigenvalues) == len(eb.graded_values)
        assert pencil_gaps(eb).max() < 1e-6, name


def test_pencil_catches_a_perturbed_drift():
    # b^0 + x/100 keeps L degree-preserving, so the graded eigenfunctions
    # exist, but L is no longer symmetric for the cover's measure
    model = get_model("deltoid")
    sampler = model.sampler()
    moments = Moments(model, 13, sampler)
    assert pencil_gaps(eigenbasis(moments, 6)).max() < 1e-6
    op = model.operator
    drift = (op.drift[0] + Polynomial.monomial(2, (1, 0)) * Fraction(1, 100), op.drift[1])
    perturbed = get_model("deltoid")
    perturbed._operator = replace(op, drift=drift)
    # the perturbed model keeps the measure, so its rule is the same
    eb = eigenbasis(Moments(perturbed, 13, sampler), 6)
    assert pencil_gaps(eb).max() > 1e-6


def test_spectrum_json_export_shape():
    spectrum = graded_eigenvalues(get_model("disk").operator, 3)
    payload = spectrum.to_jsonable()
    assert payload["max_degree"] == 3
    assert [d["n"] for d in payload["degrees"]] == [0, 1, 2, 3]
    assert payload["degrees"][2]["eigenvalues"] == ["-6"]
    assert payload["degrees"][2]["multiplicities"] == [3]


def test_eigenbasis_raises_on_wrong_exact_eigenvector(monkeypatch):
    original = spectra._lifted_eigenvectors

    def corrupted(block, mu, poly, size):
        vectors = original(block, mu, poly, size)
        if poly.lower[0]:
            vectors[0][0] += 1  # add a constant: no longer an eigenvector
        return vectors

    monkeypatch.setattr(spectra, "_lifted_eigenvectors", corrupted)
    model = get_model("square")
    with pytest.raises(RuntimeError, match="exact eigenvector failed verification"):
        eigenbasis(Moments(model, 4, model.sampler()), 2)


def _reference_exact_eigenvectors(graded, degree, lam):
    """Eigenvectors over the basis of `graded` by the two-step route: a
    kernel basis of the shifted degree block, each top extended downward by
    its own exact solve, both from the dense reference Gauss-Jordan loop."""
    from test_linalg import _dense_rref

    block = graded.basis.degree_slices[degree]
    width = block.stop - block.start
    m = dense_rows(graded)
    shifted = [
        [m[block.start + i][block.start + j] - (lam if i == j else 0) for j in range(width)]
        for i in range(width)
    ]
    out = []
    reduced, pivots, d = _dense_rref(shifted)
    for f in range(width):
        if f in pivots:
            continue
        # 1 at the free column f, the solved pivot values at the pivot columns
        top = [Fraction(0)] * width
        top[f] = Fraction(1)
        for row, c in zip(reduced, pivots):
            top[c] = Fraction(-row[f], d)
        full = [Fraction(0)] * len(graded.basis)
        full[block] = top
        if block.start:
            lower = [
                [m[i][j] - (lam if i == j else 0) for j in range(block.start)]
                for i in range(block.start)
            ]
            rhs = [
                -sum((m[i][block.start + t] * top[t] for t in range(width)), Fraction(0))
                for i in range(block.start)
            ]
            # lam is no eigenvalue of a lower degree, so the solution is unique
            below, below_pivots, den = _dense_rref([row + [r] for row, r in zip(lower, rhs)])
            assert below_pivots == list(range(block.start))
            full[: block.start] = [Fraction(row[-1], den) for row in below]
        out.append(full)
    return out


def _sampled_model_cases():
    """The sampled catalog models at their defaults and at one generic point."""
    from test_operator import _generic_params

    rng = random.Random(6)
    for name in model_names():
        if get_model(name).has_sampler:
            yield name, None
            yield name, _generic_params(rng, get_descriptor(name))


def _exact_entries(op, max_degree):
    """(degree, eigenvalue, multiplicity, lifted eigenvectors) of every exact
    spectrum entry of the graded matrix of `op` to `max_degree`, the way
    `eigenbasis` reads them from one matrix to twice that degree."""
    graded = GradedOperatorMatrix(op, 2 * max_degree)
    polys = spectra.orthogonal_polynomials(graded, max_degree)
    size = graded.basis.degree_slices[max_degree].stop
    for degree, poly in enumerate(polys):
        block = graded.diagonal_block(degree)
        for entry in spectra.block_eigenvalues(block, graded.scale):
            if entry.is_exact:
                mu = int(entry.value * graded.scale)
                vectors = spectra._lifted_eigenvectors(block, mu, poly, size)
                yield degree, entry, poly, vectors


@pytest.mark.parametrize("name,params", list(_sampled_model_cases()))
def test_exact_eigenvectors_match_two_step_reference(name, params):
    # where lam is no eigenvalue of a lower degree, the eigenvector with a
    # given top part is unique, so the lift equals the two-step route's
    # vector up to the lift's integer scale
    op = get_model(name, params).operator
    graded = GradedOperatorMatrix(op, 6)
    spectrum = graded_eigenvalues(op, 6)
    compared = 0
    for degree, entry, _, vectors in _exact_entries(op, 6):
        assert len(vectors) == entry.multiplicity
        if any(e.value == entry.value for n in range(degree) for e in spectrum.per_degree[n]):
            continue
        reference = _reference_exact_eigenvectors(graded, degree, entry.value)
        for vector, expected in zip(vectors, reference):
            i = next(i for i, v in enumerate(expected) if v)
            scale = Fraction(vector[i]) / expected[i]
            assert [v / scale for v in vector] == expected
            compared += 1
    assert compared


@pytest.mark.parametrize("name,params", list(_sampled_model_cases()))
def test_exact_eigenvectors_are_orthogonal_under_the_exact_moments(name, params):
    # each lifted eigenvector f of degree n has <f, x^c> = 0 for every
    # |c| < n, and within each (n, lam) block the orthogonalized vectors are
    # pairwise orthogonal, as rational identities under the operator's own
    # moments
    op = get_model(name, params).operator
    big = GradedOperatorMatrix(op, 12)
    numerators, denominator = big.moments()
    mean = {e: Fraction(n, denominator) for e, n in zip(big.basis.exponents, numerators)}

    def inner(u, v):
        return sum(
            (
                Fraction(x) * y * mean[tuple(p + q for p, q in zip(a, b))]
                for x, a in zip(u, big.basis.exponents) if x
                for y, b in zip(v, big.basis.exponents) if y
            ),
            Fraction(0),
        )

    for degree, entry, poly, vectors in _exact_entries(op, 6):
        top = big.basis.degree_slices[degree]
        for vector in vectors:
            for c in range(top.start):
                unit = [int(i == c) for i in range(len(vector))]
                assert inner(vector, unit) == 0
        orthogonal, norms = spectra._orthogonalize(vectors, top, poly.gram)
        scale = poly.scale**2 * poly.denominator
        for i, u in enumerate(orthogonal):
            assert inner(u, u) == Fraction(norms[i], scale) > 0
            assert all(inner(u, v) == 0 for v in orthogonal[:i])


def test_eigenbasis_raises_when_eigenvectors_miss_the_multiplicity(monkeypatch):
    original = spectra.block_eigenvalues

    def inflated(block, scale):
        return [
            spectra.EigenvalueEntry(e.value, e.multiplicity + 1, e.source)
            for e in original(block, scale)
        ]

    monkeypatch.setattr(spectra, "block_eigenvalues", inflated)
    model = get_model("disk")
    with pytest.raises(RuntimeError, match="expected multiplicity"):
        eigenbasis(Moments(model, 4, model.sampler()), 2)


def _forced_fallback(monkeypatch):
    """Report every block as a numeric fallback, its eigenvalues off by 1e-4
    relative, so the residuals are well above roundoff."""
    original = spectra.block_eigenvalues

    def numeric(block, scale):
        return [
            spectra.EigenvalueEntry(float(e.value) * (1 + 1e-4), e.multiplicity, "numeric-block")
            for e in original(block, scale)
        ]

    monkeypatch.setattr(spectra, "block_eigenvalues", numeric)


def test_eigenbasis_float_fallback_residuals_match_pointwise_reference(monkeypatch):
    _forced_fallback(monkeypatch)
    model = get_model("triangle")
    eb = eigenbasis(Moments(model, 8, model.sampler()), 4)
    funcs = eb.all_functions()
    assert all(not f.exact for f in funcs)
    moments = spectra.Moments(model, 9, model.sampler())
    values = eb.basis.eval_float(moments.points)
    m = np.array(dense_rows(GradedOperatorMatrix(model.operator, 4)), dtype=float)
    for f in funcs:
        r = m @ f.coefficients - float(f.eigenvalue) * f.coefficients
        num = np.dot(moments.weights, (values @ r) ** 2)
        den = np.dot(moments.weights, (values @ f.coefficients) ** 2)
        assert abs(f.residual - np.sqrt(num / den)) <= 1e-9 * np.sqrt(num / den) + 1e-15
    assert max(eb.residuals()) > 1e-6


def _pointwise_gram(eb, moments):
    values = eb.basis.eval_float(moments.points) @ np.column_stack(
        [f.coefficients for f in eb.all_functions()]
    )
    return values.T @ (moments.weights[:, None] * values)


@pytest.mark.parametrize(
    "name,degree,sample_count,fallback",
    [("square", 6, None, False), ("deltoid", 6, 50_000, False), ("triangle", 4, None, True)],
)
def test_eigenbasis_gram_matches_pointwise_reevaluation(
    monkeypatch, name, degree, sample_count, fallback
):
    # the returned Gram comes from the pass that also integrates the energy;
    # it must equal the Gram of the returned coefficients evaluated afresh
    if fallback:
        _forced_fallback(monkeypatch)
    model = get_model(name)
    sampler = model.sampler(seed=5, sample_count=sample_count)
    # the sampler's own points: the Monte Carlo draw on deltoid
    moments = moments_of(
        model, 2 * degree + 1, sampler_points(model, sampler, 2 * degree + 1)
    )
    eb = eigenbasis(moments, degree)
    assert all(f.exact != fallback for f in eb.all_functions())
    assert np.abs(eb.gram - _pointwise_gram(eb, moments)).max() <= 1e-12


def test_exact_eigenvector_check_rejects_a_vector_off_by_1e_minus_30():
    # M has denominators (S = 30) and lam = -146/15, so mu = S lam = -292
    model = get_model("square", {"a": "1/3", "b": "2/5", "c": "1/2", "d": "0"})
    graded = GradedOperatorMatrix(model.operator, 6)
    size = graded.basis.degree_slices[3].stop
    m = dense_rows(graded)
    block = graded.diagonal_block(3)
    lam = spectra.block_eigenvalues(block, graded.scale)[-1].value
    mu = int(lam * graded.scale)
    poly = spectra.orthogonal_polynomials(graded, 3)[3]
    vec = spectra._lifted_eigenvectors(block, mu, poly, size)[0]
    assert graded.scale == 30 and mu == -292 and lam.denominator > 1
    spectra._verify_exact_eigenvector(graded, vec, mu)
    for wrong in (mu + 1, 3 * mu):
        with pytest.raises(RuntimeError, match="exact eigenvector failed verification"):
            spectra._verify_exact_eigenvector(graded, vec, wrong)
    # 10^30 v + e_j is v off by 1e-30 in coordinate j
    big = [10**30 * v for v in vec]
    for j in range(size):
        off = list(big)
        off[j] += 1
        if vec[j]:
            assert off[j] / 10**30 == float(vec[j])  # invisible in float
        # no longer an eigenvector unless column j of M - lam I vanishes
        column = [m[i][j] - (lam if i == j else 0) for i in range(size)]
        if any(column):
            with pytest.raises(RuntimeError, match="exact eigenvector failed verification"):
                spectra._verify_exact_eigenvector(graded, off, mu)
        else:
            spectra._verify_exact_eigenvector(graded, off, mu)


@pytest.mark.parametrize(
    "wrong", [lambda lam: lam / 7, lambda lam: lam + Fraction(1, 60)], ids=["over-7", "plus-1/60"]
)
def test_eigenbasis_raises_unless_scale_times_lam_is_an_integer(monkeypatch, wrong):
    # S = 30 and S lam = -292 for the last degree-3 eigenvalue: lam / 7 and
    # lam + 1/60 are no eigenvalues of the integer block and must not reach
    # its nullspace
    model = get_model("square", {"a": "1/3", "b": "2/5", "c": "1/2", "d": "0"})
    original = spectra.block_eigenvalues

    def shifted(block, scale):
        entries = original(block, scale)
        if len(block) == 4:
            last = entries[-1]
            assert scale == 30 and last.value * scale == -292
            entries[-1] = spectra.EigenvalueEntry(wrong(last.value), last.multiplicity, last.source)
        return entries

    eigenbasis(Moments(model, 6, model.sampler()), 3)  # the unshifted blocks lift
    monkeypatch.setattr(spectra, "block_eigenvalues", shifted)
    with pytest.raises(RuntimeError, match="is not an integer"):
        eigenbasis(Moments(model, 6, model.sampler()), 3)


def test_orthogonal_polynomials_need_moments_to_twice_the_degree():
    op = get_model("deltoid").operator
    polys = spectra.orthogonal_polynomials(GradedOperatorMatrix(op, 6), 3)
    assert len(polys) == 4
    # a longer matrix has the same moments, so the same P_b
    wider = spectra.orthogonal_polynomials(GradedOperatorMatrix(op, 7), 3)
    assert [(p.scale, p.lower) for p in wider] == [(p.scale, p.lower) for p in polys]
    with pytest.raises(ValueError, match="needs moments to degree 6"):
        spectra.orthogonal_polynomials(GradedOperatorMatrix(op, 5), 3)


def _per_degree_orthogonal_polynomials(graded, max_degree):
    """The per-degree route the single elimination replaced, kept as a
    reference: at each degree n, one exact solve of the moment matrix of
    the monomials of degree < n with a right-hand side per x^b, by the
    dense Gauss-Jordan loop, and the Gram of the P_b from <x^a, P_b> =
    <P_a, P_b>.  Returns (scale, lower / scale, gram / scale^2) per degree,
    the last two as Fractions; the scale is the loop's last pivot, the
    determinant of the moment numerators of degree < n."""
    from test_linalg import _dense_rref

    exponents = graded.basis.exponents
    numerators, _ = graded.moments()
    mean = dict(zip(exponents, numerators))

    def moment(a, b):
        return mean[tuple(x + y for x, y in zip(a, b))]

    out = []
    for block in graded.basis.degree_slices[: max_degree + 1]:
        lower, top = exponents[: block.start], exponents[block]
        rhs = [[moment(c, b) for c in lower] for b in top]
        scale, projection = 1, [[] for _ in top]
        if lower:
            augmented = [
                [moment(c, e) for e in lower] + [column[i] for column in rhs]
                for i, c in enumerate(lower)
            ]
            reduced, pivots, scale = _dense_rref(augmented)
            assert pivots == list(range(len(lower)))
            projection = [[row[len(lower) + t] for row in reduced] for t in range(len(top))]
        gram = [
            [Fraction(scale * moment(a, b) - sum(m * y for m, y in zip(row, column)), scale)
             for b, column in zip(top, projection)]
            for a, row in zip(top, rhs)
        ]
        lower_over_scale = [[Fraction(v, scale) for v in column] for column in projection]
        out.append((scale, lower_over_scale, gram))
    return out


def _least_scale(graded, block, lower, size):
    """The scale `OrthogonalDegree` defines, from a reference's P_b (lower
    as Fractions): the lcm over b of the least positive integer lam_b that
    makes lam_b P_b and its moment numerators lam_b <P_b, x^j>, j < size,
    integers."""
    exponents = graded.basis.exponents
    numerators, _ = graded.moments()
    mean = dict(zip(exponents, numerators))
    scale = 1
    for b, column in zip(range(block.start, block.stop), lower):
        poly = {exponents[c]: -v for c, v in enumerate(column)} | {exponents[b]: Fraction(1)}
        moments = [
            sum(v * mean[tuple(p + q for p, q in zip(a, exponents[j]))] for a, v in poly.items())
            for j in range(size)
        ]
        scale = lcm(scale, *(v.denominator for v in [*poly.values(), *moments]))
    return scale


@pytest.mark.parametrize("name,params", list(_sampled_model_cases()))
def test_orthogonal_polynomials_match_the_per_degree_solves(name, params):
    graded = GradedOperatorMatrix(get_model(name, params).operator, 12)
    polys = spectra.orthogonal_polynomials(graded, 6)
    reference = _per_degree_orthogonal_polynomials(graded, 6)
    assert len(polys) == len(reference) == 7
    size = graded.basis.degree_slices[6].stop
    for poly, block, (minor, lower, gram) in zip(polys, graded.basis.degree_slices, reference):
        assert [[Fraction(v, poly.scale) for v in row] for row in poly.lower] == lower
        assert [[Fraction(v, poly.scale**2) for v in row] for row in poly.gram] == gram
        # the least common scale of the rows, which divides the reference's
        # scale, the determinant of the lower-degree moment numerators
        assert poly.scale == _least_scale(graded, block, lower, size)
        assert minor % poly.scale == 0


def test_orthogonal_polynomials_stay_the_size_of_their_answer():
    # the degree-6 leading minor of cuspidal_cubic_tangent has 1,595 bits;
    # the least common scale of its P_b has 141
    graded = GradedOperatorMatrix(get_model("cuspidal_cubic_tangent").operator, 12)
    assert spectra.orthogonal_polynomials(graded, 6)[6].scale.bit_length() <= 200


def test_orthogonal_polynomials_refuse_a_row_without_a_positive_own_coefficient(monkeypatch):
    # every elimination step multiplies a row's own coefficient by a positive
    # pivot and divides it by a positive gcd; a row that breaks that premise
    # must raise, not hand out P_b with a scale of the wrong sign
    graded = GradedOperatorMatrix(get_model("square").operator, 4)
    original = spectra.symmetric_elimination

    def negated(rows, blocks):
        for top in original(rows, blocks):
            yield [{j: -v for j, v in row.items()} for row in top]

    spectra.orthogonal_polynomials(graded, 2)
    monkeypatch.setattr(spectra, "symmetric_elimination", negated)
    with pytest.raises(ArithmeticError, match="degree-0 row's own coefficient is not positive"):
        spectra.orthogonal_polynomials(graded, 2)


@pytest.mark.parametrize("name,params", list(_sampled_model_cases()))
def test_orthogonal_polynomials_are_orthogonal_under_the_exact_moments(name, params):
    # in integers, from the moment numerators alone: scale P_b has moment 0
    # against every monomial of lower degree, and gram holds the moments of
    # the products scale P_a scale P_b
    graded = GradedOperatorMatrix(get_model(name, params).operator, 12)
    numerators, denominator = graded.moments()
    exponents = graded.basis.exponents
    mean = dict(zip(exponents, numerators))

    def inner(u, v):
        return sum(
            x * y * mean[tuple(p + q for p, q in zip(a, b))]
            for a, x in u.items() for b, y in v.items()
        )

    polys = spectra.orthogonal_polynomials(graded, 6)
    for poly, block in zip(polys, graded.basis.degree_slices):
        assert poly.denominator == denominator and poly.scale > 0
        scaled = [
            {exponents[c]: -v for c, v in enumerate(row)} | {exponents[b]: poly.scale}
            for b, row in zip(range(block.start, block.stop), poly.lower)
        ]
        for k, p in enumerate(scaled):
            assert all(inner(p, {c: 1}) == 0 for c in exponents[: block.start])
            assert [inner(p, q) for q in scaled] == poly.gram[k]


def test_orthogonal_polynomials_refuse_the_moments_of_no_positive_measure(monkeypatch):
    # the point mass at (1/2, 1/3): a rank-1 moment matrix, whose pivot in
    # the first degree-1 column is m_0 m_xx - m_x^2 = 0
    graded = GradedOperatorMatrix(get_model("square").operator, 4)
    point = [Fraction(1, 2)**a * Fraction(1, 3)**b for a, b in graded.basis.exponents]
    denominator = lcm(*(v.denominator for v in point))
    moments = ([int(v * denominator) for v in point], denominator)
    monkeypatch.setattr(graded, "moments", lambda: moments)
    with pytest.raises(ValueError, match="leading minor in block 1 vanishes"):
        spectra.orthogonal_polynomials(graded, 2)
    # the top degree's columns are no pivots: to degree 1, P_b = x^b - p^b,
    # each of norm 0
    assert spectra.orthogonal_polynomials(graded, 1)[1].gram == [[0, 0], [0, 0]]
    # m_0 = m_xy = 1 and every other moment 0: the degree-1 moment matrix
    # [[1, 0, 0], [0, 0, 1], [0, 1, 0]] is nonsingular but indefinite, and
    # its leading minor over 1, x is m_0 m_xx - m_x^2 = 0
    indefinite = [int(e == (1, 1) or e == (0, 0)) for e in graded.basis.exponents]
    monkeypatch.setattr(graded, "moments", lambda: (indefinite, 1))
    with pytest.raises(ValueError, match="positive definite: a leading minor in block 1 vanishes"):
        spectra.orthogonal_polynomials(graded, 2)
    # m_0 = m_xx = 1 and m_x = 2: the pivot m_0 m_xx - m_x^2 = -3
    line = GradedOperatorMatrix(get_model("jacobi1d").operator, 4)
    monkeypatch.setattr(line, "moments", lambda: ([1, 2, 1, 0, 1], 1))
    with pytest.raises(ValueError, match="leading minor in block 1 is negative"):
        spectra.orthogonal_polynomials(line, 2)


def _to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])


def _random_rational_matrices(sympy, rng, n):
    """Generic, singular, repeated-eigenvalue and large-denominator n x n cases."""

    def rational(bound, den):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, den))

    generic = [[rational(9, 9) for _ in range(n)] for _ in range(n)]
    singular = [row[:] for row in generic]
    if n == 1:
        singular = [[Fraction(0)]]
    else:
        a, b = rational(5, 7), rational(5, 7)
        singular[-1] = [a * u + b * v for u, v in zip(singular[0], singular[1])]
    # a triangular matrix with repeated diagonal values and Jordan-type
    # superdiagonal entries, hidden by a rational similarity
    values = (Fraction(1, 2), Fraction(-3), Fraction(2, 3))
    triangular = [
        [rng.choice(values) if i == j else Fraction(rng.randint(0, 1)) if j > i else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]
    similarity = _to_sympy(sympy, [[rational(3, 4) for _ in range(n)] for _ in range(n)])
    while similarity.det() == 0:
        similarity = _to_sympy(sympy, [[rational(3, 4) for _ in range(n)] for _ in range(n)])
    repeated = similarity * _to_sympy(sympy, triangular) * similarity.inv()
    repeated = [[Fraction(int(v.p), int(v.q)) for v in repeated.row(i)] for i in range(n)]
    large = [[rational(10**15, 10**15) for _ in range(n)] for _ in range(n)]
    return {"generic": generic, "singular": singular, "repeated": repeated, "large": large}


def _integer_block(rows):
    """A rational matrix as (integer rows, scale): scaled by the lcm of its
    denominators, as `GradedOperatorMatrix.diagonal_block` hands out scale * M_nn."""
    scale = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in rows], scale


def test_char_poly_matches_sympy_charpoly():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1984)
    t = sympy.Symbol("t")
    for n in range(1, 13):
        for kind, rows in _random_rational_matrices(sympy, rng, n).items():
            block, _ = _integer_block(rows)
            expected = sympy.Matrix(block).charpoly(t).all_coeffs()[::-1]
            assert all(c.is_integer for c in expected) and expected[-1] == 1
            assert spectra._char_poly(block) == [int(c) for c in expected], (kind, n)
            if kind == "singular":
                assert expected[0] == 0


def _sympy_rational_eigenvalues(sympy, block, scale):
    """{eigenvalue: multiplicity} of the rational eigenvalues of block / scale,
    and whether they are all of them, from sympy's factorization of the
    characteristic polynomial over the rationals."""
    t = sympy.Symbol("t")
    factors = (sympy.Matrix(block) / scale).charpoly(t).factor_list()[1]
    rational = {}
    for factor, multiplicity in factors:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            root = -c0 / c1
            rational[Fraction(int(root.p), int(root.q))] = multiplicity
    return rational, all(factor.degree() == 1 for factor, _ in factors)


def _conjugated_cases(sympy, rng):
    """(kind, integer block, scale) with known rational structure: semisimple
    spectra (distinct, repeated, with 0) under a rational similarity, a
    3 x 3 Jordan block alone and beside other eigenvalues under a unimodular
    one and alone under a rational one, and spectra with the irrational pair
    +-sqrt(2) beside rational eigenvalues.

    Then blocks that fall apart into strongly connected components: such
    conjugated blocks on the diagonal of a block upper triangular matrix,
    joined by random integer entries above them, under a random permutation
    similarity (`_joined`).  "near-jordan" puts an eigenvalue 5 / scale from
    a Jordan block's into another component, inside the spread of the Jordan
    block's float eigenvalues, so a window over the whole block's values
    would take it in.  Last, spectra the screen modulo SCREEN_PRIMES must
    pass: integer eigenvalues that coincide modulo every screening prime
    ("coincident", 0, 1155 = 3 * 5 * 7 * 11 and 2310), and the irreducible
    t^2 - 1155 ("irreducible"), which only the candidates can reject."""

    def rational(bound, den):
        return sympy.Rational(rng.randint(-bound, bound), rng.randint(1, den))

    def similarity(n, unimodular, den):
        if unimodular:  # unit triangular factors: integer, with integer inverse
            def entry(i, j):
                return 1 if i == j else rng.randint(-2, 2)

            lower = sympy.Matrix(n, n, lambda i, j: entry(i, j) if i >= j else 0)
            upper = sympy.Matrix(n, n, lambda i, j: entry(i, j) if i <= j else 0)
            return lower * upper
        while True:
            s = sympy.Matrix(n, n, lambda i, j: rational(3, den))
            if s.det() != 0:
                return s

    def conjugated(core, unimodular=False, den=4):
        s = similarity(core.rows, unimodular, den)
        m = s * core * s.inv()
        rows = [[Fraction(int(v.p), int(v.q)) for v in m.row(i)] for i in range(m.rows)]
        return _integer_block(rows)

    def jordan(lam):
        return sympy.Matrix([[lam, 1, 0], [0, lam, 1], [0, 0, lam]])

    pair = sympy.Matrix([[0, 2], [1, 0]])
    for n in range(1, 7):
        distinct = [sympy.Rational(k, 6) for k in rng.sample(range(-30, 31), n)]
        yield "distinct", *conjugated(sympy.diag(*distinct))
        yield "repeated", *conjugated(sympy.diag(*[rng.choice(distinct[:2]) for _ in range(n)]))
        yield "singular", *conjugated(sympy.diag(0, *[rational(9, 6) for _ in range(n - 1)]))
        yield "irrational", *conjugated(sympy.diag(pair, *[rational(9, 6) for _ in range(n - 1)]))
    for others in range(3):
        core = sympy.diag(jordan(rational(9, 6)), *[rational(9, 6) for _ in range(others)])
        yield "jordan", *conjugated(core, unimodular=True)
    # denominators up to 16 in the similarity give block scales of 2^8 to
    # 2^27, at which the float eigenvalues of a Jordan block, off by about
    # (eps |M|)^(1/3), often round to no root: their mean does
    for _ in range(20):
        yield "jordan", *conjugated(jordan(rational(9, 6)), den=16)

    def distinct(n):
        return sympy.diag(*[sympy.Rational(k, 6) for k in rng.sample(range(-30, 31), n)])

    for _ in range(6):
        parts = [conjugated(jordan(rational(9, 6)), den=16), conjugated(distinct(2)),
                 conjugated(distinct(1)), conjugated(distinct(3))]
        yield "components", *_joined(rng, parts)
        yield "components-irrational", *_joined(rng, parts[:3] + [conjugated(pair)])
    for _ in range(6):
        lam = rational(9, 6)
        rows, scale = conjugated(jordan(lam), den=16)
        # multiplied up until its float eigenvalues spread over thousands of
        # integers around mu = lam * scale
        factor = -(-10**10 // max(abs(v) for row in rows for v in row))
        rows, scale = [[factor * v for v in row] for row in rows], factor * scale
        near = ([[int(lam * scale) + 5]], scale)
        yield "near-jordan", *_joined(rng, [(rows, scale), near, conjugated(distinct(2))])
    for _ in range(3):
        yield "coincident", *conjugated(sympy.diag(0, 1155), unimodular=True)
        yield "coincident", *conjugated(sympy.diag(1155, 0, 2310, 1), unimodular=True)
        yield "coincident", *conjugated(sympy.diag(jordan(1), 1156), unimodular=True)
        yield "irreducible", *conjugated(sympy.Matrix([[0, 1155], [1, 0]]), unimodular=True)


def _joined(rng, parts):
    """The integer blocks of `parts`, (rows, scale) each, over their common
    scale, on the diagonal of a block upper triangular matrix with random
    integer entries above them, under a random permutation similarity."""
    scale = lcm(*(s for _, s in parts))
    n = sum(len(rows) for rows, _ in parts)
    matrix = [[0] * n for _ in range(n)]
    start = 0
    for rows, s in parts:
        for i, row in enumerate(rows):
            matrix[start + i][start : start + len(row)] = [v * (scale // s) for v in row]
            for j in range(start + len(row), n):
                matrix[start + i][j] = rng.randint(-2, 2)
        start += len(rows)
    order = rng.sample(range(n), n)
    return [[matrix[i][j] for j in order] for i in order], scale


NOT_SPLITTING = {"irrational", "components-irrational", "irreducible"}


def test_block_eigenvalues_are_the_sympy_rational_eigenvalues():
    # an integer block B = scale * M whose characteristic polynomial sympy
    # factors into linear factors gives exactly those roots with their
    # multiplicities, in increasing order; a block with an irrational pair
    # or t^2 - 1155 is a numeric fallback throughout, though the rest of it
    # is rational
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2021)
    seen = set()
    for kind, block, scale in _conjugated_cases(sympy, rng):
        entries = spectra.block_eigenvalues(block, scale)
        rational, splits = _sympy_rational_eigenvalues(sympy, block, scale)
        assert splits == (kind not in NOT_SPLITTING), kind
        assert sum(e.multiplicity for e in entries) == len(block)
        if splits:
            assert all(e.is_exact for e in entries), (kind, block, scale)
            assert [(e.value, e.multiplicity) for e in entries] == sorted(rational.items())
        else:
            assert all(e.source == "numeric-block" for e in entries), (kind, block, scale)
        if kind == "jordan":  # one eigenvector for the triple eigenvalue
            mu = next(e.value for e in entries if e.multiplicity == 3) * scale
            shifted = sympy.Matrix(block) - int(mu) * sympy.eye(len(block))
            assert len(block) - shifted.rank() == 1
        seen.add(kind)
    assert seen == {
        "distinct", "repeated", "singular", "irrational", "jordan", "components",
        "components-irrational", "near-jordan", "coincident", "irreducible",
    }


SWEEP_DEGREE = {1: 12, 2: 8, 3: 6}


def _catalog_spectrum_cases():
    """All catalog models at their defaults and at one generic point."""
    from test_operator import _generic_params

    rng = random.Random(21)
    for name in model_names():
        yield name, None
        descriptor = get_descriptor(name)
        if descriptor.param_specs:
            yield name, _generic_params(rng, descriptor)


@pytest.mark.parametrize("name,params", list(_catalog_spectrum_cases()))
def test_catalog_block_spectra_are_integers_over_the_scale(name, params):
    # at the sweep degrees, every exact eigenvalue times the graded scale is
    # an integer, which _lifted_eigenvectors relies on; every non-triangular
    # block's exact entries are sympy's eigenvalues of the Fraction block, and
    # a numeric fallback only where sympy finds an irreducible factor of
    # degree > 1
    sympy = pytest.importorskip("sympy")
    model = get_model(name, params)
    graded = GradedOperatorMatrix(model.operator, SWEEP_DEGREE[model.dim])
    dense = dense_rows(graded)
    for n, block in enumerate(graded.basis.degree_slices):
        rows = [row[block] for row in dense[block]]
        entries = spectra.block_eigenvalues(graded.diagonal_block(n), graded.scale)
        for e in entries:
            if e.is_exact:
                assert (e.value * graded.scale).denominator == 1, (n, e)
        if spectra._is_triangular(rows):
            assert all(e.is_exact for e in entries)
            continue
        matrix = _to_sympy(sympy, rows)
        if all(e.is_exact for e in entries):
            expected = {
                Fraction(int(v.p), int(v.q)): m for v, m in matrix.eigenvals().items()
            }
            assert {e.value: e.multiplicity for e in entries} == expected, n
        else:
            factors = matrix.charpoly(sympy.Symbol("t")).factor_list()[1]
            assert any(factor.degree() > 1 for factor, _ in factors), n


def _component_blocks():
    sympy = pytest.importorskip("sympy")
    yield from (block for _, block, _ in _conjugated_cases(sympy, random.Random(2021)))
    rng = random.Random(1972)
    for n in range(1, 16):
        for density in (0.1, 0.2, 0.35):
            yield [[rng.randint(1, 9) if rng.random() < density else 0 for _ in range(n)]
                   for _ in range(n)]


def test_components_are_the_strongly_connected_classes():
    # the components partition the rows into the strongly connected classes
    # of the off-diagonal nonzero pattern, each listed in sorted order, as
    # an independent Tarjan finds them; nothing reads their order
    sympy = pytest.importorskip("sympy")
    from sympy.utilities.iterables import strongly_connected_components

    for block in _component_blocks():
        n = len(block)
        edges = [(i, j) for i in range(n) for j in range(n) if i != j and block[i][j]]
        expected = strongly_connected_components((list(range(n)), edges))
        components = spectra._components(block)
        assert all(component == sorted(component) for component in components)
        assert sorted(components) == sorted(sorted(c) for c in expected), block


def _times(a, b):
    """The product of two polynomials, coefficients low-to-high."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_components_split_the_characteristic_polynomial():
    # block_eigenvalues relies on it: the characteristic polynomials of the
    # components, each of its own rows and columns, multiply to the block's
    for block in _component_blocks():
        product = [1]
        for c in spectra._components(block):
            product = _times(product, spectra._char_poly([[block[i][j] for j in c] for i in c]))
        assert product == spectra._char_poly(block), block


def test_screen_never_rejects_a_block_that_splits():
    # every component of a block with rational spectrum has its full degree
    # of roots modulo each screening prime, counted with multiplicity, also
    # where distinct eigenvalues coincide modulo all of them; t^2 - 1155
    # passes the screen too, so the candidates must reject it
    sympy = pytest.importorskip("sympy")
    for kind, block, scale in _conjugated_cases(sympy, random.Random(2021)):
        screened = [
            spectra._splits_modulo(spectra._char_poly([[block[i][j] for j in c] for i in c]), p)
            for c in spectra._components(block)
            for p in spectra.SCREEN_PRIMES
        ]
        if kind not in NOT_SPLITTING or kind == "irreducible":
            assert all(screened), (kind, block, scale)
        if kind == "irreducible":
            assert spectra._char_poly(block) == [-1155, 0, 1]
            entries = spectra.block_eigenvalues(block, scale)
            assert all(e.source == "numeric-block" for e in entries)


def _shortfall_at(p):
    """The least c, a multiple of every other screening prime, that is no
    square modulo p: t^2 - c splits modulo every screening prime but p."""
    others = [q for q in spectra.SCREEN_PRIMES if q != p]
    step = others[0] * others[1] * others[2]
    return next(c for c in range(step, p * step, step) if all((x * x - c) % p for x in range(p)))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_screen_rejects_a_shortfall_at_each_prime_before_any_candidate(p, monkeypatch):
    c = _shortfall_at(p)
    coeffs = [-c, 0, 1]
    assert [spectra._splits_modulo(coeffs, q) for q in spectra.SCREEN_PRIMES] == [
        q != p for q in spectra.SCREEN_PRIMES
    ]

    def unreachable(*args):
        raise AssertionError("the candidate search ran on a block the screen rejects")

    monkeypatch.setattr(spectra, "_integer_roots", unreachable)
    # the companion matrix of t^2 - c beside a rational 2 x 2 component
    block = [[0, c, 1, 0], [1, 0, 0, 2], [0, 0, 3, 1], [0, 0, 2, 4]]
    entries = spectra.block_eigenvalues(block, 2)
    assert all(e.source == "numeric-block" for e in entries)
    assert sorted(e.value for e in entries) == pytest.approx(
        sorted([-sqrt(c) / 2, sqrt(c) / 2, 1.0, 2.5])
    )


def test_rounded_is_the_fraction_rounding():
    # round(Fraction(v) * scale), ties to even: on random floats of every
    # size and sign, random scales, and exact half-way values of both
    # parities, positive and negative
    rng = random.Random(1954)
    cases = []
    for _ in range(3000):
        v = rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12)
        cases.append((v, rng.randint(1, 2**rng.randint(1, 80))))
    for k in range(1, 60):
        for n in range(-6, 7):
            cases.append(((2 * n + 1) / 2 ** (k + 1), 2**k))  # n + 1/2
            cases.append((3 * (2 * n + 1) / 2 ** (k + 1), 2**k))  # 3n + 3/2
            cases.append(((2 * n + 1) / 2 ** (k + 1), 3 * 2**k))  # 3n + 3/2
    ties = 0
    for v, scale in cases:
        exact = Fraction(v) * scale
        ties += exact.denominator == 2
        assert spectra._rounded(v, scale) == round(exact), (v, scale)
    assert ties == 3 * 59 * 13


def test_char_poly_raises_unless_monic(monkeypatch):
    # the screen is sound only for a monic polynomial: a Berkowitz step
    # whose sums came out doubled leaves the leading coefficient 2^n
    import builtins

    block = [[1, 2], [3, 4]]
    assert spectra._char_poly(block) == [-2, -5, 1]
    monkeypatch.setattr(spectra, "sum", lambda items: 2 * builtins.sum(items), raising=False)
    with pytest.raises(ArithmeticError, match="leading coefficient 4"):
        spectra._char_poly(block)
