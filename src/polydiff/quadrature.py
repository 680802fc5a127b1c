"""Quadrature against model measures.

Every integral the program takes is a polynomial moment of known degree, so
each deterministic rule is sized by the moment degree it must integrate
(`sample_domain(model, sampler, degree)`), not by a node count.  Mapped
Gauss rules cover the square (tensor Gauss-Jacobi, also used for 1D
intervals), the disk (angular equispaced x radial Gauss-Jacobi in r^2) and
the triangle (Duffy map with both classical weights absorbed), so every
moment up to that degree is exact to roundoff.  Each Gauss-Jacobi rule is
the eigendecomposition of its weight's Jacobi matrix (Golub-Welsch).

The eight exotic bounded models are, at their Laplace-type parameter points,
images of a sphere, the Chebyshev square or a flat torus under a polynomial
map.  `COVER_SAMPLERS` is the one registry of these covers: each holds its
polynomial diffusion operator, the equations that cut it out and its two
map polynomials, from which `geometry.verify_pullback` decides the
realization exactly.  Each cover has a seeded Monte Carlo draw (sampler kind
cover-mc) and a deterministic product rule, both pushed to the plane by
evaluating the maps.  The product rule, built for a moment degree, is exact
to roundoff like the Gauss rules and is what `sample_domain` returns for a
cover-mc sampler.  `cover_cross_check` measures the Monte Carlo moments in
units of their standard error against the exact moments of the measure,
which L fixes (`GradedOperatorMatrix.moments`), and hands those moments
back so that `rule_moment_gap` can hold the rule against them too; no rule
is integrated for the reference.  The cross-check streams the
draw in blocks of POINT_CHUNK proposals and never holds the whole point
cloud.  It is the one pass that uses threads: the blocks are shared out
between the calling thread and one helper thread per further CPU the
process may use (none with one CPU), since a block's draw, acceptance test
and moment table are numpy calls on whole blocks, which release the GIL
while they run.  The block tables are added in block order, so its output
cannot change with the thread count or the order blocks finish.  Rejection
sampling stays on one thread: its numpy calls are short, so two threads
mostly hand the GIL back and forth, and sharing its blocks the same way
showed no gain.

Every rule returns weights with the measure density folded in, so each
integral is a weighted sum over its points.  `Moments` integrates only its
model's rule, the one `sample_domain` returns, once; the forms built on it
(`gram_matrix`, `operator_moment_matrix`, `gamma_form_matrix`) take that
`Moments` and read the model from it, so a form always integrates its own
model's measure.

Everything else uses seeded Monte Carlo rejection in a bounding box.  Both
Monte Carlo kinds propose in counter blocks: proposal j draws from fixed
counter positions, so the accepted set depends only on (seed, sample_count,
boundary), never on the block size.

Each block passes once through the numeric layers.  Its points are held as
one coordinate row per axis; `eval_floats` evaluates all boundary factors
(or both cover maps) from one set of per-axis power tables; the acceptance
test keeps the coordinates and factor values with one index; rejection
takes the density from the kept factor values, evaluating only the density
factors that are no boundary factor; and `_block_moments` contracts
contiguous per-axis power tables in one matrix product.

Two float evaluators sit beside the exact layer: `eval_floats` evaluates
polynomials at float points, in the row blocks of `point_chunks` like every
other float pass, each coefficient converted once as numerator /
denominator (Python's correctly rounded int division, the value
``float(Fraction)`` gives), and `MonomialBasis.eval_float` tabulates the
monomials of a basis, importing numpy where it runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import exp, lgamma
from typing import Callable, Sequence

import numpy as np

from .operator import (
    CoMetric,
    DiffusionOperator,
    GradedOperatorMatrix,
    _lowered,
    product_operator,
    sphere_operator,
)
from .catalog import DomainSampler, SamplerConfigError
from .poly import MonomialBasis, Polynomial, grlex_key, parse_poly, parse_rational
from .rng import normal_points, sphere_points, uniform_block, unit_rows

#: rows per block: Monte Carlo proposals drawn at once, and sample points per
#: step of a pass that accumulates sums
POINT_CHUNK = 16384
#: nodes per free axis of each box face `check_box_encloses` samples
BOX_FACE_NODES = 257


def eval_floats(polys: Sequence[Polynomial], coordinates: np.ndarray) -> np.ndarray:
    """Every polynomial of `polys` at the points whose coordinates are the
    rows of the (dim, N) array `coordinates`: a (len(polys), N) array.

    Each axis's powers come from repeated multiplication, shared by all
    terms of all the polynomials, over the column blocks of `point_chunks`
    so temporaries stay bounded for large N.  A term is its first power times
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
    for columns in point_chunks(count):
        block = coordinates[:, columns]
        powers = []
        for axis in range(dim):
            table = [None, block[axis]]
            for _ in range(2, top[axis] + 1):
                table.append(table[-1] * table[1])
            powers.append(table)
        term = np.empty(block.shape[1])
        for acc, poly_terms in zip(out[:, columns], terms):
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



@dataclass
class WeightedPoints:
    """Sample points with the weights that integrate the model measure: every
    rule folds the density into its weights, so an integral is a weighted
    sum.

    `points` is (accepted, dim) and may be a view of per-axis coordinate
    rows (the mc-rejection rule is the transposed prefix of its rows), so
    it need not be contiguous.
    """

    points: np.ndarray
    weights: np.ndarray
    proposals: int | None = None

    @property
    def accepted(self) -> int:
        return self.points.shape[0]


def _gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_{-1}^1 f(x) (1-x)^alpha (1+x)^beta dx (Golub-Welsch):
    the eigenvalues of the weight's Jacobi matrix and mu_0 times the squared
    first eigenvector components.  Its first diagonal and off-diagonal entries,
    0/0 by the general formulas when alpha + beta is 0 and -1, are cancelled."""
    s = alpha + beta
    k = np.arange(1.0, n)
    c = 2.0 * k + s
    diagonal = np.append((beta - alpha) / (s + 2.0), (beta**2 - alpha**2) / (c * (c + 2.0)))
    k, c = k[1:], c[1:]
    off = np.append(
        4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + s) ** 2 * (3.0 + s)),
        4.0 * k * (k + alpha) * (k + beta) * (k + s) / (c * c * (c + 1.0) * (c - 1.0)),
    )[: n - 1]
    nodes, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(np.sqrt(off), -1), UPLO="L")
    mu0 = 2.0 ** (s + 1.0) * exp(lgamma(alpha + 1.0) + lgamma(beta + 1.0) - lgamma(s + 2.0))
    return nodes, mu0 * vectors[0] ** 2


def _jacobi_rule_01(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_0^1 f(u) (1-u)^alpha u^beta du."""
    nodes, weights = _gauss_jacobi(n, alpha, beta)
    return (nodes + 1.0) / 2.0, weights * 0.5 ** (alpha + beta + 1.0)


def _gauss_exponents(model, factors: list[Polynomial], rule: str) -> list[Fraction]:
    """The measure exponent on each of `factors`, which cut out the rule's
    domain and whose powers its weights absorb.

    A model cut out by other factors, or with a density part the weights do
    not absorb (another factor with a nonzero exponent, an exp part), raises:
    the rule would integrate the wrong domain or drop that part.
    """
    boundary = list(model.boundary.factors)
    if not (all(f in factors for f in boundary) and all(f in boundary for f in factors)):
        raise SamplerConfigError(
            f"{rule} rule needs the domain cut out by {', '.join(map(str, factors))}"
        )
    if model.measure.exp_poly is not None:
        raise SamplerConfigError(f"{rule} rule cannot absorb an exp part of the density")
    exponents = [Fraction(0)] * len(factors)
    for factor, exponent in model.measure.factor_exponents:
        if factor in factors:
            exponents[factors.index(factor)] = exponent
        elif exponent != 0:
            raise SamplerConfigError(f"{rule} rule cannot absorb the density factor {factor}")
    return exponents


def _square_rule(model, degree: int) -> WeightedPoints:
    x = [Polynomial.variable(model.dim, i) for i in range(model.dim)]
    # the exponents on 1 - x_i and 1 + x_i, axis by axis
    a = _gauss_exponents(model, [f for xi in x for f in (1 - xi, 1 + xi)], "tensor Gauss")
    # n Gauss nodes per axis are exact to degree 2n - 1 >= degree
    n = degree // 2 + 1
    axes = [_gauss_jacobi(n, float(a[2 * i]), float(a[2 * i + 1])) for i in range(model.dim)]
    nodes, weights = _product(*axes)
    return WeightedPoints(np.column_stack(nodes), weights)


def _product(*axes: tuple[np.ndarray, np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Tensor product of 1D rules: flattened node coordinates and weights."""
    nodes = np.meshgrid(*(a[0] for a in axes), indexing="ij")
    weights = np.ones(nodes[0].shape)
    for grid in np.meshgrid(*(a[1] for a in axes), indexing="ij"):
        weights = weights * grid
    return [n.ravel() for n in nodes], weights.ravel()


def _disk_rule(model, degree: int) -> WeightedPoints:
    """Radial Gauss-Jacobi in u = r^2 times degree + 1 equispaced angles.

    A monomial of degree k <= degree is a trigonometric polynomial of degree
    k in the angle, which the angles average exactly; only even k survive,
    leaving u^(k/2), which degree // 4 + 1 radial nodes integrate exactly.
    """
    rsq = Polynomial.variable(2, 0) ** 2 + Polynomial.variable(2, 1) ** 2
    (p,) = _gauss_exponents(model, [1 - rsq], "polar Gauss")
    (u, theta), weights = _product(
        _jacobi_rule_01(degree // 4 + 1, float(p), 0.0), _equispaced(degree + 1)
    )
    r = np.sqrt(u)
    # dx dy = (1/2) du dtheta after u = r^2, and the angle weights sum to 1, not 2 pi
    return WeightedPoints(np.column_stack([r * np.cos(theta), r * np.sin(theta)]), np.pi * weights)


def _triangle_rule(model, degree: int) -> WeightedPoints:
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p, q, r = _gauss_exponents(model, [x, y, 1 - x - y], "Duffy Gauss")
    # X = u, Y = v(1-u):  X^p Y^q (1-X-Y)^r dXdY
    #   = u^p (1-u)^(q+r+1) du * v^q (1-v)^r dv, and X^a Y^b is of degree
    # a + b in u and b in v
    n = degree // 2 + 1
    (u, v), weights = _product(
        _jacobi_rule_01(n, float(q + r + 1), float(p)), _jacobi_rule_01(n, float(r), float(q))
    )
    return WeightedPoints(np.column_stack([u, v * (1.0 - u)]), weights)


def _box_floats(box: Sequence[tuple[Fraction, Fraction]]) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([float(b[0]) for b in box])
    hi = np.array([float(b[1]) for b in box])
    return lo, hi


def check_box_encloses(model) -> None:
    """Reject a model whose `box` has a face that meets the domain interior.

    Each face is sampled on a deterministic grid of BOX_FACE_NODES per
    free axis; a face point where every boundary factor exceeds a small
    positive tolerance means the domain leaks outside the box.
    """
    factors = model.boundary.factors
    if not factors:
        raise SamplerConfigError("Monte Carlo rejection needs boundary factors")
    tol = 1e-9
    lo, hi = _box_floats(model.box)
    lines = [np.linspace(a, b, BOX_FACE_NODES) for a, b in zip(lo, hi)]
    for axis in range(model.dim):
        for side_value in (lo[axis], hi[axis]):
            # the face is the grid whose fixed axis is a one-node line
            face = np.meshgrid(*lines[:axis], [side_value], *lines[axis + 1 :], indexing="ij")
            if (eval_floats(factors, np.array([g.ravel() for g in face])) > tol).all(axis=0).any():
                raise SamplerConfigError(
                    f"bounding box face x{axis + 1}={side_value} meets the domain interior"
                )


def _accept(factors: Sequence[Polynomial], coordinates: np.ndarray):
    """The points of a (dim, size) block of coordinate rows where every
    boundary factor is > 0: their coordinates (dim, kept) and the factors'
    values there (factors, kept), from one evaluation of all the factors on
    the block."""
    values = eval_floats(factors, coordinates)
    keep = np.flatnonzero((values > 0.0).all(axis=0))
    return coordinates.take(keep, axis=1), values.take(keep, axis=1)


def _mc_rejection(model, sampler: DomainSampler) -> WeightedPoints:
    """Uniform proposals in the model's box, kept inside the domain, with
    weights box volume / proposals times the density.

    The proposals come in blocks of POINT_CHUNK.  The density's boundary
    factors are read from the values the acceptance test computed; only its
    other factors and its exp part are evaluated again, on the kept points.
    Each block's kept coordinates and density go straight into the front of
    one (dim, sample_count) array of coordinate rows and one weight vector,
    sized by the proposal count since no block can keep more than it drew.
    The rule is their filled prefix: `points` is a transposed view of the
    rows and the weights are scaled in place, so the rule is held once.
    Pages past the accepted count are never written, so the system need
    not back them with memory.
    """
    check_box_encloses(model)
    d = model.dim
    lo, hi = _box_floats(model.box)
    span = hi - lo
    n = sampler.sample_count
    boundary = model.boundary.factors
    measure = model.measure
    powers = [(f, float(e)) for f, e in measure.factor_exponents if e != 0]
    parts = [f for f, _ in powers] + ([measure.exp_poly] if measure.exp_poly is not None else [])
    # the density's parts that the acceptance test did not evaluate
    others = [f for f in parts if f not in boundary]
    rows = np.empty((d, n))
    weights = np.empty(n)
    accepted = 0
    for block in point_chunks(n):
        count = block.stop - block.start
        # proposal j reads uniforms d j .. d j + d - 1, one per axis
        u = uniform_block(sampler.seed, d * block.start, d * count)
        proposed = np.empty((d, count))
        for axis in range(d):
            np.multiply(u[axis::d], span[axis], out=proposed[axis])
            proposed[axis] += lo[axis]
        coordinates, values = _accept(boundary, proposed)
        kept = slice(accepted, accepted + coordinates.shape[1])
        accepted = kept.stop
        rows[:, kept] = coordinates
        known = dict(zip(boundary, values))
        if others:
            known.update(zip(others, eval_floats(others, coordinates)))
        density = weights[kept]
        density.fill(1.0)
        for f, exponent in powers:
            density *= np.power(np.abs(known[f]), exponent)
        if measure.exp_poly is not None:
            density *= np.exp(known[measure.exp_poly])
    if not accepted:
        raise SamplerConfigError(
            f"none of the {n} proposals for {model.name} landed in its domain"
        )
    weights = weights[:accepted]
    weights *= float(np.prod(span)) / n
    return WeightedPoints(rows[:, :accepted].T, weights, proposals=n)


# ----------------------------------------------------------------------
# covering spaces
#
# At the Laplace-type default parameters, each exotic bounded model is the
# image of a sphere, Chebyshev-square or flat-torus Laplace operator under a
# polynomial map, and the model measure is exactly the pushforward of the
# cover's probability measure.  Every cover is written once, as polynomials
# in its ambient coordinates: the operator, the equations that cut the cover
# out, and the two map components.  The realization is then an exact
# identity modulo those equations (`geometry.verify_pullback`), and each
# cover carries two rules, both pushed down by evaluating the maps:
#
# - Monte Carlo: seeded uniform points on the cover draw from the singular
#   measure itself with bounded integrands, which is what makes 1/sqrt(N)
#   error budgets attainable; plain uniform rejection has infinite variance
#   against the boundary-singular densities.
# - A deterministic product rule on the cover (Gauss-Legendre and
#   equispaced angles on spheres, Gauss-Chebyshev, the trapezoidal rule on
#   the torus; A. H. Stroud, "Approximate Calculation of Multiple
#   Integrals", 1971; Trefethen and Weideman, SIAM Review 56, 2014).  The
#   cover is a product of factors, and a map of degree k in each factor's
#   coordinates sends a plane monomial of degree d to a cover polynomial of
#   degree at most d * k in each factor, so the rule built for that
#   exactness integrates every plane moment up to degree d exactly.
#
# Cover weights target the probability-normalized measure (Monte Carlo
# points have weight 1/N), unlike the Gauss/rejection kinds which integrate
# the unnormalized density.


@dataclass(frozen=True)
class CoverSampler:
    """One model's covering space, written once as polynomials.

    The cover is the zero set of `ideal` in its ambient coordinates (the
    whole box for the Chebyshev square) and carries the diffusion operator
    `operator`; `maps` send it onto the model.  It is a product of factors
    with `factor_dims` coordinates each.  `nodes(e)` is a product rule on the
    cover with probability weights, exact for every cover polynomial of
    degree <= e in each factor's coordinates, and `generate(seed, start,
    count)` draws Monte Carlo points start .. start+count-1 on the cover and
    maps them to the plane.  The draws are counter-based, so any split of a
    range into blocks yields the same points bit for bit.  Both are checked
    against the exact moments of the model measure: the draw by
    `cover_cross_check`, the rule by `rule_moment_gap`.
    """

    model: str
    required_params: tuple[tuple[str, str], ...]
    operator: DiffusionOperator
    ideal: tuple[Polynomial, ...]
    maps: tuple[Polynomial, Polynomial]
    factor_dims: tuple[int, ...]
    nodes: Callable[[int], tuple[np.ndarray, np.ndarray]]
    generate: Callable[[int, int, int], np.ndarray]  # (seed, start, count) -> (count, 2)

    @property
    def degree(self) -> int:
        """The largest degree of a map in one factor's coordinates."""
        bounds = np.cumsum((0,) + self.factor_dims)
        return max(
            sum(exponent[lo:hi])
            for f in self.maps
            for exponent in f.numerators
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )

    def rule(self, moment_degree: int) -> tuple[np.ndarray, np.ndarray]:
        """Plane nodes and probability weights, exact for every moment of
        total degree <= moment_degree: a plane monomial of degree d is a
        cover polynomial of degree <= d * self.degree in each factor."""
        points, weights = self.nodes(moment_degree * self.degree)
        return _realize(self.maps, points), weights


def _realize(maps: Sequence[Polynomial], points: np.ndarray) -> np.ndarray:
    """The maps at (N, ambient) cover points, as an (N, len(maps)) array
    whose columns are contiguous: one evaluation of all the maps."""
    return eval_floats(maps, points.T).T


def _cover(name, params, operator, ideal, maps, factor_dims, draw, nodes) -> CoverSampler:
    """A cover whose Monte Carlo points are the maps at `draw(seed, start, count)`."""

    def generate(seed: int, start: int, count: int) -> np.ndarray:
        return _realize(maps, draw(seed, start, count))

    return CoverSampler(name, params, operator, ideal, maps, factor_dims, nodes, generate)


def _equispaced(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m equispaced angles with weight 1/m: exact for every trigonometric
    polynomial of degree < m."""
    return 2.0 * np.pi * np.arange(m) / m, np.full(m, 1.0 / m)


def _sphere2_nodes(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre in z times equispaced phi on S^2.

    For fixed z a polynomial of degree e is a trigonometric polynomial of
    degree e in phi, which e + 1 equispaced angles average exactly; what
    survives the average is a polynomial of degree <= e in z.
    """
    (z, phi), weights = _product(
        _jacobi_rule_01(exactness // 2 + 1, 0.0, 0.0), _equispaced(exactness + 1)
    )
    z = 2.0 * z - 1.0
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z]), weights


def _sphere3_nodes(exactness: int) -> tuple[np.ndarray, np.ndarray]:
    """Hopf coordinates on S^3: x = (sqrt(t) e^{i a}, sqrt(1 - t) e^{i b})
    with t = cos^2 eta uniform on [0, 1].  After the two angle averages a
    monomial of degree e leaves a polynomial of degree <= e // 2 in t."""
    angles = _equispaced(exactness + 1)
    (t, a, b), weights = _product(_jacobi_rule_01(exactness // 4 + 1, 0.0, 0.0), angles, angles)
    r, s = np.sqrt(t), np.sqrt(1.0 - t)
    return np.column_stack([r * np.cos(a), r * np.sin(a), s * np.cos(b), s * np.sin(b)]), weights


_SPHERE_NODES = {3: _sphere2_nodes, 4: _sphere3_nodes}


def _sphere_cover(name, params, ambient_dim, maps) -> CoverSampler:
    x = [Polynomial.variable(ambient_dim, i) for i in range(ambient_dim)]
    return _cover(
        name,
        params,
        sphere_operator(ambient_dim - 1),
        (sum(xi * xi for xi in x) - 1,),
        tuple(parse_poly(text, ambient_dim) for text in maps),
        (ambient_dim,),
        lambda seed, start, count: sphere_points(seed, count, ambient_dim, start),
        _SPHERE_NODES[ambient_dim],
    )


# an orthogonal frame of the hyperplane y_0 + y_1 + y_2 + y_3 = 0 in R^4:
# y = FRAME u / 2 is an isometry from R^3 onto it
_SUM_ZERO_FRAME = ((1, 1, 1), (-1, 1, -1), (1, -1, -1), (-1, -1, 1))


def _build_covers() -> dict[str, CoverSampler]:
    covers = [
        _sphere_cover("coaxial_parabolas", (("a", "1"), ("p", "0"), ("q", "0")), 3, ("z", "2*x*y")),
        _sphere_cover(
            "parabola_tangent_secant",
            (("p", "-1/2"), ("q", "-1/2"), ("r", "-1/2")),
            3,
            ("x^2 + y^2", "4*x^2*y^2"),
        ),
        _sphere_cover(
            "nodal_cubic", (("p", "-1/2"),), 4, ("x1^2 + x2^2", "(x1^2 - x2^2)*x3 + 2*x1*x2*x4")
        ),
        _sphere_cover(
            "cuspidal_cubic_secant",
            (("p1", "-1/2"), ("p2", "-1/2")),
            3,
            ("x^2 + y^2", "x^3 - 3*x*y^2"),
        ),
        _sphere_cover(
            "cuspidal_cubic_tangent",
            (("p", "-1/2"), ("q", "-1/2")),
            3,
            ("3/2*(x^4 + y^4 + z^4) - 1/2", "(3*x^2 - 1)*(3*y^2 - 1)*(3*z^2 - 1)/2"),
        ),
    ]

    # the sphere |y|^2 = 2 in the sum-zero hyperplane of R^4, in frame
    # coordinates u with |u|^2 = 2: the unit-sphere Laplacian after the
    # scaling u = sqrt(2) v has cometric 2 delta - u u^t and drift -2 u
    u = [Polynomial.variable(3, i) for i in range(3)]
    y = [sum(u[j] * Fraction(c, 2) for j, c in enumerate(row)) for row in _SUM_ZERO_FRAME]
    frame = 0.5 * np.array(_SUM_ZERO_FRAME, dtype=float)

    def swallowtail_draw(seed: int, start: int, count: int) -> np.ndarray:
        # 4 normals projected onto the hyperplane are 3 normals in the frame
        return np.sqrt(2.0) * unit_rows(normal_points(seed, count, 4, start) @ frame)

    def swallowtail_nodes(exactness: int) -> tuple[np.ndarray, np.ndarray]:
        points, weights = _sphere2_nodes(exactness)
        return np.sqrt(2.0) * points, weights

    covers.append(
        _cover(
            "swallowtail",
            (("p", "-1/2"),),
            DiffusionOperator(
                CoMetric([[2 * int(i == j) - u[i] * u[j] for j in range(3)] for i in range(3)]),
                tuple(ui * -2 for ui in u),
            ),
            (sum(ui * ui for ui in u) - 2,),
            (
                (y[0] + y[1]) * (y[1] + y[2]) * (y[2] + y[0]),
                -y[0] * y[1] * y[2] * (y[0] + y[1] + y[2]),
            ),
            (3,),
            swallowtail_draw,
            swallowtail_nodes,
        )
    )

    # (cos u, cos v) with (u, v) uniform on [0, pi]^2: the arcsine square,
    # whose operator is the product of two Chebyshev operators; the midpoint
    # rule in u is Gauss-Chebyshev in cos u, exact for degree <= 2n - 1
    def two_tangents_draw(seed: int, start: int, count: int) -> np.ndarray:
        return np.cos(uniform_block(seed, 2 * start, 2 * count).reshape(count, 2) * np.pi)

    def two_tangents_nodes(exactness: int) -> tuple[np.ndarray, np.ndarray]:
        n = exactness // 2 + 1
        axis = (np.cos(np.pi * (np.arange(n) + 0.5) / n), np.full(n, 1.0 / n))
        nodes, weights = _product(axis, axis)
        return np.column_stack(nodes), weights

    x = Polynomial.variable(1, 0)
    chebyshev = DiffusionOperator(CoMetric([[1 - x * x]]), (-x,))
    covers.append(
        _cover(
            "parabola_two_tangents",
            (("p1", "-1/2"), ("p2", "-1/2"), ("p3", "-1/2")),
            product_operator(chebyshev, chebyshev),
            (),
            (parse_poly("(x + y)/2", 2), parse_poly("x*y", 2)),
            (1, 1),
            two_tangents_draw,
            two_tangents_nodes,
        )
    )

    # phases (s, t) on the period torus in circle coordinates (a, b, c, d) =
    # (cos s, sin s, cos t, sin t) map to e^{is} + e^{it} + e^{-i(s+t)}.  The
    # phases are s = 2 z_0, t = -z_0 + sqrt(3) z_1 of the flat plane z, so the
    # Laplacian has the phase cometric C = [[4, -2], [-2, 4]]: in circle
    # coordinates sum_ij C_ij V_i V_j^t with the rotation fields V_s =
    # (-b, a, 0, 0), V_t = (0, 0, -d, c), and drift -4 (a, b, c, d).  The
    # fundamental triangle of the reflection lattice, (0,0), (2pi/3, 0),
    # (pi/3, pi/sqrt(3)) in z, is 1/6 of the torus, and the map is injective
    # on it.
    def deltoid_draw(seed: int, start: int, count: int) -> np.ndarray:
        w = uniform_block(seed, 2 * start, 2 * count).reshape(count, 2)
        flip = w.sum(axis=1) > 1.0
        w[flip] = 1.0 - w[flip]
        # z = w_0 (2pi/3, 0) + w_1 (pi/3, pi/sqrt(3))
        z0 = w[:, 0] * (2.0 * np.pi / 3.0) + w[:, 1] * (np.pi / 3.0)
        t = np.sqrt(3.0) * (w[:, 1] * (np.pi / np.sqrt(3.0))) - z0
        return _circles(2.0 * z0, t)

    def deltoid_nodes(exactness: int) -> tuple[np.ndarray, np.ndarray]:
        axis = _equispaced(exactness + 1)
        (s, t), weights = _product(axis, axis)
        return _circles(s, t), weights

    a, b, c, d = (Polynomial.variable(4, i) for i in range(4))
    zero = Polynomial.zero(4)
    v_s, v_t = (-b, a, zero, zero), (zero, zero, -d, c)
    covers.append(
        _cover(
            "deltoid",
            (("p", "-1/2"),),
            DiffusionOperator(
                CoMetric(
                    [
                        [
                            (v_s[i] * v_s[j] + v_t[i] * v_t[j]) * 4
                            - (v_s[i] * v_t[j] + v_t[i] * v_s[j]) * 2
                            for j in range(4)
                        ]
                        for i in range(4)
                    ]
                ),
                (a * -4, b * -4, c * -4, d * -4),
            ),
            (a * a + b * b - 1, c * c + d * d - 1),
            (a + c + a * c - b * d, b + d - b * c - a * d),
            (2, 2),
            deltoid_draw,
            deltoid_nodes,
        )
    )
    return {cover.model: cover for cover in covers}


def _circles(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Circle coordinates (cos s, sin s, cos t, sin t) of torus phases."""
    return np.column_stack([np.cos(s), np.sin(s), np.cos(t), np.sin(t)])


COVER_SAMPLERS = _build_covers()


def cover_applies(model) -> bool:
    cover = COVER_SAMPLERS.get(model.name)
    if cover is None:
        return False
    return all(model.params[k] == parse_rational(v) for k, v in cover.required_params)


def _applicable_cover(model) -> CoverSampler:
    if not cover_applies(model):
        raise SamplerConfigError(
            f"no covering sampler for {model.name} at these parameters; "
            f"use mc-rejection"
        )
    return COVER_SAMPLERS[model.name]


def sample_domain(model, sampler: DomainSampler, degree: int) -> WeightedPoints:
    """Weighted point set for the model's domain under the given rule.

    Every kind but mc-rejection returns its rule sized to integrate each
    moment of total degree <= `degree` exactly; cover-mc's is its cover's
    product rule pushed to the plane, with probability weights, keeping the
    nodes that land on the boundary.  mc-rejection draws
    `sampler.sample_count` proposals whatever the degree.
    """
    if sampler.kind == "tensor-gauss-square":
        return _square_rule(model, degree)
    if sampler.kind == "polar-gauss-disk":
        return _disk_rule(model, degree)
    if sampler.kind == "duffy-gauss-triangle":
        return _triangle_rule(model, degree)
    if sampler.kind == "mc-rejection":
        return _mc_rejection(model, sampler)
    if sampler.kind == "cover-mc":
        return WeightedPoints(*_applicable_cover(model).rule(degree))
    raise SamplerConfigError(f"unknown sampler kind {sampler.kind!r}")


def point_chunks(count: int):
    """Row slices of at most POINT_CHUNK rows covering range(count)."""
    for start in range(0, count, POINT_CHUNK):
        yield slice(start, min(start + POINT_CHUNK, count))


def _in_block_order(task: Callable[[slice], object], count: int) -> list:
    """[task(block) for block in point_chunks(count)], the blocks shared out
    between this thread and one helper thread per further CPU the process
    may use (none with one CPU).

    Each thread takes the next untaken block until none is left, and each
    result goes to its block's slot, so the list is the same whichever
    thread ran a block and whenever it finished.  Once a task raises, no
    thread takes another block; the helpers are joined before the exception
    leaves.
    """
    blocks = list(point_chunks(count))
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    helpers = min(cpus, len(blocks)) - 1
    if helpers < 1:
        return [task(block) for block in blocks]
    import threading
    from concurrent.futures import ThreadPoolExecutor

    results = [None] * len(blocks)
    untaken = list(reversed(range(len(blocks))))  # popped in block order
    lock = threading.Lock()

    def take_blocks() -> None:
        try:
            while True:
                with lock:
                    if not untaken:
                        return
                    index = untaken.pop()
                results[index] = task(blocks[index])
        finally:
            with lock:
                untaken.clear()

    with ThreadPoolExecutor(helpers) as pool:
        running = [pool.submit(take_blocks) for _ in range(helpers)]
        take_blocks()
        for helper in running:
            helper.result()
    return results


def _block_moments(coordinates: np.ndarray, weights: np.ndarray, max_degree: int) -> np.ndarray:
    """sum_k weights_k points_k^a for every a with a_i <= max_degree, as an
    array indexed by a, where row i of `coordinates` holds the points' x_i.

    One contraction of per-axis power tables: the weighted axis-0 table
    against the row-wise product of the other axes'.  Each table is an
    (N, max_degree + 1) view of a contiguous (max_degree + 1, N) array, so
    the weights go into the axis-0 table in place.
    """
    axis_basis = MonomialBasis(1, max_degree)
    dim = coordinates.shape[0]
    powers = [axis_basis.eval_float(x[:, None]) for x in coordinates]
    if dim == 1:
        return weights @ powers[0]
    rest = powers[1]
    for axis_table in powers[2:]:
        rest = (rest[:, :, None] * axis_table[:, None, :]).reshape(rest.shape[0], -1)
    first = powers[0].T
    first *= weights
    return (first @ rest).reshape((max_degree + 1,) * dim)


class Moments:
    """Measure moments of all monomials up to a degree, from one sample pass.

    `table[a]` is the moment of x^a for every a with a_i <= max_degree; only
    those of total degree <= max_degree are read (`monomial`), since a rule is
    exact only to its degree.  Every monomial Gram / operator-moment entry
    below is a finite sum of these moments, so matrices built from the same
    Moments object are exactly consistent with each other (and exactly
    symmetric where they should be).
    """

    def __init__(self, model, max_degree: int, sampler: DomainSampler):
        """The moments integrate the model's rule `sample_domain(model,
        sampler, max_degree)`."""
        model.require_finite_mass()
        self.model = model
        self.basis = MonomialBasis(model.dim, max_degree)
        sample = sample_domain(model, sampler, max_degree)
        self.table = np.zeros((max_degree + 1,) * model.dim)
        for block in point_chunks(sample.accepted):
            self.table += _block_moments(sample.points[block].T, sample.weights[block], max_degree)
        self.values = self.monomial(self.basis.exponents)
        # retained so downstream code can integrate pointwise quantities
        # (products and gradients of eigenfunctions) against the same rule
        self.points = sample.points
        self.weights = sample.weights

    def monomial(self, exponents):
        """The moment of x^a for one exponent tuple a, or an array of them
        for the exponents along the last axis of `exponents`, in the shape
        of the other axes."""
        exponents = np.asarray(exponents)
        if exponents.size and exponents.sum(axis=-1).max() > self.basis.max_degree:
            raise IndexError(f"a moment above degree {self.basis.max_degree} was asked for")
        return self.table[tuple(np.moveaxis(exponents, -1, 0))]


@dataclass(frozen=True)
class CoverCrossCheck:
    """Cover Monte Carlo moments against the exact moments of the measure.

    `exact` holds those moments as `GradedOperatorMatrix.moments` returns
    them, (integer numerators, denominator), over the basis of twice the
    checked degree, so `rule_moment_gap` can gate a rule on their prefix.
    """

    proposals: int
    accepted: int
    max_z: float
    exact: tuple[list[int], int]


def moment_z_scores(
    basis: MonomialBasis, values: np.ndarray, exact: tuple[list[int], int], proposals: int
) -> np.ndarray:
    """z_a = (mc_a - E[x^a]) / (sigma_a / sqrt(N)) for the nonconstant
    monomials of `basis`, in basis order, where `values` holds the Monte
    Carlo moments mc_a of `basis` and N = `proposals`.

    `exact` holds the exact moments of the probability measure over
    `MonomialBasis(basis.dim, 2 * basis.max_degree)` as integer numerators
    over one denominator (`GradedOperatorMatrix.moments`): sigma_a^2 =
    E[x^2a] - E[x^a]^2 is the variance of one Monte Carlo term, formed
    exactly and converted to float once.
    """
    numerators, denominator = exact
    index = MonomialBasis(basis.dim, 2 * basis.max_degree).index
    means, variances = [], []
    for a in basis.exponents[1:]:  # the constant has no variance
        mean = numerators[index[a]]
        # denominator^2 times the variance
        variance = numerators[index[tuple(2 * e for e in a)]] * denominator - mean * mean
        if variance <= 0:
            raise ArithmeticError(f"the monomial {a} has no positive variance under the measure")
        means.append(mean / denominator)
        variances.append(variance / denominator**2)
    return (values[1:] - np.array(means)) / np.sqrt(np.array(variances) / proposals)


def rule_moment_gap(rule: Moments, exact: tuple[list[int], int]) -> float:
    """max over the monomials x^a of `rule.basis` of |rule_a - E[x^a]| /
    max(|E[x^a]|, 1): how far a rule's moments lie from the exact ones.

    `exact` holds the exact moments of the probability measure over a
    basis of at least the rule's degree, as `GradedOperatorMatrix.moments`
    returns them; the graded basis of the rule is their prefix.  The rule's
    moments are not divided by its mass, so a rule of the wrong mass shows
    in the constant monomial.
    """
    numerators, denominator = exact
    if len(numerators) < len(rule.basis):
        raise ValueError("the exact moments stop below the rule's degree")
    mean = np.array([n / denominator for n in numerators[: len(rule.basis)]])
    return float((np.abs(rule.values - mean) / np.maximum(np.abs(mean), 1.0)).max())


def cover_cross_check(model, degree: int, sampler: DomainSampler) -> CoverCrossCheck:
    """One streaming pass of the cover Monte Carlo sampler: the largest |z|
    of its moments up to `degree` against the exact moments of the model
    measure (`moment_z_scores`).

    The exact moments to twice the degree come from one
    `GradedOperatorMatrix(model.operator, 2 * degree).moments()`: L is
    symmetric in L^2 of the measure, so the integral of L p vanishes for
    every polynomial p, which fixes every moment; no rule is integrated for
    them.  They are returned with the result.

    Each block of POINT_CHUNK proposals is one task: draw it, drop the
    roundoff-level boundary grazers (cover images land in the closed
    domain) and take its moment table.  `_in_block_order` runs the tasks on
    this thread and one helper thread per further CPU, so at most one block
    per CPU is held, never the point cloud.  The tables are added in block
    order whichever thread drew a block, and each block's points come from
    fixed counter positions, so every float matches a one-thread pass bit
    for bit.  The cover is looked up on each call, so a wrapped
    `COVER_SAMPLERS` entry is the one that draws.
    """
    if sampler.kind != "cover-mc":
        raise SamplerConfigError(f"cross-check needs a cover-mc sampler, not {sampler.kind}")
    cover = _applicable_cover(model)
    exact = GradedOperatorMatrix(model.operator, 2 * degree).moments()
    factors = model.boundary.factors
    n = sampler.sample_count

    def block_moments(block: slice) -> tuple[np.ndarray, int]:
        draw = cover.generate(sampler.seed, block.start, block.stop - block.start)
        coordinates, _ = _accept(factors, draw.T)
        kept = coordinates.shape[1]
        return _block_moments(coordinates, np.full(kept, 1.0 / n), degree), kept

    table = np.zeros((degree + 1,) * model.dim)
    accepted = 0
    for block_table, kept in _in_block_order(block_moments, n):
        table += block_table
        accepted += kept
    basis = MonomialBasis(model.dim, degree)
    z = moment_z_scores(basis, table[basis.exponent_columns], exact, n)
    return CoverCrossCheck(n, accepted, float(np.abs(z).max()), exact)


def gram_matrix(moments: Moments, degree: int) -> np.ndarray:
    """B[k, l] ~ integral of m_k m_l against the measure of `moments`,
    exactly symmetric."""
    exponents = np.array(MonomialBasis(moments.model.dim, degree).exponents)
    return moments.monomial(exponents[:, None, :] + exponents[None, :, :])


def operator_moment_matrix(moments: Moments, degree: int, images: list[Polynomial]) -> np.ndarray:
    """M[k, l] ~ integral of m_k L(m_l) against the measure of `moments`.

    `images[l]` is L(m_l) for the l-th monomial of the degree-`degree` basis;
    column l sums its terms in graded-lex order, so its floats do not depend
    on the order in which the image's terms were built.
    """
    exponents = np.array(MonomialBasis(moments.model.dim, degree).exponents)
    m = np.zeros((len(exponents), len(images)))
    for l, image in enumerate(images):
        for exponent in sorted(image.numerators, key=grlex_key):
            n = image.numerators[exponent]
            m[:, l] += n / image.denominator * moments.monomial(exponents + exponent)
    return m


def gamma_form_matrix(
    basis: MonomialBasis, columns: np.ndarray, moments: Moments
) -> tuple[np.ndarray, np.ndarray]:
    """(A, G) with A[k, l] ~ integral of Gamma(f_k, f_l) and G[k, l] ~
    integral of f_k f_l against the measure, where column k of `columns`
    holds f_k's coefficients over `basis`.

    One pass over the points of `moments`, in blocks of POINT_CHUNK,
    evaluates each f_k and its gradient there, and the nonzero cometric
    entries with one `eval_floats` call per block: Gamma(f, h) = sum_ij g^ij
    d_i f d_j h and f h are summed with the rule's weights, so each diagonal
    entry of A is a positively weighted sum of grad f^t g grad f.  Both
    results are exactly symmetric.
    """
    g = moments.model.cometric
    pairs = [(i, j) for i in range(basis.dim) for j in range(basis.dim) if not g[i, j].is_zero]
    # grads[i] holds the coefficients of d_i f_k over the same basis
    grads = [np.zeros(columns.shape) for _ in range(basis.dim)]
    for row, exponent in enumerate(basis.exponents):
        for i, power in enumerate(exponent):
            if power:
                grads[i][basis.index[_lowered(exponent, i)]] += power * columns[row]
    stacked = np.hstack(grads)
    size = columns.shape[1]
    a = np.zeros((size, size))
    gram = np.zeros((size, size))
    for blk in point_chunks(moments.points.shape[0]):
        points, weights = moments.points[blk], moments.weights[blk]
        monomials = basis.eval_float(points)
        values = monomials @ columns
        gram += (values * weights[:, None]).T @ values
        # the function values and then the monomials are freed before the
        # gradients are summed, so the pass holds no more than the energy
        # alone would
        del values
        # one (points, size) block of values per axis: values[:, i] is d_i f
        values = (monomials @ stacked).reshape(-1, basis.dim, size)
        del monomials
        entries = eval_floats([g[i, j] for i, j in pairs], points.T)
        for (i, j), entry in zip(pairs, entries):
            scaled = weights * entry
            a += (values[:, i] * scaled[:, None]).T @ values[:, j]
    return (a + a.T) / 2.0, (gram + gram.T) / 2.0


def symmetry_defect(
    model, degree: int, sampler: DomainSampler, operator=None, moments: Moments | None = None
) -> float:
    """Max over basis pairs of |<P, L Q> - <Q, L P>|, relative.

    The basis pairs are measure-normalized monomials (unit Gram diagonal,
    estimated from the same sample pass) and the result is divided by
    max(largest |<P, L Q>|, 1), so the defect is a scale-free relative
    asymmetry.  A small value certifies numerical self-adjointness of the
    operator on polynomials up to the given degree.

    `operator` defaults to the model operator but anything with an
    ``apply(Polynomial) -> Polynomial`` method is accepted, so deliberately
    broken operators can be probed by the negative controls; it is applied
    once per basis monomial.  Given `moments` of another model (another
    name or other parameters), it raises ValueError.
    """
    if moments is not None and (
        (moments.model.name, moments.model.params) != (model.name, model.params)
    ):
        raise ValueError(f"moments of {moments.model!r} given for {model!r}")
    op = operator if operator is not None else model.operator
    basis = MonomialBasis(model.dim, degree)
    images = [op.apply(Polynomial.monomial(model.dim, e)) for e in basis.exponents]
    if moments is None:
        image_degree = max(
            [degree] + [int(p.total_degree) for p in images if not p.is_zero]
        )
        moments = Moments(model, max(2 * degree, degree + image_degree), sampler)
    m = operator_moment_matrix(moments, degree, images)
    b = gram_matrix(moments, degree)
    diagonal = np.diag(b)
    if not (diagonal > 0).all():
        raise ArithmeticError("a basis monomial has no positive squared norm under the rule")
    norms = np.sqrt(diagonal)
    m = m / np.outer(norms, norms)
    return float(np.abs(m - m.T).max() / max(np.abs(m).max(), 1.0))
