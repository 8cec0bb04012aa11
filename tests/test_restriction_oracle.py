"""Restriction oracle for the two groupoid certificates.

``invariant_check`` and ``coisotropic_check`` restrict each nonzero entry of
a polynomial matrix once and combine the restricted entries with rational
conormals and vectors. The oracle below restricts each pairing instead: it
forms eta.N.v, and eta'.sharp(eta) through ``pn.sharp`` on a 1-form, on the
chart, and restricts the result. Restriction is a ring homomorphism, so the
two must agree polynomial for polynomial, on every affine submanifold from
the whole chart down to a point.

A submanifold that only identifies coordinates restricts by a map of
exponent slots instead of ``substitute``. Random identifications, with
rational multiples of x_i - x_j as constraints, are checked against the
same oracle, and their restriction against ``substitute`` along the tangent
basis; pinning one coordinate to 3 as well sends restriction back to
``substitute``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncalc import groupoid_desk as gd
from pncalc import poisson_nijenhuis as pn
from pncalc.cartan import Chart, DiffForm, MultiVector
from pncalc.corpus import random_polynomial
from pncalc.linalg import nullspace, rref
from pncalc.polyalg import Polynomial
from oracles import dim

CHARTS = {n: Chart(tuple("x%d" % (i + 1) for i in range(n))) for n in (2, 3, 4)}

# (chart dimension, codimension): codimension 0 is the whole chart and
# codimension n a point.
CASES = [(n, k) for n in (2, 3, 4) for k in range(n + 1)]


def _fraction(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2, 3)))


def _submanifold(rng, chart, codim):
    """Independent affine constraints with small rational coefficients."""
    while True:
        rows = [[_fraction(rng, 2) for _ in chart.coords] for _ in range(codim)]
        if len(rref(rows)[1]) == codim:
            break
    constraints = []
    for row in rows:
        poly = chart.constant(_fraction(rng, 3))
        for c, name in zip(row, chart.coords):
            poly = poly + chart.var(name) * c
        constraints.append(poly)
    return gd.AffineSubmanifold(chart, constraints), constraints


def _entry(rng, chart):
    return random_polynomial(rng, chart, 2) if rng.random() < 0.6 else chart.zero()


def _tensor(rng, chart):
    n = chart.dim
    return pn.TensorOneOne(chart, [[_entry(rng, chart) for _ in range(n)] for _ in range(n)])


def _bivector(rng, chart):
    n = chart.dim
    comps = {(a, b): _entry(rng, chart) for a in range(n) for b in range(a + 1, n)}
    return MultiVector(chart, 2, {key: p for key, p in comps.items() if not p.is_zero()})


def _dot(chart, coeffs, polys):
    acc = chart.zero()
    for c, poly in zip(coeffs, polys):
        if c:
            acc = acc + poly * c
    return acc


def invariant_oracle(tensor, sub):
    """restrict(eta_j . N . v_i), one restriction per pairing."""
    chart = sub.chart
    out = []
    for i, v in enumerate(sub.tangent_basis()):
        image = [_dot(chart, v, row) for row in tensor.entries]
        for j, eta in enumerate(sub.conormal_basis()):
            out.append((i, j, sub.restrict(_dot(chart, eta, image))))
    return out


def coisotropic_oracle(pi, sub):
    """restrict(eta_j . sharp(eta_i)), one restriction per pairing."""
    chart = sub.chart
    conormals = sub.conormal_basis()
    out = []
    for i, eta in enumerate(conormals):
        form = DiffForm(chart, 1, {(a,): c for a, c in enumerate(eta) if c})
        image = pn.sharp(pi, form)
        components = [image.component((a,)) for a in range(chart.dim)]
        for j, etap in enumerate(conormals):
            out.append((i, j, sub.restrict(_dot(chart, etap, components))))
    return out


def _same(entries, oracle):
    assert [(i, j) for i, j, _ in entries] == [(i, j) for i, j, _ in oracle]
    for (_, _, got), (_, _, want) in zip(entries, oracle):
        assert got == want
        assert str(got) == str(want)


@pytest.mark.parametrize("n, codim", CASES)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_pairings_match_restricting_each_pairing(n, codim, seed):
    rng = random.Random(seed)
    chart = CHARTS[n]
    sub, constraints = _submanifold(rng, chart, codim)
    assert dim(sub) == n - codim
    # the basis read off the augmented reduction is the kernel basis of the rows
    assert sub.tangent_basis() == nullspace(sub.conormal_basis(), n)
    for constraint in constraints:
        assert sub.restrict(constraint).is_zero()
    # a scalar multiple of the identity maps every tangent space into itself
    scalar = random_polynomial(rng, chart, 2)
    diagonal = [[scalar if a == b else chart.zero() for b in range(n)] for a in range(n)]
    tensors = (_tensor(rng, chart), pn.TensorOneOne(chart, diagonal))
    for tensor in tensors:
        verdict = gd.invariant_check(tensor, sub)
        oracle = invariant_oracle(tensor, sub)
        _same(verdict.entries, oracle)
        assert verdict.residuals() == gd.InvariantVerdict(entries=tuple(oracle)).residuals()
    assert gd.invariant_check(tensors[1], sub).ok
    pi = _bivector(rng, chart)
    verdict = gd.coisotropic_check(pi, sub)
    oracle = coisotropic_oracle(pi, sub)
    _same(verdict.entries, oracle)
    assert verdict.residuals() == gd.CoisotropicVerdict(entries=tuple(oracle)).residuals()


def _nonzero(rng):
    while True:
        c = _fraction(rng, 3)
        if c:
            return c


def _identification(rng, chart):
    """c (x_i - x_j) along a chain through each class of a random partition of
    the coordinates, each constraint with its own sign and nonzero rational c,
    in random order."""
    names = list(chart.coords)
    rng.shuffle(names)
    cuts = sorted(rng.sample(range(1, len(names)), rng.randint(0, len(names) - 1)))
    classes = [names[a:b] for a, b in zip([0] + cuts, cuts + [len(names)])]
    constraints = []
    for members in classes:
        for a, b in zip(members, members[1:]):
            if rng.random() < 0.5:
                a, b = b, a
            constraints.append((chart.var(a) - chart.var(b)) * _nonzero(rng))
    rng.shuffle(constraints)
    return constraints, len(classes)


def _substituted(sub, poly):
    """poly with x_i replaced by sum_j s_j v_j[i], the tangent basis v_j."""
    params = sub.restrict(sub.chart.zero()).variables
    images = {}
    for i, name in enumerate(sub.chart.coords):
        image = Polynomial.zero(params)
        for s, v in zip(params, sub.tangent_basis()):
            if v[i]:
                image = image + Polynomial.variable(params, s) * v[i]
        images[name] = image
    return poly.substitute(params, images)


@pytest.mark.parametrize("pinned", [False, True], ids=["identification", "x2=3"])
@pytest.mark.parametrize("n", [2, 3, 4])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_identifications_match_restricting_each_pairing(n, pinned, seed):
    rng = random.Random(seed)
    chart = CHARTS[n]
    constraints, classes = _identification(rng, chart)
    if pinned:
        constraints.insert(rng.randint(0, len(constraints)), chart.var("x2") - 3)
    calls = []
    original = Polynomial.substitute
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            Polynomial, "substitute", lambda self, *args: calls.append(1) or original(self, *args)
        )
        sub = gd.AffineSubmanifold(chart, constraints)
        for constraint in constraints:
            assert sub.restrict(constraint).is_zero()
        tensor, pi = _tensor(rng, chart), _bivector(rng, chart)
        invariant = gd.invariant_check(tensor, sub)
        coisotropic = gd.coisotropic_check(pi, sub)
    assert dim(sub) == classes - pinned
    assert bool(calls) == pinned
    _same(invariant.entries, invariant_oracle(tensor, sub))
    _same(coisotropic.entries, coisotropic_oracle(pi, sub))
    if not pinned:
        for poly in (random_polynomial(rng, chart, 3), *tensor.entries[0]):
            assert sub.restrict(poly) == _substituted(sub, poly)
