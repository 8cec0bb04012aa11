"""Definitions and readers that only the tests use.

Each is the plain form of something pncalc computes another way, or a
reader over its results: the tests hold the library to them.
"""

from pncalc import cartan
from pncalc.algebroid import _anchor_reader, _anchored
from pncalc.errors import InputError
from pncalc.linalg import mat_is_zero
from pncalc.poisson_nijenhuis import TensorOneOne, _sharp_product
from pncalc.polyalg import _sum_of_products


def torsion_apply(N, X, Y):
    """tau_N(X,Y) = [NX,NY] - N([NX,Y] + [X,NY] - N[X,Y]).

    The definition on any two vector fields, one pair per call; the tests
    hold :func:`nijenhuis_torsion` to it on coordinate pairs.
    """
    NX, NY = N.apply(X), N.apply(Y)
    defect = (
        cartan.vf_bracket(NX, Y)
        + cartan.vf_bracket(X, NY)
        - N.apply(cartan.vf_bracket(X, Y))
    )
    return cartan.vf_bracket(NX, NY) - N.apply(defect)


def sharp_compat_residual(pi, N):
    """Matrix of N.pisharp - pisharp.N* (zero iff N pi is again a bivector)."""
    return _sharp_product(pi, N)[0]


def mat(rows):
    """Freeze a rectangular nested sequence into a tuple-of-tuples matrix."""
    rows = tuple(tuple(r) for r in rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise InputError("ragged matrix")
    return rows


def from_function(cls, frame, poly):
    """The degree-0 tensor of class ``cls`` with coefficient ``poly``."""
    return cls(frame, 0, {(): poly})


def codim(sub):
    """The codimension of an affine submanifold: its number of constraints."""
    return len(sub.rows)


def dim(sub):
    """The dimension of an affine submanifold: the chart's, less the codimension."""
    return sub.chart.dim - codim(sub)


def one_form(chart, components):
    """The 1-form sum_i components[i] dx_i, one component per coordinate."""
    comps = list(components)
    if len(comps) != chart.dim:
        raise InputError(f"expected {chart.dim} components, got {len(comps)}")
    return cartan.DiffForm.from_terms(chart, 1, (((i,), c) for i, c in enumerate(comps)))


def pairing(omega, P):
    """Full contraction of a form with a multivector of the same degree."""
    if not (isinstance(omega, cartan.DiffForm) and isinstance(P, cartan.MultiVector)):
        raise InputError("pairing takes a form and a multivector")
    if omega.chart != P.chart or omega.degree != P.degree:
        raise InputError("pairing needs matching chart and degree")
    mates = P.components
    return _sum_of_products(
        omega.chart.coords,
        [(1, poly, mates[key]) for key, poly in omega.components.items() if key in mates],
    )


def power(N, k):
    """N^k for a (1,1)-tensor N: the identity composed with N k times."""
    out = TensorOneOne.identity(N.chart)
    for _ in range(k):
        out = out.compose(N)
    return out


def rho_function(algebroid, section, func):
    """Apply the anchored vector field of a degree-1 section to a function."""
    rho = _anchor_reader(algebroid, section)
    base = algebroid.base
    return _sum_of_products(base.coords, _anchored(rho, base.coerce(func).gradient(), 1))


def poisson_ok(verdict):
    """Whether the [pi,pi] residual of a PNVerdict vanishes."""
    return verdict.poisson_residual.is_zero()


def torsion_ok(verdict):
    """Whether every torsion residual of a PNVerdict vanishes."""
    return all(v.is_zero() for v in verdict.torsion_residual.values())


def relation_ok(verdict):
    """Whether the relation residual of a HolomorphicVerdict vanishes."""
    return mat_is_zero(verdict.relation_residual)
