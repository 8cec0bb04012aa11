"""Jacobi pairs and the cocycle-twisted calculus on the extended bundle TM x R.

A Jacobi pair on a chart is a bivector pi and a vector field E satisfying

    [pi, pi] = 2 E ^ pi      and      [E, pi] = 0.

Multisections of the extended bundle are pairs (P, Q) with P a degree-k
multivector and Q a degree-(k-1) multivector; internally such a pair is a
degree-k section of the flat rank-(n+1) algebroid TM x R whose last
generator u has zero anchor.  The graded bracket on these pairs is the
plain algebroid bracket deformed by contraction with the dual generator of
u, with coefficients depending only on the degrees (see _twist_coeffs).
The constants are fixed by a certificate battery, not chosen freely: the
diagonal bracket [(pi,E),(pi,E)] must vanish exactly when the two defining
identities hold, the first-jet bracket table must produce a Lie algebroid
whenever the pair is Jacobi, and the jet differential (twisted by the
cocycle E) must agree with bracketing against (pi, E) in low degrees.
Every one of those checks pins signs; the shipped combination is the only
one in the scanned families passing all of them.

The same battery certifies the homogenization: (pi, E) is Jacobi exactly
when t*pi + t^2*dt^E is Poisson one dimension up, which the test suite
uses as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebroid import (
    AlgebroidData,
    AlgebroidSection,
    _cotangent_frame,
    _tangent_basis,
    algebroid_differential,
    algebroid_validate,
    gerstenhaber_bracket,
)
from .cartan import Chart, MultiVector, schouten, wedge
from .errors import InputError, InternalError
from .report import Verdict, prefixed


class JacobiPair:
    """A bivector pi together with a vector field E on one chart."""

    __slots__ = ("pi", "e")

    def __init__(self, pi, e):
        if not isinstance(pi, MultiVector) or pi.degree != 2:
            raise InputError("pi must be a degree-2 multivector")
        if not isinstance(e, MultiVector) or e.degree != 1:
            raise InputError("e must be a degree-1 multivector")
        if e.chart != pi.chart:
            raise InputError("pi and e live on different charts")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "e", e)

    def __setattr__(self, name, value):
        raise AttributeError("JacobiPair is immutable")

    @property
    def chart(self):
        return self.pi.chart

    def __eq__(self, other):
        if not isinstance(other, JacobiPair):
            return NotImplemented
        return self.pi == other.pi and self.e == other.e

    __hash__ = None

    def __repr__(self):
        return f"JacobiPair(pi={self.pi}, e={self.e})"


class ExtendedSection:
    """A pair (P, Q): degree-k and degree-(k-1) multivectors on one chart.

    Degree 0 carries no Q slot; passing q=None there (or anywhere) means
    the zero multivector of the right degree.
    """

    __slots__ = ("p", "q")

    def __init__(self, p, q=None):
        if not isinstance(p, MultiVector):
            raise InputError("p must be a multivector")
        if q is None:
            q = MultiVector(p.chart, max(p.degree - 1, 0), {})
        if not isinstance(q, MultiVector):
            raise InputError("q must be a multivector or None")
        if q.chart != p.chart:
            raise InputError("p and q live on different charts")
        if p.degree == 0:
            if not q.is_zero():
                raise InputError("a degree-0 pair has no q slot")
            q = MultiVector(p.chart, 0, {})
        elif q.degree != p.degree - 1:
            raise InputError(
                "q has degree %d, expected %d" % (q.degree, p.degree - 1)
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("ExtendedSection is immutable")

    @property
    def chart(self):
        return self.p.chart

    @property
    def degree(self):
        return self.p.degree

    def is_zero(self):
        return self.p.is_zero() and self.q.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ExtendedSection):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, ExtendedSection):
            return NotImplemented
        return ExtendedSection(self.p + other.p, self.q + other.q)

    def __neg__(self):
        return ExtendedSection(-self.p, -self.q)

    def __sub__(self, other):
        if not isinstance(other, ExtendedSection):
            return NotImplemented
        return self + (-other)

    def __repr__(self):
        return f"ExtendedSection(p={self.p}, q={self.q})"


def _twist_coeffs(p, q):
    """Degree-dependent coefficients (a, b) of the cocycle deformation.

    [S, T]^phi = [S, T] + b * S ^ (i_phi T) + a * (i_phi S) ^ T for S, T of
    degrees p, q.  b = 1 - p; a = (-1)^p (1 - q) is forced from b by graded
    antisymmetry of the deformed bracket.
    """
    b = Fraction(1 - p)
    a = Fraction(1 - q) if p % 2 == 0 else Fraction(q - 1)
    return a, b


def _extended_algebroid(chart):
    """TM x R as a flat algebroid: the tangent basis, then a zero-anchor u (alone on a point)."""
    names, cols = _tangent_basis(chart)
    cols.append((0,) * chart.dim)
    return AlgebroidData(chart, chart.dim + 1, names + ("u",), cols, {})


def _encode(alg, section):
    """Pair (P, Q) as an index section: Q rides the u slot with a minus."""
    n = alg.base.dim
    comps = dict(section.p.components)
    for key, poly in section.q.components.items():
        comps[key + (n,)] = -poly  # n is the largest index, so the key stays sorted
    return AlgebroidSection._trusted(alg, section.degree, comps)


def _decode(alg, section):
    n = alg.base.dim
    chart = alg.base
    pk, qk = {}, {}
    for key, poly in section.components.items():
        if key and key[-1] == n:
            qk[key[:-1]] = -poly
        else:
            pk[key] = poly
    p = MultiVector(chart, section.degree, pk)
    if section.degree == 0:
        return ExtendedSection(p)
    return ExtendedSection(p, MultiVector(chart, section.degree - 1, qk))


def _contract_u(alg, section):
    # u is the largest index, so it is always last in a sorted key.
    if section.degree == 0:
        return AlgebroidSection.zero(alg, 0)
    top = alg.rank - 1
    comps = {}
    for key, poly in section.components.items():
        if key and key[-1] == top:
            comps[key[:-1]] = poly if (len(key) - 1) % 2 == 0 else -poly
    return AlgebroidSection(alg, section.degree - 1, comps)


def _twisted_bracket(alg, left, right):
    out = gerstenhaber_bracket(alg, left, right)
    a, b = _twist_coeffs(left.degree, right.degree)
    if b and right.degree >= 1:
        out = out + wedge(left, _contract_u(alg, right)) * b
    if a and left.degree >= 1:
        out = out + wedge(_contract_u(alg, left), right) * a
    return out


def twisted_gerstenhaber(left, right):
    """Deformed graded bracket of two extended sections."""
    if not isinstance(left, ExtendedSection) or not isinstance(
        right, ExtendedSection
    ):
        raise InputError("expected ExtendedSection operands")
    if left.chart != right.chart:
        raise InputError("sections live on different charts")
    alg = _extended_algebroid(left.chart)
    out = _twisted_bracket(alg, _encode(alg, left), _encode(alg, right))
    return _decode(alg, out)


@dataclass(frozen=True)
class JacobiVerdict(Verdict):
    direct_residuals: tuple  # [pi,pi] - 2 e^pi, then [e,pi]
    twisted_residual: ExtendedSection

    @property
    def direct_ok(self):
        return all(r.is_zero() for r in self.direct_residuals)

    @property
    def twisted_ok(self):
        return self.twisted_residual.is_zero()

    def families(self):
        yield from zip(("[pi,pi] - 2 e^pi", "[e,pi]"), self.direct_residuals)
        yield "twisted diagonal", self.twisted_residual


def is_jacobi(pair):
    """Check the two defining identities and the twisted diagonal bracket.

    Both characterizations are computed; they must agree, and a mismatch is
    an internal fault of the twist constants rather than bad input.
    """
    if not isinstance(pair, JacobiPair):
        raise InputError("expected a JacobiPair")
    r1 = schouten(pair.pi, pair.pi) - wedge(pair.e, pair.pi) * 2
    r2 = schouten(pair.e, pair.pi)
    diag = twisted_gerstenhaber(
        ExtendedSection(pair.pi, pair.e), ExtendedSection(pair.pi, pair.e)
    )
    verdict = JacobiVerdict(direct_residuals=(r1, r2), twisted_residual=diag)
    if verdict.direct_ok != verdict.twisted_ok:
        raise InternalError(
            "Jacobi characterizations disagree: identities=%r twisted=%r"
            % (verdict.direct_ok, verdict.twisted_ok)
        )
    return verdict


@dataclass(frozen=True)
class JacobiCompatVerdict(Verdict):
    sum_verdict: JacobiVerdict
    mixed_bracket: ExtendedSection

    @property
    def sum_ok(self):
        return self.sum_verdict.ok

    @property
    def mixed_ok(self):
        return self.mixed_bracket.is_zero()

    def families(self):
        yield from prefixed("sum ", self.sum_verdict.families())
        yield "mixed bracket", self.mixed_bracket


def jacobi_compat(first, second):
    """Compatibility of two Jacobi pairs: is their sum Jacobi again?

    Equivalent criterion, asserted to agree: the mixed twisted bracket
    [(pi1,e1), (pi2,e2)] vanishes.
    """
    for pair in (first, second):
        is_jacobi(pair).require("compatibility needs Jacobi inputs")
    if first.chart != second.chart:
        raise InputError("pairs live on different charts")
    total = JacobiPair(first.pi + second.pi, first.e + second.e)
    sum_verdict = is_jacobi(total)
    mixed = twisted_gerstenhaber(
        ExtendedSection(first.pi, first.e), ExtendedSection(second.pi, second.e)
    )
    verdict = JacobiCompatVerdict(sum_verdict=sum_verdict, mixed_bracket=mixed)
    if verdict.sum_ok != verdict.mixed_ok:
        raise InternalError(
            "compatibility criteria disagree: sum=%r mixed=%r"
            % (verdict.sum_ok, verdict.mixed_ok)
        )
    return verdict


def first_jet_algebroid(pair):
    """The rank-(n+1) algebroid on 1-jets attached to a Jacobi pair.

    Basis (dx^1, .., dx^n, one) with the constant section last.  Anchor:
    rho(dx^i) = sharp(dx^i), rho(one) = E.  Bracket table:

        [dx^i, dx^j] = [dx^i, dx^j]_pi + E^i dx^j - E^j dx^i + pihat^{ij} one
        [dx^i, one]  = -d(E^i)

    The output is revalidated; a failure would mean the table formula and
    the Jacobi identities fell out of sync.
    """
    is_jacobi(pair).require("first-jet algebroid needs a Jacobi pair")
    chart = pair.chart
    n = chart.dim
    cols, table = _cotangent_frame(pair.pi)
    cols.append([pair.e.component((a,)) for a in range(n)])
    for (i, j), row in table.items():
        ei = pair.e.component((i,))
        ej = pair.e.component((j,))
        row[j] = row[j] + ei
        row[i] = row[i] - ej
        row.append(pair.pi.component((i, j)))
    for i in range(n):
        row = [chart.zero()] * (n + 1)
        for m, derivative in pair.e.component((i,)).gradient():
            row[m] = -derivative
        table[(i, n)] = tuple(row)
    basis = tuple("d" + c for c in chart.coords) + ("one",)
    jet = AlgebroidData(chart, n + 1, basis, cols, table)
    algebroid_validate(jet).guard("first-jet table failed validation")
    return jet


def jacobi_differential(pair, section, jet):
    """The twisted jet differential d omega = d_jet omega + E ^ omega.

    Acts on extended sections (the duals of jet-algebroid frames) and
    agrees with twisted_gerstenhaber((pi, e), section) in degrees 0 and 1.
    ``jet`` is first_jet_algebroid(pair), which the caller builds once for
    all its sections.
    """
    if not isinstance(section, ExtendedSection):
        raise InputError("expected an ExtendedSection")
    if section.chart != pair.chart:
        raise InputError("section lives on a different chart")
    # the jet frame and the extended frame share the chart and the index of u
    omega = _encode(jet, section)
    out = algebroid_differential(jet, omega)
    cocycle = AlgebroidSection._trusted(jet, 1, pair.e.components)
    out = out + wedge(cocycle, omega)
    return _decode(jet, out)


def homogenized_bivector(pair):
    """Poissonization one dimension up: t*pi + t^2 * dt ^ E.

    On the chart extended by a final coordinate t, named ``t_h``, the pair
    is Jacobi exactly when this bivector is Poisson; the test battery
    certifies the equivalence, and callers can use it as an independent
    cross-check.
    """
    if not isinstance(pair, JacobiPair):
        raise InputError("expected a JacobiPair")
    chart = pair.chart
    if "t_h" in chart.coords:
        raise InputError("coordinate 't_h' already taken")
    big = Chart(chart.coords + ("t_h",))
    n = chart.dim
    t = big.parse("t_h")
    comps = {}
    for (a, b), poly in pair.pi.components.items():
        comps[(a, b)] = poly.embed(big.coords) * t
    for (a,), poly in pair.e.components.items():
        comps[(a, n)] = -poly.embed(big.coords) * t * t
    return MultiVector(big, 2, comps)
