"""Multivector fields and differential forms on a coordinate chart.

Both kinds of tensor are stored sparsely: a map from strictly increasing
index tuples (0-based positions into the chart's coordinate list) to
polynomial coefficients. All antisymmetry bookkeeping happens once, at
insertion, in :func:`_normalize`; after that, structural equality of the
component maps is mathematical equality of the tensors.

The Schouten bracket ships twice on purpose. :func:`schouten` recurses on
wedge decompositions through the graded Leibniz rule, while
:func:`schouten_direct` expands an explicit index-summation formula. The two
derivations share no code beyond the wedge, so agreement on random inputs is
strong evidence against sign errors, which are the dominant failure mode in
this kind of calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .polyalg import Polynomial, parse_polynomial


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of distinct coordinate names modelling R^n.

    An empty tuple is allowed and models a point; algebroids over a point
    (structure tables with constant entries) live on such a chart.
    """

    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if len(set(coords)) != len(coords):
            raise InputError(f"coordinate names must be distinct: {coords}")
        for name in coords:
            if not name or not (name[0].isalpha() or name[0] == "_"):
                raise InputError(f"bad coordinate name {name!r}")

    @property
    def dim(self):
        return len(self.coords)

    def zero(self):
        return Polynomial._trusted(self.coords, {})

    def constant(self, value):
        return Polynomial.constant(self.coords, value)

    def var(self, name):
        return Polynomial.variable(self.coords, name)

    def parse(self, text):
        return parse_polynomial(text, self.coords)


def _sort_sign(idx):
    """Sort an index tuple, tracking the permutation sign."""
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


class _Graded:
    """Shared machinery for MultiVector and DiffForm."""

    __slots__ = ("chart", "degree", "components")

    def __init__(self, chart, degree, components=None):
        if not isinstance(chart, Chart):
            raise InputError(f"expected a Chart, got {chart!r}")
        if not isinstance(degree, int) or degree < 0:
            raise InputError(f"degree must be a nonnegative int, got {degree!r}")
        comps = {}
        for idx, poly in (components or {}).items():
            idx = tuple(idx)
            poly = self._coerce_poly(chart, poly)
            if len(idx) != degree:
                raise InputError(
                    f"index tuple {idx} has length {len(idx)}, degree is {degree}"
                )
            for i in idx:
                if not (isinstance(i, int) and 0 <= i < chart.dim):
                    raise InputError(f"index {i} out of range for dim {chart.dim}")
            if len(set(idx)) != len(idx):
                continue
            key, sign = _sort_sign(idx)
            if sign < 0:
                poly = -poly
            if key in comps:
                poly = comps[key] + poly
            if poly.is_zero():
                comps.pop(key, None)
            else:
                comps[key] = poly
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def _coerce_poly(chart, poly):
        if isinstance(poly, (int, Fraction)):
            return Polynomial.constant(chart.coords, poly)
        if isinstance(poly, str):
            return parse_polynomial(poly, chart.coords)
        if not isinstance(poly, Polynomial):
            raise InputError(f"not a polynomial coefficient: {poly!r}")
        if poly.variables != chart.coords:
            if poly.is_constant():
                return Polynomial.constant(chart.coords, poly.constant_value())
            raise InputError(
                f"coefficient over {poly.variables}, chart has {chart.coords}"
            )
        return poly

    @classmethod
    def zero(cls, chart, degree):
        return cls(chart, degree, {})

    @classmethod
    def from_function(cls, chart, poly):
        return cls(chart, 0, {(): poly})

    @classmethod
    def from_terms(cls, chart, degree, entries):
        """Build from (index tuple, coefficient) pairs, keys in any order."""
        acc = {}
        out = cls(chart, degree, {})
        comps = out.components
        for idx, poly in entries:
            tmp = cls(chart, degree, {tuple(idx): poly})
            for key, val in tmp.components.items():
                cur = comps.get(key)
                val = val if cur is None else cur + val
                if val.is_zero():
                    comps.pop(key, None)
                else:
                    comps[key] = val
        return out

    def component(self, idx):
        """Coefficient at an arbitrary index tuple, sign-adjusted."""
        idx = tuple(idx)
        poly = self.components.get(idx)
        if poly is not None:  # idx is a stored, hence sorted, key
            return poly
        if len(set(idx)) != len(idx):
            return self.chart.zero()
        key, sign = _sort_sign(idx)
        poly = self.components.get(key)
        if poly is None:
            return self.chart.zero()
        return poly if sign > 0 else -poly

    def is_zero(self):
        return not self.components

    def _check_mate(self, other):
        if type(other) is not type(self):
            raise InputError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if other.chart != self.chart:
            raise InputError("chart mismatch")

    def __add__(self, other):
        self._check_mate(other)
        if other.degree != self.degree:
            raise InputError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        comps = dict(self.components)
        for key, val in other.components.items():
            cur = comps.get(key)
            val = val if cur is None else cur + val
            if val.is_zero():
                comps.pop(key, None)
            else:
                comps[key] = val
        return type(self)(self.chart, self.degree, comps)

    def __neg__(self):
        return type(self)(
            self.chart, self.degree, {k: -v for k, v in self.components.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        poly = self._coerce_poly(self.chart, scalar)
        return type(self)(
            self.chart,
            self.degree,
            {k: poly * v for k, v in self.components.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.components == other.components
        )

    __hash__ = None

    def _basis_name(self, i):
        raise NotImplementedError

    def __str__(self):
        if not self.components:
            return "0"
        if self.degree == 0:
            return str(self.components[()])
        parts = []
        for key in sorted(self.components):
            poly = self.components[key]
            basis = "^".join(self._basis_name(i) for i in key)
            if poly == 1:
                parts.append(basis)
            elif len(poly.terms) == 1 and str(poly)[0] != "-":
                parts.append(f"{poly}*{basis}")
            else:
                parts.append(f"({poly})*{basis}")
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class MultiVector(_Graded):
    """Antisymmetric contravariant tensor with polynomial coefficients."""

    __slots__ = ()

    def _basis_name(self, i):
        return f"d_{self.chart.coords[i]}"


class DiffForm(_Graded):
    """Antisymmetric covariant tensor with polynomial coefficients."""

    __slots__ = ()

    def _basis_name(self, i):
        return f"d{self.chart.coords[i]}"


def vector_field(chart, components):
    """Degree-1 multivector from a list of n component polynomials."""
    comps = list(components)
    if len(comps) != chart.dim:
        raise InputError(f"expected {chart.dim} components, got {len(comps)}")
    return MultiVector.from_terms(
        chart, 1, (((i,), c) for i, c in enumerate(comps))
    )


def one_form(chart, components):
    comps = list(components)
    if len(comps) != chart.dim:
        raise InputError(f"expected {chart.dim} components, got {len(comps)}")
    return DiffForm.from_terms(chart, 1, (((i,), c) for i, c in enumerate(comps)))


def coordinate_vector(chart, i):
    return MultiVector(chart, 1, {(i,): 1})


def coordinate_form(chart, i):
    return DiffForm(chart, 1, {(i,): 1})


def wedge(a, b):
    """Graded exterior product; arguments must be the same kind of tensor."""
    a._check_mate(b)
    entries = []
    for ka, va in a.components.items():
        for kb, vb in b.components.items():
            entries.append((ka + kb, va * vb))
    return type(a).from_terms(a.chart, a.degree + b.degree, entries)


def exterior_d(omega):
    """de Rham differential, degree k to k+1."""
    if not isinstance(omega, DiffForm):
        raise InputError("exterior_d acts on differential forms")
    chart = omega.chart
    entries = []
    for key, poly in omega.components.items():
        for a, name in enumerate(chart.coords):
            dpoly = poly.partial(name)
            if not dpoly.is_zero():
                entries.append(((a,) + key, dpoly))
    return DiffForm.from_terms(chart, omega.degree + 1, entries)


def interior(X, omega):
    """Contraction of a form with a vector field in the first slot."""
    if not (isinstance(X, MultiVector) and X.degree == 1):
        raise InputError("interior product needs a degree-1 multivector")
    if not isinstance(omega, DiffForm):
        raise InputError("interior product acts on differential forms")
    if omega.chart != X.chart:
        raise InputError("chart mismatch")
    if omega.degree == 0:
        raise InputError("cannot contract a degree-0 form")
    entries = []
    for key, poly in omega.components.items():
        for pos in range(len(key)):
            xc = X.components.get((key[pos],))
            if xc is None:
                continue
            coeff = poly * xc
            if pos % 2:
                coeff = -coeff
            entries.append((key[:pos] + key[pos + 1 :], coeff))
    return DiffForm.from_terms(omega.chart, omega.degree - 1, entries)


def _apply_vf(X, poly):
    """Directional derivative of a polynomial along a vector field."""
    out = X.chart.zero()
    for (a,), xc in X.components.items():
        out = out + xc * poly.partial(X.chart.coords[a])
    return out


def lie_derivative(X, omega):
    """Lie derivative of a form, computed from the derivation property.

    Deliberately not defined through the homotopy identity
    L_X = i_X d + d i_X, which is checked as a theorem in the tests.
    """
    if not (isinstance(X, MultiVector) and X.degree == 1):
        raise InputError("lie_derivative needs a degree-1 multivector")
    if not isinstance(omega, DiffForm):
        raise InputError("lie_derivative acts on differential forms")
    if omega.chart != X.chart:
        raise InputError("chart mismatch")
    chart = omega.chart
    entries = []
    for key, poly in omega.components.items():
        entries.append((key, _apply_vf(X, poly)))
        for pos in range(len(key)):
            xc = X.components
            # d(X^{key[pos]}) substituted into slot pos
            for a, name in enumerate(chart.coords):
                comp = xc.get((key[pos],))
                if comp is None:
                    continue
                dcomp = comp.partial(name)
                if dcomp.is_zero():
                    continue
                entries.append((key[:pos] + (a,) + key[pos + 1 :], poly * dcomp))
    return DiffForm.from_terms(chart, omega.degree, entries)


def _lie_multivector(X, Q):
    """[X, Q] for a vector field X: derivation in each slot of Q."""
    chart = X.chart
    entries = []
    for key, poly in Q.components.items():
        entries.append((key, _apply_vf(X, poly)))
        for pos in range(len(key)):
            j = key[pos]
            for (a,), xc in X.components.items():
                dxc = xc.partial(chart.coords[j])
                if dxc.is_zero():
                    continue
                entries.append((key[:pos] + (a,) + key[pos + 1 :], -(poly * dxc)))
    return MultiVector.from_terms(chart, Q.degree, entries)


def vf_bracket(X, Y):
    """Lie bracket of two vector fields."""
    for Z in (X, Y):
        if not (isinstance(Z, MultiVector) and Z.degree == 1):
            raise InputError("vf_bracket needs degree-1 multivectors")
    if X.chart != Y.chart:
        raise InputError("chart mismatch")
    return _lie_multivector(X, Y)


def _leibniz_sign(p, q):
    # sign on [X,Q]^R when expanding [X^R, Q] by the graded Leibniz rule
    return -1 if ((p - 1) * (q - 1)) % 2 else 1


def schouten(P, Q):
    """Schouten bracket, recursive evaluator.

    Characterized by: [X,Y] is the Lie bracket, [X,f] = X(f), graded
    antisymmetry [P,Q] = -(-1)^((p-1)(q-1))[Q,P], and the graded Leibniz
    rule [P, Q^R] = [P,Q]^R + (-1)^((p-1)q) Q^[P,R]. The recursion peels
    one vector factor at a time off the first argument.
    """
    if not (isinstance(P, MultiVector) and isinstance(Q, MultiVector)):
        raise InputError("schouten acts on multivectors")
    if P.chart != Q.chart:
        raise InputError("chart mismatch")
    chart = P.chart
    p, q = P.degree, Q.degree
    if p == 0 and q == 0:
        return MultiVector.zero(chart, 0)
    if p == 0:
        res = schouten(Q, P)
        return res if q % 2 == 0 else -res
    if p == 1:
        return _lie_multivector(P, Q)
    out = MultiVector.zero(chart, p + q - 1)
    sign = _leibniz_sign(p, q)
    one = chart.constant(1)
    for key, poly in P.components.items():
        X = MultiVector(chart, 1, {(key[0],): poly})
        rest = MultiVector(chart, p - 1, {key[1:]: one})
        out = out + wedge(X, schouten(rest, Q))
        cross = wedge(schouten(X, Q), rest)
        out = out + (cross if sign > 0 else -cross)
    return out


def _odd_partial(P, i):
    """Left slot-removal derivative: strips index i with its position sign."""
    entries = []
    for key, poly in P.components.items():
        if i not in key:
            continue
        pos = key.index(i)
        coeff = poly if pos % 2 == 0 else -poly
        entries.append((key[:pos] + key[pos + 1 :], coeff))
    return MultiVector.from_terms(P.chart, max(P.degree - 1, 0), entries)


def schouten_direct(P, Q):
    """Schouten bracket, independent index-summation formula.

    Treats a multivector as a polynomial in odd generators and contracts
    slot-removal derivatives against coordinate derivatives:

        [P,Q] = (-1)^(p+1) sum_i dP/dtheta_i ^ dQ/dx_i
              + (-1)^(pq+p+1) sum_i dQ/dtheta_i ^ dP/dx_i

    Derived from the same four axioms as :func:`schouten` but sharing no
    code with the recursion; used as the cross-check oracle.
    """
    if not (isinstance(P, MultiVector) and isinstance(Q, MultiVector)):
        raise InputError("schouten acts on multivectors")
    if P.chart != Q.chart:
        raise InputError("chart mismatch")
    chart = P.chart
    p, q = P.degree, Q.degree
    if p + q == 0:
        return MultiVector.zero(chart, 0)
    out = MultiVector.zero(chart, p + q - 1)
    s1 = 1 if (p + 1) % 2 == 0 else -1
    s2 = 1 if (p * q + p + 1) % 2 == 0 else -1
    for i, name in enumerate(chart.coords):
        if p > 0:
            left = _odd_partial(P, i)
            right = MultiVector(
                chart, q, {k: v.partial(name) for k, v in Q.components.items()}
            )
            term = wedge(left, right)
            out = out + (term if s1 > 0 else -term)
        if q > 0:
            left = _odd_partial(Q, i)
            right = MultiVector(
                chart, p, {k: v.partial(name) for k, v in P.components.items()}
            )
            term = wedge(left, right)
            out = out + (term if s2 > 0 else -term)
    return out


def pairing(omega, P):
    """Full contraction of a form with a multivector of the same degree."""
    if not (isinstance(omega, DiffForm) and isinstance(P, MultiVector)):
        raise InputError("pairing takes a form and a multivector")
    if omega.chart != P.chart or omega.degree != P.degree:
        raise InputError("pairing needs matching chart and degree")
    out = omega.chart.zero()
    for key, poly in omega.components.items():
        mate = P.components.get(key)
        if mate is not None:
            out = out + poly * mate
    return out
