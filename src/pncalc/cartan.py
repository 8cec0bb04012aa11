"""Multivector fields and differential forms on a coordinate chart.

Both kinds of tensor are stored sparsely: a map from strictly increasing
index tuples (0-based positions into the chart's coordinate list, or into a
frame's basis) to polynomial coefficients. All antisymmetry bookkeeping
happens once, at insertion, in :func:`_normalize`; after that, structural
equality of the component maps is mathematical equality of the tensors.

The container, :class:`_Graded`, is parametrized by a *frame*: an object
with an ``int`` ``rank`` (indices run over ``range(rank)``) and a ``base``
:class:`Chart` that the coefficients live on. A chart is the tangent frame
over itself; an ``algebroid.AlgebroidData`` is a frame as it stands. Each
subclass names the frame type it accepts in ``frame_type``:
:class:`MultiVector` and :class:`DiffForm` take a :class:`Chart`,
``algebroid.AlgebroidSection`` an ``AlgebroidData``. So :func:`wedge` and
the Leibniz recursion :func:`_leibniz` serve multivectors, forms and
algebroid multisections alike. The recursion peels P by tail: the components
of P sharing T = key[1:] form one degree-1 X_T, and P = sum_T X_T ^ e_T. Each
[e_T, Q] is formed once per call; each lie step [X_T, Q] returns factor
entries (:func:`_lie_entries`, ``algebroid._section_lie``), which the
recursion multiplies by the cross-term sign ``_leibniz_sign``, read at call
time, and sums with the rest in one :func:`_collect` per bracket. That sign
meets the same sums as a peel one component at a time,
so a wrong sign shows wherever it would show there. A term is formed only
if its final key has distinct indices and avoids the peeled tail; the
others are the ones :func:`_collect` would drop, so the same surviving
terms meet the same sign.

Which builders validate: the public constructor, ``from_terms`` and
:func:`vector_field` take outside input, so they check the frame's type,
the degree, every index and every coefficient, and bring the entries into
canonical form (increasing index tuples of length
``degree`` mapped to nonzero polynomials over ``frame.base``) through
:func:`_normalize`. Which build unchecked: results pncalc computes itself
from canonical operands of one frame. ``+``, ``-`` and scalar ``*``
produce canonical dicts directly; :func:`wedge`, :func:`exterior_d`,
:func:`interior`, :func:`lie_derivative`, :func:`_lie_entries`,
:func:`_leibniz` and :func:`_odd_partial` produce factor entries
``(index tuple, sign, a, b)``, standing for the kernel entry
``(sign, a, b)``, with indices in range and polynomials over the base. :func:`_collect`
sorts and signs the index tuples and sums each key's entries in one call of
the fused kernel ``polyalg._sum_of_products``, so no product is formed
outside the sum it belongs to. Both wrap their dicts with the private
``_Graded._trusted``, which stores the given dict unchecked. Nothing
mutates ``components`` after construction. :func:`_apply_vf` gives X(f) as
factor pairs (X^a, d f/d x_a) for its callers to sign and key.

The derivative loops (:func:`exterior_d`, :func:`_apply_vf`,
:func:`lie_derivative` and the slot partials of :func:`_lie_entries`)
read ``Polynomial.gradient``: one pass over a polynomial's terms gives its
partials in the variables it has, so no loop runs over every chart
coordinate to differentiate by variables that do not occur. A bracket
[P, Q] differentiates each coefficient of Q once: :func:`_leibniz` forms
the table :func:`_gradients` of Q and hands it to every lie step.
:func:`schouten_direct` keeps ``Polynomial.partial`` on purpose, one
coordinate at a time, so the two sides of the Schouten cross-check also
differentiate through different kernels.

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
from .polyalg import Polynomial, _sum_of_products, is_identifier, parse_polynomial


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
            if not is_identifier(name):
                raise InputError(f"bad coordinate name {name!r}")
        # one shared zero per chart; a Polynomial is immutable
        object.__setattr__(self, "_zero", Polynomial._trusted(coords, {}, 1))

    @property
    def dim(self):
        return len(self.coords)

    rank = dim  # a chart is the tangent frame over itself

    @property
    def base(self):
        return self

    def zero(self):
        return self._zero

    def one(self):
        return Polynomial._trusted(self.coords, {(0,) * len(self.coords): 1}, 1)

    def constant(self, value):
        return Polynomial.constant(self.coords, value)

    def var(self, name):
        return Polynomial.variable(self.coords, name)

    def parse(self, text):
        return parse_polynomial(text, self.coords)

    def coerce(self, value):
        """A polynomial on this chart from an int, Fraction, string or Polynomial."""
        if isinstance(value, (int, Fraction)):
            return Polynomial.constant(self.coords, value)
        if isinstance(value, str):
            return parse_polynomial(value, self.coords)
        if not isinstance(value, Polynomial):
            raise InputError(f"not a polynomial coefficient: {value!r}")
        if value.variables != self.coords:
            if value.is_constant():
                return Polynomial.constant(self.coords, value.constant_value())
            raise InputError(
                f"coefficient over {value.variables}, chart has {self.coords}"
            )
        return value


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


def _collect(entries):
    """Canonical components from (index tuple, sign, a, b) factor entries, unchecked.

    An entry stands for the kernel entry ``(sign, a, b)`` at its index
    tuple. Drops tuples with a repeated index, sorts the others with
    their permutation sign and sums each key's entries in one
    ``polyalg._sum_of_products`` call, dropping keys whose sum vanishes. So
    a product is formed only for a key that survives, and only inside the
    sum. Indices must be in range and polynomials over the frame's base;
    :func:`_normalize` checks that for outside input.
    """
    groups = {}
    for idx, sign, a, b in entries:
        if len(idx) > 1:  # a shorter tuple is sorted and has no repeat
            if len(set(idx)) != len(idx):
                continue
            idx, perm = _sort_sign(idx)
            if perm < 0:
                sign = -sign
        term = (sign, a, b)
        terms = groups.get(idx)
        if terms is None:
            groups[idx] = [term]
        else:
            terms.append(term)
    comps = {}
    for key, terms in groups.items():
        poly = _sum_of_products(terms[0][1].variables, terms)
        if not poly.is_zero():
            comps[key] = poly
    return comps


def _normalize(cls, frame, degree, entries):
    """Validate (index tuple, coefficient) pairs into canonical components."""
    if not isinstance(frame, cls.frame_type):
        raise InputError(
            f"{cls.__name__} needs a {cls.frame_type.__name__} frame, got {frame!r}"
        )
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
        raise InputError(f"degree must be a nonnegative int, got {degree!r}")
    base, rank = frame.base, frame.rank
    checked = []
    for idx, poly in entries:
        idx = tuple(idx)
        poly = base.coerce(poly)
        if len(idx) != degree:
            raise InputError(
                f"index tuple {idx} has length {len(idx)}, degree is {degree}"
            )
        for i in idx:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < rank:
                raise InputError(f"index {i} out of range for rank {rank}")
        checked.append((idx, 1, poly, None))
    return _collect(checked)


class _Graded:
    """Sparse antisymmetric tensor over a frame; see the module doc."""

    __slots__ = ("frame", "degree", "components")
    frame_type = Chart

    def __init__(self, frame, degree, components=None):
        comps = _normalize(type(self), frame, degree, (components or {}).items())
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", comps)

    @classmethod
    def _trusted(cls, frame, degree, components):
        """Wrap components already in canonical form (see the module doc), unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "frame", frame)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "components", components)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def chart(self):
        """The chart the coefficients live on, ``frame.base``."""
        return self.frame.base

    @classmethod
    def zero(cls, frame, degree):
        return cls(frame, degree, {})

    @classmethod
    def from_terms(cls, frame, degree, entries):
        """Build from (index tuple, coefficient) pairs, keys in any order."""
        return cls._trusted(frame, degree, _normalize(cls, frame, degree, entries))

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
        if other.frame != self.frame:
            raise InputError("frame mismatch")

    def __add__(self, other):
        self._check_mate(other)
        if other.degree != self.degree:
            raise InputError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        comps = dict(self.components)
        for key, val in other.components.items():
            cur = comps.get(key)
            if cur is not None:
                val = cur + val
                if val.is_zero():
                    del comps[key]
                    continue
            comps[key] = val
        return self._trusted(self.frame, self.degree, comps)

    def __neg__(self):
        return self._trusted(
            self.frame, self.degree, {k: -v for k, v in self.components.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        poly = self.chart.coerce(scalar)
        if poly.is_zero():
            return self._trusted(self.frame, self.degree, {})
        return self._trusted(
            self.frame,
            self.degree,
            {k: poly * v for k, v in self.components.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.frame == other.frame
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
            elif len(poly.exponents()) == 1 and str(poly)[0] != "-":
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


def _coordinate(cls, chart, i):
    if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < chart.dim:
        raise InputError(f"index {i!r} out of range for rank {chart.dim}")
    return cls._trusted(chart, 1, {(i,): chart.one()})


def coordinate_vector(chart, i):
    """The coordinate vector field d_i (``i`` 0-based)."""
    return _coordinate(MultiVector, chart, i)


def coordinate_form(chart, i):
    """The coordinate differential dx_i (``i`` 0-based)."""
    return _coordinate(DiffForm, chart, i)


def wedge(a, b):
    """Graded exterior product; arguments must be the same kind of tensor."""
    a._check_mate(b)
    right = b.components.items()
    entries = [
        (ka + kb, 1, va, vb) for ka, va in a.components.items() for kb, vb in right
    ]
    return a._trusted(a.frame, a.degree + b.degree, _collect(entries))


def exterior_d(omega):
    """de Rham differential, degree k to k+1."""
    if not isinstance(omega, DiffForm):
        raise InputError("exterior_d acts on differential forms")
    chart = omega.chart
    entries = []
    for key, poly in omega.components.items():
        for a, dpoly in poly.gradient():
            entries.append(((a,) + key, 1, dpoly, None))
    return DiffForm._trusted(chart, omega.degree + 1, _collect(entries))


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
            if xc is not None:
                entries.append((key[:pos] + key[pos + 1 :], -1 if pos % 2 else 1, poly, xc))
    return DiffForm._trusted(omega.chart, omega.degree - 1, _collect(entries))


def _apply_vf(X, poly):
    """The directional derivative X(poly) as factor pairs ``[(X^a, d poly/d x_a)]``.

    Only the partials that do not vanish, and only where X has a component.
    """
    comps = X.components
    return [(xc, d) for a, d in poly.gradient() if (xc := comps.get((a,))) is not None]


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
    grads = {}  # k -> the gradient of X^k, formed once per call
    entries = []
    for key, poly in omega.components.items():
        entries += [(key, 1, xc, d) for xc, d in _apply_vf(X, poly)]
        for pos, k in enumerate(key):
            # d(X^k) substituted into slot pos
            grad = grads.get(k)
            if grad is None:
                comp = X.components.get((k,))
                grad = grads[k] = comp.gradient() if comp is not None else ()
            for a, dcomp in grad:
                entries.append((key[:pos] + (a,) + key[pos + 1 :], 1, poly, dcomp))
    return DiffForm._trusted(omega.chart, omega.degree, _collect(entries))


def _gradients(Q):
    """The gradient of each coefficient of Q, by key: the table the lie steps read."""
    return {key: poly.gradient() for key, poly in Q.components.items()}


def _live_slots(key, avoid):
    """Whether key avoids ``avoid``, and the slots whose replacement can.

    A new key is key with one slot replaced. If key meets ``avoid`` once,
    only replacing that slot can give a key that avoids it; if more than
    once, no replacement can.
    """
    hits = [pos for pos, j in enumerate(key) if j in avoid] if avoid else ()
    if not hits:
        return True, range(len(key))
    return False, hits if len(hits) == 1 else ()


def _lie_entries(X, Q, avoid, grads):
    """[X, Q] for a vector field X as factor entries: derivation in each slot of Q.

    ``grads`` is :func:`_gradients` of Q. Only the terms that survive
    :func:`_collect` are formed: X(Q_K) when the key K avoids the index set
    ``avoid``, and the slot-j product of component a when the new key, K
    with a in place of j, has distinct indices (a == j or a not in K) and
    avoids ``avoid``. :func:`_leibniz` passes the peeled tail as ``avoid``;
    the entries sum to [X, Q] with the components whose key meets it left
    out. Each component X^a is differentiated once per call, by one
    ``gradient``, when the first slot product is read; the list of partials
    d_j X^a is then formed once for each slot index j that a product reads.
    """
    comps = X.components
    slot_grads = None  # [(a, {j: d_j X^a})], formed on the first slot read
    slot_partials = {}  # j -> [(a, d_j X^a)], nonzero entries only
    entries = []
    for key, poly in Q.components.items():
        whole, slots = _live_slots(key, avoid)
        if whole:
            entries += [
                (key, 1, xc, d)
                for a, d in grads[key]
                if (xc := comps.get((a,))) is not None
            ]
        for pos in slots:
            j = key[pos]
            partials = slot_partials.get(j)
            if partials is None:
                if slot_grads is None:
                    slot_grads = [(a, dict(xc.gradient())) for (a,), xc in comps.items()]
                partials = slot_partials[j] = [
                    (a, grad[j]) for a, grad in slot_grads if j in grad
                ]
            for a, dxc in partials:
                if (a == j or a not in key) and a not in avoid:
                    entries.append((key[:pos] + (a,) + key[pos + 1 :], -1, poly, dxc))
    return entries


def _lie_multivector(X, Q):
    """[X, Q] for a vector field X: the entries of :func:`_lie_entries`, collected."""
    entries = _lie_entries(X, Q, (), _gradients(Q))
    return MultiVector._trusted(X.chart, Q.degree, _collect(entries))


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


def _leibniz(P, Q, lie, grads=None):
    """Graded bracket of two multisections of one frame, by recursion.

    ``lie(X, Q, avoid, grads)`` gives the bracket of a degree-1 X with Q as
    :func:`_collect` entries ``(key, sign, a, b)``, less the components whose
    key meets the index set ``avoid``; ``grads`` is :func:`_gradients` of
    Q, formed once per call and passed to every lie step and every recursive
    call, so each coefficient of Q is differentiated once per bracket.
    Everything else follows from [f, g] = 0 for functions, graded
    antisymmetry [P,Q] = -(-1)^((p-1)(q-1))[Q,P] and the graded Leibniz rule
    [P, Q^R] = [P,Q]^R + (-1)^((p-1)q) Q^[P,R]. A bracket of degree
    p + q - 1 above the frame's rank is zero, and is returned before any
    gradient is formed.

    For p >= 2 the components of P are grouped by their tail T = key[1:]:
    P = sum_T X_T ^ e_T with the degree-1 X_T = sum_a f_(a,T) e_a and the
    unit multisection e_T, so

        [P, Q] = sum_T ( X_T ^ [e_T, Q] + s [X_T, Q] ^ e_T ),

    s = ``_leibniz_sign(p, q)``, read at call time. Each [e_T, Q] is formed
    once per call, by recursion, and each [X_T, Q] is one lie step whose
    entries, each sign multiplied by s, go straight into the sum: all terms
    of [P, Q] are summed by one :func:`_collect`, f_(a,T) times a component
    of [e_T, Q] as a factor pair. A term is formed only if its final key
    has distinct indices and avoids the peeled tail: f_(a,T) times a
    component of [e_T, Q] only when a is not in its key, and [X_T, Q] with
    ``avoid`` the indices of T, so the lie step forms none of the products that
    ``_collect`` would drop for meeting T. The same surviving terms meet
    the same s. The bracket is linear in its first slot, so the cross
    terms s [X_T, Q] ^ e_T sum to those of peeling one component at a time,
    and a wrong s changes exactly the outputs it would change there. Grouping
    by the head index a instead, P = sum_a e_a ^ R_a, would put s on
    [e_a, Q] ^ R_a, which for a vector-field bracket is d_a Q ^ R_a. On R^3
    that vanishes for every P when Q is the so(3) bivector, so a wrong s
    would go unseen there.
    """
    frame = P.frame
    p, q = P.degree, Q.degree
    if p == 0 and q == 0:
        return P.zero(frame, 0)
    if p == 0:
        res = _leibniz(Q, P, lie)
        return res if q % 2 == 0 else -res
    if p + q - 1 > frame.rank:  # no key of that degree has distinct indices
        return P._trusted(frame, p + q - 1, {})
    if grads is None:
        grads = _gradients(Q)
    if p == 1:
        return P._trusted(frame, q, _collect(lie(P, Q, frozenset(), grads)))
    sign = _leibniz_sign(p, q)
    by_tail = {}
    for key, poly in P.components.items():
        by_tail.setdefault(key[1:], {})[key[:1]] = poly
    one = frame.base.one()
    entries = []
    for tail, heads in by_tail.items():
        rest = _leibniz(P._trusted(frame, p - 1, {tail: one}), Q, lie, grads)
        for head, f in heads.items():
            entries.extend(
                (head + key, 1, f, poly)
                for key, poly in rest.components.items()
                if head[0] not in key
            )
        cross = lie(P._trusted(frame, 1, heads), Q, frozenset(tail), grads)
        entries.extend((key + tail, sign * s, a, b) for key, s, a, b in cross)
    return P._trusted(frame, p + q - 1, _collect(entries))


def schouten(P, Q):
    """Schouten bracket, recursive evaluator.

    Characterized by: [X,Y] is the Lie bracket, [X,f] = X(f), graded
    antisymmetry and the graded Leibniz rule; see :func:`_leibniz`, which
    this runs with the vector-field step :func:`_lie_entries`.
    """
    if not (isinstance(P, MultiVector) and isinstance(Q, MultiVector)):
        raise InputError("schouten acts on multivectors")
    if P.chart != Q.chart:
        raise InputError("chart mismatch")
    return _leibniz(P, Q, _lie_entries)


def _odd_partial(P, i):
    """Left slot-removal derivative: strips index i with its position sign."""
    entries = []
    for key, poly in P.components.items():
        if i not in key:
            continue
        pos = key.index(i)
        entries.append((key[:pos] + key[pos + 1 :], -1 if pos % 2 else 1, poly, None))
    return MultiVector._trusted(P.chart, max(P.degree - 1, 0), _collect(entries))


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
