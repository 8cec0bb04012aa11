"""Lie algebroids with polynomial coefficient data.

An algebroid here is a trivialized bundle over a chart: a finite basis of
sections e_1..e_r, an anchor given column by column as vector fields on the
base, and a structure table c^k_{ij} storing the brackets of basis sections.
Everything downstream (differential, Gerstenhaber bracket, dual linear
Poisson structure, bialgebroid checks) is computed from that table exactly.

Multisections are :class:`AlgebroidSection`, the sparse graded container
``cartan._Graded`` with an :class:`AlgebroidData` as its frame (``rank``
basis indices, coefficients on the ``base`` chart). Arithmetic, the wedge
product (``cartan.wedge``) and the Leibniz recursion of the Gerstenhaber
bracket are the ones multivectors on a chart use; only the degree-1 step,
:func:`_section_lie`, reads the structure table and the anchor.

The section bracket (:func:`_bracket_entries`), the lie step
:func:`_section_lie`, the anchor action and the differential emit factor
entries, summed by ``cartan._collect`` in one kernel call per component.
:func:`algebroid_validate` sums the three cyclic brackets of each Jacobi
triple in one collect, forming no section bracket beyond the basis ones,
and the Gerstenhaber bracket sums its slot and cross terms in the one
collect of ``cartan._leibniz``. The anchored field rho(X) of a
section is formed once per call, only in the components a derivative
reads.

Two structures on one frame are compatible when their sum
(:func:`algebroid_sum`) is again an algebroid. :func:`compat_check` requires
each half valid and then reads three independent certificates of that one
statement off the sum: its axioms, the square of its differential, and the
bracket of the two dual linear Poisson structures.

Index conventions, fixed throughout:

* basis indices are 0-based internally; printed labels are 1-based;
* the structure table is stored only for i < j, with c(j, i) = -c(i, j);
* the anchor is stored as columns: anchor[i][a] is the a-th base component
  of rho(e_i);
* on the dual chart (base coords first, then fiber coords) the linear
  Poisson structure stores component (a, n+i) = -anchor[i][a], so that
  {xi_i, x^a} = anchor[i][a], and component (n+i, n+j) = sum_k c^k_{ij} xi_k.
"""

from itertools import chain, combinations

from .errors import InputError, InternalError, PreconditionError
from .polyalg import Polynomial, _sum_of_products, is_identifier
from . import cartan
from .cartan import Chart, MultiVector
from . import poisson_nijenhuis as pn
from .report import Verdict, labelled, matrix_entries, prefixed, rendered


class AlgebroidData:
    """Base chart, rank, basis names, anchor columns, structure table."""

    __slots__ = ("base", "rank", "basis", "anchor", "structure")

    def __init__(self, base, rank, basis, anchor, structure):
        if not isinstance(base, Chart):
            raise InputError("base must be a Chart")
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
            raise InputError("rank must be a positive int, got %r" % (rank,))
        basis = tuple(basis)
        if len(basis) != rank:
            raise InputError("expected %d basis names, got %d" % (rank, len(basis)))
        if len(set(basis)) != rank:
            raise InputError("basis names must be distinct")
        for name in basis:
            # the dual chart names its fiber coordinates xi_<name>
            if not is_identifier(name):
                raise InputError("bad basis name %r: not an identifier" % (name,))
        cols = []
        anchor = tuple(anchor)
        if len(anchor) != rank:
            raise InputError("anchor needs one column per basis section")
        for col in anchor:
            col = tuple(base.coerce(entry) for entry in col)
            if len(col) != base.dim:
                raise InputError(
                    "anchor column needs %d components, got %d" % (base.dim, len(col))
                )
            cols.append(col)
        table = {}
        for key, value in dict(structure).items():
            i, j = key
            if not (0 <= i < j < rank):
                raise InputError(
                    "structure keys must be 0-based pairs (i, j) with i < j; got %r"
                    % (key,)
                )
            row = tuple(base.coerce(entry) for entry in value)
            if len(row) != rank:
                raise InputError(
                    "structure entry %r needs %d components" % (key, rank)
                )
            if any(not p.is_zero() for p in row):
                table[(i, j)] = row
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "anchor", tuple(cols))
        object.__setattr__(self, "structure", table)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebroidData is immutable")

    def c(self, i, j):
        """Structure constants of [e_i, e_j] as a tuple of base polynomials."""
        if i > j:
            return tuple(-p for p in self.c(j, i))
        return self.structure.get((i, j)) or tuple(self.base.zero() for _ in range(self.rank))

    def anchor_field(self, i):
        """rho(e_i) as a vector field on the base chart."""
        return cartan.vector_field(self.base, list(self.anchor[i]))

    def __eq__(self, other):
        if not isinstance(other, AlgebroidData):
            return NotImplemented
        return (
            self.base == other.base
            and self.rank == other.rank
            and self.basis == other.basis
            and self.anchor == other.anchor
            and self.structure == other.structure
        )

    __hash__ = None

    def __repr__(self):
        return "AlgebroidData(rank %d over %r)" % (self.rank, self.base.coords)


class AlgebroidSection(cartan._Graded):
    """Exterior power of sections: a :class:`cartan._Graded` over an algebroid.

    The algebroid is the frame: components are keyed by increasing tuples of
    basis indices, and coefficients are polynomials on its base chart. The
    same container serves both the bundle and its dual: the differential
    reads its argument as a dual-side form, the Gerstenhaber bracket as a
    primal multisection.
    """

    __slots__ = ()
    frame_type = AlgebroidData

    @property
    def algebroid(self):
        return self.frame

    def __str__(self):
        if not self.components:
            return "0"
        names = self.algebroid.basis
        pieces = []
        for key in sorted(self.components):
            coeff = self.components[key]
            label = "^".join(names[a] for a in key) if key else "1"
            text = str(coeff)
            if "+" in text or text.count("-") > (1 if text.startswith("-") else 0):
                text = "(%s)" % text
            pieces.append("%s * %s" % (text, label) if key else text)
        return " + ".join(pieces)

    def __repr__(self):
        return "AlgebroidSection(degree %d: %s)" % (self.degree, self)


def unit_section(algebroid, index):
    """The basis section e_index (0-based) as a degree-1 section."""
    if not isinstance(algebroid, AlgebroidData):
        raise InputError("expected an AlgebroidData, got %r" % (algebroid,))
    rank = algebroid.rank
    if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < rank:
        raise InputError("index %r out of range for rank %d" % (index, rank))
    return AlgebroidSection._trusted(algebroid, 1, {(index,): algebroid.base.one()})


def _view(algebroid, section):
    """A section's components read over another algebroid of its base and rank."""
    return AlgebroidSection._trusted(algebroid, section.degree, section.components)


def _anchor_reader(algebroid, section):
    """``a -> rho(X)^a`` for a degree-1 section X, each formed on its first read.

    rho(X)^a = sum_i X^i anchor[i][a], one kernel call per component.
    """
    if section.degree != 1:
        raise InputError("anchor application needs a degree-1 section")
    anchor, comps = algebroid.anchor, section.components
    coords, formed = algebroid.base.coords, {}

    def read(a):
        poly = formed.get(a)
        if poly is None:
            poly = formed[a] = _sum_of_products(
                coords, [(1, coeff, anchor[i][a]) for (i,), coeff in comps.items()]
            )
        return poly

    return read


def _anchored(rho, grad, sign):
    """sign * rho(X)(f) as kernel entries, from an :func:`_anchor_reader` and f's gradient."""
    return [(sign, r, d) for a, d in grad if not (r := rho(a)).is_zero()]


def anchor_field_of(algebroid, section):
    """rho applied to a degree-1 section, as a vector field on the base."""
    rho = _anchor_reader(algebroid, section)
    base = algebroid.base
    comps = {(a,): poly for a in range(base.dim) if not (poly := rho(a)).is_zero()}
    return MultiVector._trusted(base, 1, comps)


def _bracket_entries(algebroid, left, right, left_grads=None):
    """[X, Y] for degree-1 sections as ``cartan._collect`` entries, keyed (k,);
    ``left_grads`` is ``cartan._gradients(X)`` when the caller has it."""
    table = algebroid.structure
    entries = []
    for (i,), xc in left.components.items():
        for (j,), yc in right.components.items():
            # the table stores [e_i, e_j] for i < j only; c(j, i) = -c(i, j)
            row = table.get((i, j) if i < j else (j, i))
            if row is None:
                continue
            sign = 1 if i < j else -1
            xy = xc * yc
            entries += [((k,), sign, e, xy) for k, e in enumerate(row) if not e.is_zero()]
    for sign, rho_of, sections, grads in ((1, left, right, None), (-1, right, left, left_grads)):
        rho = None  # formed on the first coefficient with a nonzero partial
        for key, coeff in sections.components.items():
            if grad := (coeff.gradient() if grads is None else grads[key]):
                rho = rho or _anchor_reader(algebroid, rho_of)
                entries += [(key, *e) for e in _anchored(rho, grad, sign)]
    return entries


def section_bracket(algebroid, left, right, left_grads=None):
    """Bracket of two degree-1 sections, extended by Leibniz from the table;
    ``left_grads`` as in :func:`_bracket_entries`."""
    left._check_mate(right)
    if left.degree != 1 or right.degree != 1:
        raise InputError("section_bracket needs degree-1 sections")
    entries = _bracket_entries(algebroid, left, right, left_grads)
    return AlgebroidSection._trusted(algebroid, 1, cartan._collect(entries))


class AlgebroidVerdict(Verdict):
    """Jacobi residuals per basis triple, anchor residuals per basis pair."""

    __slots__ = ("jacobi_residuals", "anchor_residuals")

    def families(self):
        yield from labelled("jacobi", self.jacobi_residuals)
        yield from labelled("anchor", self.anchor_residuals)


def basis_brackets(algebroid):
    """[e_a, e_b] by ordered pair, for the pairs the axiom checks read.

    Those are (i, j), (j, k) and (k, i) for each triple i < j < k (the
    Jacobi and mixed Jacobi families) and (i, j) for each pair i < j (the
    anchor families); each bracket is formed once.
    """
    rank = algebroid.rank
    pairs = set(combinations(range(rank), 2))
    pairs.update((k, i) for i, _, k in combinations(range(rank), 3))
    units = [unit_section(algebroid, a) for a in range(rank)]
    return {(a, b): section_bracket(algebroid, units[a], units[b]) for a, b in sorted(pairs)}


def algebroid_validate(algebroid, brackets=None):
    """Check the Jacobi identity and the anchor morphism property.

    Both residual families are tensorial once the Leibniz rule is built into
    the bracket, so checking them on basis sections settles them everywhere.
    Each basis bracket [e_a, e_b] is formed once per call: both families read
    ``brackets``, the dict of :func:`basis_brackets`, which a caller that
    has formed it already passes in. The three cyclic brackets
    [[e_a, e_b], e_c] of a triple are not formed one by one: their entries
    are summed in one collect per triple.
    """
    if brackets is None:
        brackets = basis_brackets(algebroid)
    rank = algebroid.rank
    units = [unit_section(algebroid, a) for a in range(rank)]
    jac = {}
    for i, j, k in combinations(range(rank), 3):
        entries = []
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            entries += _bracket_entries(algebroid, brackets[(a, b)], units[c])
        jac[(i, j, k)] = AlgebroidSection._trusted(algebroid, 1, cartan._collect(entries))
    fields = [algebroid.anchor_field(a) for a in range(rank)]
    anch = {}
    for i, j in combinations(range(rank), 2):
        lhs = anchor_field_of(algebroid, brackets[(i, j)])
        anch[(i, j)] = lhs - cartan.vf_bracket(fields[i], fields[j])
    return AlgebroidVerdict(jac, anch)


def algebroid_differential(algebroid, omega):
    """Differential on dual-side sections, via the structure table and anchor.

    (d omega)(e_{i_0}, .., e_{i_k}) =
        sum_m (-1)^m rho(e_{i_m}) omega(.. hat m ..)
      + sum_{m<l} (-1)^{m+l} omega([e_{i_m}, e_{i_l}], .. hat m, hat l ..)

    summed over the components omega_J eps^J: the anchor part adds
    rho(e_i)(omega_J) eps^i ^ eps^J, each omega_J differentiated once; the
    table part puts d eps^t = -sum_{i<j} c^t_{ij} eps^i ^ eps^j in place of
    the p-th factor eps^t of eps^J, with sign (-1)^p.
    """
    if omega.algebroid != algebroid:
        raise InputError("section does not belong to this algebroid")
    terms = []
    for key, poly in omega.components.items():
        partials = poly.gradient()
        for i, column in enumerate(algebroid.anchor):
            if i not in key:
                terms.extend(
                    ((i,) + key, 1, column[a], d)
                    for a, d in partials
                    if not column[a].is_zero()
                )
        for p, t in enumerate(key):
            for (i, j), row in algebroid.structure.items():
                if not row[t].is_zero():
                    sign = 1 if p % 2 else -1
                    terms.append((key[:p] + (i, j) + key[p + 1:], sign, row[t], poly))
    return AlgebroidSection._trusted(algebroid, omega.degree + 1, cartan._collect(terms))


def _section_lie(vector, other, avoid, grads):
    """[X, Q] for a degree-1 X as ``cartan._collect`` entries.

    Derivation in coefficients and in each slot. ``grads`` is
    ``cartan._gradients`` of Q. Forms only the terms that survive
    ``cartan._collect``, by the rule of ``cartan._lie_entries``:
    rho(X)(Q_K) when the key K avoids the index set ``avoid``, and the
    slot-j product of [X, e_j]^a when K with a in place of j has distinct
    indices (a == j or a not in K) and avoids ``avoid``. The slot bracket
    [X, e_j] is formed once per call for each slot index j that a product
    reads, all from one gradient table of X, so each coefficient of X is
    differentiated once per call.
    """
    algebroid = vector.algebroid
    rho = _anchor_reader(algebroid, vector)
    vector_grads = None
    slot_brackets = {}
    entries = []
    for key, poly in other.components.items():
        whole, slots = cartan._live_slots(key, avoid)
        if whole:
            entries += [(key, *e) for e in _anchored(rho, grads[key], 1)]
        for pos in slots:
            j = key[pos]
            repl = slot_brackets.get(j)
            if repl is None:
                if vector_grads is None:
                    vector_grads = cartan._gradients(vector)
                repl = slot_brackets[j] = section_bracket(
                    algebroid, vector, unit_section(algebroid, j), vector_grads
                )
            for (a,), coeff in repl.components.items():
                if (a == j or a not in key) and a not in avoid:
                    entries.append((key[:pos] + (a,) + key[pos + 1:], 1, poly, coeff))
    return entries


def gerstenhaber_bracket(algebroid, left, right):
    """Graded bracket on multisections extending the section bracket.

    Same normalization as the multivector bracket: degree-1 against degree-0
    is anchor application, two degree-1 sections give the section bracket,
    higher degrees peel off leading factors by the graded Leibniz rule; the
    recursion is :func:`cartan._leibniz`, shared with :func:`cartan.schouten`.
    """
    left._check_mate(right)
    if left.algebroid != algebroid:
        raise InputError("sections do not belong to this algebroid")
    return cartan._leibniz(left, right, _section_lie)


def _tangent_basis(chart):
    """Basis names d_x and identity anchor columns of the tangent bundle."""
    n = chart.dim
    names = tuple("d_" + c for c in chart.coords)
    return names, [tuple(1 if a == i else 0 for a in range(n)) for i in range(n)]


def tangent_algebroid(chart):
    """The tangent bundle: identity anchor, vanishing structure table."""
    if chart.dim < 1:
        raise InputError("tangent algebroid needs at least one coordinate")
    names, cols = _tangent_basis(chart)
    return AlgebroidData(chart, chart.dim, names, cols, {})


def tangent_deformed_algebroid(tensor):
    """Tangent bundle with anchor N and the deformed bracket of N.

    Requires vanishing torsion; the deformed bracket then satisfies Jacobi
    and the anchor morphism property, which is re-validated as a guard.
    """
    chart = tensor.chart
    torsion = pn.nijenhuis_torsion(tensor)
    bad = rendered(labelled("torsion", torsion))
    if bad:
        raise PreconditionError("the deforming tensor has nonzero torsion", bad)
    n = chart.dim
    cols = [tuple(tensor.entries[a][i] for a in range(n)) for i in range(n)]
    table = {}
    for i, j in combinations(range(n), 2):
        bracket = pn.deformed_bracket(
            tensor,
            cartan.coordinate_vector(chart, i),
            cartan.coordinate_vector(chart, j),
        )
        table[(i, j)] = tuple(bracket.component((k,)) for k in range(n))
    out = AlgebroidData(chart, n, tuple("d_" + c for c in chart.coords), cols, table)
    algebroid_validate(out).guard("torsion-free deformation produced an invalid algebroid")
    return out


def _cotangent_frame(pi):
    """Anchor columns and bracket rows of pi on the coordinate differentials.

    Column i is sharp(dx^i) and row (i, j) lists [dx^i, dx^j]_pi, both as
    lists for callers that extend them. ``pn.koszul_bracket`` is read at
    call time, so a patch of it reaches every algebroid built here.
    """
    chart = pi.chart
    n = chart.dim
    sharp = pn.sharp_matrix(pi)
    cols = [[sharp[a][i] for a in range(n)] for i in range(n)]
    table = {}
    for i, j in combinations(range(n), 2):
        form = pn.koszul_bracket(
            pi,
            cartan.coordinate_form(chart, i),
            cartan.coordinate_form(chart, j),
        )
        table[(i, j)] = [form.component((k,)) for k in range(n)]
    return cols, table


def cotangent_algebroid(pi):
    """Cotangent algebroid of a Poisson bivector.

    Basis sections are the coordinate differentials, the anchor is the sharp
    map column by column, and the structure table is the bracket on one-forms
    evaluated on pairs of coordinate differentials.
    """
    chart = pi.chart
    pn.is_poisson(pi).require("bivector is not Poisson")
    cols, table = _cotangent_frame(pi)
    out = AlgebroidData(chart, chart.dim, tuple("d" + c for c in chart.coords), cols, table)
    algebroid_validate(out).guard("Poisson bivector produced an invalid cotangent algebroid")
    return out


def algebroid_sum(first, second):
    """Pointwise sum of anchors and structure tables on a common base chart and frame."""
    if first.base != second.base or first.rank != second.rank:
        raise InputError("algebroids must share base chart and rank")
    if first.basis != second.basis:
        raise InputError("algebroids must share basis names")

    def plus(p, q):
        return p if q.is_zero() else p + q  # no kernel call for a zero q

    cols = [tuple(map(plus, col1, col2)) for col1, col2 in zip(first.anchor, second.anchor)]
    table = {}
    for key in set(first.structure) | set(second.structure):
        table[key] = tuple(map(plus, first.c(*key), second.c(*key)))
    return AlgebroidData(first.base, first.rank, first.basis, cols, table)


def build_dual_chart(algebroid, fiber_names=None):
    """Chart for the dual bundle: base coordinates, then one fiber per section."""
    if fiber_names is None:
        fiber_names = tuple("xi_" + b for b in algebroid.basis)
    fiber_names = tuple(fiber_names)
    if len(fiber_names) != algebroid.rank:
        raise InputError("need one fiber name per basis section")
    clash = set(fiber_names) & set(algebroid.base.coords)
    if clash:
        raise InputError("fiber names collide with base coordinates: %r" % sorted(clash))
    return Chart(algebroid.base.coords + fiber_names)


def dual_linear_poisson(algebroid):
    """Fiber-linear Poisson bivector on the dual bundle chart.

    {xi_i, xi_j} = sum_k c^k_{ij} xi_k   and   {xi_i, x^a} = anchor[i][a];
    Jacobi for this bivector is equivalent to the algebroid axioms, and the
    result is re-checked as a guard.
    """
    algebroid_validate(algebroid).require("algebroid axioms fail")
    return _linear_poisson(algebroid)


def _linear_poisson(algebroid, fiber_names=None):
    """:func:`dual_linear_poisson` of an algebroid the caller has validated."""
    dual = build_dual_chart(algebroid, fiber_names)
    n = algebroid.base.dim
    rank = algebroid.rank

    comps = {}
    for i in range(rank):
        for a in range(n):
            entry = algebroid.anchor[i][a]
            if not entry.is_zero():
                comps[(a, n + i)] = -entry.embed(dual.coords)
    for (i, j), row in algebroid.structure.items():
        val = dual.zero()
        for k in range(rank):
            if not row[k].is_zero():
                xi_k = Polynomial.variable(dual.coords, dual.coords[n + k])
                val = val + row[k].embed(dual.coords) * xi_k
        comps[(n + i, n + j)] = val
    out = MultiVector(dual, 2, comps)
    pn.is_poisson(out).guard("valid algebroid produced a non-Poisson dual structure")
    return out


def linear_poisson_to_algebroid(pi, base, basis):
    """Recover the algebroid from a fiber-linear Poisson structure.

    The chart of pi must extend the base chart by one fiber coordinate per
    basis name.  Components are classified by block: base-base must vanish,
    base-fiber must be fiber-free, fiber-fiber must be homogeneous of fiber
    degree exactly one.
    """
    if not isinstance(base, Chart):
        raise InputError("base must be a Chart")
    basis = tuple(basis)
    n = base.dim
    rank = len(basis)
    chart = pi.chart
    if chart.coords[:n] != base.coords or chart.dim != n + rank:
        raise InputError("bivector chart does not extend the base chart by the fibers")
    fibers = chart.coords[n:]
    bad = {}
    anchor_cols = [[base.zero() for _ in range(n)] for _ in range(rank)]
    table = {}
    for (a, b), poly in pi.components.items():
        if b < n:
            bad["(%d,%d)" % (a + 1, b + 1)] = "base-base block must vanish: " + str(poly)
        elif a < n:
            if poly.degree_in(fibers) > 0:
                bad["(%d,%d)" % (a + 1, b + 1)] = "base-fiber block must be fiber-free: " + str(poly)
            else:
                anchor_cols[b - n][a] = -poly.embed(base.coords)
        else:
            per_k = [dict() for _ in range(rank)]
            bad_term = False
            for exps, coeff in poly.terms.items():
                fiber_part = exps[n:]
                if sum(fiber_part) != 1:
                    bad_term = True
                    break
                k = fiber_part.index(1)
                per_k[k][exps[:n]] = coeff
            if bad_term:
                bad["(%d,%d)" % (a + 1, b + 1)] = (
                    "fiber-fiber block must be fiber-linear: " + str(poly)
                )
            else:
                row = []
                for k in range(rank):
                    terms = {
                        exps: coeff
                        for exps, coeff in per_k[k].items()
                        if coeff
                    }
                    row.append(Polynomial(base.coords, terms))
                table[(a - n, b - n)] = tuple(row)
    if bad:
        raise PreconditionError("bivector is not fiber-linear", bad)
    return AlgebroidData(base, rank, basis, [tuple(col) for col in anchor_cols], table)


class CompatVerdict(Verdict):
    """Three certificates that the sum of two algebroid structures is one.

    Both halves are valid algebroids, so each certificate reads only the
    cross terms: sum_axioms holds the Jacobi and anchor residuals of the
    sum (the mixed families), differential_residuals the square of its
    differential (the anticommutator d1 d2 + d2 d1), and dual_bracket the
    multivector bracket of the two dual structures. All three must agree;
    disagreement is an internal error raised upstream.
    """

    __slots__ = ("sum_axioms", "differential_residuals", "dual_bracket")

    @property
    def certificate_a(self):
        return self.sum_axioms.ok

    @property
    def certificate_b(self):
        return all(r.is_zero() for r in self.differential_residuals.values())

    @property
    def certificate_c(self):
        return self.dual_bracket.is_zero()

    def families(self):
        yield from prefixed("mixed_", self.sum_axioms.families())
        for label, res in self.differential_residuals.items():
            yield "anticommutator(%s)" % label, res
        yield "dual_bracket", self.dual_bracket


def compat_check(first, second):
    """Decide compatibility of two algebroid structures on one frame.

    Two structures are compatible when their sum is again an algebroid
    (Kosmann-Schwarzbach and Magri, Ann. IHP 1990). Each half is required
    valid first; the three certificates are then three independent readings
    of "the sum is an algebroid", each of which sees only the cross terms:

    a. the Jacobi and anchor residuals of the sum: the mixed Jacobi and
       mixed anchor families, as the axioms of each half vanish;
    b. d d of the sum's differential on coordinate functions and on the
       dual frame sections: d1 d2 + d2 d1, as d1 d1 = d2 d2 = 0;
    c. the multivector bracket of the two dual linear Poisson structures.

    Each basis bracket [e_a, e_b] of each half is formed once per call
    (:func:`basis_brackets`). The section bracket is linear in the anchor
    and the table, so the sum's basis brackets are their sums, and its axiom
    check forms no basis bracket of its own.
    """
    total = algebroid_sum(first, second)
    b1, b2 = basis_brackets(first), basis_brackets(second)
    for which, alg, brackets in (("first", first, b1), ("second", second, b2)):
        algebroid_validate(alg, brackets).require("%s algebroid fails its own axioms" % which)
    summed = {key: _view(total, b1[key]) + _view(total, b2[key]) for key in b1}
    base = total.base
    generators = [(x, AlgebroidSection(total, 0, {(): base.var(x)})) for x in base.coords]
    generators += [("eps_%d" % (i + 1), unit_section(total, i)) for i in range(total.rank)]
    verdict = CompatVerdict(
        algebroid_validate(total, summed),
        {label: algebroid_differential(total, algebroid_differential(total, g))
         for label, g in generators},
        cartan.schouten(_linear_poisson(first), _linear_poisson(second)),
    )
    votes = (verdict.certificate_a, verdict.certificate_b, verdict.certificate_c)
    if len(set(votes)) != 1:
        raise InternalError(
            "compatibility certificates disagree: axioms=%r differentials=%r dual=%r"
            % votes
        )
    return verdict


class BialgebroidVerdict(Verdict):
    """Derivation residuals on frame pairs and on (frame, coordinate) pairs."""

    __slots__ = ("pair_residuals", "function_residuals")

    def families(self):
        yield from labelled("derivation", self.pair_residuals)
        for (i, a), res in self.function_residuals.items():
            yield "derivation(%d, %s)" % (i + 1, a), res


def _dual_differential(primary, dual, section):
    """Differential of the dual structure acting on primary-side sections."""
    return _view(primary, algebroid_differential(dual, _view(dual, section)))


def bialgebroid_check(primary, dual):
    """Check that the dual differential is a derivation of the bracket.

    The residual D(X, Y) = d_*[X, Y] - [d_* X, Y] - [X, d_* Y] is checked on
    generators only, in two families: the frame pairs (e_i, e_j), i < j, and
    the pairs (e_i, x_a) of a frame section and a coordinate function, where
    it reads d_*(rho(e_i) x_a) - [d_* e_i, x_a] - [e_i, d_* x_a]. Pairs with
    a function factor need no family of their own: D is antisymmetric and,
    in its second slot, a derivation over functions,

        D(X, f Y) = f D(X, Y) + D(X, f) ^ Y,   D(X, g h) = g D(X, h) + h D(X, g),

    so D(e_i, f e_j) vanishes for every polynomial f once both families do
    (Mackenzie and Xu, Duke 1994; Kosmann-Schwarzbach, Acta Appl. Math. 1995).
    """
    if primary.base != dual.base or primary.rank != dual.rank:
        raise InputError("bialgebroid halves must share base chart and rank")
    for which, alg in (("primary", primary), ("dual", dual)):
        algebroid_validate(alg).require("%s algebroid fails its own axioms" % which)
    rank = primary.rank
    coords = primary.base.coords

    def d_star(section):
        return _dual_differential(primary, dual, section)

    def derivation_residual(left, right):
        out = d_star(gerstenhaber_bracket(primary, left, right))
        out = out - gerstenhaber_bracket(primary, d_star(left), right)
        out = out - gerstenhaber_bracket(primary, left, d_star(right))
        return out

    pair_res = {}
    for i, j in combinations(range(rank), 2):
        pair_res[(i, j)] = derivation_residual(
            unit_section(primary, i), unit_section(primary, j)
        )
    func_res = {}
    for i in range(rank):
        for name in coords:
            f = AlgebroidSection(
                primary, 0, {(): Polynomial.variable(coords, name)}
            )
            func_res[(i, name)] = derivation_residual(unit_section(primary, i), f)
    return BialgebroidVerdict(pair_res, func_res)


class PNBialgebroidVerdict(Verdict):
    """Staged verdict for the tangent/cotangent bialgebroid of a compatible pair.

    ``recovery_residuals`` maps labels to the nonzero recovery residuals
    (values, rendered with the rest), so any entry fails.
    """

    __slots__ = ("bialgebroid", "lift_pair", "recovery_residuals", "hierarchy_compat")

    def families(self):
        yield from prefixed("bialgebroid ", self.bialgebroid.families())
        yield from prefixed("lift ", self.lift_pair.families())
        yield from prefixed("recovery ", self.recovery_residuals.items())
        for (k, l), verdict in self.hierarchy_compat.items():
            yield from prefixed("compat[%d,%d] " % (k, l), verdict.families())


def pn_bialgebroid_check(pi, tensor):
    """Desk check of the bialgebroid attached to a compatible pair.

    Stages: the tangent / cotangent pair forms a bialgebroid; the lifted
    structure on the dual bundle chart together with the lifted tensor is
    again a compatible pair; restricting the lift to zero fiber values
    recovers the input pair; the bivectors N^k pi of the lift, k = 0, 1, 2,
    give pairwise compatible algebroid structures on the frame of
    coordinate differentials.
    """
    pn.is_pn_pair(pi, tensor).require("bivector and tensor are not a compatible pair")
    chart = pi.chart
    n = chart.dim
    primary = tangent_algebroid(chart)
    dual = cotangent_algebroid(pi)
    bial = bialgebroid_check(primary, dual)

    fiber_names = tuple("v_" + c for c in chart.coords)
    lift = _linear_poisson(dual, fiber_names)  # cotangent_algebroid guarded dual
    big = lift.chart

    entries = [[big.zero() for _ in range(2 * n)] for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            entry = tensor.entries[a][b]
            entries[a][b] = entries[n + a][n + b] = entry.embed(big.coords)
            ramp = big.zero()
            for k, derivative in entry.gradient():
                fiber = Polynomial.variable(big.coords, fiber_names[k])
                ramp = ramp + fiber * derivative.embed(big.coords)
            entries[n + a][b] = ramp
    lifted_tensor = pn.TensorOneOne(big, entries)
    lift_pair = pn.is_pn_pair(lift, lifted_tensor)

    at_zero_fiber = {name: 0 for name in fiber_names}

    def demote(poly):
        return poly.substitute(chart.coords, at_zero_fiber)

    pairs = list(combinations(range(n), 2))
    rec_pi = MultiVector(chart, 2, {(a, b): demote(lift.component((a, n + b))) for a, b in pairs})
    fiber_block = {(a, b): demote(lift.component((n + a, n + b))) for a, b in pairs}
    rows = lifted_tensor.entries
    top = [[demote(rows[a][b]) - tensor.entries[a][b] for b in range(n)] for a in range(n)]
    families = chain(
        [("bivector", rec_pi - pi)],
        labelled("fiber_block", fiber_block),
        matrix_entries("tensor", top),
        matrix_entries("tensor_mixed", [row[n:] for row in rows[:n]]),
        matrix_entries("tensor_ramp", [[demote(e) for e in row[:n]] for row in rows[n:]]),
    )
    recovery = {label: value for label, value in families if not value.is_zero()}

    hierarchy = {}
    if lift_pair.ok:
        levels, biv = [], lift
        for k in range(3):
            if k:
                biv = lift_pair.npi if k == 1 else pn.n_bivector(biv, lifted_tensor)
            levels.append(linear_poisson_to_algebroid(biv, chart, dual.basis))
        for k in range(len(levels)):
            for l in range(k + 1, len(levels)):
                hierarchy[(k, l)] = compat_check(levels[k], levels[l])
    return PNBialgebroidVerdict(bial, lift_pair, recovery, hierarchy)
