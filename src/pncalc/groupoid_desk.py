"""Pair groupoids, affine submanifolds, and multiplicativity desk checks.

The only groupoids modeled are pair groupoids M x M over a chart: source
s(x,y) = x, target t(x,y) = y, multiplication m((x,y),(y,z)) = (x,z).
Every multiplicativity statement then reduces to exact linear algebra over
the rationals plus polynomial identities: the graph of m is an affine
subspace of the triple product, a tensor is multiplicative when the graph
is invariant under the threefold block sum, and a bivector makes the
groupoid Poisson when the graph is coisotropic for pi (+) pi (+) (-pi).

Submanifolds are restricted to affine coordinate constraints with rational
coefficients, so tangent and conormal bases are exact kernels and row
spaces. Restriction follows a rational parametrization: a map of exponent
slots when each coordinate's image is one parameter with coefficient 1
(the graph, y_1 = x_2, x_1 = x_3, y_2 = y_3, and the units, x = y), else
``substitute`` along genuine affine images. Both certificates are pairings
eta.M.v of a polynomial matrix M (N, or the matrix of pi sharp) with
rational conormals eta and rational vectors v. Restriction is a ring
homomorphism that fixes rationals, so ``AffineSubmanifold.pairings``
restricts each entry of M once and sums them times integer weights over
one denominator in one kernel call per pairing: the same polynomials as
restricting every pairing.

Every other change of ring only moves variables: the block lifts of pi and
N (``_block_bivector``, ``_block_tensor``, one ``polyalg._exponent_map``
per block), the source projection and the units' diagonal (``embed``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from . import poisson_nijenhuis as pn
from .cartan import Chart, MultiVector
from .errors import InputError, InternalError, PreconditionError
from .linalg import kernel_basis, rref
from .polyalg import Polynomial, _exponent_map, _over, _sum_of_products
from .report import Verdict, prefixed


def _integral(vec):
    """A rational vector's nonzero entries as (index, int) over a common denominator."""
    live = [(k, x) for k, x in enumerate(vec) if x]
    den = lcm(*(x.denominator for _, x in live))
    return [(k, x.numerator * (den // x.denominator)) for k, x in live], den


def _differences(chart, pairs):
    """The constraints x_a - x_b over ``chart``, one per index pair (a, b)."""
    units = {i: tuple(int(i == j) for j in range(chart.dim)) for pair in pairs for i in pair}
    return [Polynomial._trusted(chart.coords, {units[a]: 1, units[b]: -1}, 1) for a, b in pairs]


class AffineSubmanifold:
    """Solution set of independent affine constraints sum r_i x^i = r_0.

    Constraints are given as affine-linear polynomials (or strings) that
    vanish on the submanifold; the constant term supplies r_0.

    Construction row-reduces [rows | rhs] once. That one reduction refuses
    an inconsistent or dependent system and gives the base point x0, the
    tangent basis v_j and the parametrization x0 + sum_j s_j v_j that
    ``restrict`` follows; nothing is filled in later. When x0 is 0 and each
    coordinate has one v_j[i] nonzero, equal to 1, the constraints identify
    coordinates and restriction is an exponent map; otherwise it substitutes
    the affine images, built only then. ``pairings`` restricts each matrix
    entry once: restriction is a ring homomorphism and the pairing vectors
    are rational, so restrict(eta.M.v) is sum_ab eta_a v_b restrict(M_ab).
    """

    __slots__ = ("chart", "rows", "rhs", "_tangent", "_weights", "_params", "_restriction")

    def __init__(self, chart, constraints):
        if not isinstance(chart, Chart):
            raise InputError(f"expected a Chart, got {chart!r}")
        n = chart.dim
        rows, rhs, conormals = [], [], []
        for raw in constraints:
            poly = chart.coerce(raw)
            row = [Fraction(0)] * n
            constant = Fraction(0)
            for exps, coeff in poly.terms.items():
                total = sum(exps)
                if total == 0:
                    constant = coeff
                elif total == 1:
                    row[exps.index(1)] = coeff
                else:
                    raise InputError(f"constraint {poly} is not affine-linear")
            rows.append(tuple(row))
            rhs.append(-constant)
            conormals.append(_integral(row))
        # A pivot in the rhs column means no solution. Independent rows never
        # have one, so a system both dependent and inconsistent is inconsistent.
        reduced, pivots = rref([row + (b,) for row, b in zip(rows, rhs)])
        if n in pivots:
            raise InputError("inconsistent constraints")
        if len(pivots) < len(rows):
            raise InputError("dependent constraints")
        x0 = [Fraction(0)] * n
        for row, p in zip(reduced, pivots):
            x0[p] = row[n]
        tangent = tuple(kernel_basis(reduced, pivots, n))
        tangents = tuple(map(_integral, tangent))
        params = Chart(tuple("s%d" % (j + 1) for j in range(len(tangent))))
        targets = {chart.coords[i]: s for s, (v, d) in zip(params.coords, tangents)
                   for i, c in v if c == d == 1}
        if not any(x0) and len(targets) == n == sum(len(v) for v, _ in tangents):
            restriction = _exponent_map(chart.coords, params.coords, targets)
        else:
            images = {}
            for i, name in enumerate(chart.coords):
                terms = [(1, params.constant(x0[i]), None)]
                terms += [
                    (1, params.var(s), Polynomial._scalar(params.coords, vec[i]))
                    for s, vec in zip(params.coords, tangent)
                    if vec[i]
                ]
                images[name] = _sum_of_products(params.coords, terms)

            def restriction(poly):
                return poly.substitute(params.coords, images)

        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "rhs", tuple(rhs))
        object.__setattr__(self, "_tangent", tangent)
        object.__setattr__(self, "_weights", {"tangent": tangents, "conormal": tuple(conormals)})
        object.__setattr__(self, "_params", params)
        object.__setattr__(self, "_restriction", restriction)

    def __setattr__(self, name, value):
        raise AttributeError("AffineSubmanifold is immutable")

    def tangent_basis(self):
        """Rational basis of the tangent space (kernel of the rows)."""
        return list(self._tangent)

    def conormal_basis(self):
        """The constraint rows themselves: a basis of the conormal space."""
        return list(self.rows)

    def restrict(self, poly):
        """The polynomial on S, over the parameters s_j."""
        return self._restriction(self.chart.coerce(poly))

    def pairings(self, matrix, basis):
        """(i, j, restrict(eta_j.M.v_i)) over the conormals eta_j and the v_i of
        ``basis``, "tangent" or "conormal", restricting each nonzero entry of
        M once. A pairing sums integer weights eta_a v_b times restrict(M_ab)
        and divides once by the product of the two vectors' denominators."""
        columns = [[] for _ in self.chart.coords]
        for a, row in enumerate(matrix):
            for b, entry in enumerate(row):
                if not entry.is_zero():
                    columns[b].append((a, self.restrict(entry)))
        coords, zero = self._params.coords, self._params.zero()
        conormals = self._weights["conormal"]
        out = []
        for i, (v, den) in enumerate(self._weights[basis]):
            image = {}  # a -> [(v_b, restrict(M_ab))]
            for b, c in v:
                for a, p in columns[b]:
                    image.setdefault(a, []).append((c, p))
            for j, (eta, eta_den) in enumerate(conormals):
                terms = [(e * c, p, None) for a, e in eta for c, p in image.get(a, ())]
                pairing = _over(_sum_of_products(coords, terms), den * eta_den) if terms else zero
                out.append((i, j, pairing))
        return tuple(out)

    def __repr__(self):
        eqs = []
        for row, b in zip(self.rows, self.rhs):
            lhs = " + ".join(
                f"{c}*{name}" for c, name in zip(row, self.chart.coords) if c
            )
            eqs.append(f"{lhs or 0} = {b}")
        return f"AffineSubmanifold({'; '.join(eqs)})"


class PairGroupoid:
    """The pair groupoid over a base chart.

    Total chart stacks a source block (the base coordinates) and a target
    block (the base coordinates prefixed y_).
    """

    __slots__ = ("base", "total")

    def __init__(self, base):
        if not isinstance(base, Chart):
            raise InputError(f"expected a Chart, got {base!r}")
        if base.dim == 0:
            raise InputError("pair groupoid needs a positive-dimensional base")
        target = tuple("y_" + c for c in base.coords)
        coords = base.coords + target
        if len(set(coords)) != 2 * base.dim:
            raise InputError("base coordinate names collide with the y_ block")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "total", Chart(coords))

    def __setattr__(self, name, value):
        raise AttributeError("PairGroupoid is immutable")

    def unit_diagonal(self):
        """The unit space {x = y} as an affine submanifold of the total chart."""
        n = self.base.dim
        return AffineSubmanifold(self.total, _differences(self.total, [(a, n + a) for a in range(n)]))

    def triple_chart(self):
        return Chart(c + "_%d" % k for k in (1, 2, 3) for c in self.total.coords)

    def pair_copies(self):
        """Renamings of base coordinates into the source and target blocks."""
        return ({}, {c: "y_" + c for c in self.base.coords})

    def triple_copies(self):
        """Renamings of total-chart coordinates into copies 1, 2, 3 of the triple."""
        return tuple({c: c + "_%d" % k for c in self.total.coords} for k in (1, 2, 3))

    def multiplication_graph(self):
        """Gr(m) = {((x,y),(y,z),(x,z))} inside the triple product."""
        triple = self.triple_chart()
        n = self.base.dim
        # y_1 = x_2, x_1 = x_3, y_2 = y_3; x_a of copy k is slot 2n(k - 1) + a, y_a is n later
        rows = [((n + a, 2 * n + a), (a, 4 * n + a), (3 * n + a, 5 * n + a)) for a in range(n)]
        return AffineSubmanifold(triple, _differences(triple, [p for r in rows for p in r]))


def _block_bivector(chart, pi, blocks):
    """pi copied into consecutive diagonal blocks of ``chart``.

    ``blocks`` holds one (renames, sign) per block: the renames move pi's
    coordinates to the block's, and the sign is that of the block's copy.
    """
    m = pi.chart.dim
    comps = {}
    for k, (renames, sign) in enumerate(blocks):
        move = _exponent_map(pi.chart.coords, chart.coords, renames)
        for (a, b), poly in pi.components.items():
            moved = move(poly)
            comps[(k * m + a, k * m + b)] = moved if sign > 0 else -moved
    return MultiVector._trusted(chart, 2, comps)


def _block_tensor(chart, tensor, blocks):
    """The tensor's entries copied into consecutive diagonal blocks, one per
    renames: a matrix over ``chart``, paired as it is and not revalidated."""
    m = tensor.chart.dim
    size = len(blocks) * m
    zero = chart.zero()
    entries = [[zero] * size for _ in range(size)]
    for k, renames in enumerate(blocks):
        move = _exponent_map(tensor.chart.coords, chart.coords, renames)
        for a, row in enumerate(tensor.entries):
            for b, poly in enumerate(row):
                if not poly.is_zero():
                    entries[k * m + a][k * m + b] = move(poly)
    return entries


def pair_bivector(groupoid, pi):
    """pi (-) pi: the source block carries pi, the target block -pi."""
    if not isinstance(pi, MultiVector) or pi.degree != 2:
        raise InputError("expected a degree-2 multivector on the base")
    if pi.chart != groupoid.base:
        raise InputError("bivector lives on a different chart")
    blocks = tuple(zip(groupoid.pair_copies(), (1, -1)))
    return _block_bivector(groupoid.total, pi, blocks)


def pair_tensor(groupoid, tensor):
    """N (+) N: the same tensor on the source and target blocks."""
    if not isinstance(tensor, pn.TensorOneOne):
        raise InputError("expected a (1,1)-tensor on the base")
    if tensor.chart != groupoid.base:
        raise InputError("tensor lives on a different chart")
    entries = _block_tensor(groupoid.total, tensor, groupoid.pair_copies())
    return pn.TensorOneOne(groupoid.total, entries)


class InvariantVerdict(Verdict):
    __slots__ = ("entries",)  # (tangent index, conormal index, restricted polynomial)

    def families(self):
        for i, j, poly in self.entries:
            yield "conormal(%d).N.tangent(%d)" % (j + 1, i + 1), poly


def invariant_check(tensor, sub):
    """Does the tensor map the tangent space of S into itself on S?"""
    if not isinstance(tensor, pn.TensorOneOne):
        raise InputError("expected a (1,1)-tensor")
    if not isinstance(sub, AffineSubmanifold) or sub.chart != tensor.chart:
        raise InputError("submanifold lives on a different chart")
    return InvariantVerdict(entries=sub.pairings(tensor.entries, "tangent"))


class CoisotropicVerdict(Verdict):
    __slots__ = ("entries",)  # (conormal index, conormal index, restricted polynomial)

    def families(self):
        for i, j, poly in self.entries:
            yield "conormal(%d).sharp.conormal(%d)" % (j + 1, i + 1), poly


def coisotropic_check(pi, sub):
    """Does sharp(pi) map the conormal space of S into its tangent space?"""
    if not isinstance(pi, MultiVector) or pi.degree != 2:
        raise InputError("expected a degree-2 multivector")
    if not isinstance(sub, AffineSubmanifold) or sub.chart != pi.chart:
        raise InputError("submanifold lives on a different chart")
    return CoisotropicVerdict(
        entries=sub.pairings(pn.sharp_matrix(pi), "conormal")
    )


class CoisoInvariantVerdict(Verdict):
    __slots__ = ("invariant", "coisotropic", "higher")  # higher: (k, CoisotropicVerdict of N^k pi)

    def families(self):
        yield from prefixed("invariant ", self.invariant.families())
        yield from prefixed("coisotropic ", self.coisotropic.families())
        for k, verdict in self.higher:
            yield from prefixed("order-%d " % k, verdict.families())


def coisotropic_invariant_check(pi, tensor, sub, npi=None):
    """Conjunction of tensor invariance and coisotropy of S.

    When both pass and the deformed bivectors exist, S is additionally
    certified coisotropic for N^k pi, k <= 2. ``npi`` is N pi when the
    caller already has it, as the PNVerdict of (pi, tensor) keeps it.
    """
    inv = invariant_check(tensor, sub)
    coiso = coisotropic_check(pi, sub)
    higher = []
    if inv.ok and coiso.ok:
        pik = pi
        for k in (1, 2):
            try:
                pik = npi if k == 1 and npi is not None else pn.n_bivector(pik, tensor)
            except PreconditionError:
                break
            higher.append((k, coisotropic_check(pik, sub)))
    return CoisoInvariantVerdict(
        invariant=inv, coisotropic=coiso, higher=tuple(higher)
    )


_UNCHECKED = object()


def _graph(groupoid, pi=_UNCHECKED, tensor=_UNCHECKED):
    """The multiplication graph of ``groupoid``, a PairGroupoid, once ``pi``
    and ``tensor``, where passed, are checked to be a bivector and a
    (1,1)-tensor on its total chart."""
    if not isinstance(groupoid, PairGroupoid):
        raise InputError("expected a PairGroupoid")
    if pi is not _UNCHECKED:
        if not isinstance(pi, MultiVector) or pi.chart != groupoid.total or pi.degree != 2:
            raise InputError("expected a degree-2 multivector on the total chart")
    if tensor is not _UNCHECKED:
        if not isinstance(tensor, pn.TensorOneOne) or tensor.chart != groupoid.total:
            raise InputError("expected a (1,1)-tensor on the total chart")
    return groupoid.multiplication_graph()


def _graph_bivector(triple, groupoid, pi):
    """pi (+) pi (+) (-pi) on the triple product, whose chart is ``triple``."""
    blocks = tuple(zip(groupoid.triple_copies(), (1, 1, -1)))
    return _block_bivector(triple, pi, blocks)


def multiplicativity_check_tensor(groupoid, tensor):
    """Is the multiplication graph invariant under N (+) N (+) N?"""
    graph = _graph(groupoid, tensor=tensor)
    lift = _block_tensor(graph.chart, tensor, groupoid.triple_copies())
    return InvariantVerdict(entries=graph.pairings(lift, "tangent"))


def poisson_groupoid_check(groupoid, pi):
    """Is the multiplication graph coisotropic for pi (+) pi (+) (-pi)?"""
    graph = _graph(groupoid, pi=pi)
    pn.is_poisson(pi).require("bivector is not Poisson")
    return coisotropic_check(_graph_bivector(graph.chart, groupoid, pi), graph)


class PNGroupoidVerdict(Verdict):
    # pair_verdict is the pn.PNVerdict of the pair on the total chart
    __slots__ = ("pair_verdict", "graph_coisotropy", "tensor_graph", "unit_space")

    def families(self):
        yield from prefixed("pair ", self.pair_verdict.families())
        yield from prefixed("graph ", self.graph_coisotropy.families())
        yield from prefixed("tensor ", self.tensor_graph.families())
        yield from prefixed("unit ", self.unit_space.families())


def pn_groupoid_check(groupoid, pi, tensor):
    """Full desk check: PN pair, Poisson graph, multiplicative N, unit space."""
    graph = _graph(groupoid, pi, tensor)
    lift = _block_tensor(graph.chart, tensor, groupoid.triple_copies())
    pair_verdict = pn.is_pn_pair(pi, tensor)
    return PNGroupoidVerdict(
        pair_verdict=pair_verdict,
        graph_coisotropy=coisotropic_check(_graph_bivector(graph.chart, groupoid, pi), graph),
        tensor_graph=InvariantVerdict(entries=graph.pairings(lift, "tangent")),
        unit_space=coisotropic_invariant_check(
            pi, tensor, groupoid.unit_diagonal(), npi=pair_verdict.npi
        ),
    )


class BaseStructure(Verdict):
    # tensor is a pn.TensorOneOne on the base chart, pair_verdict the recovered
    # pair's pn.PNVerdict; the two residual tuples hold (label, polynomial) pairs
    __slots__ = ("pi", "tensor", "pair_verdict", "related_residuals", "pushforward_residuals")

    def families(self):
        yield from prefixed("base pair ", self.pair_verdict.families())
        yield from self.related_residuals
        yield from self.pushforward_residuals


def _uses_only(poly, allowed):
    for exps in poly.exponents():
        for name, e in zip(poly.variables, exps):
            if e and name not in allowed:
                return False
    return True


def base_structure(groupoid, pi, tensor):
    """Recover the base pair: project pi along the source, restrict N to units.

    The source pushforward of a pair-groupoid block bivector is coordinate
    projection; it is well defined only when the source block does not
    depend on the target coordinates, and that is checked rather than
    assumed.  The verdict certifies the recovered pair and the relatedness
    identities s_* N = N_M s_* and s_*(N pi) = N_M pi_M.
    """
    composite = pn_groupoid_check(groupoid, pi, tensor)
    composite.require("base recovery needs a Poisson-Nijenhuis groupoid")
    base = groupoid.base
    total = groupoid.total.coords
    n = base.dim
    allowed = set(base.coords)
    comps = {}
    for (a, b), poly in pi.components.items():
        if a < n and b < n:
            if not _uses_only(poly, allowed):
                raise PreconditionError(
                    "pushforward along the source is ill-defined",
                    {"component (%d,%d)" % (a + 1, b + 1): str(poly)},
                )
            comps[(a, b)] = poly.embed(base.coords)
    base_pi = MultiVector(base, 2, comps)

    # N restricted to the units is its source block on the diagonal y = x.
    # A multiplicative N has a source block free of the target coordinates:
    # the x-rows of N (+) N (+) N on Gr(m) at ((x,y),(y,z),(x,z)) agree in
    # copies 1 and 3 only if N_xx(x,y) = N_xx(x,z). So the restriction is
    # the projection to the base chart, and a y left over is a bug.
    entries = []
    for a in range(n):
        row = []
        for b in range(n):
            source = tensor.entries[a][b]
            if not _uses_only(source, allowed):
                raise InternalError(
                    "the source block of a multiplicative tensor depends on "
                    "the target coordinates"
                )
            row.append(source.embed(base.coords))
        entries.append(row)
    base_tensor = pn.TensorOneOne(base, entries)

    related = []
    for a in range(n):
        for i in range(n):
            diff = tensor.entries[a][i] - base_tensor.entries[a][i].embed(total)
            related.append(("s-related x-block (%d,%d)" % (a + 1, i + 1), diff))
        for i in range(n, 2 * n):
            related.append(
                ("s-related cross-block (%d,%d)" % (a + 1, i + 1), tensor.entries[a][i])
            )

    pair_verdict = pn.is_pn_pair(base_pi, base_tensor)
    pushforward = []
    deformed_total = composite.pair_verdict.npi
    deformed_base = pn.require_n_bivector(pair_verdict.sharp_residual, pair_verdict.npi)
    for a, b in combinations(range(n), 2):
        lifted = deformed_base.component((a, b)).embed(total)
        diff = deformed_total.component((a, b)) - lifted
        pushforward.append(("pushforward N.pi (%d,%d)" % (a + 1, b + 1), diff))

    return BaseStructure(
        pi=base_pi,
        tensor=base_tensor,
        pair_verdict=pair_verdict,
        related_residuals=tuple(related),
        pushforward_residuals=tuple(pushforward),
    )
