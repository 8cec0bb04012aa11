"""Poisson bivectors, (1,1)-tensors, and their compatibility calculus.

Everything reduces to four residual computations: the Schouten square
[pi,pi], the Nijenhuis torsion of N, the sharp-compatibility matrix
N.pisharp - pisharp.N*, and the Magri-Morosi concomitant C(pi,N) on basis
form pairs. A pair is Poisson-Nijenhuis exactly when all four vanish
identically, and every verdict object carries the offending residuals so a
failure is a checkable witness rather than a bare boolean.

The torsion and the concomitant on coordinate pairs are assembled from
tables formed once per call, not from one evaluation of the definition per
pair. Both read their partials of N off one derivative table,
``_gradient_table``: one ``gradient`` of each nonzero entry N^r_c, so each
entry is differentiated once per call. ``nijenhuis_torsion`` sums the
component formula

    T^k_ij = sum_l (N^l_i d_l N^k_j - N^l_j d_l N^k_i)
             - sum_m N^k_m (d_i N^m_j - d_j N^m_i),

which is tau_N(d_i, d_j) for commuting coordinate fields, in one
``_collect`` per pair. ``concomitant_map`` forms each basis bracket
[dx_i, dx_j]_pi and [dx_i, dx_j]_{Npi} once through ``koszul_bracket``, read
as a module global at call time so a patch of it reaches every caller, and
expands the brackets of N*dx_i by the Koszul Leibniz rule
[f alpha, beta]_pi = f[alpha,beta]_pi - (pisharp beta)(f) alpha, which holds
for any bivector; the anchor derivatives (pisharp dx_a)(N^b_k) are read off
the table. ``magri_morosi`` keeps the definition on general forms, one pair
per call; the tests hold ``concomitant_map`` to it and
``nijenhuis_torsion`` to the torsion's definition, through ``vf_bracket``,
in their oracles.

``koszul_bracket`` is computed in Cartan form,

    [alpha, beta]_pi = i_{pisharp alpha} d beta - i_{pisharp beta} d alpha
                       + d(pi(alpha, beta)),

which is the definition L_{pisharp alpha} beta - L_{pisharp beta} alpha -
d(pi(alpha, beta)) for any bivector: apply L_X = i_X d + d i_X to both Lie
derivatives and use i_{pisharp alpha} beta = pi(alpha, beta) =
-i_{pisharp beta} alpha. A closed form adds no contraction, so on
coordinate forms the bracket is d(pi^{ij}) and forms no product beyond
pi(dx_i, dx_j). The tests hold it to the Lie-derivative definition.

Sign conventions, fixed once and reused by every downstream module:
pisharp(alpha) = pi(alpha, .), normalized so pi = d_1^d_2 sends dx1 to +d_2;
(N* alpha)_j = sum_i alpha_i N^i_j.

The matrix product M = N.pisharp is formed in one place, ``_sharp_product``,
and everything about the deformed bivector is read off it. pisharp is
antisymmetric, so pisharp.N* = -(N.pisharp)^T and the residual
N.pisharp - pisharp.N* is the symmetric part M + M^T. When it vanishes M is
antisymmetric and is the sharp matrix of N pi, whose component (a, b) is
M[b][a]. The hierarchy applies this step again: (N^k pi)# = N.(N^(k-1) pi)#.
The residual is formed once per unordered pair (i, j), i <= j, and mirrored.

Work follows the stored entries: N(X), N* alpha, pisharp(alpha),
pi(alpha, beta), the sharp matrix and the two coordinate tables loop over
the components X, alpha, beta and pi store and over the nonzero entries of
N, so none of them multiplies by zero, and each sums its products as
factor entries in ``cartan._collect`` or one ``polyalg._sum_of_products``
call. Which builders validate: the TensorOneOne constructor coerces every
entry. Which build unchecked: N(X), N* alpha, pisharp(alpha), N pi, i_n
and the tables and residuals of the two coordinate maps are computed from
canonical operands, so they wrap their components with
``cartan._Graded._trusted`` (see the :mod:`cartan` module doc).
"""

from __future__ import annotations

from . import cartan
from .cartan import (
    Chart,
    DiffForm,
    MultiVector,
    _collect,
    coordinate_form,
    exterior_d,
    interior,
    schouten,
)
from .errors import InputError, InternalError, PreconditionError
from .linalg import mat_is_zero, mat_mul, mat_sub
from .polyalg import _sum_of_products
from .report import Verdict, labelled, matrix_entries, rendered


class TensorOneOne:
    """A (1,1)-tensor as a square polynomial matrix.

    entries[i][j] = N^i_j, so column j lists the components of N(d_j).
    """

    __slots__ = ("chart", "entries")

    def __init__(self, chart, entries):
        if not isinstance(chart, Chart):
            raise InputError(f"expected a Chart, got {chart!r}")
        n = chart.dim
        rows = tuple(tuple(r) for r in entries)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InputError(f"expected a {n}x{n} matrix")
        rows = tuple(
            tuple(chart.coerce(e) for e in r) for r in rows
        )
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("TensorOneOne is immutable")

    @classmethod
    def identity(cls, chart):
        return cls.scalar(chart, 1)

    @classmethod
    def diagonal(cls, chart, diag):
        diag = list(diag)
        if len(diag) != chart.dim:
            raise InputError("diagonal length must match chart dimension")
        z = chart.zero()
        return cls(
            chart,
            [
                [diag[i] if i == j else z for j in range(chart.dim)]
                for i in range(chart.dim)
            ],
        )

    @classmethod
    def scalar(cls, chart, poly):
        return cls.diagonal(chart, [poly] * chart.dim)

    def apply(self, X):
        """N(X) for a degree-1 multivector X: N(X)^i = sum_j N^i_j X^j."""
        if not (isinstance(X, MultiVector) and X.degree == 1):
            raise InputError("TensorOneOne.apply needs a degree-1 multivector")
        if X.chart != self.chart:
            raise InputError("chart mismatch")
        entries = [
            ((i,), 1, row[j], xj)
            for (j,), xj in X.components.items()
            for i, row in enumerate(self.entries)
            if not row[j].is_zero()
        ]
        return MultiVector._trusted(self.chart, 1, _collect(entries))

    def dual_apply(self, alpha):
        """N* on a 1-form: (N*alpha)_j = sum_i alpha_i N^i_j."""
        if not (isinstance(alpha, DiffForm) and alpha.degree == 1):
            raise InputError("TensorOneOne.dual_apply needs a 1-form")
        if alpha.chart != self.chart:
            raise InputError("chart mismatch")
        entries = [
            ((j,), 1, alpha_i, entry)
            for (i,), alpha_i in alpha.components.items()
            for j, entry in enumerate(self.entries[i])
            if not entry.is_zero()
        ]
        return DiffForm._trusted(self.chart, 1, _collect(entries))

    def compose(self, other):
        """Matrix product, self after other."""
        if not isinstance(other, TensorOneOne) or other.chart != self.chart:
            raise InputError("can only compose tensors on the same chart")
        return TensorOneOne(self.chart, mat_mul(self.entries, other.entries))

    def __add__(self, other):
        if not isinstance(other, TensorOneOne) or other.chart != self.chart:
            raise InputError("can only add tensors on the same chart")
        return TensorOneOne(
            self.chart,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorOneOne(
            self.chart, [[-a for a in row] for row in self.entries]
        )

    def __mul__(self, scalar):
        poly = self.chart.coerce(scalar)
        return TensorOneOne(
            self.chart, [[poly * a for a in row] for row in self.entries]
        )

    __rmul__ = __mul__

    def is_zero(self):
        return mat_is_zero(self.entries)

    def __eq__(self, other):
        if not isinstance(other, TensorOneOne):
            return NotImplemented
        return self.chart == other.chart and self.entries == other.entries

    __hash__ = None

    def __str__(self):
        rows = ["[" + ", ".join(str(e) for e in row) + "]" for row in self.entries]
        return "[" + "; ".join(rows) + "]"

    def __repr__(self):
        return f"TensorOneOne({self})"


# -- sharp machinery ---------------------------------------------------------


def _check_bivector(pi):
    if not (isinstance(pi, MultiVector) and pi.degree == 2):
        raise InputError("expected a degree-2 multivector")


def sharp_matrix(pi):
    """Matrix S with column j = components of pisharp(dx^j); S[i][j] = pihat^{ji}.

    Read off the stored components: each pi^{ab} = p (a < b) sets
    S[b][a] = p and S[a][b] = -p; every other entry is the chart's zero.
    """
    _check_bivector(pi)
    n = pi.chart.dim
    zero = pi.chart.zero()
    rows = [[zero] * n for _ in range(n)]
    for (a, b), p in pi.components.items():
        rows[b][a] = p
        rows[a][b] = -p
    return tuple(map(tuple, rows))


def _check_one_form(pi, alpha):
    _check_bivector(pi)
    if not (isinstance(alpha, DiffForm) and alpha.degree == 1):
        raise InputError("expected a 1-form")
    if alpha.chart != pi.chart:
        raise InputError("chart mismatch")


def sharp(pi, alpha):
    """pisharp(alpha) = pi(alpha, .) as a vector field."""
    _check_one_form(pi, alpha)
    # Component b is sum_a alpha_a pi^{ab}; each stored pi^{ab} (a < b) adds
    # alpha_a pi^{ab} to component b and alpha_b pi^{ba} = -alpha_b pi^{ab}
    # to component a.
    coeffs = alpha.components
    entries = []
    for (a, b), p in pi.components.items():
        alpha_a = coeffs.get((a,))
        if alpha_a is not None:
            entries.append(((b,), 1, alpha_a, p))
        alpha_b = coeffs.get((b,))
        if alpha_b is not None:
            entries.append(((a,), -1, alpha_b, p))
    return MultiVector._trusted(pi.chart, 1, _collect(entries))


def bivector_eval(pi, alpha, beta):
    """pi(alpha, beta) as a polynomial."""
    _check_bivector(pi)
    a_comp, b_comp = alpha.components, beta.components
    entries = []
    for (i, j), poly in pi.components.items():
        # pi^{ij} (alpha_i beta_j - alpha_j beta_i), from the entries both forms store
        a_i, a_j = a_comp.get((i,)), a_comp.get((j,))
        b_i, b_j = b_comp.get((i,)), b_comp.get((j,))
        if a_i is not None and b_j is not None:
            entries.append((1, poly, a_i * b_j))
        if a_j is not None and b_i is not None:
            entries.append((-1, poly, a_j * b_i))
    return _sum_of_products(pi.chart.coords, entries) if entries else pi.chart.zero()


# -- verdict containers ------------------------------------------------------


class PoissonVerdict(Verdict):
    __slots__ = ("residual",)

    def families(self):
        yield "[pi,pi]", self.residual


class PNVerdict(Verdict):
    # npi is N pi when sharp compatibility holds; not a residual
    __slots__ = (
        "poisson_residual", "torsion_residual", "sharp_residual", "concomitant_residual", "npi"
    )
    _defaults = {"npi": None}

    @property
    def sharp_ok(self):
        return mat_is_zero(self.sharp_residual)

    def families(self):
        yield "[pi,pi]", self.poisson_residual
        yield from labelled("torsion", self.torsion_residual)
        yield from matrix_entries("sharp_compat", self.sharp_residual)
        if self.concomitant_residual is None:
            yield "concomitant", "skipped: sharp compatibility failed"
        else:
            yield from labelled("concomitant", self.concomitant_residual)


# -- core operations ---------------------------------------------------------


def is_poisson(pi):
    """Schouten square test: pass iff [pi,pi] vanishes identically."""
    _check_bivector(pi)
    return PoissonVerdict(schouten(pi, pi))


def koszul_bracket(pi, alpha, beta):
    """Bracket of 1-forms induced by a bivector, in Cartan form:

    [alpha, beta]_pi = i_{pisharp(alpha)} d beta - i_{pisharp(beta)} d alpha
                       + d(pi(alpha, beta)).

    This is the definition L_{pisharp(alpha)} beta - L_{pisharp(beta)} alpha
    - d(pi(alpha, beta)) for any bivector, Poisson or not: Cartan's formula
    L_X = i_X d + d i_X and i_{pisharp(alpha)} beta = pi(alpha, beta) =
    -i_{pisharp(beta)} alpha turn the two Lie derivatives into the two
    contractions plus 2 d(pi(alpha, beta)). A closed form contributes no
    contraction, so d(pi(alpha, beta)) is all that is formed for two
    coordinate forms.
    """
    _check_one_form(pi, alpha)
    _check_one_form(pi, beta)
    # d(pi(alpha, beta)), read off the gradient of pi(alpha, beta)
    pairing = bivector_eval(pi, alpha, beta)
    out = DiffForm._trusted(pi.chart, 1, {(a,): d for a, d in pairing.gradient()})
    d_beta = exterior_d(beta)
    if not d_beta.is_zero():
        out = out + interior(sharp(pi, alpha), d_beta)
    d_alpha = exterior_d(alpha)
    if not d_alpha.is_zero():
        out = out - interior(sharp(pi, beta), d_alpha)
    return out


def _gradient_table(N):
    """{(r, c): {l: d_l N^r_c}} over the nonzero entries of N, one gradient each."""
    return {
        (r, c): dict(entry.gradient())
        for r, row in enumerate(N.entries)
        for c, entry in enumerate(row)
        if not entry.is_zero()
    }


def nijenhuis_torsion(N):
    """Torsion on all coordinate pairs: {(i,j): tau_N(d_i, d_j)} for i<j.

    Coordinate fields commute, so tau_N(d_i, d_j) = [N d_i, N d_j] -
    N(d_i(N d_j) - d_j(N d_i)), whose component k is

        T^k_ij = sum_l (N^l_i d_l N^k_j - N^l_j d_l N^k_i)
                 - sum_m N^k_m (d_i N^m_j - d_j N^m_i).

    Every partial is read off :func:`_gradient_table`, one gradient of each
    nonzero entry of N per call, and each pair is one ``_collect``.
    """
    chart = N.chart
    n = chart.dim
    # cols[c] = [(r, N^r_c)], col_grads[c] = [(r, {l: d_l N^r_c})]: column c's
    # nonzero entries, and those of them that are not constant
    cols = [[] for _ in range(n)]
    col_grads = [[] for _ in range(n)]
    for (r, c), grad in _gradient_table(N).items():
        cols[c].append((r, N.entries[r][c]))
        if grad:
            col_grads[c].append((r, grad))
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            entries = []
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                # sign * sum_l N^l_a d_l N^k_b, a half of [N d_i, N d_j]
                for l, f in cols[a]:
                    for k, grad in col_grads[b]:
                        d = grad.get(l)
                        if d is not None:
                            entries.append(((k,), sign, f, d))
                # -sign * sum_m N^k_m d_a N^m_b, a half of N(d_i(N d_j) - d_j(N d_i))
                for m, grad in col_grads[b]:
                    d = grad.get(a)
                    if d is not None:
                        entries += [((k,), -sign, g, d) for k, g in cols[m]]
            out[(i, j)] = MultiVector._trusted(chart, 1, _collect(entries))
    return out


def deformed_bracket(N, X, Y):
    """[X,Y]_N = [NX,Y] + [X,NY] - N[X,Y]."""
    return (
        cartan.vf_bracket(N.apply(X), Y)
        + cartan.vf_bracket(X, N.apply(Y))
        - N.apply(cartan.vf_bracket(X, Y))
    )


def i_n(N, omega):
    """Degree-zero derivation inserting N into one slot at a time."""
    if not isinstance(omega, DiffForm):
        raise InputError("i_n acts on differential forms")
    if omega.chart != N.chart:
        raise InputError("chart mismatch")
    chart = omega.chart
    entries = []
    for key, poly in omega.components.items():
        for pos in range(len(key)):
            # replace slot pos by N applied there: (N* dx^{key[pos]})_j = N^{key[pos]}_j
            for j in range(chart.dim):
                coeff = N.entries[key[pos]][j]
                if not coeff.is_zero():
                    entries.append((key[:pos] + (j,) + key[pos + 1 :], 1, poly, coeff))
    return DiffForm._trusted(chart, omega.degree, _collect(entries))


def d_n(N, omega):
    """Deformed differential d_N = i_N d - d i_N."""
    return i_n(N, exterior_d(omega)) - exterior_d(i_n(N, omega))


def _sharp_product(pi, N):
    """(residual, npi) from the single product M = N.pisharp.

    The residual N.pisharp - pisharp.N* is M + M^T (see the module doc);
    npi is N pi, read off M, when the residual vanishes and None otherwise.
    """
    _check_bivector(pi)
    if not isinstance(N, TensorOneOne) or N.chart != pi.chart:
        raise InputError("expected a (1,1)-tensor on the bivector's chart")
    M = mat_mul(N.entries, sharp_matrix(pi))
    n = len(M)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):  # the residual is symmetric: one sum per unordered pair
            a, b = M[i][j], M[j][i]  # a zero side leaves the other, with no sum formed
            rows[i][j] = rows[j][i] = b if a.is_zero() else a if b.is_zero() else a + b
    residual = tuple(map(tuple, rows))
    if not mat_is_zero(residual):
        return residual, None
    comps = {
        (a, b): M[b][a] for a in range(n) for b in range(a + 1, n) if not M[b][a].is_zero()
    }
    return residual, MultiVector._trusted(pi.chart, 2, comps)


def n_bivector(pi, N):
    """The deformed bivector N pi, defined when sharp compatibility holds."""
    return require_n_bivector(*_sharp_product(pi, N))


def require_n_bivector(sharp_residual, npi):
    """npi, or the refusal naming the sharp residual when npi is None.

    Takes the pair ``_sharp_product`` returns, or that a PNVerdict keeps.
    """
    if npi is None:
        raise PreconditionError(
            "N.pisharp != pisharp.N*, so N pi is not a bivector",
            residuals=rendered(matrix_entries("sharp_compat", sharp_residual)),
        )
    return npi


def magri_morosi(pi, N, alpha, beta):
    """Concomitant C(pi,N)(alpha,beta) =
    [alpha,beta]_{Npi} - ([N*alpha,beta]_pi + [alpha,N*beta]_pi - N*[alpha,beta]_pi).

    The definition on any two 1-forms, one pair per call, through four
    Koszul brackets; the tests hold :func:`concomitant_map` to it on
    coordinate pairs.
    """
    return koszul_bracket(n_bivector(pi, N), alpha, beta) - (
        koszul_bracket(pi, N.dual_apply(alpha), beta)
        + koszul_bracket(pi, alpha, N.dual_apply(beta))
        - N.dual_apply(koszul_bracket(pi, alpha, beta))
    )


def concomitant_map(pi, N, npi):
    """C(pi,N)(dx_i, dx_j) for every coordinate pair i < j, keyed (i, j).

    ``npi`` is n_bivector(pi, N), which the caller has already formed.
    Built from per-call tables: the basis brackets B(i,j) = [dx_i,dx_j]_pi,
    formed once each through ``koszul_bracket`` (read at call time), with
    B(k,j) = -B(j,k) and B(j,j) = 0. N*dx_i = sum_k N^i_k dx_k, and the
    Koszul Leibniz rule [f alpha, beta]_pi = f[alpha,beta]_pi -
    (pisharp beta)(f) alpha, which holds for any bivector, expands the two
    brackets of N*dx_i and N*dx_j:

        C(dx_i,dx_j) = [dx_i,dx_j]_{Npi} + N*B(i,j)
            - sum_k (N^i_k B(k,j) + N^j_k B(i,k))
            + sum_k ((pisharp dx_j)(N^i_k) - (pisharp dx_i)(N^j_k)) dx_k.

    Only nonzero entries of N are read. Each anchor derivative
    (pisharp dx_a)(N^b_k), a != b, is formed once, for the one pair that
    reads it, from the partials of N^b_k in :func:`_gradient_table`, so each
    entry of N is differentiated once per call.
    """
    chart = pi.chart
    n = chart.dim
    forms = [coordinate_form(chart, i) for i in range(n)]
    basis = {
        (i, j): koszul_bracket(pi, forms[i], forms[j]).components
        for i in range(n)
        for j in range(i + 1, n)
    }
    anchors = [sharp(pi, form).components for form in forms]
    rows = [[(k, f) for k, f in enumerate(row) if not f.is_zero()] for row in N.entries]
    grads = _gradient_table(N)

    def add_derivative(entries, sign, anchor, b, k):
        # entries += sign * (anchor)(N^b_k) dx_k, read off the gradient of N^b_k
        entries += [
            ((k,), sign, xc, d)
            for a, d in grads[b, k].items()
            if (xc := anchor.get((a,))) is not None
        ]

    def subtract_scaled(entries, f, a, b):
        # entries -= f * B(a, b)
        if a != b:
            sign = -1 if a < b else 1
            entries += [(key, sign, f, v) for key, v in basis[min(a, b), max(a, b)].items()]

    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            entries = [
                (key, 1, v, None)
                for key, v in koszul_bracket(npi, forms[i], forms[j]).components.items()
            ]
            star = N.dual_apply(DiffForm._trusted(chart, 1, basis[(i, j)]))
            entries += [(key, 1, v, None) for key, v in star.components.items()]
            for k, f in rows[i]:
                subtract_scaled(entries, f, k, j)
                add_derivative(entries, 1, anchors[j], i, k)
            for k, f in rows[j]:
                subtract_scaled(entries, f, i, k)
                add_derivative(entries, -1, anchors[i], j, k)
            out[(i, j)] = DiffForm._trusted(chart, 1, _collect(entries))
    return out


def is_pn_pair(pi, N):
    """Full Poisson-Nijenhuis verdict with all four residual families."""
    sharp_res, npi = _sharp_product(pi, N)
    concomitant = None
    if npi is not None:
        concomitant = concomitant_map(pi, N, npi)
    return PNVerdict(
        poisson_residual=schouten(pi, pi),
        torsion_residual=nijenhuis_torsion(N),
        sharp_residual=sharp_res,
        concomitant_residual=concomitant,
        npi=npi,
    )


class HierarchyResult(Verdict):
    __slots__ = ("bivectors", "bracket_residuals")

    def families(self):
        for (k, l), v in sorted(self.bracket_residuals.items()):
            yield f"[pi_{k},pi_{l}]", v


# The highest order hierarchy accepts. Its work grows without limit in kmax,
# with (kmax + 1)(kmax + 2)/2 brackets of ever larger N^k pi.
MAX_ORDER = 32


def hierarchy(pi, N, kmax):
    """Bivectors pi_k = N^k pi for k <= kmax plus all pairwise Schouten residuals.

    Refuses unless (pi, N) is a Poisson-Nijenhuis pair. pi_1 is the N pi of
    that verdict and [pi_0, pi_0] its Poisson residual; each later pi_k is
    n_bivector(pi_{k-1}, N), whose sharp matrix N.(N^(k-1) pi)# =
    N^k.pisharp is re-checked for antisymmetry, which the PN hypothesis
    guarantees.
    """
    if isinstance(kmax, bool) or not isinstance(kmax, int) or kmax < 1:
        raise InputError("kmax must be a positive integer")
    if kmax > MAX_ORDER:
        raise InputError(f"kmax must be at most {MAX_ORDER}, got {kmax}")
    verdict = is_pn_pair(pi, N)
    verdict.require("hierarchy needs a Poisson-Nijenhuis pair")
    bivectors = [pi, verdict.npi]
    for k in range(2, kmax + 1):
        try:
            bivectors.append(n_bivector(bivectors[-1], N))
        except PreconditionError as exc:
            raise InternalError(
                f"N^{k}.pisharp lost antisymmetry for a PN pair: {exc}"
            ) from exc
    residuals = {(0, 0): verdict.poisson_residual}
    for k in range(kmax + 1):
        for l in range(max(k, 1), kmax + 1):
            residuals[(k, l)] = schouten(bivectors[k], bivectors[l])
    return HierarchyResult(tuple(bivectors), residuals)


class ComplementaryResult(Verdict):
    __slots__ = ("tensor", "verdict")

    def families(self):
        return self.verdict.families()


def complementary_build(pi, omega):
    """Build N^i_j = sum_k pihat^{ik} omegahat_{kj} from a two-form.

    Preconditions: pi Poisson, [omega,omega]_pi = 0 (Gerstenhaber bracket of
    the cotangent algebroid of pi), and i_{pisharp(dx^i)} d(omega) = 0 for
    every coordinate. Under these the built pair is Poisson-Nijenhuis; the
    returned verdict re-verifies that in full.
    """
    _check_bivector(pi)
    if not (isinstance(omega, DiffForm) and omega.degree == 2):
        raise InputError("expected a degree-2 form")
    if omega.chart != pi.chart:
        raise InputError("chart mismatch")
    chart = pi.chart
    is_poisson(pi).require("pi is not Poisson")
    from . import algebroid  # deferred: algebroid imports this module

    ctg = algebroid.cotangent_algebroid(pi)
    w = algebroid.AlgebroidSection(ctg, 2, dict(omega.components))
    gres = algebroid.gerstenhaber_bracket(ctg, w, w)
    if not gres.is_zero():
        raise PreconditionError(
            "[omega,omega]_pi != 0",
            residuals={"[omega,omega]_pi": str(gres)},
        )
    domega = exterior_d(omega)
    for i in range(chart.dim):
        contraction = interior(sharp(pi, coordinate_form(chart, i)), domega)
        if not contraction.is_zero():
            raise PreconditionError(
                "i_{pisharp dx^i} d(omega) != 0",
                residuals={f"contraction dx{i+1}": str(contraction)},
            )
    n = chart.dim
    entries = [
        [
            _sum_of_products(
                chart.coords,
                [(1, pi.component((i, k)), omega.component((k, j))) for k in range(n)],
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    N = TensorOneOne(chart, entries)
    return ComplementaryResult(N, is_pn_pair(pi, N))


class HolomorphicVerdict(Verdict):
    __slots__ = ("pn", "relation_residual")

    def families(self):
        yield from self.pn.families()
        yield from matrix_entries("relation", self.relation_residual)


def holomorphic_check(pi_r, pi_i, J):
    """Real/imaginary pair test: (pi_i, J) must be PN and pi_r sharp = J.pi_i sharp.

    Refuses unless J is an almost complex structure, J.J = -Id.
    """
    for p in (pi_r, pi_i):
        _check_bivector(p)
    if not isinstance(J, TensorOneOne) or J.chart != pi_r.chart:
        raise InputError("expected a (1,1)-tensor on the bivectors' chart")
    if pi_r.chart != pi_i.chart:
        raise InputError("chart mismatch")
    chart = pi_r.chart
    jj = J.compose(J) + TensorOneOne.identity(chart)
    if not jj.is_zero():
        raise PreconditionError(
            "J.J != -Id",
            residuals=rendered(matrix_entries("J.J + Id", jj.entries)),
        )
    relation = mat_sub(
        sharp_matrix(pi_r), mat_mul(J.entries, sharp_matrix(pi_i))
    )
    return HolomorphicVerdict(is_pn_pair(pi_i, J), relation)
