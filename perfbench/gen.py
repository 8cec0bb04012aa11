"""Seeded input generators for the pncalc benchmark.

Every generator builds documents whose verdict is known before pncalc sees
them, either by construction (a theorem about the family) or by a small
oracle written here with its own polynomial arithmetic. Nothing in this
module imports pncalc, so a defect in pncalc cannot leak into a label.

A check is one ``pncalc <command> --input <doc> --json`` call. Its
expectation is the exit code, the verdict and the *first residual family*:
the family name of the first residual key in the ``--json`` report, whose
keys are sorted. A family name is the key cut at its first ``(`` or at a
``[`` followed by a digit, so ``torsion(1,2)`` and ``sharp_compat[1][2]``
name the families ``torsion`` and ``sharp_compat``.

Workloads are built cycle by cycle. A cycle holds one check of every item
of the workload's size mix, each with freshly drawn polynomials, so the mix
is the same in every cycle; ``run.build_pool`` makes sure that no document
repeats within a run.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations

# -- a small sparse polynomial arithmetic, independent of pncalc --------------
# A polynomial is a dict {exponent tuple: nonzero Fraction or int}.


def _add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        total = out.get(e, 0) + scale * c
        if total:
            out[e] = total
        else:
            out.pop(e, None)
    return out


def _mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            total = out.get(e, 0) + c1 * c2
            if total:
                out[e] = total
            else:
                out.pop(e, None)
    return out


def _scale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def _diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            lowered = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[lowered] = out.get(lowered, 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def _const(n, c):
    return {(0,) * n: c} if c else {}


def _embed(a, n_total, offset):
    """Re-home a polynomial in n variables onto slots offset.. of n_total."""
    out = {}
    for e, c in a.items():
        full = [0] * n_total
        full[offset : offset + len(e)] = e
        out[tuple(full)] = c
    return out


def render(a, names):
    """pncalc grammar: ``3*x1^2*x2 - 1/2*x3 + 1``; ``0`` for zero."""
    if not a:
        return "0"
    pieces = []
    for e in sorted(a, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = Fraction(a[e])
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else "-" + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# Seeds vary coefficients and which variables are involved, never the shape
# of a polynomial: every support below is fixed, so the cost of a check
# depends on its size class and hardly on the seed.
COEFFS = tuple(c for c in range(-30, 31) if c)


def _coeff(rng):
    return rng.choice(COEFFS)


def _homogeneous(rng, n, degree):
    """All monomials of exactly this degree, each with a nonzero coefficient."""
    out = {}

    def fill(prefix, left):
        if len(prefix) == n - 1:
            out[tuple(prefix) + (left,)] = _coeff(rng)
            return
        for k in range(left, -1, -1):
            fill(prefix + [k], left - k)

    fill([], degree)
    return out


def _univariate(rng, n, slot, degree):
    """c_0 + c_1 t + .. + c_d t^d in the variable of one slot, all c_k != 0."""
    return {tuple(k if s == slot else 0 for s in range(n)): _coeff(rng) for k in range(degree + 1)}


# -- checks and their expectations ----------------------------------------------

_FAMILY = re.compile(r"\(|\[\d")


def family(key):
    """The residual family a report key belongs to (see the module doc)."""
    return _FAMILY.split(key, 1)[0].strip()


class Check:
    """One CLI call: argv without ``--input``, the document, the expectation.

    ``why`` says why the expectation holds; it is part of the record and
    never shown to pncalc.
    """

    __slots__ = ("name", "argv", "doc", "exit", "verdict", "first_family", "why")

    def __init__(self, name, argv, doc, exit, first_family, why):
        self.name = name
        self.argv = list(argv)
        self.doc = doc
        self.exit = exit
        self.verdict = ("pass", "fail", "error")[exit]
        self.first_family = first_family
        self.why = why


def _chart(names):
    return {"dim": len(names), "coordinates": list(names)}


def _components(comps, names):
    """{0-based index tuple: poly} as a pncalc component map, zeros dropped."""
    return {
        ",".join(str(i + 1) for i in key): render(p, names)
        for key, p in sorted(comps.items())
        if p
    }


def _diag_tensor(diag, names):
    return {f"{i + 1},{i + 1}": render(p, names) for i, p in enumerate(diag) if p}


# -- pn_darboux -----------------------------------------------------------------


def _darboux(rng, n, degree=2):
    """Coordinates l1..ln, m1..mn; pi = sum d_li ^ d_mi; eigenvalue
    polynomials f_i, pairwise distinct, f_i in the variable of slot i."""
    names = [f"l{i + 1}" for i in range(n)] + [f"m{i + 1}" for i in range(n)]
    dim = 2 * n
    fs = []
    while len(fs) < n:
        f = _univariate(rng, dim, 0, degree)  # drawn in l1, moved below
        if all(f != g for g in fs):
            fs.append(f)
    # f_i as a polynomial in l_j: move the exponent of slot 0 to slot j
    def f_in(i, j):
        return {tuple(e[0] if k == j else 0 for k in range(dim)): c for e, c in fs[i].items()}

    pi = {(i, n + i): _const(dim, 1) for i in range(n)}
    return names, pi, f_in


def _pn_doc(names, pi, diag):
    return {
        "chart": _chart(names),
        "bivector": _components(pi, names),
        "tensor11": _diag_tensor(diag, names),
    }


_WHY_DARBOUX = (
    "pi = sum d_li^d_mi is symplectic and N = diag(f_i(l_i)) on both l_i and "
    "m_i; omega_N = sum f_i(l_i) dl_i^dm_i is closed, so (pi, N) is a product "
    "of Poisson-Nijenhuis planes (Kosmann-Schwarzbach & Magri 1990)"
)
_WHY_UNPAIRED = (
    "the m_k slot carries g(l_k) != f_k(l_k), so N.pisharp - pisharp.N* has "
    "the entry f_k - g; sharp compatibility fails, is_pn_pair skips the "
    "concomitant and reports 'concomitant: skipped', which sorts first"
)
_WHY_CROSS = (
    "pair i carries f_i(l_j), j != i, on both slots: sharp compatibility "
    "holds, but omega_N has d(f_i(l_j)) ^ dl_i ^ dm_i != 0, so the "
    "concomitant is nonzero (it sorts before torsion, which fails too)"
)


# Every family's mix below takes about two seconds per cycle on a 2-core x86
# host, so that a run has ten or more cycles, over which run.py takes its
# figures. Checks that take a second or more (the dim-8 hierarchy and cross
# checks, groupoid pn over a base of dimension 4, point gl(3) compat,
# anything on so(4)*) would leave too few cycles for that.

# (half dimension n, variant); the chart has dimension 2n.
DARBOUX_MIX = tuple(
    [(n, v) for n in (1, 2, 3) for v in ("check-pn", "hierarchy", "unpaired", "cross") if n > 1 or v != "cross"]
    + [(4, "check-pn"), (4, "unpaired")]
)


def _darboux_check(rng, n, variant):
    names, pi, f_in = _darboux(rng, n)
    diag = [f_in(i, i) for i in range(n)] * 2
    name = f"dim{2 * n}.{variant}"
    if variant == "check-pn":
        return Check(name, ["check-pn"], _pn_doc(names, pi, diag), 0, None, _WHY_DARBOUX)
    if variant == "hierarchy":
        why = _WHY_DARBOUX + "; a PN pair yields the values pi_0..pi_2"
        return Check(name, ["hierarchy", "--max-order", "2"], _pn_doc(names, pi, diag), 0, "pi_0", why)
    if variant == "unpaired":
        k = rng.randrange(n)
        g = diag[k]
        while g == diag[k]:
            g = _univariate(rng, 2 * n, k, 2)
        diag[n + k] = g
        return Check(name, ["check-pn"], _pn_doc(names, pi, diag), 1, "concomitant", _WHY_UNPAIRED)
    i = rng.randrange(n)
    j = (i + 1 + rng.randrange(n - 1)) % n
    diag[i] = diag[n + i] = f_in(i, j)
    return Check(name, ["check-pn"], _pn_doc(names, pi, diag), 1, "concomitant", _WHY_CROSS)


def pn_darboux_cycle(rng):
    return [_darboux_check(rng, n, variant) for n, variant in DARBOUX_MIX]


# -- poisson_dense --------------------------------------------------------------

R3 = ("x1", "x2", "x3")


def _jacobian_bivector(rng, h_degree, c_degree):
    """pi_ij = h eps_ijk d_k C on R^3, as the vector v with pi_ij = eps_ijk v_k;
    h and C are homogeneous with every monomial of their degree present."""
    h = _homogeneous(rng, 3, h_degree)
    c = _homogeneous(rng, 3, c_degree)
    return [_mul(h, _diff(c, k)) for k in range(3)]


def _bivector_of(v):
    return {(0, 1): v[2], (0, 2): _scale(v[1], -1), (1, 2): v[0]}


def jacobi_density(v):
    """v . curl v: the bivector with pi_ij = eps_ijk v_k on R^3 is Poisson
    exactly when this polynomial vanishes."""
    curl = [
        _add(_diff(v[2], 1), _diff(v[1], 2), -1),
        _add(_diff(v[0], 2), _diff(v[2], 0), -1),
        _add(_diff(v[1], 0), _diff(v[0], 1), -1),
    ]
    out = {}
    for k in range(3):
        out = _add(out, _mul(v[k], curl[k]))
    return out


def _sharp_df(pi, a):
    """pisharp(da) with pisharp(alpha)_b = sum_a alpha_a pi^{ab}."""
    grad = [_diff(a, k) for k in range(3)]
    field = []
    for b in range(3):
        acc = {}
        for k in range(3):
            if k == b:
                continue
            entry = pi[(k, b)] if k < b else _scale(pi[(b, k)], -1)
            acc = _add(acc, _mul(grad[k], entry))
        field.append(acc)
    return field


def _perturb(rng, v):
    """Add one seeded monomial of degree 1 or 2 to one component."""
    v = [dict(p) for p in v]
    k = rng.randrange(3)
    e = [0, 0, 0]
    for _ in range(rng.randint(1, 2)):
        e[rng.randrange(3)] += 1
    v[k] = _add(v[k], {tuple(e): _coeff(rng)})
    return v


_WHY_JACOBIAN = "pi_ij = h eps_ijk d_k C is Poisson for all h, C on R^3 (v = h grad C, v . curl v = 0)"
_WHY_CONFORMAL = (
    "(a pi, pisharp(da)) is the conformal change of a Poisson bivector, "
    "which is Jacobi: [a pi, a pi] - 2 E ^ a pi = a^2 [pi, pi]"
)


def poisson_dense_cycle(rng):
    checks = []
    for c_degree in (2, 3, 4):
        tag = f"deg{c_degree}"
        for variant in ("pass", "perturbed"):
            v = _jacobian_bivector(rng, 1, c_degree)
            if variant == "pass":
                exit, fam, why = 0, None, _WHY_JACOBIAN
            else:
                v = _perturb(rng, v)
                broken = bool(jacobi_density(v))
                exit, fam = (1, "[pi,pi]") if broken else (0, None)
                why = f"one monomial added; oracle v . curl v {'!=' if broken else '=='} 0"
            doc = {"chart": _chart(R3), "bivector": _components(_bivector_of(v), R3)}
            checks.append(Check(f"{tag}.check-poisson.{variant}", ["check-poisson"], doc, exit, fam, why))
        for variant in ("pass", "perturbed"):
            v = _jacobian_bivector(rng, 0, c_degree)
            a = _add(_const(3, _coeff(rng)), _homogeneous(rng, 3, 1))
            if variant == "pass":
                exit, fam, why = 0, None, _WHY_CONFORMAL
            else:
                v = _perturb(rng, v)
                broken = bool(jacobi_density(v))
                exit, fam = (1, "[e,pi]") if broken else (0, None)
                why = (
                    "conformal change of a perturbed bivector; [E, a pi] = (a/2) i_da [pi, pi] "
                    f"up to sign, and the oracle finds v . curl v {'!=' if broken else '=='} 0"
                )
            pi = _bivector_of(v)
            scaled = {key: _mul(a, p) for key, p in pi.items()}
            field = _sharp_df(pi, a)
            doc = {
                "chart": _chart(R3),
                "jacobi": {
                    "bivector": _components(scaled, R3),
                    "field": _components({(b,): p for b, p in enumerate(field)}, R3),
                },
            }
            checks.append(Check(f"{tag}.jacobi-check.{variant}", ["jacobi", "check"], doc, exit, fam, why))
    return checks


# -- groupoid_lift --------------------------------------------------------------


def _groupoid_base(rng, dim):
    """A Poisson-Nijenhuis pair on a base chart of the given dimension."""
    if dim == 1:
        names = ["x1"]
        return names, {}, [_univariate(rng, 1, 0, 2)]
    if dim == 3:
        v = _jacobian_bivector(rng, 0, 2)  # linear, every component nonzero
        lam = _const(3, Fraction(_coeff(rng), rng.choice((1, 2, 3))))
        return list(R3), _bivector_of(v), [lam] * 3
    # Over a base of dimension 2, linear eigenvalues would leave too few
    # distinct documents for a run.
    names, pi, f_in = _darboux(rng, dim // 2, degree=2 if dim == 2 else 1)
    n = dim // 2
    return names, pi, [f_in(i, i) for i in range(n)] * 2


def _same_sign_lift(pi, n):
    """pi (+) pi on the doubled chart; the correct lift is pi (-) pi."""
    total = {}
    for (a, b), p in pi.items():
        total[(a, b)] = _embed(p, 2 * n, 0)
        total[(n + a, n + b)] = _embed(p, 2 * n, n)
    return total


_WHY_GROUPOID = (
    "the pair groupoid of a Poisson-Nijenhuis pair with the difference lift "
    "pi (-) pi and N (+) N is a PN groupoid, and base projection recovers the pair"
)
_WHY_CROSSBLOCK = (
    "N (+) N plus 1 at (x1, y_x1): the graph check fails, and because pi "
    "pairs x1 with another coordinate the total pair loses sharp "
    "compatibility, so 'pair concomitant' (skipped) sorts first"
)
_WHY_WRONGSIGN = (
    "the lift pi (+) pi pairs the conormals y1 - x2 to 2 pi_ab != 0 on the "
    "multiplication graph, so the graph coisotropy ('graph conormal') fails "
    "while the total pair stays PN"
)


# (base dimension, variant). Base dimension 1 has pi = 0, which has no sign
# to get wrong and pairs x1 with nothing, so it has no fail variant.
GROUPOID_MIX = tuple(
    [(1, v) for v in ("pn", "base", "coisotropic-invariant")]
    + [(2, v) for v in ("pn", "base", "coisotropic-invariant", "cross-block", "wrong-sign")]
    + [(3, v) for v in ("pn", "coisotropic-invariant", "cross-block")]
    + [(4, "coisotropic-invariant")]
)


def _groupoid_check(rng, dim, variant):
    names, pi, diag = _groupoid_base(rng, dim)
    total_names = names + ["y_" + c for c in names]
    block = {"bivector": _components(pi, names), "tensor11": _diag_tensor(diag, names)}
    name = f"base{dim}.{variant}"
    if variant == "cross-block":
        del block["tensor11"]
        lifted = [_embed(p, 2 * dim, 0) for p in diag] + [_embed(p, 2 * dim, dim) for p in diag]
        block["total_tensor11"] = _diag_tensor(lifted, total_names)
        block["total_tensor11"][f"1,{dim + 1}"] = "1"
        return Check(name, ["groupoid", "pn"], {"chart": _chart(names), "pair_groupoid": block}, 1, "pair concomitant", _WHY_CROSSBLOCK)
    if variant == "wrong-sign":
        del block["bivector"]
        block["total_bivector"] = _components(_same_sign_lift(pi, dim), total_names)
        return Check(name, ["groupoid", "pn"], {"chart": _chart(names), "pair_groupoid": block}, 1, "graph conormal", _WHY_WRONGSIGN)
    first = "bivector" if variant == "base" else None
    return Check(name, ["groupoid", variant], {"chart": _chart(names), "pair_groupoid": block}, 0, first, _WHY_GROUPOID)


def groupoid_lift_cycle(rng):
    return [_groupoid_check(rng, dim, variant) for dim, variant in GROUPOID_MIX]


# -- lie_poisson ----------------------------------------------------------------


def _matmul(X, Y):
    n = len(X)
    return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _matsub(X, Y):
    return [[a - b for a, b in zip(r, s)] for r, s in zip(X, Y)]


class MatrixAlgebra:
    """gl(n) or so(n): a basis of integer matrices and coordinates on it."""

    def __init__(self, kind, n):
        self.kind, self.n = kind, n
        self.basis, self.names, self.slots = [], [], []
        pairs = (
            [(a, b) for a in range(n) for b in range(n)]
            if kind == "gl"
            else list(combinations(range(n), 2))
        )
        for a, b in pairs:
            M = [[0] * n for _ in range(n)]
            M[a][b] = 1
            if kind == "so":
                M[b][a] = -1
            self.basis.append(M)
            self.names.append(f"e{a + 1}{b + 1}")
            self.slots.append((a, b))
        self.rank = len(self.basis)

    def coords(self, M):
        return [M[a][b] for a, b in self.slots]

    def table(self, bracket):
        """{(i, j): structure constants of [e_i, e_j]} for i < j."""
        return {
            (i, j): self.coords(bracket(self.basis[i], self.basis[j]))
            for i, j in combinations(range(self.rank), 2)
        }


def commutator(X, Y):
    return _matsub(_matmul(X, Y), _matmul(Y, X))


def a_bracket(A):
    """[X, Y]_A = XAY - YAX, the commutator of the associative product XAY."""
    return lambda X, Y: _matsub(_matmul(_matmul(X, A), Y), _matmul(_matmul(Y, A), X))


def _random_matrix(rng, n, symmetric):
    A = [[_coeff(rng) for _ in range(n)] for _ in range(n)]
    if symmetric:
        A = [[A[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return A


def _full(table, rank, i, j):
    if i == j:
        return [0] * rank
    if i < j:
        return table.get((i, j), [0] * rank)
    return [-c for c in table.get((j, i), [0] * rank)]


def is_bialgebra(bracket, cobracket, rank):
    """Is delta(e_i) = sum_{j<k} cobracket[j,k]_i e_j ^ e_k a 1-cocycle of
    (g, bracket) with values in the exterior square: for all i < j,
    delta([e_i, e_j]) = e_i . delta(e_j) - e_j . delta(e_i)?"""

    def delta(vec):
        out = {}
        for (j, k), row in cobracket.items():
            c = sum(vec[i] * row[i] for i in range(rank))
            if c:
                out[(j, k)] = out.get((j, k), 0) + c
        return out

    def act(x, two):
        """x . (a ^ b) = [x, a] ^ b + a ^ [x, b] on basis wedges."""
        out = {}

        def put(p, q, c):
            if p == q or not c:
                return
            key, s = ((p, q), 1) if p < q else ((q, p), -1)
            out[key] = out.get(key, 0) + s * c

        for (a, b), c in two.items():
            for t, v in enumerate(_full(bracket, rank, x, a)):
                put(t, b, c * v)
            for t, v in enumerate(_full(bracket, rank, x, b)):
                put(a, t, c * v)
        return out

    unit = [[1 if k == i else 0 for k in range(rank)] for i in range(rank)]
    for i, j in combinations(range(rank), 2):
        lhs = delta(_full(bracket, rank, i, j))
        rhs = act(i, delta(unit[j]))
        for key, c in act(j, delta(unit[i])).items():
            rhs[key] = rhs.get(key, 0) - c
        keys = set(lhs) | set(rhs)
        if any(lhs.get(k, 0) != rhs.get(k, 0) for k in keys):
            return False
    return True


def is_two_cocycle(table, c, rank):
    """Chevalley-Eilenberg: c([e_i,e_j],e_k) + cyclic == 0 for all i<j<k,
    for the antisymmetric form c given on pairs i < j."""

    def form(vec, k):
        return sum(vec[t] * (c.get((t, k), 0) if t < k else -c.get((k, t), 0)) for t in range(rank) if t != k)

    for i, j, k in combinations(range(rank), 3):
        total = (
            form(_full(table, rank, i, j), k)
            + form(_full(table, rank, j, k), i)
            + form(_full(table, rank, k, i), j)
        )
        if total:
            return False
    return True


def _point_algebroid(alg, table):
    return {
        "rank": alg.rank,
        "basis": list(alg.names),
        "anchor": [[] for _ in range(alg.rank)],
        "structure": {f"{i + 1},{j + 1}": [str(c) for c in row] for (i, j), row in sorted(table.items()) if any(row)},
    }


def _cotangent_algebroid(pi, names):
    """Independent construction of the cotangent algebroid of a bivector:
    anchor column i = (pi^{ia})_a, bracket [dx_i, dx_j] = d pi_ij."""
    n = len(names)

    def entry(i, a):
        if i == a:
            return {}
        return pi.get((i, a), {}) if i < a else _scale(pi.get((a, i), {}), -1)

    structure = {}
    for i, j in combinations(range(n), 2):
        row = [_diff(pi.get((i, j), {}), k) for k in range(n)]
        if any(row):
            structure[f"{i + 1},{j + 1}"] = [render(p, names) for p in row]
    return {
        "rank": n,
        "basis": ["d" + c for c in names],
        "anchor": [[render(entry(i, a), names) for a in range(n)] for i in range(n)],
        "structure": structure,
    }


def _tangent_algebroid(names):
    n = len(names)
    return {
        "rank": n,
        "basis": ["d_" + c for c in names],
        "anchor": [["1" if a == i else "0" for a in range(n)] for i in range(n)],
    }


def _lie_poisson(alg, table):
    """pi_ij = sum_k c_ij^k x_k on the dual, x_k the coordinate of e_k."""
    n = alg.rank
    return {(i, j): {tuple(1 if t == k else 0 for t in range(n)): c for k, c in enumerate(row) if c} for (i, j), row in table.items() if any(row)}


def _frozen(table, mu, n):
    """The constant bivector pi_LP(mu): a 2-coboundary, hence compatible."""
    out = {}
    for (i, j), row in table.items():
        c = sum(r * m for r, m in zip(row, mu))
        if c:
            out[(i, j)] = _const(n, c)
    return out


_WHY_POINT_COMPAT = "[X,Y] and XAY - YAX are compatible: their sum is the commutator of X(I+A)Y"
_WHY_DUAL_POISSON = "dual-poisson of a valid algebroid is a construction and passes"
_WHY_FROZEN = "pi_LP and the frozen-argument bivector pi_LP(mu) are compatible (argument shift)"
_WHY_TANGENT = "(TM, T*M_pi) is a Lie bialgebroid for every Poisson pi; here pi = pi_LP + pi_LP(mu)"


# (where, algebra, n, variant). Every 2-cochain of so(3) is a coboundary, so
# so(3)* has no cocycle-fail variant.
LIE_MIX = (
    [("point", kind, n, v) for kind, n in (("gl", 2), ("so", 3)) for v in ("compat", "bialgebroid", "dual-poisson")]
    + [("point", "gl", 3, "dual-poisson")]
    + [("dual", "gl", 2, v) for v in ("frozen", "cocycle-fail", "dual-poisson")]
    + [("dual", "so", 3, v) for v in ("frozen", "bialgebroid", "dual-poisson")]
)


def _point_check(rng, alg, variant):
    base = alg.table(commutator)
    twisted = alg.table(a_bracket(_random_matrix(rng, alg.n, symmetric=(alg.kind == "so"))))
    doc = {"chart": _chart([])}
    if variant == "dual-poisson":
        doc["algebroid"] = _point_algebroid(alg, twisted)
        return doc, 0, "chart", _WHY_DUAL_POISSON
    doc["algebroid_pair"] = {"first": _point_algebroid(alg, base), "second": _point_algebroid(alg, twisted)}
    if variant == "compat":
        return doc, 0, None, _WHY_POINT_COMPAT
    ok = is_bialgebra(base, twisted, alg.rank)
    why = f"integer oracle: the cobracket of XAY - YAX is {'' if ok else 'not '}a 1-cocycle of the commutator"
    return doc, (0 if ok else 1), (None if ok else "derivation"), why


def _dual_check(rng, alg, variant):
    table = alg.table(commutator)
    names, r = alg.names, alg.rank
    lp = _lie_poisson(alg, table)
    doc = {"chart": _chart(names)}
    if variant == "cocycle-fail":
        while True:
            c = {key: _coeff(rng) for key in combinations(range(r), 2)}
            if not is_two_cocycle(table, c, r):
                break
        const = {key: _const(r, v) for key, v in c.items() if v}
        doc["algebroid_pair"] = {"first": _cotangent_algebroid(lp, names), "second": _cotangent_algebroid(const, names)}
        why = (
            "integer oracle: the constant bivector is not a 2-cocycle, so [pi_LP, c] != 0; "
            "all three certificates then fail and anticommutator sorts first"
        )
        return doc, 1, "anticommutator", why
    mu = [_coeff(rng) for _ in range(r)]
    frozen = _frozen(table, mu, r)
    if variant == "frozen":
        doc["algebroid_pair"] = {"first": _cotangent_algebroid(lp, names), "second": _cotangent_algebroid(frozen, names)}
        return doc, 0, None, _WHY_FROZEN
    pi = dict(lp)
    for key, p in frozen.items():
        pi[key] = _add(pi.get(key, {}), p)
    cot = _cotangent_algebroid(pi, names)
    if variant == "bialgebroid":
        doc["algebroid_pair"] = {"first": _tangent_algebroid(names), "second": cot}
        return doc, 0, None, _WHY_TANGENT
    doc["algebroid"] = cot
    return doc, 0, "chart", _WHY_DUAL_POISSON


def lie_poisson_cycle(rng):
    checks = []
    for where, kind, n, variant in LIE_MIX:
        alg = MatrixAlgebra(kind, n)
        make = _point_check if where == "point" else _dual_check
        doc, exit, first, why = make(rng, alg, variant)
        command = variant if variant in ("bialgebroid", "dual-poisson") else "compat"
        checks.append(Check(f"{where}-{kind}{n}.{variant}", ["algebroid", command], doc, exit, first, why))
    return checks


FAMILIES = {
    "pn_darboux": pn_darboux_cycle,
    "groupoid_lift": groupoid_lift_cycle,
    "lie_poisson": lie_poisson_cycle,
    "poisson_dense": poisson_dense_cycle,
}

# A workload runs the mixes of two families in one cycle. The host's speed
# changes in phases of up to a minute, so two workloads with 45-second runs
# measure more steadily than four with 20-second runs in the same time. The
# split keeps every layer on one side and off the other: Poisson-Nijenhuis
# pairs, mat_mul, rref and substitute on pn_groupoid; algebroid brackets,
# jacobi and dense polynomials on lie_dense.
WORKLOADS = {
    "pn_groupoid": ("pn_darboux", "groupoid_lift"),
    "lie_dense": ("lie_poisson", "poisson_dense"),
}


def cycle(workload, seed, index, attempt=0):
    """The checks of one cycle; the same arguments give the same checks."""
    checks = []
    for family in WORKLOADS[workload]:
        checks += FAMILIES[family](random.Random(f"{family}:{seed}:{index}:{attempt}"))
    return checks
