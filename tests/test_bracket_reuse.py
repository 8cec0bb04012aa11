"""The bracket loops form each intermediate bracket once per call.

``cartan._leibniz`` peels P by tail, ``cartan._lie_multivector`` and
``algebroid._section_lie`` reuse their slot terms and form only the terms
whose final key has distinct indices and avoids the peeled tail, and the
axiom checks read one dict of basis brackets. The oracles here are the loops
written out one component and one term at a time, without any reuse or
skipping; both sides read ``cartan._leibniz_sign`` at call time, so they
must agree with the sign flipped as well. The spy counts pin "once per
call" and the number of products formed exactly.
"""

import contextlib
import io
import json
import random
from itertools import combinations
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncalc import algebroid, cartan, cli, jacobi, polyalg
from pncalc import poisson_nijenhuis as pn
from pncalc.algebroid import (
    AlgebroidData,
    AlgebroidSection,
    algebroid_validate,
    compat_check,
    cotangent_algebroid,
    gerstenhaber_bracket,
    section_bracket,
    tangent_algebroid,
    unit_section,
)
from pncalc.cartan import Chart, MultiVector
from pncalc.corpus import R2, R3, R4, point_lie_algebras, random_polynomial, so3_bivector
from pncalc.polyalg import Polynomial
from oracles import rho_function
from products import spy_products

POINT = Chart(())


def _point_gl(n):
    # basis E_ab at index a*n + b; [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb
    rank = n * n
    table = {}
    for i, j in combinations(range(rank), 2):
        (a, b), (c, d) = divmod(i, n), divmod(j, n)
        row = [0] * rank
        if b == c:
            row[a * n + d] += 1
        if d == a:
            row[c * n + b] -= 1
        table[(i, j)] = tuple(row)
    names = tuple("e%d%d" % (a + 1, b + 1) for a in range(n) for b in range(n))
    return AlgebroidData(POINT, rank, names, ((),) * rank, table)


def _algebroids():
    return (
        tangent_algebroid(R3),
        tangent_algebroid(R4),
        _point_gl(2),
        point_lie_algebras()["so3"],
        cotangent_algebroid(so3_bivector()),
    )


def _per_component_peel(P, Q, lie):
    # the graded Leibniz recursion peeling one component at a time:
    # X = f e_a, rest = e_T, summed with out = out + ...
    frame = P.frame
    p, q = P.degree, Q.degree
    if p == 0 and q == 0:
        return type(P).zero(frame, 0)
    if p == 0:
        res = _per_component_peel(Q, P, lie)
        return res if q % 2 == 0 else -res
    if p == 1:
        return lie(P, Q)
    out = type(P).zero(frame, p + q - 1)
    sign = cartan._leibniz_sign(p, q)
    one = frame.base.one()
    for key, poly in P.components.items():
        X = type(P)(frame, 1, {key[:1]: poly})
        rest = type(P)(frame, p - 1, {key[1:]: one})
        out = out + cartan.wedge(X, _per_component_peel(rest, Q, lie))
        cross = cartan.wedge(_per_component_peel(X, Q, lie), rest)
        out = out + (cross if sign > 0 else -cross)
    return out


def _per_term_vector_lie(X, Q):
    # [X, Q] for a vector field X, each partial of X formed where it is used
    coords = X.chart.coords
    entries = []
    for key, poly in Q.components.items():
        for (a,), xc in X.components.items():
            entries.append((key, xc * poly.partial(coords[a])))
        for pos in range(len(key)):
            for (a,), xc in X.components.items():
                entries.append(
                    (key[:pos] + (a,) + key[pos + 1:], -(poly * xc.partial(coords[key[pos]])))
                )
    return MultiVector.from_terms(X.chart, Q.degree, entries)


def _per_term_section_lie(vector, other):
    # [X, Q] for a degree-1 section X, one slot bracket [X, e_j] per slot
    alg = vector.algebroid
    terms = []
    for key, poly in other.components.items():
        terms.append((key, rho_function(alg, vector, poly)))
        for pos in range(len(key)):
            repl = section_bracket(alg, vector, unit_section(alg, key[pos]))
            for (a,), coeff in repl.components.items():
                terms.append((key[:pos] + (a,) + key[pos + 1:], poly * coeff))
    return AlgebroidSection.from_terms(alg, other.degree, terms)


def _coefficient(rng, base):
    if base.dim:
        return random_polynomial(rng, base, max_degree=3, terms=3)
    return Polynomial.constant(base.coords, rng.choice((-3, -2, -1, 1, 2, 3)))


def _dense(rng, cls, frame, degree):
    keys = combinations(range(frame.rank), degree)
    return cls(frame, degree, {key: _coefficient(rng, frame.base) for key in keys})


def _flipped_sign():
    original = cartan._leibniz_sign
    return mock.patch.object(cartan, "_leibniz_sign", lambda p, q: -original(p, q))


def _both_peels(alg, p, q, seed):
    rng = random.Random(seed)
    S, T = (_dense(rng, AlgebroidSection, alg, d) for d in (p, q))
    pairs = [(gerstenhaber_bracket(alg, S, T), _per_component_peel(S, T, _per_term_section_lie))]
    if alg.base.dim and alg == tangent_algebroid(alg.base):
        P, Q = (MultiVector(alg.base, d, X.components) for d, X in ((p, S), (q, T)))
        pairs.append(
            (cartan.schouten(P, Q), _per_component_peel(P, Q, _per_term_vector_lie))
        )
    return pairs


@pytest.mark.parametrize("flipped", [False, True])
@given(seed=st.integers(0, 2**16))
@settings(max_examples=4, deadline=None)
def test_tail_peel_matches_the_per_component_peel(flipped, seed):
    # every frame, every degree pair 0..3 whose bracket fits the rank
    with _flipped_sign() if flipped else contextlib.nullcontext():
        for alg in _algebroids():
            for p in range(4):
                for q in range(4):
                    if p + q - 1 > alg.rank:
                        continue
                    for new, old in _both_peels(alg, p, q, seed):
                        assert new.components == old.components


def test_flipped_sign_reaches_both_peels():
    # the agreement above under the flip is not vacuous: on these dense
    # bivectors the flip changes both sides
    alg = tangent_algebroid(R3)
    before = _both_peels(alg, 2, 2, 5)
    with _flipped_sign():
        after = _both_peels(alg, 2, 2, 5)
    assert len(before) == 2  # the Gerstenhaber and the Schouten bracket
    for (new0, old0), (new1, old1) in zip(before, after):
        assert new1 != new0 and old1 != old0


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _axiom_pairs(rank):
    # the ordered pairs [e_a, e_b] the Jacobi and anchor families read
    pairs = set(combinations(range(rank), 2))
    for i, j, k in combinations(range(rank), 3):
        pairs.update({(i, j), (j, k), (k, i)})
    return pairs


def test_validate_forms_each_basis_bracket_once(monkeypatch):
    # the cyclic brackets [[e_a, e_b], e_c] are summed as entries, one
    # collect per triple, so no section bracket beyond the basis ones
    alg = _point_gl(3)
    calls = _counting(monkeypatch, algebroid, "section_bracket")
    assert algebroid_validate(alg).ok
    assert len(calls) == len(_axiom_pairs(9)) == 64


def test_compat_forms_each_basis_bracket_once_per_algebroid(monkeypatch):
    lie = point_lie_algebras()
    first, second = lie["so3"], lie["abelian"]
    calls = _counting(monkeypatch, algebroid, "section_bracket")
    verdict = compat_check(first, second)
    assert verdict.ok
    # per half: its basis brackets; the sum's basis brackets are the
    # halves' added together, and no algebroid forms a Jacobi outer bracket
    # as a section bracket of its own
    assert len(calls) == 2 * len(_axiom_pairs(3)) == 8


def test_pn_bialgebroid_lift_does_not_revalidate_the_cotangent_algebroid(monkeypatch):
    calls = _counting(monkeypatch, algebroid, "algebroid_validate")
    verdict = algebroid.pn_bialgebroid_check(so3_bivector(), pn.TensorOneOne.identity(R3))
    assert verdict.ok
    # cotangent_algebroid's guard, bialgebroid_check's two halves, and three
    # per compat_check (two halves and their sum) over the three pairs of
    # hierarchy levels 0..2; the lift is built from the guarded algebroid
    assert len(calls) == 1 + 2 + 3 * comb(3, 2)


def test_section_lie_forms_one_slot_bracket_per_slot_index(monkeypatch):
    alg = _point_gl(2)
    rng = random.Random(3)
    X = _dense(rng, AlgebroidSection, alg, 1)
    Q = AlgebroidSection(alg, 2, {(0, 1): 2, (0, 2): -1, (1, 2): 3})
    want = _per_term_section_lie(X, Q)
    calls = _counting(monkeypatch, algebroid, "section_bracket")
    entries = algebroid._section_lie(X, Q, frozenset(), cartan._gradients(Q))
    assert cartan._collect(entries) == want.components
    assert len(calls) == len({j for key in Q.components for j in key})


def test_leibniz_makes_two_lie_calls_per_tail():
    P = MultiVector(
        R4,
        2,
        {(0, 1): "x4", (0, 2): "x1*x3", (1, 2): "2", (0, 3): "x2^2", (1, 3): "x1 - x3"},
    )
    Q = _dense(random.Random(4), MultiVector, R4, 2)
    calls = []

    def lie(X, Y, avoid, grads):
        calls.append(X)
        return cartan._lie_entries(X, Y, avoid, grads)

    assert cartan._leibniz(P, Q, lie) == cartan.schouten_direct(P, Q)
    tails = {key[1:] for key in P.components}
    assert len(tails) == 3
    assert len(calls) == 2 * len(tails)


def _near_top(rank):
    # degree pairs whose bracket has degree rank - 1 or rank: there the peeled
    # tail and the repeated indices remove the most products
    return [(p, q) for p in range(rank + 1) for q in range(rank + 1) if p + q - 1 in (rank - 1, rank)]


@pytest.mark.parametrize("chart", [R2, R3, R4], ids=["R2", "R3", "R4"])
@given(seed=st.integers(0, 2**16))
@settings(max_examples=3, deadline=None)
def test_schouten_matches_the_direct_formula_near_top_degree(chart, seed):
    rng = random.Random(seed)
    for p, q in _near_top(chart.dim):
        P, Q = (_dense(rng, MultiVector, chart, d) for d in (p, q))
        assert cartan.schouten(P, Q) == cartan.schouten_direct(P, Q)


def _jacobian_bivector(casimir):
    # pi^{ij} = eps^{ijk} d_k C, Poisson for every C on R^3
    d = [casimir.partial(name) for name in R3.coords]
    return MultiVector(R3, 2, {(0, 1): d[2], (0, 2): -d[1], (1, 2): d[0]})


# built in the test, so that a broken bracket fails there, not at collection
_NEAR_TOP_FRAMES = {
    "TR2xR": lambda: jacobi._extended_algebroid(R2),
    "TR3xR": lambda: jacobi._extended_algebroid(R3),
    "cotangent-so3": lambda: cotangent_algebroid(so3_bivector()),
    "cotangent-jacobian": lambda: cotangent_algebroid(
        _jacobian_bivector(R3.parse("x1*x2^2 + x3^3 - x1*x3"))
    ),
}


@pytest.mark.parametrize("frame", sorted(_NEAR_TOP_FRAMES))
@given(seed=st.integers(0, 2**16))
@settings(max_examples=2, deadline=None)
def test_gerstenhaber_matches_the_per_term_peel_near_top_degree(frame, seed):
    alg = _NEAR_TOP_FRAMES[frame]()
    rng = random.Random(seed)
    for p, q in _near_top(alg.rank):
        S, T = (_dense(rng, AlgebroidSection, alg, d) for d in (p, q))
        want = _per_component_peel(S, T, _per_term_section_lie)
        assert gerstenhaber_bracket(alg, S, T).components == want.components


def _counting_products(monkeypatch):
    # products of two nonconstant polynomials
    counter = [0]

    def record(a, b):
        if isinstance(b, Polynomial) and not (a.is_constant() or b.is_constant()):
            counter[0] += 1

    spy_products(monkeypatch, record)
    return counter


# every partial of every component is nonconstant
_NONCONSTANT_PI = {(0, 1): "x1^2*x3 + x2^2*x3", (0, 2): "x1*x2^2 + x3^3", (1, 2): "x2*x3^2 + x1^3*x2"}


def test_schouten_of_a_bivector_on_r3_forms_the_minimal_products(monkeypatch):
    # [pi, pi]^{123} = 2 sum_cyc pi^{il} d_l pi^{jk}: two products for each of
    # the six nonzero pi^{il}, and every d_l pi^{jk} is nonconstant here. A
    # recursion that forms every term and drops repeated keys forms 30.
    pi = MultiVector(R3, 2, _NONCONSTANT_PI)
    counter = _counting_products(monkeypatch)
    result = cartan.schouten(pi, pi)
    assert counter[0] == 12
    assert result == cartan.schouten_direct(pi, pi)


def test_is_jacobi_product_count_on_r3(monkeypatch):
    # forming every term and dropping repeated keys, the same check forms 131
    pair = jacobi.JacobiPair(
        MultiVector(R3, 2, _NONCONSTANT_PI),
        MultiVector(R3, 1, {(0,): "x2", (1,): "x1*x3", (2,): "x3^2"}),
    )
    counter = _counting_products(monkeypatch)
    verdict = jacobi.is_jacobi(pair)
    assert counter[0] == 84
    assert not verdict.ok


def _dense_jacobi_pair():
    path = Path(__file__).resolve().parent.parent / "demos" / "documents" / "dense_jacobi.json"
    doc = json.loads(path.read_text(encoding="utf-8"))["jacobi"]
    pi = {tuple(int(i) - 1 for i in key.split(",")): v for key, v in doc["bivector"].items()}
    field = {(int(key) - 1,): v for key, v in doc["field"].items()}
    return jacobi.JacobiPair(MultiVector(R3, 2, pi), MultiVector(R3, 1, field))


def _spy_packed_sum(monkeypatch):
    # one (ring width, term products) pair per call of _packed_sum, the
    # products counted entry by entry after the factoring
    calls = []
    packed_sum = polyalg._packed_sum

    def spy(live, den, width):
        calls.append((width, sum(len(a.terms) * len(b.terms) for _, _, a, b in live if b is not None)))
        return packed_sum(live, den, width)

    monkeypatch.setattr(polyalg, "_packed_sum", spy)
    return calls


def test_dense_jacobi_packed_products_are_factored(monkeypatch):
    # Each bracket component has entries pi^{ij} * b_k that share the left
    # operand pi^{ij} (30-31 terms); the kernel sums the b_k first and forms
    # one product per shared operand. Term products reaching _packed_sum,
    # product by product before the factoring: 6,868 for [pi, pi] and
    # 38,658 for the whole check.
    pair = _dense_jacobi_pair()
    calls = _spy_packed_sum(monkeypatch)
    assert cartan.schouten(pair.pi, pair.pi).is_zero()
    assert sum(products for _, products in calls) == 1410
    calls.clear()
    assert jacobi.is_jacobi(pair).ok
    assert sum(products for _, products in calls) == 22834


def test_dense_r4_poisson_check_packs_in_four_variables(monkeypatch):
    # The size rule reads no width: the four [pi, pi] sums of the dense R^4
    # document, six entries each after the factoring, meet the ratio and
    # pack like those on R^3.
    path = Path(__file__).resolve().parent.parent / "demos" / "documents" / "dense_r4.json"
    calls = _spy_packed_sum(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check-poisson", "--input", str(path), "--json"]) == 0
    assert calls == [(4, 1246), (4, 1344), (4, 1167), (4, 954)]


def _cyclic_sum_oracle(alg):
    # the Jacobi residual of each triple as three finished section brackets added
    units = [unit_section(alg, a) for a in range(alg.rank)]
    out = {}
    for i, j, k in combinations(range(alg.rank), 3):
        total = AlgebroidSection.zero(alg, 1)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = section_bracket(alg, units[a], units[b])
            total = total + section_bracket(alg, inner, units[c])
        out[(i, j, k)] = total
    return out


def _random_algebroid(rng, base, rank):
    # polynomial anchor columns and a sparse polynomial table: no Jacobi in general
    def entry():
        return 0 if rng.random() < 0.3 else _coefficient(rng, base)

    anchor = [[entry() for _ in range(base.dim)] for _ in range(rank)]
    table = {pair: [entry() for _ in range(rank)] for pair in combinations(range(rank), 2)}
    names = tuple("e%d" % (a + 1) for a in range(rank))
    return AlgebroidData(base, rank, names, anchor, table)


@given(seed=st.integers(0, 2**16), rank=st.integers(3, 4))
@settings(max_examples=8, deadline=None)
def test_validate_jacobi_matches_three_finished_brackets(seed, rank):
    rng = random.Random(seed)
    alg = _random_algebroid(rng, rng.choice((R2, R3)), rank)
    assert algebroid_validate(alg).jacobi_residuals == _cyclic_sum_oracle(alg)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=3, deadline=None)
def test_validate_jacobi_matches_three_finished_brackets_on_deformed_tangents(seed):
    # f Id has no torsion for every f, and its deformed table is polynomial
    rng = random.Random(seed)
    alg = algebroid.tangent_deformed_algebroid(
        pn.TensorOneOne.scalar(R3, random_polynomial(rng, R3, max_degree=2, terms=2))
    )
    residuals = algebroid_validate(alg).jacobi_residuals
    assert residuals == _cyclic_sum_oracle(alg)
    assert all(res.is_zero() for res in residuals.values())


def _gradient_receivers(monkeypatch):
    receivers = []
    gradient = Polynomial.gradient

    def spy(self):
        receivers.append(self)
        return gradient(self)

    monkeypatch.setattr(Polynomial, "gradient", spy)
    return receivers


def test_one_bracket_differentiates_each_coefficient_of_q_once(monkeypatch):
    # the lie steps of one bracket read one gradient table of Q, so no
    # coefficient of Q is differentiated once per peeled tail
    rng = random.Random(6)
    P, Q = (_dense(rng, MultiVector, R4, d) for d in (3, 2))
    alg = cotangent_algebroid(so3_bivector())
    S, T = (_dense(rng, AlgebroidSection, alg, d) for d in (2, 2))
    receivers = _gradient_receivers(monkeypatch)
    for bracket, right in (
        (lambda: cartan.schouten(P, Q), Q),
        (lambda: gerstenhaber_bracket(alg, S, T), T),
    ):
        receivers.clear()
        bracket()
        counts = [sum(r is poly for r in receivers) for poly in right.components.values()]
        assert max(counts) == 1, counts


def test_one_gerstenhaber_bracket_differentiates_each_coefficient_of_p_once(monkeypatch):
    # the slot brackets [X, e_j] of a lie step read one gradient table of X,
    # so no coefficient of P is differentiated once per slot index
    rng = random.Random(6)
    alg = cotangent_algebroid(so3_bivector())
    S, T = (_dense(rng, AlgebroidSection, alg, 2) for _ in range(2))
    receivers = _gradient_receivers(monkeypatch)
    gerstenhaber_bracket(alg, S, T)
    counts = [sum(r is poly for r in receivers) for poly in S.components.values()]
    assert counts == [1] * len(S.components)


def test_bracket_above_the_rank_forms_no_gradient(monkeypatch):
    # [P, Q] of two bivectors on R^2 has degree 3 > 2: it is zero, and the
    # recursion returns before it differentiates anything
    P = MultiVector(R2, 2, {(0, 1): "x1^2*x2 + 1"})
    Q = MultiVector(R2, 2, {(0, 1): "x2^3 - 3*x1"})
    receivers = _gradient_receivers(monkeypatch)
    for left, right in ((P, Q), (P, P)):
        bracket = cartan.schouten(left, right)
        assert bracket.is_zero() and bracket.degree == 3
    assert receivers == []
