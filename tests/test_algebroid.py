import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncalc import cartan, poisson_nijenhuis as pn, suite
from pncalc.algebroid import (
    AlgebroidData,
    AlgebroidSection,
    algebroid_differential,
    algebroid_pencil,
    algebroid_sum,
    algebroid_validate,
    anchor_field_of,
    bialgebroid_check,
    build_dual_chart,
    compat_check,
    cotangent_algebroid,
    dual_linear_poisson,
    gerstenhaber_bracket,
    linear_poisson_to_algebroid,
    pn_bialgebroid_check,
    section_bracket,
    tangent_algebroid,
    tangent_deformed_algebroid,
    unit_section,
)
from pncalc.cartan import Chart, MultiVector
from pncalc.corpus import R1, R2, R3, random_multivector, random_polynomial, so3_bivector
from pncalc.errors import InputError, PreconditionError
from pncalc.polyalg import Polynomial
from oracles import rho_function

POINT = Chart(())


def so3_point_algebroid():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2 over a zero-dimensional base
    return AlgebroidData(
        POINT,
        3,
        ("e1", "e2", "e3"),
        ((), (), ()),
        {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)},
    )


def solvable_rank2():
    return AlgebroidData(POINT, 2, ("e1", "e2"), ((), ()), {(0, 1): (0, 1)})


def test_construction_guards():
    with pytest.raises(InputError):
        AlgebroidData(POINT, 2, ("e1",), ((), ()), {})
    with pytest.raises(InputError):
        AlgebroidData(POINT, 2, ("e1", "e2"), ((), ()), {(1, 0): (0, 1)})
    with pytest.raises(InputError):
        AlgebroidData(POINT, 2, ("e1", "e2"), ((), ()), {(0, 1): (1,)})
    with pytest.raises(InputError):
        AlgebroidData(R2, 2, ("e1", "e2"), ((1,), (0,)), {})


@pytest.mark.parametrize("name", ["e 1", "e+2", "1e", "", "xi-1", 3, None])
def test_basis_names_must_be_identifiers(name):
    # build_dual_chart turns each basis name into the coordinate xi_<name>
    with pytest.raises(InputError, match="bad basis name"):
        AlgebroidData(POINT, 2, ("e1", name), ((), ()), {})
    assert AlgebroidData(POINT, 2, ("e1", "_e2"), ((), ()), {}).basis == ("e1", "_e2")


@pytest.mark.parametrize("rank, names", [(True, 1), (2.7, 2), ("3", 3), (2.0, 2)])
def test_rank_must_be_an_int(rank, names):
    basis = ("e1", "e2", "e3")[:names]
    with pytest.raises(InputError):
        AlgebroidData(POINT, rank, basis, ((),) * names, {})


def test_structure_accessor_antisymmetry():
    alg = so3_point_algebroid()
    assert [str(p) for p in alg.c(0, 1)] == ["0", "0", "1"]
    assert [str(p) for p in alg.c(1, 0)] == ["0", "0", "-1"]
    assert all(p.is_zero() for p in alg.c(2, 2))


def test_bracket_and_differential_read_the_table_with_its_sign(monkeypatch):
    # c(i, j) is the oracle: [e_i, e_j] = sum_k c(i, j)[k] e_k for every
    # ordered pair, and (d eps^t)(e_i, e_j) = -c(i, j)[t], since the unit
    # coefficients have no anchor derivative. The two kernels read the stored
    # rows themselves, so they must not need c() at all.
    cases = []
    for alg in (so3_point_algebroid(), solvable_rank2(), cotangent_algebroid(so3_bivector())):
        r = alg.rank
        brackets = {
            (i, j): AlgebroidSection(alg, 1, {(k,): alg.c(i, j)[k] for k in range(r)})
            for i in range(r)
            for j in range(r)
        }
        pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
        diffs = [
            AlgebroidSection(alg, 2, {(i, j): -alg.c(i, j)[t] for i, j in pairs})
            for t in range(r)
        ]
        cases.append((alg, brackets, diffs))

    def refuse(self, i, j):
        raise AssertionError("c() called")

    monkeypatch.setattr(AlgebroidData, "c", refuse)
    for alg, brackets, diffs in cases:
        units = [unit_section(alg, i) for i in range(alg.rank)]
        for (i, j), want in brackets.items():
            assert section_bracket(alg, units[i], units[j]) == want
        for t, want in enumerate(diffs):
            assert algebroid_differential(alg, units[t]) == want


def test_section_normalization():
    alg = so3_point_algebroid()
    s = AlgebroidSection(alg, 2, {(1, 0): 1})
    assert s.component((0, 1)).constant_value() == -1
    assert AlgebroidSection(alg, 2, {(1, 1): 5}).is_zero()
    w = cartan.wedge(unit_section(alg, 0), unit_section(alg, 1))
    assert w.component((1, 0)).constant_value() == -1
    other = solvable_rank2()
    with pytest.raises(InputError):
        unit_section(alg, 0) + unit_section(other, 0)


def test_section_frame_must_be_an_algebroid():
    line = Chart(("x1",))
    with pytest.raises(InputError):
        AlgebroidSection(line, 1, {(0,): 1})
    with pytest.raises(InputError):
        AlgebroidSection.from_terms(line, 1, [((0,), 1)])
    with pytest.raises(InputError):
        unit_section(line, 0)
    alg = so3_point_algebroid()
    with pytest.raises(InputError):
        MultiVector(alg, 1, {(0,): 1})
    for index in (3, -1, True, 1.0):
        with pytest.raises(InputError):
            unit_section(alg, index)


def test_unvalidated_sections_are_canonical():
    # unit sections, section brackets and differentials build unchecked
    for alg in (so3_point_algebroid(), tangent_algebroid(R2), cotangent_algebroid(so3_bivector())):
        units = [unit_section(alg, i) for i in range(alg.rank)]
        outs = list(units)
        outs += [section_bracket(alg, a, b) for a in units for b in units]
        outs += [algebroid_differential(alg, a) for a in units]
        outs.append(algebroid_differential(alg, cartan.wedge(units[0], units[1])))
        for out in outs:
            assert out == AlgebroidSection(alg, out.degree, out.components)
            assert all(not v.is_zero() for v in out.components.values())


def test_validate_examples():
    assert algebroid_validate(so3_point_algebroid()).ok
    assert algebroid_validate(solvable_rank2()).ok
    assert algebroid_validate(tangent_algebroid(R3)).ok
    # rank 2 over a line with an anchored first section
    anchored = AlgebroidData(
        Chart(("x1",)), 2, ("e1", "e2"), (("1",), ("0",)), {(0, 1): (0, 1)}
    )
    assert algebroid_validate(anchored).ok


def test_validate_rejects_corrupted_table():
    # adding e1 to [e1,e2] breaks Jacobi in the rotation algebra
    broken = AlgebroidData(
        POINT,
        3,
        ("e1", "e2", "e3"),
        ((), (), ()),
        {(0, 1): (1, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)},
    )
    verdict = algebroid_validate(broken)
    assert not verdict.ok
    assert any(key.startswith("jacobi") for key in verdict.residuals())


def test_validate_rejects_bad_anchor():
    # anchor is not a morphism: rho(e1)=d/dx, rho(e2)=x d/dx, abelian table
    line = Chart(("x1",))
    broken = AlgebroidData(line, 2, ("e1", "e2"), (("1",), ("x1",)), {})
    verdict = algebroid_validate(broken)
    assert not verdict.ok
    assert any(key.startswith("anchor") for key in verdict.residuals())


def test_section_bracket_leibniz():
    alg = cotangent_algebroid(so3_bivector())
    f = R3.parse("x1*x2")
    x, y = unit_section(alg, 0), unit_section(alg, 1)
    lhs = section_bracket(alg, x, f * y)
    rhs = f * section_bracket(alg, x, y) + rho_function(alg, x, f) * y
    assert lhs == rhs


base_polys = st.one_of(
    st.just(R2.zero()),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-3, 3).filter(bool),
        max_size=3,
    ).map(lambda terms: Polynomial(R2.coords, terms)),
)


@given(
    st.lists(st.lists(base_polys, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(base_polys, min_size=2, max_size=2),
    base_polys,
)
@settings(max_examples=80, deadline=None)
def test_rho_function_matches_definition(anchor, comps, func):
    # rho(X) f = sum_i sum_a X_i rho(e_i)^a d_a f, zero anchor entries included
    alg = AlgebroidData(R2, 2, ("e1", "e2"), anchor, {})
    section = AlgebroidSection(alg, 1, {(i,): c for i, c in enumerate(comps)})
    want = R2.zero()
    for i in range(2):
        for a, name in enumerate(R2.coords):
            want = want + comps[i] * anchor[i][a] * func.partial(name)
    assert rho_function(alg, section, func) == want


def _per_term_differential(alg, omega):
    # the formula term by term, as an independent oracle: rho(e_{i_m}) on
    # omega(.. hat m ..) through unit_section and rho_function, plus
    # (-1)^{m+l} omega([e_{i_m}, e_{i_l}], ..) read through c()
    k, zero = omega.degree, alg.base.zero()
    out = {}
    for key in combinations(range(alg.rank), k + 1):
        val = zero
        for m in range(k + 1):
            rest = key[:m] + key[m + 1:]
            term = rho_function(alg, unit_section(alg, key[m]), omega.component(rest))
            val = val + term if m % 2 == 0 else val - term
        for m in range(k + 1):
            for l in range(m + 1, k + 1):
                rest = tuple(key[t] for t in range(k + 1) if t not in (m, l))
                row = alg.c(key[m], key[l])
                inner = sum(
                    (row[t] * omega.component((t,) + rest) for t in range(alg.rank)), zero
                )
                val = val + inner if (m + l) % 2 == 0 else val - inner
        out[key] = val
    return AlgebroidSection(alg, k + 1, out)


def _chart_polys(chart):
    exponents = st.tuples(*[st.integers(0, 2)] * chart.dim)
    return st.dictionaries(exponents, st.integers(-3, 3).filter(bool), max_size=2).map(
        lambda terms: Polynomial(chart.coords, terms)
    )


@st.composite
def _algebroid_sections(draw):
    # any anchor and table, Jacobi or not: the differential is a formula
    chart = draw(st.sampled_from((POINT, R1, R2, R3)))
    rank = draw(st.integers(1, 3))
    polys = _chart_polys(chart)
    anchor = [draw(st.lists(polys, min_size=chart.dim, max_size=chart.dim)) for _ in range(rank)]
    table = {
        pair: draw(st.lists(polys, min_size=rank, max_size=rank))
        for pair in combinations(range(rank), 2)
        if draw(st.booleans())
    }
    alg = AlgebroidData(chart, rank, ("e1", "e2", "e3")[:rank], anchor, table)
    degree = draw(st.integers(0, min(2, rank)))
    comps = {
        key: draw(polys) for key in combinations(range(rank), degree) if draw(st.booleans())
    }
    return alg, AlgebroidSection(alg, degree, comps)


@given(_algebroid_sections())
@settings(max_examples=80, deadline=None)
def test_differential_matches_the_per_term_formula(case):
    alg, omega = case
    assert algebroid_differential(alg, omega) == _per_term_differential(alg, omega)


def _derivation_defect(primary, dual, left, right):
    # D(X, Y) = d_*[X, Y] - [d_* X, Y] - [X, d_* Y], d_* read on the primary frame
    def d_star(section):
        image = AlgebroidSection(dual, section.degree, section.components)
        image = algebroid_differential(dual, image)
        return AlgebroidSection(primary, image.degree, image.components)

    out = d_star(gerstenhaber_bracket(primary, left, right))
    out = out - gerstenhaber_bracket(primary, d_star(left), right)
    return out - gerstenhaber_bracket(primary, left, d_star(right))


def _deformed_cotangent_pairs():
    # (TM_N, T*M_pi) with N = f Id, torsion-free for every f; a bialgebroid
    # exactly when (pi, N) is a Poisson-Nijenhuis pair
    rng = random.Random(11)
    for chart in (R2, R2, R3, R3, R3):
        f = random_polynomial(rng, chart, max_degree=rng.choice((0, 1)), terms=2)
        if chart is R2:
            pi = MultiVector(R2, 2, {(0, 1): random_polynomial(rng, R2, max_degree=2)})
        else:
            shift = {key: rng.randint(-2, 2) for key in combinations(range(3), 2)}
            pi = so3_bivector() * rng.randint(1, 2) + MultiVector(R3, 2, shift)
        yield pi, pn.TensorOneOne.scalar(chart, f)


def test_derivation_defect_is_a_derivation_in_its_second_slot():
    # D(e_i, x_a e_j) = x_a D(e_i, e_j) + D(e_i, x_a) ^ e_j, so the scaled
    # pairs follow from the two families bialgebroid_check lists
    outcomes = set()
    for pi, tensor in _deformed_cotangent_pairs():
        primary, dual = tangent_deformed_algebroid(tensor), cotangent_algebroid(pi)
        verdict = bialgebroid_check(primary, dual)
        assert verdict.ok == pn.is_pn_pair(pi, tensor).ok
        outcomes.add(verdict.ok)
        units = [unit_section(primary, i) for i in range(primary.rank)]
        for i, j in ((i, j) for i in range(primary.rank) for j in range(primary.rank) if i != j):
            pair = _derivation_defect(primary, dual, units[i], units[j])
            for name in primary.base.coords:
                x = primary.base.var(name)
                scaled = _derivation_defect(primary, dual, units[i], x * units[j])
                on_function = _derivation_defect(
                    primary, dual, units[i], AlgebroidSection(primary, 0, {(): x})
                )
                assert scaled == x * pair + cartan.wedge(on_function, units[j])
                assert not verdict.ok or scaled.is_zero()
    assert outcomes == {True, False}


def test_differential_point_example():
    alg = solvable_rank2()
    eps2 = AlgebroidSection(alg, 1, {(1,): 1})
    d = algebroid_differential(alg, eps2)
    assert d.component((0, 1)).constant_value() == -1
    eps1 = AlgebroidSection(alg, 1, {(0,): 1})
    assert algebroid_differential(alg, eps1).is_zero()


def test_differential_squares_to_zero():
    for alg in (so3_point_algebroid(), solvable_rank2(), cotangent_algebroid(so3_bivector())):
        for i in range(alg.rank):
            s = unit_section(alg, i)
            dd = algebroid_differential(alg, algebroid_differential(alg, s))
            assert dd.is_zero()
        if alg.base.dim:
            f = AlgebroidSection(
                alg, 0, {(): alg.base.parse("%s^2" % alg.base.coords[0])}
            )
            dd = algebroid_differential(alg, algebroid_differential(alg, f))
            assert dd.is_zero()


def test_tangent_differential_is_de_rham():
    alg = tangent_algebroid(R2)
    f = R2.parse("x1^2*x2")
    omega = AlgebroidSection(alg, 1, {(0,): f})
    d = algebroid_differential(alg, omega)
    reference = cartan.exterior_d(cartan.one_form(R2, [f, 0]))
    assert d.components == reference.components


def _section_from_multivector(alg, mv):
    return AlgebroidSection(alg, mv.degree, dict(mv.components))


def test_gerstenhaber_matches_multivector_bracket():
    rng = random.Random(71)
    matched = 0
    for _ in range(60):
        chart = rng.choice((R2, R3))
        alg = tangent_algebroid(chart)
        p = rng.randint(0, min(3, chart.dim))
        q = rng.randint(0, min(3, chart.dim))
        a = random_multivector(rng, chart, p)
        b = random_multivector(rng, chart, q)
        ours = gerstenhaber_bracket(
            alg, _section_from_multivector(alg, a), _section_from_multivector(alg, b)
        )
        reference = cartan.schouten(a, b)
        assert ours.components == reference.components
        # the oracle shares no recursion with either side
        assert ours.components == cartan.schouten_direct(a, b).components
        matched += 1
    assert matched == 60


def test_leibniz_sign_is_read_at_call_time(monkeypatch):
    # both brackets run the one recursion; a flipped sign must reach each
    P = MultiVector(R3, 2, {(0, 1): "x3^2", (0, 2): "x1*x2"})
    Q = so3_bivector()
    alg = tangent_algebroid(R3)
    S, T = _section_from_multivector(alg, P), _section_from_multivector(alg, Q)
    before = cartan.schouten(P, Q), gerstenhaber_bracket(alg, S, T)
    assert before[0].components == before[1].components
    original = cartan._leibniz_sign
    monkeypatch.setattr(cartan, "_leibniz_sign", lambda p, q: -original(p, q))
    after = cartan.schouten(P, Q), gerstenhaber_bracket(alg, S, T)
    assert after[0] != before[0]
    assert after[1] != before[1]
    assert after[0].components == after[1].components


def test_gerstenhaber_point_algebra():
    alg = so3_point_algebroid()
    e1, e2, e3 = (unit_section(alg, i) for i in range(3))
    assert gerstenhaber_bracket(alg, e1, e2) == e3
    wedge12 = cartan.wedge(e1, e2)
    bracket = gerstenhaber_bracket(alg, wedge12, e3)
    # [e1^e2, e3] = e1^[e2,e3] + [e1,e3]^e2 = e1^e1 - e2^e2 = 0
    assert bracket.is_zero()
    # graded antisymmetry on a (2,2) pair: [P,Q] = -(-1)^{(p-1)(q-1)}[Q,P]
    wedge23 = cartan.wedge(e2, e3)
    lhs = gerstenhaber_bracket(alg, wedge12, wedge23)
    rhs = gerstenhaber_bracket(alg, wedge23, wedge12)
    assert (lhs + rhs).is_zero()


def test_cotangent_algebroid_structure():
    alg = cotangent_algebroid(so3_bivector())
    assert alg.basis == ("dx1", "dx2", "dx3")
    assert str(alg.anchor[0][1]) == "x3"
    row = alg.c(0, 1)
    assert [str(p) for p in row] == ["0", "0", "1"]
    # anchor columns are the sharp images of the coordinate differentials
    sharp = pn.sharp(so3_bivector(), cartan.coordinate_form(R3, 0))
    assert tuple(sharp.component((a,)) for a in range(3)) == alg.anchor[0]


def test_cotangent_refuses_non_poisson():
    not_poisson = MultiVector(R3, 2, {(0, 1): "x1", (1, 2): 1, (0, 2): "x2"})
    assert not pn.is_poisson(not_poisson).ok
    with pytest.raises(PreconditionError):
        cotangent_algebroid(not_poisson)


def test_cotangent_differential_is_sharp_on_functions():
    pi = so3_bivector()
    alg = cotangent_algebroid(pi)
    f = R3.parse("x1*x3 + x2^2")
    section = AlgebroidSection(alg, 0, {(): f})
    d = algebroid_differential(alg, section)
    df = cartan.one_form(R3, [f.partial("x1"), f.partial("x2"), f.partial("x3")])
    # (d f)(dx^i) = rho(dx^i)(f) = pi(dx^i, df) = -sharp(df)^i
    image = -pn.sharp(pi, df)
    assert d.components == image.components


def test_deformed_tangent_algebroid():
    conformal = pn.TensorOneOne(R2, [["1 + x1", 0], [0, "1 + x1"]])
    alg = tangent_deformed_algebroid(conformal)
    assert algebroid_validate(alg).ok
    row = alg.c(0, 1)
    assert [str(p) for p in row] == ["0", "1"]
    assert str(alg.anchor[0][0]) == "x1 + 1"


def test_deformed_tangent_differential_matches_d_n():
    tensor = pn.TensorOneOne(R2, [["1 + x1*x2", 0], [0, "1 + x1*x2"]])
    assert all(v.is_zero() for v in pn.nijenhuis_torsion(tensor).values())
    alg = tangent_deformed_algebroid(tensor)
    f = R2.parse("x1^2 + x2")
    section = AlgebroidSection(alg, 0, {(): f})
    ours = algebroid_differential(alg, section)
    reference = pn.d_n(tensor, cartan.DiffForm(R2, 0, {(): f}))
    assert ours.components == reference.components
    one_form = AlgebroidSection(alg, 1, {(0,): "x2"})
    ours = algebroid_differential(alg, one_form)
    reference = pn.d_n(tensor, cartan.DiffForm(R2, 1, {(0,): "x2"}))
    assert ours.components == reference.components


def test_deformed_tangent_refuses_torsion():
    # the refusal labels torsion as is_pn_pair does: torsion(i,j), 1-based
    cases = [
        ([["x2", 0], [0, 0]], "x2*d_x1"),
        ([["x2", "0"], ["0", "x1"]], "(-x1 + x2)*d_x1 + (-x1 + x2)*d_x2"),
    ]
    for entries, torsion in cases:
        tensor = pn.TensorOneOne(R2, entries)
        with pytest.raises(PreconditionError) as err:
            tangent_deformed_algebroid(tensor)
        assert err.value.residuals == {"torsion(1,2)": torsion}
        assert pn.is_pn_pair(MultiVector(R2, 2, {}), tensor).residuals() == {
            "torsion(1,2)": torsion
        }


def test_dual_linear_poisson_point_examples():
    alg = solvable_rank2()
    dual = dual_linear_poisson(alg)
    assert dual.chart.coords == ("xi_e1", "xi_e2")
    assert str(dual.component((0, 1))) == "xi_e2"
    rot = dual_linear_poisson(so3_point_algebroid())
    expected = so3_bivector()
    renamed = {
        key: poly.substitute(R3.coords, {"xi_e1": cartan.Polynomial.variable(R3.coords, "x1"),
                                         "xi_e2": cartan.Polynomial.variable(R3.coords, "x2"),
                                         "xi_e3": cartan.Polynomial.variable(R3.coords, "x3")})
        for key, poly in rot.components.items()
    }
    assert renamed == expected.components
    assert pn.is_poisson(rot).ok


def test_dual_linear_poisson_anchor_block():
    line = Chart(("x1",))
    alg = AlgebroidData(line, 2, ("e1", "e2"), (("1",), ("0",)), {(0, 1): (0, 1)})
    dual = dual_linear_poisson(alg)
    # {xi_1, x} = 1 means stored component (x, xi_1) = -1
    assert dual.component((0, 1)).constant_value() == -1
    assert dual.component((0, 2)).is_zero()
    assert str(dual.component((1, 2))) == "xi_e2"


def test_dual_linear_poisson_additivity():
    tensor = pn.TensorOneOne(R2, [["1 + x1", 0], [0, "1 + x1"]])
    first = tangent_algebroid(R2)
    second = tangent_deformed_algebroid(tensor)
    total = dual_linear_poisson(algebroid_sum(first, second))
    split = dual_linear_poisson(first) + dual_linear_poisson(second)
    assert total == split


def test_linear_poisson_round_trip():
    alg = cotangent_algebroid(so3_bivector())
    dual = dual_linear_poisson(alg)
    back = linear_poisson_to_algebroid(dual, R3, alg.basis)
    assert back == alg


def test_linear_poisson_rejects_nonlinear():
    chart = Chart(("x1", "xi_1"))
    quadratic = MultiVector(chart, 2, {(0, 1): "xi_1^2"})
    with pytest.raises(PreconditionError):
        linear_poisson_to_algebroid(quadratic, Chart(("x1",)), ("e1",))


def test_compat_tangent_vs_deformed():
    tensor = pn.TensorOneOne(R2, [["1 + x1", 0], [0, "1 + x1"]])
    first = tangent_algebroid(R2)
    second = tangent_deformed_algebroid(tensor)
    verdict = compat_check(first, second)
    assert verdict.ok
    assert verdict.certificate_b and verdict.certificate_c
    assert verdict.residuals() == {}
    assert algebroid_validate(algebroid_sum(first, second)).ok
    for lam in (-1, 2, 5):
        assert algebroid_validate(algebroid_pencil(first, second, lam)).ok


def test_compat_with_zero_structure():
    zero = AlgebroidData(R3, 3, ("d_x1", "d_x2", "d_x3"), (("0", "0", "0"),) * 3, {})
    assert compat_check(tangent_algebroid(R3), zero).ok
    zero_dual_frame = AlgebroidData(R3, 3, ("dx1", "dx2", "dx3"), (("0", "0", "0"),) * 3, {})
    assert compat_check(zero_dual_frame, cotangent_algebroid(so3_bivector())).ok


def test_compat_hierarchy_cotangent_structures():
    pi = MultiVector(R2, 2, {(0, 1): 1})
    tensor = pn.TensorOneOne(R2, [["1 + x1", 0], [0, "1 + x1"]])
    ladder = pn.hierarchy(pi, tensor, 2)
    algs = [cotangent_algebroid(b) for b in ladder.bivectors]
    for i in range(len(algs)):
        for j in range(i + 1, len(algs)):
            assert compat_check(algs[i], algs[j]).ok


def test_compat_detects_incompatible_pair():
    heis = AlgebroidData(POINT, 3, ("e1", "e2", "e3"), ((), (), ()), {(0, 1): (0, 0, 1)})
    solv = AlgebroidData(POINT, 3, ("e1", "e2", "e3"), ((), (), ()), {(1, 2): (0, 1, 0)})
    assert algebroid_validate(heis).ok and algebroid_validate(solv).ok
    verdict = compat_check(heis, solv)
    assert not verdict.ok
    assert not verdict.certificate_b and not verdict.certificate_c
    assert "mixed_jacobi(1,2,3)" in verdict.residuals()


def test_compat_requires_shared_frame():
    with pytest.raises(InputError):
        compat_check(tangent_algebroid(R2), tangent_algebroid(R3))


def _anchored_line_algebroids():
    # rho(e1) = d/dx1 and rho(e2) = x1 d/dx1 on a line: [rho e1, rho e2] =
    # rho(e1), so the table [e1, e2] = e1 is an algebroid and the empty
    # table fails the anchor axiom
    anchor = (("1",), ("x1",))
    valid = AlgebroidData(R1, 2, ("e1", "e2"), anchor, {(0, 1): (1, 0)})
    invalid = AlgebroidData(R1, 2, ("e1", "e2"), anchor, {})
    return valid, invalid


@pytest.mark.parametrize("which", ["first", "second"])
def test_compat_refuses_a_half_that_fails_its_own_axioms(which):
    # the certificates read only cross terms, which is sound only when each
    # half's own Jacobi and anchor residuals vanish
    valid, invalid = _anchored_line_algebroids()
    assert algebroid_validate(valid).ok
    pair = (invalid, valid) if which == "first" else (valid, invalid)
    with pytest.raises(PreconditionError, match=f"^{which} algebroid") as err:
        compat_check(*pair)
    assert err.value.residuals == algebroid_validate(invalid).residuals()


def _hand_expanded_cross_terms(first, second):
    """Mixed Jacobi, mixed anchor and d1 d2 + d2 d1, written out term by term.

    The reference for the sum-based certificates of :func:`compat_check`:
    each cross term is formed in the frame of the half whose table it reads.
    """

    def view(alg, section):
        return AlgebroidSection(alg, section.degree, section.components)

    rank = first.rank
    units1 = [unit_section(first, a) for a in range(rank)]
    units2 = [unit_section(second, a) for a in range(rank)]
    out = {}
    for i, j, k in combinations(range(rank), 3):
        total = AlgebroidSection.zero(first, 1)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            b1 = section_bracket(first, units1[a], units1[b])
            b2 = section_bracket(second, units2[a], units2[b])
            total = total + view(first, section_bracket(second, view(second, b1), units2[c]))
            total = total + section_bracket(first, view(first, b2), units1[c])
        out["mixed_jacobi(%d,%d,%d)" % (i + 1, j + 1, k + 1)] = total
    for i, j in combinations(range(rank), 2):
        b1 = section_bracket(first, units1[i], units1[j])
        b2 = section_bracket(second, units2[i], units2[j])
        lhs = anchor_field_of(second, view(second, b1)) + anchor_field_of(first, view(first, b2))
        rhs = cartan.vf_bracket(first.anchor_field(i), second.anchor_field(j))
        rhs = rhs + cartan.vf_bracket(second.anchor_field(i), first.anchor_field(j))
        out["mixed_anchor(%d,%d)" % (i + 1, j + 1)] = lhs - rhs

    def generators(alg, units):
        return [AlgebroidSection(alg, 0, {(): alg.base.var(x)}) for x in alg.base.coords] + units

    labels = list(first.base.coords) + ["eps_%d" % (i + 1) for i in range(rank)]
    for label, g1, g2 in zip(labels, generators(first, units1), generators(second, units2)):
        d1 = algebroid_differential(first, g1)
        d2 = algebroid_differential(second, g2)
        term = view(first, algebroid_differential(second, view(second, d1)))
        out["anticommutator(%s)" % label] = term + algebroid_differential(first, view(first, d2))
    return {label: str(value) for label, value in out.items()}


def test_compat_sum_certificates_match_the_hand_expansion():
    fixtures = suite._compat_fixtures()
    assert len(fixtures) == 12
    for label, first, second, expected in fixtures:
        verdict = compat_check(first, second)
        got = {name: str(value) for name, value in verdict.families() if name != "dual_bracket"}
        want = _hand_expanded_cross_terms(first, second)
        assert list(got) == list(want), label
        assert got == want, label
        assert verdict.ok is expected, label


def test_bialgebroid_tangent_cotangent():
    pi = so3_bivector()
    verdict = bialgebroid_check(tangent_algebroid(R3), cotangent_algebroid(pi))
    assert verdict.ok
    swapped = bialgebroid_check(cotangent_algebroid(pi), tangent_algebroid(R3))
    assert swapped.ok


def test_bialgebroid_detects_failure():
    line = Chart(("x1",))
    primary = tangent_algebroid(line)
    skew = AlgebroidData(line, 1, ("s1",), (("x1",),), {})
    verdict = bialgebroid_check(primary, skew)
    assert not verdict.ok
    assert any(label.startswith("derivation") for label in verdict.residuals())


def test_pn_bialgebroid_rotation_pair():
    verdict = pn_bialgebroid_check(so3_bivector(), pn.TensorOneOne.identity(R3))
    assert verdict.bialgebroid.ok
    assert verdict.lift_pair.ok
    assert verdict.recovery_residuals == {}
    assert all(v.ok for v in verdict.hierarchy_compat.values())
    assert verdict.ok


def test_pn_bialgebroid_levels_are_tensor_powers_of_the_lift(monkeypatch):
    # level k is built from N^k applied to the lift; power() is the
    # independent route. The second is_pn_pair call is on (lift, lifted N).
    from pncalc import algebroid

    pairs, levels = [], []
    is_pn_pair, to_algebroid = pn.is_pn_pair, algebroid.linear_poisson_to_algebroid

    def pair_spy(pi, tensor):
        pairs.append((pi, tensor))
        return is_pn_pair(pi, tensor)

    def level_spy(biv, base, basis):
        levels.append(biv)
        return to_algebroid(biv, base, basis)

    monkeypatch.setattr(pn, "is_pn_pair", pair_spy)
    monkeypatch.setattr(algebroid, "linear_poisson_to_algebroid", level_spy)
    pi = MultiVector(R2, 2, {(0, 1): 1})
    tensor = pn.TensorOneOne(R2, [["1 + x1", 0], [0, "1 + x1"]])
    assert pn_bialgebroid_check(pi, tensor, hierarchy_orders=2).ok
    lift, lifted = pairs[1]
    assert levels == [pn.n_bivector(lift, lifted.power(k)) for k in range(3)]


def test_pn_bialgebroid_conformal_pair():
    pi = MultiVector(R2, 2, {(0, 1): 1})
    tensor = pn.TensorOneOne(R2, [["1 + x1", 0], [0, "1 + x1"]])
    verdict = pn_bialgebroid_check(pi, tensor)
    assert verdict.ok
    assert len(verdict.hierarchy_compat) == 3


def test_pn_bialgebroid_recovery_residuals_are_labelled_values(monkeypatch):
    # a lift that fails to restrict to the input pair: the recovery family
    # keeps values, labelled and rendered with every other family
    from pncalc import algebroid

    build = algebroid._linear_poisson

    def perturbed(alg, fiber_names=None):
        lift = build(alg, fiber_names)
        return lift + MultiVector(lift.chart, 2, {(0, 3): 1, (2, 3): "x1"})

    monkeypatch.setattr(algebroid, "_linear_poisson", perturbed)
    pi = MultiVector(R2, 2, {(0, 1): 1})
    verdict = pn_bialgebroid_check(pi, pn.TensorOneOne.scalar(R2, "1 + x1"))
    assert list(verdict.recovery_residuals) == ["bivector", "fiber_block(1,2)"]
    assert not any(isinstance(v, str) for v in verdict.recovery_residuals.values())
    recovery = {k: v for k, v in verdict.residuals().items() if k.startswith("recovery ")}
    assert recovery == {"recovery bivector": "d_x1^d_x2", "recovery fiber_block(1,2)": "x1"}


def test_pn_bialgebroid_level_zero_recovers_cotangent():
    pi = so3_bivector()
    dual = cotangent_algebroid(pi)
    lift = dual_linear_poisson(dual, tuple("v_" + c for c in R3.coords))
    back = linear_poisson_to_algebroid(lift, R3, dual.basis)
    assert back == dual


def test_pn_bialgebroid_refuses_incompatible():
    pi = MultiVector(R2, 2, {(0, 1): 1})
    stretch = pn.TensorOneOne(R2, [[2, 0], [0, 3]])
    with pytest.raises(PreconditionError):
        pn_bialgebroid_check(pi, stretch)


def test_dual_chart_name_collision():
    line = Chart(("xi_e1",))
    alg = AlgebroidData(line, 1, ("e1",), (("0",),), {})
    with pytest.raises(InputError):
        build_dual_chart(alg)
    assert build_dual_chart(alg, ("p1",)).coords == ("xi_e1", "p1")
