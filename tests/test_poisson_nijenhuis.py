import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pncalc import cartan
from pncalc.cartan import (
    Chart,
    DiffForm,
    MultiVector,
    coordinate_form,
    coordinate_vector,
    exterior_d,
    lie_derivative,
    schouten_direct,
    vf_bracket,
    wedge,
)
from pncalc.corpus import (
    R2,
    R3,
    R4,
    pn_pairs,
    random_form,
    random_multivector,
    random_polynomial,
    so3_bivector,
)
from pncalc.errors import InputError, PreconditionError
from pncalc.linalg import mat_is_zero
from pncalc.polyalg import Polynomial, _sum_of_products
from pncalc.poisson_nijenhuis import (
    TensorOneOne,
    _sharp_product,
    bivector_eval,
    complementary_build,
    concomitant_map,
    d_n,
    deformed_bracket,
    hierarchy,
    holomorphic_check,
    i_n,
    is_pn_pair,
    is_poisson,
    koszul_bracket,
    magri_morosi,
    n_bivector,
    nijenhuis_torsion,
    sharp,
    sharp_matrix,
)
from oracles import (
    from_function,
    poisson_ok,
    power,
    relation_ok,
    sharp_compat_residual,
    torsion_apply,
    torsion_ok,
)
from products import spy_products
from strategies import polynomials


def unit_bivector(chart=R2):
    return MultiVector(chart, 2, {(0, 1): 1})


def _product(A, B):
    """Dense matrix product with every term formed, written out as an oracle."""
    return [
        [
            sum((A[i][t] * B[t][j] for t in range(1, len(B))), A[i][0] * B[0][j])
            for j in range(len(B[0]))
        ]
        for i in range(len(A))
    ]


def _transpose(A):
    return [list(col) for col in zip(*A)]


def test_sharp_examples():
    pi = unit_bivector()
    dx1 = coordinate_form(R2, 0)
    assert sharp(pi, dx1) == coordinate_vector(R2, 1)
    assert sharp(MultiVector.zero(R2, 2), dx1).is_zero()
    pi3 = MultiVector(R3, 2, {(0, 1): 1})
    assert sharp(pi3, coordinate_form(R3, 2)).is_zero()


def test_sharp_matrix_is_antisymmetric_and_consistent():
    rng = random.Random(5)
    for _ in range(6):
        pi = random_multivector(rng, R3, 2)
        S = sharp_matrix(pi)
        for i in range(3):
            for j in range(3):
                assert (S[i][j] + S[j][i]).is_zero()
        # pi is read back off its sharp matrix: pi^{ab} = S[b][a]
        back = [((a, b), S[b][a]) for a in range(3) for b in range(a + 1, 3)]
        assert MultiVector.from_terms(R3, 2, back) == pi
        alpha = random_form(rng, R3, 1)
        lhs = sharp(pi, alpha)
        comps = [alpha.component((a,)) for a in range(3)]
        for i in range(3):
            want = sum((S[i][j] * comps[j] for j in range(3)), R3.zero())
            assert lhs.component((i,)) == want


def test_sharp_matrix_reads_the_stored_components():
    # the table component((j, i)) builds entry by entry, zero components included
    rng = random.Random(9)
    cases = [MultiVector.zero(R3, 2), unit_bivector(), MultiVector(R4, 2, {(1, 3): 2})]
    cases += [random_multivector(rng, chart, 2) for chart in (R2, R3, R4) for _ in range(3)]
    for pi in cases:
        n = pi.chart.dim
        want = tuple(tuple(pi.component((j, i)) for j in range(n)) for i in range(n))
        assert sharp_matrix(pi) == want


def test_is_poisson_examples():
    const = MultiVector(R4, 2, {(0, 1): 3, (2, 3): -2})
    assert is_poisson(const).ok
    assert is_poisson(so3_bivector()).ok
    pi = MultiVector.from_terms(
        R3, 2, [((0, 1), R3.var("x1")), ((1, 2), 1), ((2, 0), 1)]
    )
    verdict = is_poisson(pi)
    assert not verdict.ok
    # hand-expanded twice, through the Leibniz recursion and the index
    # formula, both give 2*d_1^d_2^d_3
    assert verdict.residual == MultiVector(R3, 3, {(0, 1, 2): 2})
    assert verdict.residual == schouten_direct(pi, pi)
    assert "[pi,pi]" in verdict.residuals()


def test_koszul_examples():
    pi = unit_bivector()
    dx1, dx2 = coordinate_form(R2, 0), coordinate_form(R2, 1)
    assert koszul_bracket(pi, dx1, dx2).is_zero()
    # [df,dg]_pi = d{f,g}: f = x1, g = x2 for the so(3) structure
    pi3 = so3_bivector()
    got = koszul_bracket(pi3, coordinate_form(R3, 0), coordinate_form(R3, 1))
    assert got == coordinate_form(R3, 2)
    assert bivector_eval(pi3, coordinate_form(R3, 0), coordinate_form(R3, 1)) == R3.var("x3")
    zero = MultiVector.zero(R3, 2)
    rng = random.Random(3)
    a, b = random_form(rng, R3, 1), random_form(rng, R3, 1)
    assert koszul_bracket(zero, a, b).is_zero()


def test_koszul_antisymmetry_and_exact_form_identity():
    rng = random.Random(9)
    pi = so3_bivector()
    for _ in range(6):
        a = random_form(rng, R3, 1)
        b = random_form(rng, R3, 1)
        assert koszul_bracket(pi, a, b) == -koszul_bracket(pi, b, a)
        f = random_polynomial(rng, R3, max_degree=2)
        g = random_polynomial(rng, R3, max_degree=2)
        df, dg = (
            exterior_d(from_function(DiffForm, R3, h)) for h in (f, g)
        )
        fg = bivector_eval(pi, df, dg)
        assert koszul_bracket(pi, df, dg) == exterior_d(
            from_function(DiffForm, R3, fg)
        )


# Components of at most two terms, numerators up to 3 over 1, 2 or 3; each
# component of the bivector has a term.
_KOSZUL_POLYS = {
    c: [polynomials(c.coords, numerators=3, denominators=(1, 2, 3), terms=t) for t in (2, (1, 2))]
    for c in (R2, R3, R4)
}


@st.composite
def _koszul_cases(draw):
    """A bivector and two 1-forms on R^2..R^4, the forms not closed and, from
    R^3 on, where a bivector can fail to be Poisson, the bivector not Poisson."""
    chart = draw(st.sampled_from(list(_KOSZUL_POLYS)))
    n = chart.dim
    polys, pi_polys = _KOSZUL_POLYS[chart]
    x2_dx1 = DiffForm(chart, 1, {(0,): chart.var("x2")})  # d(x2 dx1) = -dx1^dx2
    forms = []
    for _ in range(2):
        alpha = DiffForm(chart, 1, {(a,): draw(polys) for a in range(n)})
        forms.append(alpha + x2_dx1 if exterior_d(alpha).is_zero() else alpha)
    pi = MultiVector(chart, 2, {key: draw(pi_polys) for key in combinations(range(n), 2)})
    if n > 2:
        assume(not is_poisson(pi).ok)
    return pi, forms[0], forms[1]


@given(_koszul_cases())
@settings(max_examples=50, deadline=None)
def test_koszul_matches_the_lie_derivative_definition(case):
    # the definition, written out: L_{pisharp a} b - L_{pisharp b} a - d(pi(a, b))
    pi, a, b = case
    want = (
        lie_derivative(sharp(pi, a), b)
        - lie_derivative(sharp(pi, b), a)
        - exterior_d(from_function(DiffForm, pi.chart, bivector_eval(pi, a, b)))
    )
    assert koszul_bracket(pi, a, b) == want


def test_koszul_refuses_forms_that_are_not_one_forms():
    pi, closed = so3_bivector(), coordinate_form(R3, 0)
    two_form = DiffForm(R3, 2, {(0, 1): 1})  # closed, so no contraction reads it
    with pytest.raises(InputError):
        koszul_bracket(pi, closed, two_form)
    with pytest.raises(InputError):
        koszul_bracket(pi, two_form, closed)
    with pytest.raises(InputError):
        koszul_bracket(pi, closed, coordinate_form(R2, 0))


def test_koszul_jacobi_for_poisson():
    pi = so3_bivector()
    a = coordinate_form(R3, 0)
    b = R3.var("x3") * coordinate_form(R3, 1)
    c = coordinate_form(R3, 2)
    total = (
        koszul_bracket(pi, koszul_bracket(pi, a, b), c)
        + koszul_bracket(pi, koszul_bracket(pi, b, c), a)
        + koszul_bracket(pi, koszul_bracket(pi, c, a), b)
    )
    assert total.is_zero()


def test_torsion_examples():
    const = TensorOneOne(R2, [[1, 2], [3, 4]])
    assert all(v.is_zero() for v in nijenhuis_torsion(const).values())
    lam = 1 + R2.var("x1") * R2.var("x2")
    conformal = TensorOneOne.scalar(R2, lam)
    assert all(v.is_zero() for v in nijenhuis_torsion(conformal).values())
    shear = TensorOneOne(R2, [[R2.var("x2"), 0], [0, 0]])
    tau = nijenhuis_torsion(shear)
    assert tau[(0, 1)] == R2.var("x2") * coordinate_vector(R2, 0)


def test_torsion_is_tensorial():
    rng = random.Random(15)
    N = TensorOneOne(
        R2, [[random_polynomial(rng, R2, 2) for _ in range(2)] for _ in range(2)]
    )
    for _ in range(4):
        X = random_multivector(rng, R2, 1)
        Y = random_multivector(rng, R2, 1)
        f = random_polynomial(rng, R2, 2)
        assert torsion_apply(N, f * X, Y) == f * torsion_apply(N, X, Y)
        assert torsion_apply(N, X, Y) == -torsion_apply(N, Y, X)


def test_deformed_bracket_examples():
    rng = random.Random(21)
    ident = TensorOneOne.identity(R2)
    zero = TensorOneOne.scalar(R2, 0)
    for _ in range(4):
        X = random_multivector(rng, R2, 1)
        Y = random_multivector(rng, R2, 1)
        assert deformed_bracket(ident, X, Y) == vf_bracket(X, Y)
        assert deformed_bracket(zero, X, Y).is_zero()
    N = TensorOneOne.diagonal(R2, [R2.var("x2"), R2.zero()])
    got = deformed_bracket(N, coordinate_vector(R2, 0), coordinate_vector(R2, 1))
    assert got == -coordinate_vector(R2, 0)


def test_deformed_bracket_leibniz_with_anchor():
    rng = random.Random(27)
    N = TensorOneOne(
        R2, [[random_polynomial(rng, R2, 2) for _ in range(2)] for _ in range(2)]
    )
    for _ in range(4):
        X = random_multivector(rng, R2, 1)
        Y = random_multivector(rng, R2, 1)
        f = random_polynomial(rng, R2, 2)
        NX = N.apply(X)
        anchor_term = sum(
            (
                xc * f.partial(R2.coords[a])
                for (a,), xc in NX.components.items()
            ),
            R2.zero(),
        )
        assert deformed_bracket(N, X, f * Y) == f * deformed_bracket(
            N, X, Y
        ) + anchor_term * Y


def test_i_n_examples():
    rng = random.Random(33)
    ident = TensorOneOne.identity(R3)
    for k in (1, 2, 3):
        omega = random_form(rng, R3, k)
        assert i_n(ident, omega) == k * omega
        assert i_n(TensorOneOne.scalar(R3, 0), omega).is_zero()
    N = TensorOneOne.diagonal(R2, [R2.var("x1"), R2.var("x2")])
    dx12 = DiffForm(R2, 2, {(0, 1): 1})
    assert i_n(N, dx12) == (R2.var("x1") + R2.var("x2")) * dx12
    assert i_n(N, from_function(DiffForm, R2, R2.var("x1"))).is_zero()


def test_i_n_is_a_derivation():
    rng = random.Random(39)
    N = TensorOneOne(
        R3,
        [[random_polynomial(rng, R3, 2) for _ in range(3)] for _ in range(3)],
    )
    for _ in range(4):
        a = random_form(rng, R3, 1)
        b = random_form(rng, R3, rng.randint(1, 2))
        assert i_n(N, wedge(a, b)) == wedge(i_n(N, a), b) + wedge(a, i_n(N, b))


def test_d_n_examples():
    f = from_function(DiffForm, R2, R2.var("x1") * R2.var("x2"))
    ident = TensorOneOne.identity(R2)
    assert d_n(ident, f) == exterior_d(f)
    c = TensorOneOne.scalar(R2, R2.constant(5))
    assert d_n(c, f) == 5 * exterior_d(f)
    lam = TensorOneOne.scalar(R2, 1 + R2.var("x1") * R2.var("x2"))
    x1 = from_function(DiffForm, R2, R2.var("x1"))
    assert d_n(lam, d_n(lam, x1)).is_zero()


def test_d_n_squares_to_zero_for_torsion_free_n():
    rng = random.Random(45)
    lam = TensorOneOne.scalar(R2, 2 - R2.var("x2"))
    assert all(v.is_zero() for v in nijenhuis_torsion(lam).values())
    for k in (0, 1):
        omega = random_form(rng, R2, k)
        assert d_n(lam, d_n(lam, omega)).is_zero()


def test_magri_morosi_examples():
    rng = random.Random(51)
    pi = so3_bivector()
    ident = TensorOneOne.identity(R3)
    for _ in range(3):
        a = random_form(rng, R3, 1)
        b = random_form(rng, R3, 1)
        assert magri_morosi(pi, ident, a, b).is_zero()
    const_pi = MultiVector(R4, 2, {(0, 1): 1, (2, 3): 1})
    const_n = TensorOneOne.diagonal(R4, [2, 2, 3, 3])
    assert mat_is_zero(sharp_compat_residual(const_pi, const_n))
    for i in (0, 2):
        assert magri_morosi(
            const_pi, const_n, coordinate_form(R4, i), coordinate_form(R4, i + 1)
        ).is_zero()
    conformal = TensorOneOne.scalar(R2, 1 + R2.var("x1"))
    got = magri_morosi(
        unit_bivector(), conformal, coordinate_form(R2, 0), coordinate_form(R2, 1)
    )
    # hand expansion of all four Koszul terms gives dx1 - (dx1 + 0 - 0) = 0
    assert got.is_zero()


def test_magri_morosi_is_function_linear():
    pi = unit_bivector()
    N = TensorOneOne.scalar(R2, R2.var("x2"))
    assert mat_is_zero(sharp_compat_residual(pi, N))
    rng = random.Random(57)
    for _ in range(4):
        a = random_form(rng, R2, 1)
        b = random_form(rng, R2, 1)
        f = random_polynomial(rng, R2, 2)
        assert magri_morosi(pi, N, f * a, b) == f * magri_morosi(pi, N, a, b)
        assert magri_morosi(pi, N, a, b) == -magri_morosi(pi, N, b, a)


def test_magri_morosi_refuses_incompatible_sharp():
    pi = unit_bivector()
    N = TensorOneOne.diagonal(R2, [2, 3])
    with pytest.raises(PreconditionError):
        magri_morosi(pi, N, coordinate_form(R2, 0), coordinate_form(R2, 1))


def test_is_pn_pair_examples():
    assert is_pn_pair(so3_bivector(), TensorOneOne.identity(R3)).ok
    verdict = is_pn_pair(unit_bivector(), TensorOneOne.diagonal(R2, [2, 3]))
    assert not verdict.ok
    assert not verdict.sharp_ok
    assert poisson_ok(verdict) and torsion_ok(verdict)
    assert verdict.concomitant_residual is None
    assert "concomitant" in verdict.residuals()
    pair = is_pn_pair(unit_bivector(), TensorOneOne.scalar(R2, 1 + R2.var("x1")))
    assert pair.ok
    assert pair.residuals() == {}


def test_pn_implies_square_sharp_compat():
    pi = unit_bivector()
    N = TensorOneOne.scalar(R2, 1 + R2.var("x1"))
    assert is_pn_pair(pi, N).ok
    S = sharp_matrix(pi)
    N2 = power(N, 2).entries
    # N^2.pisharp = pisharp.(N^2)*, with both products written out
    left, right = _product(N2, S), _product(S, _transpose(N2))
    assert all((a - b).is_zero() for ra, rb in zip(left, right) for a, b in zip(ra, rb))
    assert mat_is_zero(sharp_compat_residual(pi, power(N, 2)))


def test_hierarchy_examples():
    pi = so3_bivector()
    res = hierarchy(pi, TensorOneOne.identity(R3), 2)
    assert res.ok
    assert all(b == pi for b in res.bivectors)
    res = hierarchy(pi, TensorOneOne.scalar(R3, R3.constant(3)), 2)
    assert res.ok
    assert res.bivectors[2] == 9 * pi
    pi2 = unit_bivector()
    N = TensorOneOne.scalar(R2, 1 + R2.var("x1"))
    res = hierarchy(pi2, N, 3)
    assert res.ok
    f = 1 + R2.var("x1")
    for k in range(4):
        assert res.bivectors[k] == f**k * pi2
    assert len(res.bracket_residuals) == 10


def test_hierarchy_refuses_non_pn():
    with pytest.raises(PreconditionError) as err:
        hierarchy(unit_bivector(), TensorOneOne.diagonal(R2, [2, 3]), 2)
    assert err.value.residuals


def test_hierarchy_matches_tensor_powers():
    # pi_k is built by applying N once per order; N^k from the power oracle
    # is the independent route: pi_k = N^k pi.
    for _, pi, N in pn_pairs():
        res = hierarchy(pi, N, 3)
        for k, biv in enumerate(res.bivectors):
            assert biv == n_bivector(pi, power(N, k))


def test_hierarchy_refuses_bool_order():
    pi, N = unit_bivector(), TensorOneOne.identity(R2)
    with pytest.raises(InputError):
        hierarchy(pi, N, True)


def test_complementary_examples():
    pi = unit_bivector()
    res = complementary_build(pi, DiffForm.zero(R2, 2))
    assert res.ok and res.tensor.is_zero()
    res = complementary_build(pi, DiffForm(R2, 2, {(0, 1): 1}))
    assert res.ok
    assert res.tensor == -TensorOneOne.identity(R2)
    omega = DiffForm(R2, 2, {(0, 1): 1 + R2.var("x1")})
    res = complementary_build(pi, omega)
    assert res.ok
    assert res.tensor == -TensorOneOne.scalar(R2, 1 + R2.var("x1"))


def test_complementary_refusals():
    bad_pi = MultiVector.from_terms(
        R3, 2, [((0, 1), R3.var("x1")), ((1, 2), 1), ((2, 0), 1)]
    )
    with pytest.raises(PreconditionError):
        complementary_build(bad_pi, DiffForm.zero(R3, 2))
    pi = MultiVector(R3, 2, {(0, 1): 1})
    omega = DiffForm(R3, 2, {(0, 1): R3.var("x3")})
    with pytest.raises(PreconditionError):
        complementary_build(pi, omega)


def holomorphic_r4():
    """Real and imaginary parts of the constant holomorphic bivector
    dz1^dz2 on C^2 (scaled by 4), with the standard complex structure."""
    pi_r = MultiVector(R4, 2, {(0, 2): 1, (1, 3): -1})
    pi_i = MultiVector(R4, 2, {(1, 2): -1, (0, 3): -1})
    J = TensorOneOne(
        R4,
        [
            [0, -1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 0],
        ],
    )
    return pi_r, pi_i, J


def test_holomorphic_examples():
    pi_r, pi_i, J = holomorphic_r4()
    verdict = holomorphic_check(pi_r, pi_i, J)
    assert verdict.ok
    assert holomorphic_check(
        MultiVector.zero(R4, 2), MultiVector.zero(R4, 2), J
    ).ok
    # same bivector on both slots cannot satisfy the sharp relation
    J2 = TensorOneOne(R2, [[0, -1], [1, 0]])
    bad = holomorphic_check(unit_bivector(), unit_bivector(), J2)
    assert not bad.ok
    assert not relation_ok(bad)
    with pytest.raises(PreconditionError) as err:
        holomorphic_check(
            MultiVector.zero(R2, 2), MultiVector.zero(R2, 2), TensorOneOne.identity(R2)
        )
    # the refusal lists the nonzero entries of J.J + Id, 1-based
    assert err.value.residuals == {"J.J + Id[1][1]": "2", "J.J + Id[2][2]": "2"}


def test_n_bivector_matches_direct_product():
    pi = unit_bivector()
    N = TensorOneOne.scalar(R2, 1 + R2.var("x1"))
    assert n_bivector(pi, N) == (1 + R2.var("x1")) * pi
    with pytest.raises(PreconditionError) as err:
        n_bivector(pi, TensorOneOne.diagonal(R2, [2, 3]))
    # labelled as in is_pn_pair's verdict: nonzero matrix entries, 1-based
    assert err.value.residuals == {"sharp_compat[1][2]": "1", "sharp_compat[2][1]": "1"}


_OTHER_RING = TensorOneOne.identity(Chart(("y1", "y2")))


def test_n_bivector_refuses_tensor_on_another_chart():
    with pytest.raises(InputError):
        n_bivector(MultiVector(R2, 2, {(0, 1): R2.var("x1")}), _OTHER_RING)


def test_sharp_compat_residual_refuses_tensor_on_another_chart():
    with pytest.raises(InputError):
        sharp_compat_residual(MultiVector(R2, 2, {(0, 1): R2.var("x1")}), _OTHER_RING)


def test_deformed_bivector_entry_points_refuse_non_tensors():
    pi = unit_bivector()
    for fn in (n_bivector, sharp_compat_residual, is_pn_pair):
        for bad in (None, [[1, 0], [0, 1]], MultiVector.zero(R2, 1)):
            with pytest.raises(InputError):
                fn(pi, bad)
        with pytest.raises(InputError):
            fn(MultiVector.zero(R2, 1), TensorOneOne.identity(R2))


def test_power_is_a_compose_loop():
    N = TensorOneOne.scalar(R2, 1 + R2.var("x1"))
    assert power(N, 0) == TensorOneOne.identity(R2)
    assert power(N, 1) == N
    assert power(N, 2) == N.compose(N)


def test_tensor_guards():
    with pytest.raises(InputError):
        TensorOneOne(R2, [[1, 2]])
    with pytest.raises(InputError):
        TensorOneOne.identity(R2).apply(MultiVector.zero(R3, 1))
    with pytest.raises(InputError):
        sharp(MultiVector.zero(R2, 1), coordinate_form(R2, 0))


def test_sharp_matches_contraction_definition():
    # pisharp(alpha)^b = sum_a alpha_a pi^{ab}, with pi^{ba} = -pi^{ab}, pi^{aa} = 0,
    # read straight from the stored components.
    rng = random.Random(23)
    for chart in (R2, R3, R4):
        zero = chart.zero()

        def entry(pi, a, b):
            if a == b:
                return zero
            if a < b:
                return pi.components.get((a, b), zero)
            return -pi.components.get((b, a), zero)

        for _ in range(4):
            pi = random_multivector(rng, chart, 2)
            alpha = random_form(rng, chart, 1)
            got = sharp(pi, alpha)
            for b in range(chart.dim):
                want = zero
                for a in range(chart.dim):
                    want = want + alpha.components.get((a,), zero) * entry(pi, a, b)
                assert got.component((b,)) == want


# -- zero-skipping kernels against dense definitions --------------------------

VARS3 = R3.coords
# Mostly zero, as in the tensors and forms of a chart.
_polys = polynomials(VARS3, numerators=3, denominators=(1, 2, 3), terms=2)
_entries = st.one_of(st.just(R3.zero()), st.just(R3.zero()), _polys)


@st.composite
def _sparse_matrices(draw):
    """A 3x3 matrix with mostly zero entries and, often, a zero row and column."""
    zero_row, zero_col = (draw(st.one_of(st.none(), st.integers(0, 2))) for _ in range(2))
    return [
        [R3.zero() if zero_row == i or zero_col == j else draw(_entries) for j in range(3)]
        for i in range(3)
    ]


def _vector(comps):
    return MultiVector(R3, 1, {(i,): c for i, c in enumerate(comps)})


def _form(comps):
    return DiffForm(R3, 1, {(i,): c for i, c in enumerate(comps)})


_triples = st.lists(_entries, min_size=3, max_size=3)


@given(_sparse_matrices(), _triples)
@settings(max_examples=50, deadline=None)
def test_apply_matches_dense_definition(rows, comps):
    # N(X)^i = sum_j N^i_j X^j over every j
    got = TensorOneOne(R3, rows).apply(_vector(comps))
    want = [sum((rows[i][j] * comps[j] for j in range(3)), R3.zero()) for i in range(3)]
    assert got == _vector(want)
    assert all(not v.is_zero() for v in got.components.values())


@given(_sparse_matrices(), _triples)
@settings(max_examples=50, deadline=None)
def test_dual_apply_matches_dense_definition(rows, comps):
    # (N* alpha)_j = sum_i alpha_i N^i_j over every i
    got = TensorOneOne(R3, rows).dual_apply(_form(comps))
    want = [sum((comps[i] * rows[i][j] for i in range(3)), R3.zero()) for j in range(3)]
    assert got == _form(want)
    assert all(not v.is_zero() for v in got.components.values())


@given(_triples, _triples, _triples)
@settings(max_examples=50, deadline=None)
def test_bivector_eval_matches_dense_definition(pi_comps, a, b):
    # pi(alpha, beta) = sum_{i,j} pi^{ij} alpha_i beta_j, pi^{ji} = -pi^{ij}
    pi = MultiVector(R3, 2, dict(zip(((0, 1), (0, 2), (1, 2)), pi_comps)))
    want = R3.zero()
    for i in range(3):
        for j in range(3):
            want = want + pi.component((i, j)) * a[i] * b[j]
    assert bivector_eval(pi, _form(a), _form(b)) == want


@given(_triples, _entries)
@settings(max_examples=50, deadline=None)
def test_apply_vf_matches_dense_definition(comps, f):
    # X(f) = sum_a X^a d f / d x_a over every a
    want = sum(
        (comps[a] * f.partial(name) for a, name in enumerate(VARS3)), R3.zero()
    )
    pairs = cartan._apply_vf(_vector(comps), f)
    assert _sum_of_products(R3.coords, [(1, a, b) for a, b in pairs]) == want


_PI_KEYS = ((0, 1), (0, 2), (1, 2))


@st.composite
def _sharp_pairs(draw):
    """Sparse pi components and N rows on R^3, compatible or not.

    "free" draws N at random, which is rarely compatible with pi. "scalar"
    is N = f Id, compatible with every pi. "planar" is pi = p d1^d2 with
    N = [[f, 0, a], [0, f, b], [0, 0, g]], compatible for all f, a, b, g.
    """
    mode = draw(st.sampled_from(("free", "scalar", "planar")))
    pi_comps = draw(_triples)
    rows = draw(_sparse_matrices())
    z = R3.zero()
    if mode == "scalar":
        f = rows[0][0]
        rows = [[f if i == j else z for j in range(3)] for i in range(3)]
    elif mode == "planar":
        pi_comps = [pi_comps[0], z, z]
        f = rows[0][0]
        rows = [[f, z, rows[0][2]], [z, f, rows[1][2]], [z, z, rows[2][2]]]
    return dict(zip(_PI_KEYS, pi_comps)), rows


@given(_sharp_pairs())
@settings(max_examples=80, deadline=None)
def test_sharp_product_matches_written_out_products(pair):
    comps, rows = pair
    # S[i][j] = pi^{ji}, with pi^{ba} = -pi^{ab}: column j is pisharp(dx^j)
    S = [[R3.zero() for _ in range(3)] for _ in range(3)]
    for (a, b), p in comps.items():
        S[b][a], S[a][b] = p, -p
    pi, N = MultiVector(R3, 2, comps), TensorOneOne(R3, rows)
    NS = _product(rows, S)
    want = [
        [x - y for x, y in zip(rx, ry)]
        for rx, ry in zip(NS, _product(S, _transpose(rows)))
    ]
    assert [list(row) for row in sharp_compat_residual(pi, N)] == want
    if not all(e.is_zero() for row in want for e in row):
        with pytest.raises(PreconditionError):
            n_bivector(pi, N)
        return
    # N pi is the bivector whose sharp matrix is N.S: (N pi)^{ab} = (N.S)[b][a]
    npi = n_bivector(pi, N)
    assert npi == MultiVector(R3, 2, {(a, b): NS[b][a] for a, b in _PI_KEYS})
    assert all(not v.is_zero() for v in npi.components.values())


def _darboux_nijenhuis_dim6():
    # pi = sum d_li ^ d_mi, N = diag(f_i(l_i)) on both l_i and m_i: a product
    # of three Poisson-Nijenhuis planes
    chart = Chart(("l1", "l2", "l3", "m1", "m2", "m3"))
    pi = MultiVector(chart, 2, {(i, 3 + i): 1 for i in range(3)})
    f = [chart.parse(text) for text in ("1 + l1", "2*l2^2 - l2", "l3^2 + 3")]
    return pi, TensorOneOne.diagonal(chart, f + f)


def test_is_pn_pair_multiplies_few_zero_operands(monkeypatch):
    pi, N = _darboux_nijenhuis_dim6()
    counts = {"calls": 0, "zero": 0}

    def record(a, b):
        counts["calls"] += 1
        if isinstance(b, Polynomial) and not (a.terms and b.terms):
            counts["zero"] += 1

    spy_products(monkeypatch, record)
    assert is_pn_pair(pi, N).ok
    # No product has a zero operand: mat_mul's all-zero entries (30 of 36 in
    # the 6x6 product N.pisharp) reuse their zero factor instead of
    # multiplying by it. That one product gives both the sharp-compatibility
    # residual and N pi, where five products were formed before. The torsion
    # and the concomitant are assembled from per-call tables (the gradients of
    # the entries of N, the basis Koszul brackets), where a pair-by-pair
    # evaluation of their definitions formed 234 products in all. The basis
    # Koszul brackets are taken in Cartan form: coordinate forms are closed,
    # so [dx_i, dx_j] is d(pi(dx_i, dx_j)) and forms no sharp and no Lie
    # derivative, where the Lie-derivative form took 105 products in all.
    # The product kernel reads an entry with a factor 1 as the other factor
    # alone, so no product by 1 is formed anywhere: not d(1 + l1)/dl1 in the
    # Lie steps (39 before), not the coordinate-form entries of pi(dx_i, dx_j)
    # (32 before), and not the unit entries of N and of the Darboux sharp
    # matrix in N(X), pisharp(alpha) and N.pisharp (26 before).
    assert counts["zero"] == 0
    assert counts["calls"] == 9


def test_is_pn_pair_differentiates_through_gradients_only(monkeypatch):
    # every derivative loop of the four residual families reads one gradient
    # per polynomial; none differentiates coordinate by coordinate
    pi, N = _darboux_nijenhuis_dim6()
    calls = []
    original = Polynomial.partial

    def counting(self, name):
        calls.append(name)
        return original(self, name)

    monkeypatch.setattr(Polynomial, "partial", counting)
    assert is_pn_pair(pi, N).ok
    assert calls == []


def _count_gradients(monkeypatch):
    calls = []
    original = Polynomial.gradient

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Polynomial, "gradient", counting)
    return calls


def test_nijenhuis_torsion_differentiates_each_entry_of_n_once(monkeypatch):
    # the component formula reads every partial off one gradient of each of
    # the 6 nonzero entries of N; a vf_bracket per pair took 36
    pi, N = _darboux_nijenhuis_dim6()
    calls = _count_gradients(monkeypatch)
    assert all(v.is_zero() for v in nijenhuis_torsion(N).values())
    assert len(calls) == 6
    assert sorted(map(str, calls)) == sorted(str(N.entries[a][a]) for a in range(6))


def test_concomitant_map_differentiates_each_entry_of_n_once(monkeypatch):
    # 30 basis brackets, each one gradient of pi(dx_i, dx_j) and one of each
    # coordinate form's coefficient, plus one gradient of each of the 6
    # nonzero entries of N for every anchor derivative; one per pair took 120
    pi, N = _darboux_nijenhuis_dim6()
    npi = n_bivector(pi, N)
    calls = _count_gradients(monkeypatch)
    assert all(v.is_zero() for v in concomitant_map(pi, N, npi).values())
    assert len(calls) == 30 * 3 + 6


def test_sharp_residual_sums_each_unordered_pair_once(monkeypatch):
    # M + M^T is symmetric: n(n+1)/2 = 21 sums on dim 6, mirrored, not 36
    from pncalc import linalg

    pi, N = _darboux_nijenhuis_dim6()
    M = linalg.mat_mul(N.entries, sharp_matrix(pi))
    want = tuple(tuple(M[i][j] + M[j][i] for j in range(6)) for i in range(6))
    calls = []
    original = Polynomial.__add__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__add__", counting)
    residual, npi = _sharp_product(pi, N)
    assert residual == want
    assert len(calls) == 21
    assert npi == n_bivector(pi, N)


def test_is_pn_pair_forms_one_product(monkeypatch):
    from pncalc import linalg
    from pncalc import poisson_nijenhuis as pn

    original = linalg.mat_mul
    calls = []

    def counting(A, B):
        calls.append((len(A), len(B[0])))
        return original(A, B)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    monkeypatch.setattr(pn, "mat_mul", counting)
    pi, N = _darboux_nijenhuis_dim6()
    assert is_pn_pair(pi, N).ok
    assert calls == [(6, 6)]
    del calls[:]
    assert not is_pn_pair(unit_bivector(), TensorOneOne.diagonal(R2, [2, 3])).sharp_ok
    assert calls == [(2, 2)]


def test_hierarchy_reuses_the_verdicts_n_pi(monkeypatch):
    # is_pn_pair keeps N pi on its verdict, so pi_1 costs no second product:
    # hierarchy(pi, N, 2) forms N.pisharp and N.(N pi)# only
    from pncalc import linalg
    from pncalc import poisson_nijenhuis as pn

    original = linalg.mat_mul
    calls = []

    def counting(A, B):
        calls.append((len(A), len(B[0])))
        return original(A, B)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    monkeypatch.setattr(pn, "mat_mul", counting)
    conformal = TensorOneOne.scalar(R2, 1 + R2.var("x1"))
    verdict = is_pn_pair(unit_bivector(), conformal)
    assert verdict.npi == n_bivector(unit_bivector(), conformal)
    del calls[:]
    result = hierarchy(unit_bivector(), conformal, 2)
    assert calls == [(2, 2), (2, 2)]
    assert result.bivectors[1] == verdict.npi
    # a pair that fails sharp compatibility has no N pi
    assert is_pn_pair(unit_bivector(), TensorOneOne.diagonal(R2, [2, 3])).npi is None


@pytest.mark.parametrize("order, brackets", [(2, 6), (3, 10)])
def test_hierarchy_reads_pi_pi_off_the_verdict(monkeypatch, order, brackets):
    # is_pn_pair forms [pi, pi] once; hierarchy reads it as the (0, 0)
    # residual, so order k costs (k + 1)(k + 2)/2 brackets in all
    from pncalc import poisson_nijenhuis as pn

    original = pn.schouten
    calls = []
    monkeypatch.setattr(pn, "schouten", lambda P, Q: calls.append(1) or original(P, Q))
    conformal = TensorOneOne.scalar(R2, 1 + R2.var("x1"))
    result = hierarchy(unit_bivector(), conformal, order)
    assert len(calls) == brackets
    assert result.bracket_residuals[(0, 0)] == original(unit_bivector(), unit_bivector())


def _sharp_compatible_pairs(seed, count):
    """(pi, N) on R^2..R^4, pi random (so not Poisson in general) and
    N = S.B + f.Id with S the sharp matrix of pi and B antisymmetric:
    N.S = S.B.S + f.S is antisymmetric, so N pi is a bivector."""
    rng = random.Random(seed)
    for _ in range(count):
        chart = rng.choice((R2, R3, R4))
        n = chart.dim
        pi = random_multivector(rng, chart, 2, max_degree=2, coeff_bound=3)
        B = random_multivector(rng, chart, 2, max_degree=1, coeff_bound=3)
        b_rows = [[B.component((a, b)) for b in range(n)] for a in range(n)]
        f = random_polynomial(rng, chart, max_degree=2, terms=2, coeff_bound=3)
        N = TensorOneOne(chart, _product(sharp_matrix(pi), b_rows)) + TensorOneOne.scalar(
            chart, f
        )
        yield pi, N


def test_concomitant_map_matches_magri_morosi():
    # the tables of concomitant_map against the four-bracket definition, pair
    # by pair, on pairs whose concomitant mostly fails to vanish
    nonzero = non_poisson = 0
    for pi, N in _sharp_compatible_pairs(61, 20):
        chart = pi.chart
        npi = n_bivector(pi, N)
        got = concomitant_map(pi, N, npi)
        pairs = [(i, j) for i in range(chart.dim) for j in range(i + 1, chart.dim)]
        assert list(got) == pairs
        for i, j in pairs:
            want = magri_morosi(
                pi, N, coordinate_form(chart, i), coordinate_form(chart, j)
            )
            assert got[(i, j)] == want
            nonzero += not want.is_zero()
        non_poisson += not is_poisson(pi).ok
    assert nonzero >= 20
    assert non_poisson >= 5


def test_nijenhuis_torsion_matches_torsion_apply():
    rng = random.Random(67)
    cases = [N for _, N in _sharp_compatible_pairs(71, 4)]
    for chart in (R2, R3, R4):
        entries = [
            [random_polynomial(rng, chart, max_degree=2, terms=2) for _ in range(chart.dim)]
            for _ in range(chart.dim)
        ]
        cases.append(TensorOneOne(chart, entries))
    nonzero = 0
    for N in cases:
        chart = N.chart
        got = nijenhuis_torsion(N)
        pairs = [(i, j) for i in range(chart.dim) for j in range(i + 1, chart.dim)]
        assert list(got) == pairs
        for i, j in pairs:
            want = torsion_apply(
                N, coordinate_vector(chart, i), coordinate_vector(chart, j)
            )
            assert got[(i, j)] == want
            nonzero += not want.is_zero()
    assert nonzero >= 10


def test_concomitant_map_forms_each_basis_bracket_once(monkeypatch):
    # n(n-1) = 30 Koszul brackets on the dim-6 Darboux pair: [dx_i, dx_j] under
    # pi and under N pi for each i < j, all through the module attribute
    from pncalc import poisson_nijenhuis as pn

    original = pn.koszul_bracket
    calls = []

    def counting(pi, alpha, beta):
        calls.append((alpha.components, beta.components))
        return original(pi, alpha, beta)

    monkeypatch.setattr(pn, "koszul_bracket", counting)
    pi, N = _darboux_nijenhuis_dim6()
    one = pi.chart.one()
    assert all(v.is_zero() for v in concomitant_map(pi, N, n_bivector(pi, N)).values())
    assert len(calls) == 30
    for alpha, beta in calls:
        assert len(alpha) == len(beta) == 1
        assert list(alpha.values()) == list(beta.values()) == [one]
