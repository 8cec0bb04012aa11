import itertools
import random
from fractions import Fraction

import pytest

from pncalc import cartan
from pncalc.algebroid import AlgebroidData
from pncalc.cartan import (
    Chart,
    DiffForm,
    MultiVector,
    coordinate_form,
    coordinate_vector,
    exterior_d,
    interior,
    lie_derivative,
    schouten,
    schouten_direct,
    vector_field,
    vf_bracket,
    wedge,
)
from pncalc.corpus import (
    R2,
    R3,
    R4,
    random_form,
    random_multivector,
    random_polynomial,
    schouten_sample,
    so3_bivector,
)
from pncalc.errors import InputError
from pncalc.polyalg import Polynomial, parse_polynomial
from oracles import from_function, one_form, pairing
from products import spy_products


def test_wedge_examples():
    d1, d2 = coordinate_vector(R2, 0), coordinate_vector(R2, 1)
    unit = wedge(d1, d2)
    assert unit == MultiVector(R2, 2, {(0, 1): 1})
    dx1 = coordinate_form(R2, 0)
    assert wedge(dx1, dx1).is_zero()
    x1, x2 = R2.var("x1"), R2.var("x2")
    assert wedge(x1 * d1, x2 * d2) == MultiVector(R2, 2, {(0, 1): x1 * x2})


def test_wedge_graded_commutativity():
    rng = random.Random(7)
    for _ in range(20):
        p = rng.randint(0, 3)
        q = rng.randint(0, 3 - p) if p < 3 else 0
        A = random_multivector(rng, R3, p)
        B = random_multivector(rng, R3, q)
        flip = wedge(B, A)
        if (p * q) % 2:
            flip = -flip
        assert wedge(A, B) == flip


def test_wedge_kind_and_chart_guards():
    with pytest.raises(InputError):
        wedge(coordinate_vector(R2, 0), coordinate_form(R2, 0))
    with pytest.raises(InputError):
        wedge(coordinate_vector(R2, 0), coordinate_vector(R3, 0))


def test_coordinate_fields_are_canonical_and_refuse_bad_indices():
    # built unchecked with chart.one(); the index is still checked
    for i in range(R3.dim):
        assert coordinate_vector(R3, i) == MultiVector(R3, 1, {(i,): 1})
        assert coordinate_form(R3, i) == DiffForm(R3, 1, {(i,): 1})
        assert coordinate_form(R3, i).components[(i,)] == 1
    for bad in (-1, 3, True, 1.0, "1", None):
        for build in (coordinate_vector, coordinate_form):
            with pytest.raises(InputError, match="out of range"):
                build(R3, bad)


def test_wedge_forms_no_product_for_overlapping_keys(monkeypatch):
    # dx_i ^ dx_i vanishes, so only the 6 pairs of distinct indices multiply
    a = one_form(R3, ["x1", "x2 + 1", "2*x3"])
    calls = []
    spy_products(monkeypatch, lambda x, y: calls.append(1))
    assert wedge(a, a).is_zero()
    assert len(calls) == 6


def test_unvalidated_results_are_canonical():
    # +, -, negation, scalar * and wedge build their results unchecked, and
    # so do d, the interior product, Lie derivatives, [X, Q] and the
    # slot-removal derivative
    rng = random.Random(29)
    for _ in range(30):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        A, B = random_form(rng, R3, p), random_form(rng, R3, p)
        C = random_form(rng, R3, q)
        f = random_polynomial(rng, R3)
        X = random_multivector(rng, R3, 1)
        Q = random_multivector(rng, R3, q)
        outs = [A + B, A - A, -A, A * 0, f * A, A * Fraction(1, 3), wedge(A, C)]
        outs += [exterior_d(A), lie_derivative(X, A), cartan._lie_multivector(X, Q)]
        outs += [cartan._odd_partial(Q, i) for i in range(R3.dim)]
        if p:
            outs.append(interior(X, A))
        for out in outs:
            assert out == type(out)(R3, out.degree, out.components)
            assert all(not v.is_zero() for v in out.components.values())


def test_frame_must_be_a_chart():
    alg = AlgebroidData(R2, 2, ("e1", "e2"), ((1, 0), (0, 1)), {})
    for cls in (MultiVector, DiffForm):
        for frame in (alg, None, ("x1", "x2")):
            with pytest.raises(InputError):
                cls(frame, 1, {(0,): 1})
            with pytest.raises(InputError):
                cls.from_terms(frame, 1, [((0,), 1)])


def test_chart_zero_is_one_shared_constant():
    for chart in (Chart(()), R2, Chart(("x1", "x2"))):
        assert chart.zero() is chart.zero()
        assert chart.zero() == Polynomial.zero(chart.coords)
        assert chart.zero().variables == chart.coords
    # the shared zero is not a field: equal charts stay equal and hash alike
    assert Chart(("x1", "x2")) == R2 and hash(Chart(("x1", "x2"))) == hash(R2)


def test_chart_is_immutable_and_reads_as_its_coordinates():
    chart = Chart(["x1", "x2"])
    assert chart.coords == ("x1", "x2") and chart == Chart(coords=("x1", "x2"))
    assert repr(chart) == "Chart(coords=('x1', 'x2'))"
    assert chart != ("x1", "x2") and chart != Chart(("x2", "x1"))
    for name in ("coords", "dim"):
        with pytest.raises(AttributeError):
            setattr(chart, name, ("y1",))


def _reads_as_itself(name):
    # the oracle: a polynomial text can name the coordinate
    try:
        return parse_polynomial(name, (name,)) == Polynomial.variable((name,), name)
    except InputError:
        return False


def test_chart_admits_exactly_the_names_the_reader_reads():
    identifiers = ["x1", "_", "_t", "xi_dx1", "é2", "x²", "Δ"]
    others = ["", "a+b", "x y", " x1", "x1 ", "x-1", "x.1", "x^2", "2x", "١x", "²x", "(x)"]
    assert [_reads_as_itself(name) for name in identifiers + others] == (
        [True] * len(identifiers) + [False] * len(others)
    )
    # and every name of one to three characters over letters, "_", decimal
    # and other digits, a Roman numeral, a combining mark, spaces and operators
    alphabet = "xé_1١²Ⅻ\u0301 \t+^(.-"
    short = ("".join(chars) for n in (1, 2, 3) for chars in itertools.product(alphabet, repeat=n))
    for name in itertools.chain(identifiers, others, short):
        try:
            Chart((name,))
            admitted = True
        except InputError as err:
            assert str(err) == f"bad coordinate name {name!r}"
            admitted = False
        assert admitted is _reads_as_itself(name), repr(name)


def test_degree_must_be_an_int():
    for degree in (True, False, 1.0, "1"):
        with pytest.raises(InputError):
            MultiVector(R2, degree, {})
    with pytest.raises(InputError):
        DiffForm.from_terms(R2, True, [((0,), 1)])


def test_index_must_be_an_int_in_range():
    for index in (True, 1.0, "1", 2, -1):
        with pytest.raises(InputError):
            MultiVector(R2, 1, {(index,): 1})


def test_exterior_d_examples():
    x1 = R2.var("x1")
    dx2 = coordinate_form(R2, 1)
    assert exterior_d(x1 * dx2) == DiffForm(R2, 2, {(0, 1): 1})
    assert exterior_d(coordinate_form(R2, 0)).is_zero()
    f = R2.var("x1") * R2.var("x2")
    df = exterior_d(from_function(DiffForm, R2, f))
    assert df == DiffForm(R2, 1, {(0,): R2.var("x2"), (1,): R2.var("x1")})


def test_d_squared_zero_on_random_forms():
    rng = random.Random(11)
    for degree in range(R3.dim + 1):
        for _ in range(8):
            omega = random_form(rng, R3, degree)
            assert exterior_d(exterior_d(omega)).is_zero()


def test_d_leibniz():
    rng = random.Random(13)
    for _ in range(12):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        a = random_form(rng, R3, p)
        b = random_form(rng, R3, q)
        lhs = exterior_d(wedge(a, b))
        rhs = wedge(exterior_d(a), b) + (
            wedge(a, exterior_d(b)) if p % 2 == 0 else -wedge(a, exterior_d(b))
        )
        assert lhs == rhs


def test_interior_examples():
    d1, d3 = coordinate_vector(R3, 0), coordinate_vector(R3, 2)
    dx12 = DiffForm(R3, 2, {(0, 1): 1})
    assert interior(d1, dx12) == coordinate_form(R3, 1)
    assert interior(d3, dx12).is_zero()
    x2 = R2.var("x2")
    got = interior(x2 * coordinate_vector(R2, 0), coordinate_form(R2, 0))
    assert got == from_function(DiffForm, R2, x2)
    with pytest.raises(InputError):
        interior(d1, from_function(DiffForm, R3, R3.var("x1")))


def test_interior_is_an_antiderivation():
    rng = random.Random(17)
    for _ in range(12):
        X = random_multivector(rng, R3, 1)
        p = rng.randint(1, 2)
        a = random_form(rng, R3, p)
        b = random_form(rng, R3, rng.randint(1, 2))
        lhs = interior(X, wedge(a, b))
        rhs = wedge(interior(X, a), b) + (
            wedge(a, interior(X, b)) if p % 2 == 0 else -wedge(a, interior(X, b))
        )
        assert lhs == rhs


def test_lie_derivative_examples():
    d1 = coordinate_vector(R2, 0)
    x1 = R2.var("x1")
    dx1, dx2 = coordinate_form(R2, 0), coordinate_form(R2, 1)
    assert lie_derivative(d1, x1 * dx2) == dx2
    assert lie_derivative(d1, dx1).is_zero()
    # hand-expanded through the homotopy identity:
    # i_{x1 d_1} d(dx1) + d(i_{x1 d_1} dx1) = 0 + d(x1) = dx1
    assert lie_derivative(x1 * d1, dx1) == dx1


def test_cartan_magic_formula():
    rng = random.Random(19)
    for _ in range(15):
        X = random_multivector(rng, R3, 1)
        k = rng.randint(1, 3)
        omega = random_form(rng, R3, k)
        lhs = lie_derivative(X, omega)
        rhs = interior(X, exterior_d(omega)) + exterior_d(interior(X, omega))
        assert lhs == rhs


def test_lie_derivative_commutes_with_d():
    rng = random.Random(23)
    for _ in range(12):
        X = random_multivector(rng, R3, 1)
        omega = random_form(rng, R3, rng.randint(0, 2))
        assert lie_derivative(X, exterior_d(omega)) == exterior_d(
            lie_derivative(X, omega)
        )


def test_schouten_examples():
    d1 = coordinate_vector(R2, 0)
    x1 = R2.var("x1")
    assert schouten(d1, x1 * d1) == d1
    P = MultiVector(R2, 2, {(0, 1): 3})
    Q = MultiVector(R2, 1, {(0,): 2, (1,): 5})
    assert schouten(P, Q).is_zero()
    pi = so3_bivector()
    assert schouten(pi, pi).is_zero()
    assert schouten_direct(pi, pi).is_zero()


def test_schouten_vector_cases():
    rng = random.Random(29)
    for _ in range(10):
        X = random_multivector(rng, R3, 1)
        Y = random_multivector(rng, R3, 1)
        f = from_function(MultiVector, R3, random_polynomial(rng, R3))
        assert schouten(X, Y) == vf_bracket(X, Y)
        # [X, f] = X(f)
        got = schouten(X, f)
        want = sum(
            (
                xc * f.components.get((), R3.zero()).partial(R3.coords[a])
                for (a,), xc in X.components.items()
            ),
            R3.zero(),
        )
        assert got == from_function(MultiVector, R3, want)


def test_schouten_graded_antisymmetry():
    rng = random.Random(31)
    for _ in range(15):
        p = rng.randint(0, 3)
        q = rng.randint(0, 3)
        P = random_multivector(rng, R3, p)
        Q = random_multivector(rng, R3, q)
        lhs = schouten(P, Q)
        rhs = schouten(Q, P)
        if ((p - 1) * (q - 1)) % 2 == 0:
            rhs = -rhs
        assert lhs == rhs


def test_schouten_leibniz():
    rng = random.Random(37)
    for _ in range(10):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        r = rng.randint(0, 2)
        if p == 0:
            # [f,g] lands in degree -1, represented only as the degree-0
            # zero, which breaks the degree bookkeeping of this identity
            q, r = max(q, 1), max(r, 1)
        P = random_multivector(rng, R3, p)
        Q = random_multivector(rng, R3, q)
        R = random_multivector(rng, R3, r)
        lhs = schouten(P, wedge(Q, R))
        rhs = wedge(schouten(P, Q), R)
        cross = wedge(Q, schouten(P, R))
        rhs = rhs + (cross if ((p - 1) * q) % 2 == 0 else -cross)
        assert lhs == rhs


def test_schouten_graded_jacobi():
    rng = random.Random(41)
    for _ in range(8):
        degs = [rng.randint(0, 3) for _ in range(3)]
        P, Q, R = (random_multivector(rng, R3, d, max_degree=2) for d in degs)
        p, q, r = degs

        def sgn(a, b):
            return 1 if ((a - 1) * (b - 1)) % 2 == 0 else -1

        total = (
            sgn(p, r) * schouten(P, schouten(Q, R))
            + sgn(q, p) * schouten(Q, schouten(R, P))
            + sgn(r, q) * schouten(R, schouten(P, Q))
        )
        assert total.is_zero()


def test_schouten_two_implementations_agree():
    count = 0
    for P, Q in schouten_sample(seed=2024, count=110):
        assert schouten(P, Q) == schouten_direct(P, Q)
        count += 1
    assert count >= 100


def test_pairing_and_component_lookup():
    dx12 = DiffForm(R3, 2, {(0, 1): R3.var("x3")})
    b = MultiVector(R3, 2, {(0, 1): 2})
    assert pairing(dx12, b) == 2 * R3.var("x3")
    assert b.component((1, 0)) == -2
    assert b.component((0, 0)).is_zero()
    assert b.component((0, 2)).is_zero()


def test_vector_field_helper_roundtrip():
    X = vector_field(R2, [R2.var("x2"), R2.constant(1)])
    assert X.components == {(0,): R2.var("x2"), (1,): R2.constant(1)}
    with pytest.raises(InputError):
        vector_field(R2, [R2.zero()])


def _inversions(idx):
    return sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx)) if idx[i] > idx[j])


def test_component_matches_definition_on_every_index():
    rng = random.Random(17)
    for degree in (1, 2, 3):
        for cls in (MultiVector, DiffForm):
            graded = (random_multivector if cls is MultiVector else random_form)(rng, R4, degree)
            for idx in itertools.product(range(4), repeat=degree):
                if len(set(idx)) < degree:
                    want = R4.zero()
                else:
                    stored = graded.components.get(tuple(sorted(idx)), R4.zero())
                    want = -stored if _inversions(idx) % 2 else stored
                assert graded.component(idx) == want
                assert graded.component(list(idx)) == want
