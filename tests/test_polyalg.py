import itertools
import operator
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pncalc import document, polyalg
from pncalc.errors import InputError, ParseError
from pncalc.linalg import mat_mul
from pncalc.polyalg import Polynomial, parse_polynomial
from oracles import mat

VARS = ("x1", "x2", "x3")


def P(text, variables=VARS):
    return parse_polynomial(text, variables)


exponents = st.tuples(*(st.integers(0, 3) for _ in VARS))
coeffs = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
).filter(lambda f: f != 0)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda terms: Polynomial(VARS, terms)
)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero(VARS) == p
    assert p * Polynomial.constant(VARS, 1) == p
    assert p - p == Polynomial.zero(VARS)


@given(polys, polys)
def test_partial_is_a_derivation(p, q):
    for v in VARS:
        assert (p * q).partial(v) == p.partial(v) * q + p * q.partial(v)


@given(polys)
def test_mixed_partials_commute(p):
    assert p.partial("x1").partial("x2") == p.partial("x2").partial("x1")


@given(polys)
@settings(max_examples=60)
def test_print_parse_round_trip(p):
    assert parse_polynomial(str(p), VARS) == p


def test_zero_iff_empty_terms():
    assert Polynomial.zero(VARS).is_zero()
    assert not P("x1 - x1 + 1").is_zero()
    assert P("x1 - x1").is_zero()
    assert P("x1 - x1").terms == {}


def test_ring_examples():
    assert P("x1 + x2") + P("x1 - x2") == P("2*x1")
    assert P("x1 + 1") * P("x1 - 1") == P("x1^2 - 1")
    assert P("1/2*x1") * P("2/3*x2") == P("1/3*x1*x2")


def test_partial_examples():
    assert P("x1^2*x2").partial("x1") == P("2*x1*x2")
    assert P("x1").partial("x2") == P("0")
    assert P("(x1+x2)^3").partial("x1") == 3 * P("(x1+x2)^2")


def test_parse_examples():
    p = P("1 + 2*x1^2 - 1/3*x2")
    assert len(p.terms) == 3
    assert p.terms[(0, 0, 0)] == 1
    assert p.terms[(2, 0, 0)] == 2
    assert p.terms[(0, 1, 0)] == Fraction(-1, 3)
    assert P("x1*(x1+x2)") == P("x1^2 + x1*x2")
    with pytest.raises(ParseError) as err:
        parse_polynomial("x3", ("x1", "x2"))
    assert "x3" in str(err.value)
    # terms that cancel, a group among them, sum to the zero polynomial
    cancelled = P("2/3*x1*x2 + (x1 - x2)*x3 - 4/6*x2*x1 + x2*x3 - x1*x3 + 1/2 - 3/6")
    assert Fraction(2, 3) - Fraction(4, 6) == 0 and Fraction(1, 2) - Fraction(3, 6) == 0
    assert cancelled.is_zero() and cancelled == 0
    assert_canonical(cancelled)
    # a numerator and a denominator of several hundred digits each
    num, den = 7**400 + 2, 6 * 11**300
    assert len(str(num)) > 300 and len(str(den)) > 300
    big = P(f"{num}/{den}*x1^2 - 5/{den}*x1^2 + 1/6*x1^2 - {num}/{den}")
    assert dict(big.terms) == {
        (2, 0, 0): Fraction(num, den) - Fraction(5, den) + Fraction(1, 6),
        (0, 0, 0): -Fraction(num, den),
    }
    assert_canonical(big)


def test_constructor_brings_coefficients_to_canonical_form():
    p = Polynomial(
        ("x", "y"), {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3), (0, 0): Fraction(-5, 6)}
    )
    assert p._den == 6 and p._nums == {(1, 0): 3, (0, 1): 2, (0, 0): -5}
    assert_canonical(p)
    zero = Polynomial(("x", "y"), {(1, 0): 0, (0, 1): Fraction(0)})
    assert zero.is_zero() and zero._nums == {} and zero._den == 1


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        P("x1 + + x2")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        P("x1 +")
    with pytest.raises(ParseError):
        P("(x1")
    with pytest.raises(ParseError):
        P("x1^x2")
    with pytest.raises(ParseError):
        P("1/0")
    with pytest.raises(ParseError):
        P("x1 x2")


def test_leading_minus_extension():
    assert P("-x1^2 + 3") == 3 - P("x1")**2
    assert P("(-2)*x1") == -2 * P("x1")
    assert str(P("-x1^2 + 3")) == "-x1^2 + 3"


def test_constant_promotion():
    one_var = parse_polynomial("y1 + 1", ("y1",))
    assert one_var + 1 == parse_polynomial("y1 + 2", ("y1",))
    assert 2 * one_var == parse_polynomial("2*y1 + 2", ("y1",))
    const = Polynomial.constant(("z",), Fraction(1, 2))
    assert one_var + const == parse_polynomial("y1 + 3/2", ("y1",))
    with pytest.raises(InputError):
        one_var + parse_polynomial("z", ("z",))


def test_canonical_printing_order():
    p = P("x2 + x1 + x1*x2 + x1^2 + x2^2 + 1")
    assert str(p) == "x1^2 + x1*x2 + x2^2 + x1 + x2 + 1"
    assert str(P("0")) == "0"
    assert str(P("x1 - x1")) == "0"
    assert str(-P("1/3") * P("x1")) == "-1/3*x1"


def test_substitute():
    p = P("x1^2 + x2")
    target = ("u", "v")
    u = Polynomial.variable(target, "u")
    v = Polynomial.variable(target, "v")
    q = p.substitute(target, {"x1": u + v, "x2": u * v, "x3": 0})
    assert q == (u + v) ** 2 + u * v
    # identity mapping by name
    r = P("x1*x3").substitute(("x1", "x3"), {})
    assert r == parse_polynomial("x1*x3", ("x1", "x3"))
    with pytest.raises(InputError):
        p.substitute(("u",), {"x1": u})  # image in the wrong ring


def test_degree_helpers():
    p = P("x1^2*x2 + x3")
    assert p.total_degree() == 3
    assert p.degree_in(["x1", "x2"]) == 3
    assert p.degree_in(["x3"]) == 1
    assert Polynomial.zero(VARS).total_degree() == -1


def test_exponent_validation_checks_type_before_sign():
    with pytest.raises(InputError, match="nonnegative integers"):
        Polynomial(("x",), {("a",): 1})
    with pytest.raises(InputError, match="nonnegative integers"):
        Polynomial(("x",), {(True,): 1})
    with pytest.raises(InputError, match="nonnegative integers"):
        Polynomial(("x",), {(-1,): 1})
    assert Polynomial(("x",), {(2,): 1}) == parse_polynomial("x^2", ("x",))


# -- the trusted construction path of the arithmetic -------------------------

scalars = st.one_of(st.integers(-3, 3), coeffs)
small_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in VARS)), coeffs, max_size=3
).map(lambda terms: Polynomial(VARS, terms))
STEPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "radd": lambda p, c: c + p,
    "rsub": lambda p, c: c - p,
    "rmul": lambda p, c: c * p,
    "neg": lambda p, _: -p,
    "pow": operator.pow,
    "partial": Polynomial.partial,
    "substitute": lambda p, images: p.substitute(VARS, images),
    "embed": lambda p, renames: p.embed(VARS, renames),
}
steps = st.one_of(
    st.tuples(st.sampled_from(["add", "sub", "mul"]), st.one_of(small_polys, scalars)),
    st.tuples(st.sampled_from(["radd", "rsub", "rmul"]), scalars),
    st.tuples(st.just("neg"), st.none()),
    st.tuples(st.just("pow"), st.integers(0, 2)),
    st.tuples(st.just("partial"), st.sampled_from(VARS)),
    st.tuples(
        st.just("substitute"),
        st.dictionaries(st.sampled_from(VARS), st.one_of(small_polys, scalars)),
    ),
    st.tuples(
        st.just("embed"),
        st.dictionaries(st.sampled_from(VARS), st.sampled_from(VARS)),
    ),
)


def assert_canonical(p):
    assert p == Polynomial(p.variables, p.terms)
    assert p.terms == Polynomial(p.variables, p.terms).terms
    for exps, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert type(exps) is tuple and len(exps) == len(p.variables)
        assert all(type(e) is int for e in exps)
    # the stored form: nonzero int numerators over one positive denominator
    # that shares no factor with all of them; zero has denominator 1
    nums, den = p._nums, p._den
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in nums.values())
    assert gcd(den, *nums.values()) == 1
    if not nums:
        assert den == 1
    assert set(p.exponents()) == set(p.terms)


@given(small_polys, st.lists(steps, max_size=6))
@example(P("x1^2 + x2^2 + x3^2"), [("pow", 2)] * 6)  # the sixth square is refused
@settings(max_examples=150, deadline=None)
def test_arithmetic_results_are_canonical(p, chain):
    assert_canonical(p)
    budgets = tuple(f"above the budget of {b}" for b in (polyalg.MAX_TERMS, polyalg.MAX_DEGREE))
    for op, arg in chain:
        try:
            p = STEPS[op](p, arg)
        except InputError as refusal:
            # repeated squaring can ask for a power over a budget of
            # Polynomial.__pow__, which refuses it; that ends the chain
            message = str(refusal)
            assert message.startswith("power ") and message.endswith(budgets)
            break
        assert isinstance(p, Polynomial)
        assert_canonical(p)


def _naive_mat_mul(A, B, zero):
    return tuple(
        tuple(
            sum((A[i][t] * B[t][j] for t in range(len(B))), zero)
            for j in range(len(B[0]))
        )
        for i in range(len(A))
    )


def _matrix(entry, rows, cols):
    row = st.lists(entry, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


def _matrix_pairs(entries, zero):
    # Mostly-zero entries, as in the sharp and tensor matrices of a chart.
    entry = st.one_of(st.just(zero), st.just(zero), entries)
    sizes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    return sizes.flatmap(
        lambda nkm: st.tuples(
            _matrix(entry, nkm[0], nkm[1]), _matrix(entry, nkm[1], nkm[2])
        )
    )


@given(_matrix_pairs(small_polys, Polynomial.zero(VARS)))
@settings(max_examples=60, deadline=None)
def test_mat_mul_skipping_zeros_matches_triple_sum_polynomial(pair):
    A, B = (mat(M) for M in pair)
    got = mat_mul(A, B)
    want = _naive_mat_mul(A, B, Polynomial.zero(VARS))
    assert got == want
    assert all(e.variables == VARS for row in got for e in row)
    assert all(type(e) is Polynomial for row in got for e in row)


# -- the integer-numerator kernels against plain Fraction oracles ------------

RINGS = ((), ("x1",), ("x1", "x2"), VARS)
# A few small coefficients with mixed denominators make exact cancellation
# inside one product frequent; wide fractions exercise the common denominator.
kernel_coeffs = st.one_of(
    st.sampled_from([Fraction(c) for c in (1, -1, 2, "1/2", "-1/2", "2/3", "-3/4", "5/6")]),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=60).filter(
        lambda f: f != 0
    ),
)


def ring_polys(ring):
    return st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in ring)), kernel_coeffs, max_size=5
    ).map(lambda terms: Polynomial(ring, terms))


any_ring_polys = st.sampled_from(RINGS).flatmap(ring_polys)
any_ring_pairs = st.sampled_from(RINGS).flatmap(
    lambda ring: st.tuples(ring_polys(ring), ring_polys(ring))
)


def oracle_mul(p, q):
    acc = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            acc[exps] = acc.get(exps, Fraction(0)) + c1 * c2
    return {exps: c for exps, c in acc.items() if c != 0}


def oracle_partial(p, i):
    acc = {}
    for exps, c in p.terms.items():
        if exps[i]:
            lowered = list(exps)
            lowered[i] -= 1
            lowered = tuple(lowered)
            acc[lowered] = acc.get(lowered, Fraction(0)) + c * exps[i]
    return {exps: c for exps, c in acc.items() if c != 0}


def assert_terms(p, want):
    assert p.terms == want
    assert all(type(c) is Fraction for c in p.terms.values())


@given(any_ring_pairs)
@settings(max_examples=200, deadline=None)
def test_mul_matches_fraction_triple_loop(pair):
    p, q = pair
    pq = oracle_mul(p, q)
    assert_terms(p * q, pq)
    assert_terms(p * (-q), {e: -c for e, c in pq.items()})
    # the fused kernel on the same draw: one product, a negated one, b = None
    fused = polyalg._sum_of_products
    assert_terms(fused(p.variables, [(1, p, q)]), pq)
    want = {e: -c for e, c in pq.items()}
    for e, c in q.terms.items():
        want[e] = want.get(e, 0) + c
    want = {e: c for e, c in want.items() if c}
    assert_terms(fused(p.variables, [(-1, p, q), (1, q, None)]), want)


def oracle_fused(entries):
    """sign * a * b summed over the entries, b None read as 1, in Fractions."""
    acc = {}
    for sign, a, b in entries:
        terms = a.terms.items() if b is None else oracle_mul(a, b).items()
        for exps, c in terms:
            acc[exps] = acc.get(exps, Fraction(0)) + sign * c
    return {exps: c for exps, c in acc.items() if c != 0}


# Numerators over a denominator from a small set: entries of one call mix
# denominators, and small numerators make cancellation frequent.
def fused_operands(ring):
    numerators = st.integers(-6, 6).filter(bool)
    sparse = st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in ring)), numerators, max_size=8)
    # every monomial of degree <= 2: products of these reach the packed side
    full = [e for e in itertools.product(range(3), repeat=len(ring)) if sum(e) <= 2]
    dense = st.lists(numerators, min_size=len(full), max_size=len(full)).map(
        lambda ns: dict(zip(full, ns))
    )
    return st.builds(
        lambda terms, den: Polynomial(ring, {e: Fraction(n, den) for e, n in terms.items()}),
        st.one_of(sparse, dense),
        st.sampled_from((1, 1, 2, 3, 35)),
    )


# Entry weights: the signs, and other nonzero integers.
weights = st.sampled_from((1, -1, 1, -1, 2, -3, 35))


@st.composite
def fused_calls(draw):
    """Calls whose operands include the constant 1, as ``a``, as ``b`` or as both."""
    ring = draw(st.sampled_from(RINGS))
    operand = st.one_of(fused_operands(ring), st.just(Polynomial.constant(ring, 1)))
    entry = st.tuples(weights, operand, st.one_of(st.none(), operand))
    entries = draw(st.lists(entry, min_size=1, max_size=5))
    if draw(st.booleans()):  # an entry and its negation cancel exactly
        weight, a, b = draw(st.sampled_from(entries))
        entries.append((-weight, b if b is not None else a, a if b is not None else None))
    return ring, entries


@given(fused_calls())
@settings(max_examples=30, deadline=None)
def test_sum_of_products_matches_fraction_loop(call):
    ring, entries = call
    want = oracle_fused(entries)
    got = polyalg._sum_of_products(ring, entries)
    assert_terms(got, want)
    assert_canonical(got)
    # both sides of the size rule, whichever side this call falls on
    for packs in (False, True):
        with mock.patch.object(polyalg, "_packs", lambda *counts, packs=packs: packs):
            assert polyalg._sum_of_products(ring, entries) == got


def one_term(ring):
    return st.builds(
        lambda exps, c: Polynomial(ring, {exps: c}),
        st.tuples(*(st.integers(0, 3) for _ in ring)),
        kernel_coeffs,
    )


@st.composite
def shared_calls(draw):
    """Calls whose entries share left operands: the kernel factors each shared
    operand of two or more terms, a * (sum of s_i b_i)."""
    ring = draw(st.sampled_from(RINGS))
    one = Polynomial.constant(ring, 1)
    pool = draw(st.lists(st.one_of(fused_operands(ring), one_term(ring)), min_size=1, max_size=3))
    shared = st.sampled_from(pool)
    right = st.one_of(st.none(), shared, fused_operands(ring), one_term(ring), st.just(one))
    entries = draw(st.lists(st.tuples(weights, shared, right), max_size=8))
    a = pool[0]
    entries.append((draw(weights), a, a))  # a is b
    if draw(st.booleans()):  # a factor 1 inside a group of a, on either side
        entries += [(draw(weights), a, one), (draw(weights), one, a), (draw(weights), a, pool[-1])]
    if draw(st.booleans()):  # a group whose right operands cancel: b + c - (b + c)
        a, b, c = (draw(fused_operands(ring)) for _ in range(3))
        entries += [(1, a, b), (1, a, c), (-1, a, b + c)]
    if draw(st.booleans()):  # a shared right operand is no group
        a, b, c = (draw(fused_operands(ring)) for _ in range(3))
        entries += [(1, a, c), (-1, b, c)]
    return ring, draw(st.permutations(entries))


_SHARED, _MONOMIAL, _RIGHT = P("x1 + 1/2"), P("2*x2"), P("x3 - 2")


@given(shared_calls())
@example(
    (
        VARS,
        [
            (1, _SHARED, P("1/3*x2 - 1")),
            (-1, _SHARED, P("1/5*x3^2")),
            (1, _SHARED, None),
            (1, _MONOMIAL, _SHARED),
            (-1, _MONOMIAL, P("x3")),
            (1, P("x2^2 - x1"), _RIGHT),
            (1, P("x1*x3 + 3"), _RIGHT),
        ],
    )
)
@settings(max_examples=25, deadline=None)
def test_factored_shared_operands_match_fraction_loop(call):
    ring, entries = call
    want = oracle_fused(entries)
    for packs in (False, True):
        with mock.patch.object(polyalg, "_packs", lambda *counts, packs=packs: packs):
            got = polyalg._sum_of_products(ring, entries)
        assert_terms(got, want)
        assert_canonical(got)


def test_a_factor_one_returns_the_other_operand_itself():
    p, one = P("x1 - 1/2*x2^2"), Polynomial.constant(VARS, 1)
    assert one * p is p
    assert p * one is p
    assert polyalg._sum_of_products(VARS, [(1, one, p)]) is p


def test_sum_of_products_size_rule_and_full_radix_slots():
    # a call with many term products per operand term packs; one product of
    # single terms does not, and neither does a ring with no variables
    dense = P("(x1 + x2 + x3 + 1)^2")  # 10 terms
    assert polyalg._packs(len(dense.terms) ** 2, 2 * len(dense.terms), 3)
    assert not polyalg._packs(1, 2, 3)
    assert not polyalg._packs(10**6, 10, 0)
    # exponents that reach max_a + max_b in a slot below the last one: a
    # radix one short would carry into the next slot
    a, b = P("x1^3*x2 + x1^3 + x2^2*x3 + 2"), P("x1^2 + x2^3*x3^2 + x3")
    entries = [(1, a, b), (-1, b, dense), (1, dense, dense), (1, a, None)]
    want = a * b - b * dense + dense * dense + a
    for packs in (False, True):
        with mock.patch.object(polyalg, "_packs", lambda *counts, packs=packs: packs):
            assert polyalg._sum_of_products(VARS, entries) == want
    assert polyalg._sum_of_products(VARS, entries) == want
    # zero operands and an empty call are the zero polynomial
    zero = Polynomial.zero(VARS)
    assert polyalg._sum_of_products(VARS, [(1, zero, a), (1, a, zero), (-1, zero, None)]) == 0
    assert polyalg._sum_of_products((), []) == 0


@given(any_ring_polys, kernel_coeffs)
@settings(max_examples=100, deadline=None)
def test_mul_by_scalar_and_constant_matches_oracle(p, c):
    const = Polynomial.constant(p.variables, c)
    assert_terms(p * c, oracle_mul(p, const))
    assert_terms(c * p, oracle_mul(const, p))
    assert_terms(p * c.numerator, oracle_mul(p, Polynomial.constant(p.variables, c.numerator)))


@given(any_ring_polys)
@settings(max_examples=100, deadline=None)
def test_partial_matches_fraction_loop(p):
    for i, name in enumerate(p.variables):
        assert_terms(p.partial(name), oracle_partial(p, i))


def test_mul_cancels_to_zero_and_drops_zero_totals():
    a = P("1/2*x1 + 1/3*x2")
    b = P("1/2*x1 - 1/3*x2")
    assert a * b == P("1/4*x1^2 - 1/9*x2^2")
    assert (0, 1, 0) not in (P("x1 + x2") * P("x1 - x2")).terms
    assert (P("x1 - 1") * P("x1 + 1") - P("x1^2")).terms == {(0, 0, 0): Fraction(-1)}
    assert (P("2/3") * P("3/2")).terms == {(0, 0, 0): Fraction(1)}
    assert (P("x1") * P("0")).is_zero()
    assert P("x1") * Fraction(1, 2) * 2 == P("x1")
    empty = Polynomial.constant((), Fraction(-3, 4))
    assert (empty * empty).terms == {(): Fraction(9, 16)}
    assert (empty * Polynomial.zero(())).is_zero()


def test_terms_is_a_read_only_view():
    p = P("1/2*x1 + 1/3")
    assert p.terms == {(1, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(1, 3)}
    with pytest.raises(TypeError):
        p.terms[(0, 0, 0)] = Fraction(1)
    assert p == P("1/2*x1 + 1/3")
    assert len(Polynomial.zero(VARS).terms) == 0 and not Polynomial.zero(VARS).terms


def test_zero_checks_variable_names():
    assert Polynomial.zero(["x", "y"]).variables == ("x", "y")
    assert Polynomial.zero(()).is_zero()
    with pytest.raises(InputError, match="duplicate variable names"):
        Polynomial.zero(("x", "x"))


def test_parse_nesting_is_bounded():
    assert P("(" * 100 + "x1" + ")" * 100) == P("x1")
    with pytest.raises(ParseError, match="nested more than 100 deep") as err:
        P("(" * 101 + "x1" + ")" * 101)
    assert err.value.position == 100
    with pytest.raises(ParseError):
        P("(" * 3000 + "x1" + ")" * 3000)
    # depth counts open parentheses, not parenthesized groups in sequence
    flat = " + ".join(["(" * 60 + "x1" + ")" * 60] * 5)
    assert P(flat) == 5 * P("x1")


# -- embed, with substitute by variable images as the oracle -----------------

PAIR = ("x1", "x2", "y_x1", "y_x2")
SWAP = {"x1": "y_x1", "y_x1": "x1", "x2": "y_x2", "y_x2": "x2"}
pair_exponents = st.tuples(*(st.integers(0, 2) for _ in PAIR))
source_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0), st.just(0))


def pair_polys(exponents=pair_exponents):
    return st.dictionaries(exponents, kernel_coeffs, max_size=5).map(
        lambda terms: Polynomial(PAIR, terms)
    )


def _oracle_embed(p, variables, renames):
    images = {v: Polynomial.variable(variables, w) for v, w in renames.items()}
    return p.substitute(variables, images)


EMBED_CASES = st.one_of(
    # a larger ring, variables reordered, nothing renamed
    st.tuples(
        pair_polys(), st.permutations(PAIR + ("u", "v")).map(tuple), st.just({})
    ),
    # permutation renames within the ring, among them the x <-> y_x swap
    st.tuples(
        pair_polys(),
        st.just(PAIR),
        st.one_of(
            st.just(SWAP),
            st.permutations(PAIR).map(lambda image: dict(zip(PAIR, image))),
        ),
    ),
    # merging renames: y_x -> x, as on the diagonal, into either ring order
    st.tuples(
        pair_polys(),
        st.sampled_from([PAIR, PAIR[::-1], ("x1", "x2"), ("x2", "x1")]),
        st.dictionaries(st.sampled_from(PAIR[2:]), st.sampled_from(PAIR[:2]), min_size=1),
    ).filter(lambda case: len(case[1]) == 4 or len(case[2]) == 2),
    # projections: the dropped y variables do not occur
    st.tuples(
        pair_polys(source_exponents),
        st.sampled_from([("x1", "x2"), ("x2", "x1"), ("x2", "u", "x1")]),
        st.just({}),
    ),
)


@given(EMBED_CASES)
@settings(max_examples=200, deadline=None)
def test_embed_matches_substitute(case):
    p, variables, renames = case
    got = p.embed(variables, renames)
    assert got == _oracle_embed(p, variables, renames)
    assert got.variables == variables
    assert_canonical(got)


@given(pair_polys(), st.lists(st.sampled_from(PAIR + ("u",)), unique=True).map(tuple))
@settings(max_examples=100, deadline=None)
def test_embed_refuses_what_substitute_refuses(p, variables):
    try:
        want = p.substitute(variables, {})
    except InputError:
        with pytest.raises(InputError, match="has no image"):
            p.embed(variables)
    else:
        assert p.embed(variables) == want


def test_embed_examples():
    x = parse_polynomial("x1 - y_x1", PAIR)
    assert x.embed(PAIR, {"y_x1": "x1"}).is_zero()
    assert x.embed(("x1", "x2"), {"y_x1": "x1"}).terms == {}
    q = parse_polynomial("x1^2*y_x2 - 3*y_x1 + 1/2", PAIR)
    assert q.embed(PAIR, SWAP) == parse_polynomial("y_x1^2*x2 - 3*x1 + 1/2", PAIR)
    assert q.embed(PAIR, SWAP).embed(PAIR, SWAP) == q
    assert str(q.embed(PAIR, {"y_x1": "x1", "y_x2": "x1"})) == "x1^3 - 3*x1 + 1/2"
    assert parse_polynomial("x2", PAIR).embed(("x2",)) == parse_polynomial("x2", ("x2",))
    with pytest.raises(InputError, match="'y_x1' has no image"):
        q.embed(("x1", "x2", "y_x2"))
    with pytest.raises(InputError, match="'x1' has no image"):
        q.embed(PAIR, {"x1": "u"})
    with pytest.raises(InputError, match="duplicate variable names"):
        q.embed(("x1", "x2", "y_x1", "x1"))
    with pytest.raises(InputError, match="duplicate variable names"):
        Polynomial.zero(PAIR).embed(("u", "u"))


# -- mixed denominators: +, -, neg, embed, partial, substitute ---------------
#
# Each operand has its own common denominator, drawn from (1, 2, 3, 4, 6), so
# the kernels meet at an lcm, and sums such as 1/2 + 1/3 + 1/6 reduce or
# cancel. The oracles below run on the raw Fraction dicts the strategies
# draw, with plain Fraction loops, and never read the polynomial's own terms.

DENOMINATORS = (1, 2, 3, 4, 6)


def terms_over(ring, den):
    numerators = st.integers(-7, 7).filter(bool)
    return st.dictionaries(
        st.tuples(*(st.integers(0, 2) for _ in ring)),
        numerators.map(lambda n: Fraction(n, den)),
        max_size=5,
    )


def mixed_terms(ring):
    return st.sampled_from(DENOMINATORS).flatmap(lambda den: terms_over(ring, den))


mixed_pairs = st.sampled_from(RINGS).flatmap(
    lambda ring: st.tuples(st.just(ring), mixed_terms(ring), mixed_terms(ring))
)


def nonzero(acc):
    return {exps: c for exps, c in acc.items() if c != 0}


def oracle_sum(a, b, sign):
    acc = dict(a)
    for exps, c in b.items():
        acc[exps] = acc.get(exps, Fraction(0)) + sign * c
    return nonzero(acc)


def oracle_product(a, b):
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            acc[exps] = acc.get(exps, Fraction(0)) + c1 * c2
    return nonzero(acc)


@given(mixed_pairs)
@settings(max_examples=200, deadline=None)
def test_add_sub_neg_match_fraction_loops_across_denominators(case):
    ring, a, b = case
    p, q = Polynomial(ring, a), Polynomial(ring, b)
    for got, want in (
        (p + q, oracle_sum(a, b, 1)),
        (q + p, oracle_sum(a, b, 1)),
        (p - q, oracle_sum(a, b, -1)),
        (q - p, oracle_sum(b, a, -1)),
        (-p, oracle_sum({}, a, -1)),
        (p + q - q, nonzero(a)),
    ):
        assert_terms(got, want)
        assert_canonical(got)


@given(mixed_pairs)
@settings(max_examples=100, deadline=None)
def test_partial_matches_fraction_loop_across_denominators(case):
    ring, a, b = case
    a = oracle_sum(a, b, 1)
    p = Polynomial(ring, a)
    for i, name in enumerate(ring):
        want = {}
        for exps, c in a.items():
            if exps[i]:
                lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
                want[lowered] = c * exps[i]
        got = p.partial(name)
        assert_terms(got, nonzero(want))
        assert_canonical(got)


# Rings up to 16 variables; a term names at most three of them, so most
# partials of a polynomial in a wide ring vanish.
WIDE_RINGS = tuple(tuple(f"w{i}" for i in range(width)) for width in (0, 1, 3, 16))


def sparse_terms(ring):
    width = len(ring)
    slots = st.dictionaries(st.integers(0, width - 1), st.integers(1, 3), max_size=3)
    exps = (slots if width else st.just({})).map(
        lambda slots: tuple(slots.get(i, 0) for i in range(width))
    )
    numerators = st.sampled_from((-7, -3, -2, -1, 1, 2, 5))
    return st.sampled_from(DENOMINATORS).flatmap(
        lambda den: st.lists(st.tuples(exps, numerators), max_size=4).map(
            lambda terms: {e: Fraction(n, den) for e, n in terms}
        )
    )


@given(st.sampled_from(WIDE_RINGS).flatmap(lambda ring: st.tuples(st.just(ring), sparse_terms(ring))))
@example((WIDE_RINGS[3], {}))
@example((WIDE_RINGS[3], {(0,) * 16: Fraction(5, 6)}))
@example((WIDE_RINGS[2], {(3, 1, 0): Fraction(1, 2), (0, 2, 2): Fraction(-3, 4)}))
@settings(max_examples=80, deadline=None)
def test_gradient_matches_the_nonzero_partials(case):
    ring, terms = case
    p = Polynomial(ring, terms)
    want = [(i, p.partial(name)) for i, name in enumerate(ring)]
    got = p.gradient()
    assert got == [(i, d) for i, d in want if not d.is_zero()]
    for _, d in got:
        assert_canonical(d)


MERGES = (
    (PAIR, {}),
    (("x1", "x2"), {"y_x1": "x1", "y_x2": "x2"}),
    (("x2", "x1"), {"y_x1": "x2", "y_x2": "x1"}),
    (PAIR, {"y_x1": "x1"}),
)


@given(mixed_terms(PAIR), mixed_terms(PAIR), st.sampled_from(MERGES))
# merging x and y_x halves the denominator: (1/2 + 1/2)*x1 - (3/4 - 1/4)*x2^2
@example(
    {(1, 0, 0, 0): Fraction(1, 2), (0, 2, 0, 0): Fraction(-3, 4)},
    {(0, 0, 1, 0): Fraction(1, 2), (0, 0, 0, 2): Fraction(1, 4)},
    MERGES[1],
)
@settings(max_examples=150, deadline=None)
def test_embed_matches_fraction_loop_across_denominators(a, b, merge):
    variables, renames = merge
    for terms in (a, oracle_sum(a, b, 1)):
        want = {}
        for exps, c in terms.items():
            moved = [0] * len(variables)
            for v, e in zip(PAIR, exps):
                moved[variables.index(renames.get(v, v))] += e
            moved = tuple(moved)
            want[moved] = want.get(moved, Fraction(0)) + c
        got = Polynomial(PAIR, terms).embed(variables, renames)
        assert_terms(got, nonzero(want))
        assert_canonical(got)


TARGET = ("u", "v")
small_fractions = st.sampled_from(DENOMINATORS).flatmap(
    lambda den: st.integers(-3, 3).map(lambda n: Fraction(n, den))
)
affine_images = st.tuples(small_fractions, small_fractions, small_fractions).map(
    lambda abc: nonzero({(1, 0): abc[0], (0, 1): abc[1], (0, 0): abc[2]})
)
# The second affine image is the first, its negative, or drawn on its own: a
# tied pair sends terms of equal degree to the same power, where they cancel.
affine_pairs = st.tuples(affine_images, st.sampled_from([1, -1, None]), affine_images).map(
    lambda t: (t[0], t[2] if t[1] is None else {e: t[1] * c for e, c in t[0].items()})
)


@given(
    mixed_terms(("x1", "x2")),
    st.one_of(st.tuples(mixed_terms(TARGET), mixed_terms(TARGET)), affine_pairs),
)
# x1^2 - x2^2 at x2 = -x1 = -(u + 1/2) cancels to zero
@example(
    {(2, 0): Fraction(1), (0, 2): Fraction(-1)},
    ({(1, 0): Fraction(1), (0, 0): Fraction(1, 2)}, {(1, 0): Fraction(-1), (0, 0): Fraction(-1, 2)}),
)
@settings(max_examples=200, deadline=None)
def test_substitute_matches_fraction_loop_across_denominators(a, images):
    got = Polynomial(("x1", "x2"), a).substitute(
        TARGET, {v: Polynomial(TARGET, img) for v, img in zip(("x1", "x2"), images)}
    )
    want = {}
    for exps, c in a.items():
        term = {(0, 0): c}
        for img, e in zip(images, exps):
            for _ in range(e):
                term = oracle_product(term, img)
        want = oracle_sum(want, term, 1)
    assert_terms(got, want)
    assert_canonical(got)


# -- the one-pass reader ------------------------------------------------------
#
# An expression tree is drawn as (text, value, kind): the value is built from
# the tree with Polynomial arithmetic (powers as repeated products), and kind
# says how the text may be used inside a larger one. An "atom" is a number, a
# variable or a parenthesized group; a "product" (or a power) is parenthesized
# before it is raised; a "sum" (or a text with a leading minus) is
# parenthesized before it is multiplied, raised or subtracted.

spaces = st.sampled_from(["", "", " ", "  ", "\t", "\n "])
ONE = Polynomial.constant(VARS, 1)


def _repeated(value, k):
    out = ONE
    for _ in range(k):
        out = out * value
    return out


def _rational_leaf(pair):
    a, b = pair
    text = str(a) if b == 1 else f"{a}/{b}"
    return text, Polynomial.constant(VARS, Fraction(a, b)), "atom"


leaves = st.one_of(
    st.tuples(st.integers(0, 30), st.sampled_from([1, 1, 2, 3, 7])).map(_rational_leaf),
    st.sampled_from(VARS).map(lambda v: (v, Polynomial.variable(VARS, v), "atom")),
)


def _atom(node, ws):
    text, value, kind = node
    return (text, value) if kind == "atom" else (f"({ws}{text}{ws})", value)


def _extend(children):
    def power(node, k, ws):
        text, value = _atom(node, ws)
        return f"{text}{ws}^{ws}{k}", _repeated(value, k), "product"

    def product(left, right, ws):
        (a, u), (b, v) = (
            (n[0], n[1]) if n[2] != "sum" else _atom(n, ws) for n in (left, right)
        )
        return f"{a}{ws}*{ws}{b}", u * v, "product"

    def total(left, right, minus, ws):
        b, v = (right[0], right[1]) if right[2] != "sum" else _atom(right, ws)
        op = "-" if minus else "+"
        return f"{left[0]}{ws}{op}{ws}{b}", left[1] - v if minus else left[1] + v, "sum"

    def negate(node, ws):
        text, value = (node[0], node[1]) if node[2] != "sum" else _atom(node, ws)
        return f"{ws}-{ws}{text}", -value, "sum"

    def group(node, ws):
        text, value, _ = node
        return f"({ws}{text}{ws})", value, "atom"

    return st.one_of(
        st.builds(power, children, st.integers(0, 3), spaces),
        st.builds(product, children, children, spaces),
        st.builds(total, children, children, st.booleans(), spaces),
        st.builds(negate, children, spaces),
        st.builds(group, children, spaces),
    )


expressions = st.recursive(leaves, _extend, max_leaves=8)


@given(expressions)
@settings(max_examples=200, deadline=None)
def test_reader_matches_polynomial_arithmetic(node):
    text, value, _ = node
    got = P(text)
    assert got == value
    assert_canonical(got)
    assert str(got) == str(P(str(got)))


def test_reader_forms_no_products_without_parentheses(monkeypatch):
    calls = []
    for name in ("__mul__", "__rmul__", "__pow__"):
        original = getattr(Polynomial, name)
        monkeypatch.setattr(
            Polynomial,
            name,
            lambda self, other, original=original, name=name: (
                calls.append(name) or original(self, other)
            ),
        )
    text = "-3/4*x1^2*x2*x3^3 + x2^4 - 5*x1*x1*x3 + 2/3^2*x2 - 7 + 0*x1^9"
    got = P(text)
    doc = Path(__file__).resolve().parent.parent / "demos" / "documents" / "so3.json"
    document.load_document(doc)
    assert calls == []
    want = (
        Polynomial.constant(VARS, Fraction(-3, 4)) * _repeated(P("x1"), 2) * P("x2")
        * _repeated(P("x3"), 3)
        + _repeated(P("x2"), 4)
        - 5 * P("x1") * P("x1") * P("x3")
        + Fraction(4, 9) * P("x2")
        - 7
    )
    assert got == want


def test_reader_keeps_the_digits_int_reads():
    # int() reads every Unicode decimal digit, so these parse as before
    assert P("x1^١٢") == P("x1^12")
    assert P("٣/٤*x2") == P("3/4*x2")
    # a digit that is not decimal is a ParseError at that digit
    for text, pos in (("x3^²", 3), ("x3^1²", 4), ("²*x1", 0), ("1/²", 2)):
        with pytest.raises(ParseError) as err:
            P(text)
        assert err.value.position == pos
    # a superscript digit is a letter of an identifier, as it always was
    with pytest.raises(ParseError, match="unknown identifier 'x²'"):
        P("x²")


@pytest.mark.parametrize("n", range(10))
@given(st.one_of(polys, st.just(Polynomial.zero(VARS)), coeffs.map(lambda c: Polynomial.constant(VARS, c))))
@settings(max_examples=15, deadline=None)
def test_pow_matches_repeated_products(n, p):
    got = p**n
    assert got == _repeated(p, n)
    assert_canonical(got)


def test_pow_forms_log_many_products(monkeypatch):
    count = [0]
    original = Polynomial.__mul__

    def counting(self, other):
        count[0] += 1
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    P("x1 + x2") ** 8
    assert count[0] == 3
    count[0] = 0
    P("x1 + x2") ** 7
    assert count[0] == 4


# -- input budgets -------------------------------------------------------------


def test_budgets_cover_the_values_in_use():
    # the largest exponent, degree, term count and literal width met in the
    # demos, the tests and both benchmark workloads are 4, 12, 29 and 6
    assert polyalg.MAX_EXPONENT >= 40
    assert polyalg.MAX_DEGREE >= 120
    assert polyalg.MAX_TERMS >= 290
    assert 60 <= polyalg.MAX_DIGITS < 4300


def test_reader_budgets_are_parse_errors_with_positions():
    cap = polyalg.MAX_EXPONENT
    assert P(f"x1^{cap}") == _repeated(P("x1"), cap)
    with pytest.raises(ParseError, match="exponent") as err:
        P(f"x2 + x1^{cap + 1}")
    assert err.value.position == 8
    with pytest.raises(ParseError, match="term degree") as err:
        P(f"x1^{cap}*x2^{cap}*x3 + 1")
    assert err.value.position == len(f"x1^{cap}*x2^{cap}*")
    with pytest.raises(ParseError, match="term degree"):
        P(f"x1*(x1 + x2)^{cap}*(x2 + 1)^{cap}")
    wide = "9" * (polyalg.MAX_DIGITS + 1)
    assert P("9" * polyalg.MAX_DIGITS) == int("9" * polyalg.MAX_DIGITS)
    with pytest.raises(ParseError, match="integer literal") as err:
        P("x1 + " + wide)
    assert err.value.position == 5
    with pytest.raises(ParseError, match="integer literal"):
        P("9" * 5000)
    with pytest.raises(ParseError, match="integer literal"):
        P("x1^" + wide)


def test_term_budget_of_a_sum_and_of_a_product():
    side = 71  # 71 * 71 > MAX_TERMS monomials x1^i*x2^j, all of degree <= 140
    many = " + ".join(f"x1^{i}*x2^{j}" for i in range(side) for j in range(side))
    assert side * side > polyalg.MAX_TERMS
    with pytest.raises(ParseError, match="terms, above the budget"):
        P(many)
    with pytest.raises(ParseError, match="product could have"):
        P("(x1 + x2 + x3 + 1)^20*(x1 + x2 + x3 + 1)^20")
    assert len(P("(x1 + x2 + x3 + 1)^10*(x1 + x2 + x3 + 1)^10").terms) == 1771


def test_pow_budgets_are_checked_before_forming(monkeypatch):
    calls = []
    original = Polynomial.__mul__
    monkeypatch.setattr(
        Polynomial, "__mul__", lambda self, other: calls.append(1) or original(self, other)
    )
    ring = ("x1", "x2", "x3", "x4")
    q = parse_polynomial("(x1 + x2 + x3 + x4)^8", ring)  # 165 terms of degree 8
    calls.clear()
    # the bound is exact on this dense power, and nothing is formed first
    with pytest.raises(InputError, match="could have 6545 terms"):
        q**4
    with pytest.raises(InputError, match="has degree 201, above the budget"):
        P("x1") ** (polyalg.MAX_DEGREE + 1)
    assert calls == []
    assert len((q**2).terms) == 969
    # a sparse power is bounded by its multisets of terms
    sparse = P(f"x1^{polyalg.MAX_DEGREE // 4} + x2^{polyalg.MAX_DEGREE // 4} + x3")
    assert len((sparse**4).terms) == 15
    # constants have degree 0 and one term at any power
    assert P("2/3") ** 90 == Fraction(2**90, 3**90)
