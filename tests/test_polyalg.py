import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pncalc.errors import InputError, ParseError
from pncalc.linalg import mat, mat_mul
from pncalc.polyalg import Polynomial, parse_polynomial

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
@settings(max_examples=150, deadline=None)
def test_arithmetic_results_are_canonical(p, chain):
    assert_canonical(p)
    for op, arg in chain:
        p = STEPS[op](p, arg)
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


@given(_matrix_pairs(coeffs, Fraction(0)))
@settings(max_examples=60, deadline=None)
def test_mat_mul_skipping_zeros_matches_triple_sum_fraction(pair):
    A, B = (mat(M) for M in pair)
    got = mat_mul(A, B)
    assert got == _naive_mat_mul(A, B, Fraction(0))
    assert all(type(e) is Fraction for row in got for e in row)


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
    assert_terms(p * q, oracle_mul(p, q))
    assert_terms(p * (-q), {e: -c for e, c in oracle_mul(p, q).items()})


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


@given(
    mixed_terms(("x1", "x2")),
    st.tuples(mixed_terms(TARGET), mixed_terms(TARGET)),
)
@settings(max_examples=100, deadline=None)
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
