import random

import pytest

from pncalc import cartan, jacobi, poisson_nijenhuis as pn
from pncalc.algebroid import (
    AlgebroidSection,
    algebroid_validate,
    cotangent_algebroid,
)
from pncalc.cartan import Chart, MultiVector, schouten, wedge
from pncalc.corpus import R2, R3, random_multivector, so3_bivector
from pncalc.errors import InputError, PreconditionError
from pncalc.jacobi import (
    ExtendedSection,
    JacobiPair,
    first_jet_algebroid,
    homogenized_bivector,
    is_jacobi,
    jacobi_compat,
    jacobi_differential,
    twisted_gerstenhaber,
)


def contact_pair():
    # pi = d_y ^ (d_x + y d_z) on coordinates (x1, x2, x3) = (x, y, z)
    pi = MultiVector(R3, 2, {(0, 1): -1, (1, 2): R3.parse("x2")})
    e = cartan.coordinate_vector(R3, 2)
    return JacobiPair(pi, e)


def random_pair(rng, chart):
    pi = random_multivector(rng, chart, 2, max_degree=2, coeff_bound=2)
    e = random_multivector(rng, chart, 1, max_degree=2, coeff_bound=2)
    return JacobiPair(pi, e)


class TestConstruction:
    def test_pair_degree_guard(self):
        with pytest.raises(InputError):
            JacobiPair(cartan.coordinate_vector(R3, 0), cartan.coordinate_vector(R3, 1))

    def test_pair_chart_guard(self):
        with pytest.raises(InputError):
            JacobiPair(MultiVector(R3, 2, {}), cartan.coordinate_vector(R2, 0))

    def test_extended_degree_guard(self):
        with pytest.raises(InputError):
            ExtendedSection(MultiVector(R3, 2, {}), MultiVector(R3, 2, {}))

    def test_extended_degree_zero_has_no_q(self):
        f = MultiVector(R3, 0, {(): R3.parse("x1")})
        section = ExtendedSection(f)
        assert section.q.is_zero()
        with pytest.raises(InputError):
            ExtendedSection(f, MultiVector(R3, 0, {(): 1}))


class TestTwistedBracket:
    def test_constant_field_alone(self):
        e = cartan.coordinate_vector(R3, 0)
        zero2 = MultiVector(R3, 2, {})
        out = twisted_gerstenhaber(
            ExtendedSection(zero2, e), ExtendedSection(zero2, e)
        )
        assert out.is_zero()

    def test_poisson_no_field(self):
        pi = so3_bivector()
        section = ExtendedSection(pi, MultiVector(R3, 1, {}))
        out = twisted_gerstenhaber(section, section)
        assert out.p.is_zero()
        assert out.q.is_zero()

    def test_nonjacobi_pair_detected(self):
        pi = MultiVector(R3, 2, {(0, 1): 1})
        e = cartan.coordinate_vector(R3, 2)
        out = twisted_gerstenhaber(ExtendedSection(pi, e), ExtendedSection(pi, e))
        # E ^ pi = d_3 ^ d_1 ^ d_2 is nonzero, so the diagonal cannot vanish
        assert not out.is_zero()
        assert out.p == wedge(e, pi) * (-2)

    def test_graded_antisymmetry_in_low_degrees(self):
        rng = random.Random(37)
        for _ in range(15):
            for p_deg, q_deg in ((1, 1), (1, 2), (2, 2)):
                left = ExtendedSection(
                    random_multivector(rng, R2, p_deg, max_degree=2, coeff_bound=2),
                    random_multivector(rng, R2, p_deg - 1, max_degree=2, coeff_bound=2),
                )
                right = ExtendedSection(
                    random_multivector(rng, R2, q_deg, max_degree=2, coeff_bound=2),
                    random_multivector(rng, R2, q_deg - 1, max_degree=2, coeff_bound=2),
                )
                lhs = twisted_gerstenhaber(left, right)
                rhs = twisted_gerstenhaber(right, left)
                sign = -1 if ((p_deg - 1) * (q_deg - 1)) % 2 == 0 else 1
                assert (lhs.p - rhs.p * sign).is_zero()
                assert (lhs.q - rhs.q * sign).is_zero()


class TestIsJacobi:
    def test_poisson_with_zero_field(self):
        verdict = is_jacobi(JacobiPair(so3_bivector(), MultiVector(R3, 1, {})))
        assert verdict.ok
        assert verdict.residuals() == {}

    def test_zero_bivector_any_field(self):
        e = MultiVector(R3, 1, {(0,): 1, (2,): R3.parse("x1")})
        assert is_jacobi(JacobiPair(MultiVector(R3, 2, {}), e)).ok

    def test_contact_pair(self):
        verdict = is_jacobi(contact_pair())
        assert verdict.ok
        assert verdict.twisted_ok

    def test_failure_carries_residuals(self):
        pi = MultiVector(R3, 2, {(0, 1): 1})
        verdict = is_jacobi(JacobiPair(pi, cartan.coordinate_vector(R3, 2)))
        assert not verdict.ok
        assert "[pi,pi] - 2 e^pi" in verdict.residuals()

    def test_characterizations_agree_on_random_corpus(self):
        # mostly non-Jacobi; agreement must hold in failure too
        rng = random.Random(424)
        jacobi_count = 0
        for i in range(24):
            chart = R2 if i % 2 == 0 else R3
            verdict = is_jacobi(random_pair(rng, chart))
            assert verdict.direct_ok == verdict.twisted_ok
            jacobi_count += verdict.ok
        assert jacobi_count < 24

    def test_homogenization_oracle(self):
        rng = random.Random(77)
        pairs = [contact_pair(), JacobiPair(so3_bivector(), MultiVector(R3, 1, {}))]
        pairs += [random_pair(rng, R2) for _ in range(8)]
        pairs += [random_pair(rng, R3) for _ in range(8)]
        for pair in pairs:
            lifted = homogenized_bivector(pair)
            assert is_jacobi(pair).ok == pn.is_poisson(lifted).ok

    def test_homogenized_shape(self):
        pair = contact_pair()
        big = homogenized_bivector(pair)
        assert big.chart.coords == ("x1", "x2", "x3", "t_h")
        assert str(big.component((0, 1))) == "-t_h"
        assert str(big.component((2, 3))) == "-t_h^2"

    def test_homogenized_name_collision(self):
        chart = Chart(("x1", "t_h"))
        pair = JacobiPair(MultiVector(chart, 2, {(0, 1): 1}), MultiVector(chart, 1, {}))
        with pytest.raises(InputError, match="'t_h' already taken"):
            homogenized_bivector(pair)


class TestCompat:
    def test_zero_structure_compatible(self):
        pair = contact_pair()
        zero = JacobiPair(MultiVector(R3, 2, {}), MultiVector(R3, 1, {}))
        verdict = jacobi_compat(pair, zero)
        assert verdict.ok
        assert verdict.mixed_ok

    def test_self_compat(self):
        pair = JacobiPair(so3_bivector(), MultiVector(R3, 1, {}))
        verdict = jacobi_compat(pair, pair)
        assert verdict.ok
        doubled = JacobiPair(pair.pi * 2, pair.e * 2)
        assert is_jacobi(doubled).ok

    def test_permuted_contact_pairs(self):
        first = contact_pair()
        # same structure written in the coordinates (x3, x2, x1)
        pi = MultiVector(R3, 2, {(1, 2): 1, (0, 1): R3.parse("-x2")})
        second = JacobiPair(pi, cartan.coordinate_vector(R3, 0))
        assert is_jacobi(second).ok
        verdict = jacobi_compat(first, second)
        assert verdict.sum_ok == verdict.mixed_ok
        assert verdict.ok
        assert verdict.residuals() == {}

    def test_incompatible_pair_detected(self):
        plane = JacobiPair(MultiVector(R3, 2, {(0, 1): 1}), MultiVector(R3, 1, {}))
        field = JacobiPair(MultiVector(R3, 2, {}), cartan.coordinate_vector(R3, 2))
        verdict = jacobi_compat(plane, field)
        # the sum is the standard non-Jacobi pair: E ^ pi is a volume term
        assert not verdict.ok
        assert not verdict.mixed_ok
        assert "mixed bracket" in verdict.residuals()

    def test_requires_jacobi_inputs(self):
        bad = JacobiPair(
            MultiVector(R3, 2, {(0, 1): 1}), cartan.coordinate_vector(R3, 2)
        )
        with pytest.raises(PreconditionError):
            jacobi_compat(bad, bad)

    def test_criteria_agree_on_jacobi_corpus(self):
        rng = random.Random(550)
        found = []
        while len(found) < 4:
            pair = random_pair(rng, R2)
            if is_jacobi(pair).ok:
                found.append(pair)
        for left in found:
            for right in found:
                verdict = jacobi_compat(left, right)
                assert verdict.sum_ok == verdict.mixed_ok


class TestFirstJet:
    def test_zero_pair_is_abelian(self):
        pair = JacobiPair(MultiVector(R2, 2, {}), MultiVector(R2, 1, {}))
        jet = first_jet_algebroid(pair)
        assert jet.rank == 3
        assert jet.structure == {}
        assert all(p.is_zero() for col in jet.anchor for p in col)

    def test_poisson_case_extends_cotangent(self):
        pi = so3_bivector()
        jet = first_jet_algebroid(JacobiPair(pi, MultiVector(R3, 1, {})))
        ctg = cotangent_algebroid(pi)
        for i in range(3):
            for j in range(i + 1, 3):
                assert tuple(jet.c(i, j)[:3]) == ctg.c(i, j)
                # the extra slot carries the extension cocycle pi^{ij}
                assert jet.c(i, j)[3] == pi.component((i, j))
            # constant section is central and unanchored
            assert all(p.is_zero() for p in jet.c(i, 3))
        assert all(p.is_zero() for p in jet.anchor[3])

    def test_contact_jet_validates(self):
        jet = first_jet_algebroid(contact_pair())
        assert jet.rank == 4
        assert jet.basis == ("dx1", "dx2", "dx3", "one")
        assert algebroid_validate(jet).ok

    def test_contact_jet_anchor(self):
        pair = contact_pair()
        jet = first_jet_algebroid(pair)
        for a in range(3):
            assert jet.anchor[3][a] == pair.e.component((a,))

    def test_refuses_non_jacobi(self):
        pi = MultiVector(R3, 2, {(0, 1): 1})
        with pytest.raises(PreconditionError):
            first_jet_algebroid(JacobiPair(pi, cartan.coordinate_vector(R3, 2)))

    def test_jet_validates_on_random_jacobi_pairs(self):
        rng = random.Random(808)
        seen = 0
        while seen < 5:
            pair = random_pair(rng, R2)
            if not is_jacobi(pair).ok:
                continue
            assert algebroid_validate(first_jet_algebroid(pair)).ok
            seen += 1


class TestDifferential:
    def test_matches_twisted_bracket_degree_zero(self):
        pair = contact_pair()
        jet = first_jet_algebroid(pair)
        structure = ExtendedSection(pair.pi, pair.e)
        for text in ("x1", "x2*x3", "x1^2 - 2"):
            f = MultiVector(R3, 0, {(): R3.parse(text)})
            section = ExtendedSection(f)
            lhs = jacobi_differential(pair, section, jet=jet)
            rhs = twisted_gerstenhaber(structure, section)
            assert lhs == rhs

    def test_matches_twisted_bracket_degree_one(self):
        rng = random.Random(99)
        pairs = [contact_pair(), JacobiPair(so3_bivector(), MultiVector(R3, 1, {}))]
        while len(pairs) < 5:
            candidate = random_pair(rng, R2)
            if is_jacobi(candidate).ok:
                pairs.append(candidate)
        for pair in pairs:
            jet = first_jet_algebroid(pair)
            structure = ExtendedSection(pair.pi, pair.e)
            chart = pair.chart
            samples = []
            for _ in range(4):
                samples.append(
                    ExtendedSection(
                        random_multivector(rng, chart, 1, max_degree=2, coeff_bound=2),
                        random_multivector(rng, chart, 0, max_degree=2, coeff_bound=2),
                    )
                )
            for section in samples:
                lhs = jacobi_differential(pair, section, jet=jet)
                rhs = twisted_gerstenhaber(structure, section)
                assert lhs == rhs

    def test_reduces_to_cotangent_differential_when_e_zero(self):
        pi = so3_bivector()
        pair = JacobiPair(pi, MultiVector(R3, 1, {}))
        jet = first_jet_algebroid(pair)
        f = MultiVector(R3, 0, {(): R3.parse("x1*x2")})
        out = jacobi_differential(pair, ExtendedSection(f), jet=jet)
        df = cartan.exterior_d(cartan.DiffForm(R3, 0, {(): R3.parse("x1*x2")}))
        expected = pn.sharp(pi, df) * (-1)
        assert out.p == expected
        assert out.q.is_zero()
