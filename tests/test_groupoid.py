import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncalc import corpus, groupoid_desk as gd, poisson_nijenhuis as pn
from pncalc.cartan import Chart, MultiVector
from pncalc.corpus import R2, R3, random_polynomial, so3_bivector
from pncalc.errors import InputError, PreconditionError
from pncalc.groupoid_desk import (
    AffineSubmanifold,
    PairGroupoid,
    base_structure,
    coisotropic_check,
    coisotropic_invariant_check,
    invariant_check,
    multiplicativity_check_tensor,
    pair_bivector,
    pair_tensor,
    pn_groupoid_check,
    poisson_groupoid_check,
)
from pncalc.polyalg import Polynomial
from oracles import codim, dim, power


def conformal_data():
    pi = MultiVector(R2, 2, {(0, 1): 1})
    tensor = pn.TensorOneOne(R2, [["1 + x1", "0"], ["0", "1 + x1"]])
    return pi, tensor


class TestAffineSubmanifold:
    def test_rejects_nonlinear_constraint(self):
        with pytest.raises(InputError):
            AffineSubmanifold(R2, ["x1^2"])

    def test_rejects_inconsistent(self):
        with pytest.raises(InputError, match="inconsistent"):
            AffineSubmanifold(R2, ["x1", "x1 - 1"])

    def test_rejects_dependent(self):
        with pytest.raises(InputError, match="dependent"):
            AffineSubmanifold(R2, ["x1 + x2", "2*x1 + 2*x2"])

    @pytest.mark.parametrize(
        "constraints, message",
        [
            (["x1", "2*x1"], "dependent"),
            (["x1 + x2 - 1", "x2", "x1 - 1"], "dependent"),
            (["0"], "dependent"),
            (["x1", "2*x1 - 1"], "inconsistent"),
            (["2*x1 - 1", "x1"], "inconsistent"),
            (["x1", "x2", "x1 + x2 - 1"], "inconsistent"),
            (["1"], "inconsistent"),
        ],
    )
    def test_one_reduction_orders_the_refusals(self, constraints, message):
        # The augmented system is reduced once: a dependent but consistent
        # system is "dependent", a dependent and inconsistent one "inconsistent".
        with pytest.raises(InputError, match="^%s constraints$" % message):
            AffineSubmanifold(R2, constraints)

    def test_construction_reduces_the_augmented_system_once(self, monkeypatch):
        seen = []
        original = gd.rref

        def counting(rows):
            seen.append(len(rows[0]) if rows else 0)
            return original(rows)

        monkeypatch.setattr(gd, "rref", counting)
        sub = AffineSubmanifold(R3, ["x1 - x2", "x3 - 1"])
        assert seen == [4]
        # every slot is filled at construction, and nothing reduces later
        assert all(hasattr(sub, name) for name in AffineSubmanifold.__slots__)
        assert sub.tangent_basis() == [(1, 1, 0)]
        assert str(sub.restrict(R3.parse("x1*x2 + x3"))) == "s1^2 + 1"
        invariant_check(pn.TensorOneOne.identity(R3), sub)
        coisotropic_check(so3_bivector(), sub)
        assert seen == [4]

    def test_line_bases(self):
        sub = AffineSubmanifold(R2, ["x2"])
        assert dim(sub) == 1
        assert sub.tangent_basis() == [(1, 0)]
        assert sub.conormal_basis() == [(0, 1)]

    def test_restrict_substitutes_parametrization(self):
        sub = AffineSubmanifold(R2, ["x2 - 3"])
        restricted = sub.restrict(R2.parse("x1^2 + x2"))
        assert str(restricted) == "s1^2 + 3"

    def test_point_restricts_to_constant(self):
        sub = AffineSubmanifold(R2, ["x1 - 1", "x2"])
        assert dim(sub) == 0
        restricted = sub.restrict(R2.parse("x1 + x2 + 1"))
        assert restricted.is_constant()
        assert restricted.constant_value() == 2

    def test_no_constraints_is_everything(self):
        sub = AffineSubmanifold(R2, [])
        assert dim(sub) == 2
        assert sub.conormal_basis() == []

    def test_restrict_reuses_the_parametrization(self, monkeypatch):
        # construction reads base point and tangent basis off one reduction
        # of [rows | rhs]; restricting reduces nothing
        from pncalc import linalg

        calls = {"rref": 0, "nullspace": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        for module in (linalg, gd):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        sub = AffineSubmanifold(R3, ["x1 - x2", "x3 - 1"])
        assert calls == {"rref": 1, "nullspace": 0}
        poly = R3.parse("x1*x2 + x3^2")
        first = sub.restrict(poly)
        for _ in range(5):
            assert sub.restrict(poly) == first
        assert calls == {"rref": 1, "nullspace": 0}


class TestInvariantCheck:
    def test_identity_preserves_everything(self):
        sub = AffineSubmanifold(R2, ["x1 - 2*x2 + 1"])
        verdict = invariant_check(pn.TensorOneOne.identity(R2), sub)
        assert verdict.ok
        assert verdict.residuals() == {}

    def test_shear_moves_the_line(self):
        sub = AffineSubmanifold(R2, ["x2"])
        shear = pn.TensorOneOne(R2, [["0", "0"], ["1", "0"]])
        verdict = invariant_check(shear, sub)
        assert not verdict.ok
        assert verdict.residuals() == {"conormal(1).N.tangent(1)": "1"}

    def test_diagonal_tensor_preserves_axis(self):
        sub = AffineSubmanifold(R2, ["x2"])
        tensor = pn.TensorOneOne(R2, [["x1^2 + 1", "0"], ["0", "x1 - 5"]])
        assert invariant_check(tensor, sub).ok


class TestCoisotropicCheck:
    def test_zero_bivector(self):
        sub = AffineSubmanifold(R2, ["x1", "x2"])
        assert coisotropic_check(MultiVector(R2, 2, {}), sub).ok

    def test_lagrangian_line(self):
        sub = AffineSubmanifold(R2, ["x2"])
        pi = MultiVector(R2, 2, {(0, 1): 1})
        verdict = coisotropic_check(pi, sub)
        assert verdict.ok

    def test_origin_not_coisotropic(self):
        sub = AffineSubmanifold(R2, ["x1", "x2"])
        pi = MultiVector(R2, 2, {(0, 1): 1})
        verdict = coisotropic_check(pi, sub)
        assert not verdict.ok
        vals = set(verdict.residuals().values())
        assert vals == {"1", "-1"}

    def test_conjunction_with_higher_orders(self):
        pi, tensor = conformal_data()
        sub = AffineSubmanifold(R2, ["x2"])
        verdict = coisotropic_invariant_check(pi, tensor, sub)
        assert verdict.ok
        assert [k for k, _ in verdict.higher] == [1, 2]

    def test_higher_orders_check_the_tensor_powers(self, monkeypatch):
        # order k is checked on N^k pi; power(N, k) is the independent route
        pi, tensor = conformal_data()
        seen = []
        original = gd.coisotropic_check

        def spy(bivector, sub):
            seen.append(bivector)
            return original(bivector, sub)

        monkeypatch.setattr(gd, "coisotropic_check", spy)
        assert coisotropic_invariant_check(pi, tensor, AffineSubmanifold(R2, ["x2"])).ok
        assert seen == [pn.n_bivector(pi, power(tensor, k)) for k in range(3)]

    def test_conjunction_fails_on_invariance(self):
        pi = MultiVector(R2, 2, {(0, 1): 1})
        shear = pn.TensorOneOne(R2, [["0", "0"], ["1", "0"]])
        sub = AffineSubmanifold(R2, ["x2"])
        verdict = coisotropic_invariant_check(pi, shear, sub)
        assert not verdict.ok
        assert verdict.higher == ()
        assert any(label.startswith("invariant") for label in verdict.residuals())


class TestPairGroupoid:
    def test_total_chart_layout(self):
        G = PairGroupoid(R2)
        assert G.total.coords == ("x1", "x2", "y_x1", "y_x2")

    def test_rejects_point_base(self):
        with pytest.raises(InputError):
            PairGroupoid(Chart(()))

    def test_rejects_colliding_names(self):
        with pytest.raises(InputError):
            PairGroupoid(Chart(("a", "y_a")))

    def test_unit_diagonal(self):
        G = PairGroupoid(R2)
        sub = G.unit_diagonal()
        assert dim(sub) == 2
        # the diagonal direction (v, v) is tangent
        assert (1, 0, 1, 0) in sub.tangent_basis()

    def test_multiplication_graph_shape(self):
        G = PairGroupoid(R2)
        graph = G.multiplication_graph()
        assert graph.chart.dim == 12
        assert codim(graph) == 6
        assert dim(graph) == 6


class TestMultiplicativity:
    def test_block_sum_is_multiplicative(self):
        G = PairGroupoid(R2)
        tensor = pn.TensorOneOne(R2, [["1 + x1", "x2"], ["0", "2"]])
        assert multiplicativity_check_tensor(G, pair_tensor(G, tensor)).ok

    def test_identity_is_multiplicative(self):
        G = PairGroupoid(R2)
        assert multiplicativity_check_tensor(G, pn.TensorOneOne.identity(G.total)).ok

    def test_cross_block_fails(self):
        G = PairGroupoid(R2)
        entries = [["0"] * 4 for _ in range(4)]
        for i in range(4):
            entries[i][i] = "1"
        entries[0][2] = "1"
        verdict = multiplicativity_check_tensor(G, pn.TensorOneOne(G.total, entries))
        assert not verdict.ok

    def test_unequal_blocks_fail(self):
        G = PairGroupoid(R2)
        entries = [["0"] * 4 for _ in range(4)]
        entries[0][0] = entries[1][1] = "1"
        entries[2][2] = entries[3][3] = "2"
        verdict = multiplicativity_check_tensor(G, pn.TensorOneOne(G.total, entries))
        assert not verdict.ok

    def test_graph_criterion_matches_block_criterion(self):
        # block sums pass, any single perturbed entry fails
        rng = random.Random(611)
        G = PairGroupoid(R2)
        for _ in range(4):
            entries = [
                [random_polynomial(rng, R2, max_degree=1, terms=2, coeff_bound=3) for _ in range(2)]
                for _ in range(2)
            ]
            block = pair_tensor(G, pn.TensorOneOne(R2, entries))
            assert multiplicativity_check_tensor(G, block).ok
            bumped = [list(row) for row in block.entries]
            a = rng.randrange(2)
            b = 2 + rng.randrange(2)
            bumped[a][b] = bumped[a][b] + Polynomial.constant(G.total.coords, 1)
            assert not multiplicativity_check_tensor(
                G, pn.TensorOneOne(G.total, bumped)
            ).ok


class TestPoissonGroupoid:
    def test_difference_bivector_passes(self):
        G = PairGroupoid(R2)
        piG = pair_bivector(G, MultiVector(R2, 2, {(0, 1): 1}))
        assert poisson_groupoid_check(G, piG).ok

    def test_so3_difference_passes(self):
        G = PairGroupoid(R3)
        piG = pair_bivector(G, so3_bivector())
        assert poisson_groupoid_check(G, piG).ok

    def test_zero_passes(self):
        G = PairGroupoid(R2)
        assert poisson_groupoid_check(G, MultiVector(G.total, 2, {})).ok

    def test_wrong_relative_sign_fails(self):
        G = PairGroupoid(R2)
        bad = MultiVector(G.total, 2, {(0, 1): 1, (2, 3): 1})
        verdict = poisson_groupoid_check(G, bad)
        assert not verdict.ok
        assert "2" in set(verdict.residuals().values()) or "-2" in set(
            verdict.residuals().values()
        )

    def test_requires_poisson(self):
        G = PairGroupoid(R3)
        bad = MultiVector(
            G.total, 2, {(0, 1): G.total.parse("x1"), (1, 2): 1, (0, 2): -1}
        )
        with pytest.raises(PreconditionError):
            poisson_groupoid_check(G, bad)

    def test_refusal_names_the_schouten_square(self, tmp_path, capsys):
        # the same [pi,pi] family as every other Poisson refusal
        from pncalc import cli

        doc = {
            "chart": {"coordinates": ["x1", "x2"]},
            "pair_groupoid": {"total_bivector": {"1,2": "x1*y_x1", "2,3": "x2"}},
        }
        path = tmp_path / "not_poisson.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["groupoid", "poisson", "--input", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["residuals"] == {
            "[pi,pi]": "2*x1*y_x1*d_x1^d_x2^d_y_x1",
            "precondition": "bivector is not Poisson",
        }


class TestPNGroupoid:
    def test_conformal_pair_passes(self):
        pi, tensor = conformal_data()
        G = PairGroupoid(R2)
        verdict = pn_groupoid_check(G, pair_bivector(G, pi), pair_tensor(G, tensor))
        assert verdict.ok
        assert verdict.residuals() == {}

    def test_zero_identity_passes(self):
        G = PairGroupoid(R2)
        verdict = pn_groupoid_check(
            G, MultiVector(G.total, 2, {}), pn.TensorOneOne.identity(G.total)
        )
        assert verdict.ok

    def test_half_deformed_tensor_fails(self):
        pi, tensor = conformal_data()
        G = PairGroupoid(R2)
        piG = pair_bivector(G, pi)
        entries = [["0"] * 4 for _ in range(4)]
        entries[0][0] = entries[1][1] = "1 + x1"
        entries[2][2] = entries[3][3] = "1"
        half = pn.TensorOneOne(G.total, entries)
        verdict = pn_groupoid_check(G, piG, half)
        assert not verdict.ok
        # the blocks disagree, so multiplicativity is the failing certificate
        assert not verdict.tensor_graph.ok
        assert any(label.startswith("tensor") for label in verdict.residuals())

    def test_unit_space_is_coisotropic_invariant(self):
        pi, tensor = conformal_data()
        G = PairGroupoid(R2)
        verdict = coisotropic_invariant_check(
            pair_bivector(G, pi), pair_tensor(G, tensor), G.unit_diagonal()
        )
        assert verdict.ok
        G3 = PairGroupoid(R3)
        verdict = coisotropic_invariant_check(
            pair_bivector(G3, so3_bivector()),
            pair_tensor(G3, pn.TensorOneOne.identity(R3)),
            G3.unit_diagonal(),
        )
        assert verdict.ok


def _swap_bivector(G, pi):
    n = G.base.dim
    swap_names = {}
    for c in G.base.coords:
        swap_names[c] = Polynomial.variable(G.total.coords, "y_" + c)
        swap_names["y_" + c] = Polynomial.variable(G.total.coords, c)
    comps = {}
    for (a, b), poly in pi.components.items():
        key = ((a + n) % (2 * n), (b + n) % (2 * n))
        comps[key] = poly.substitute(G.total.coords, swap_names)
    return MultiVector(G.total, 2, comps)


def _swap_tensor(G, tensor):
    n = G.base.dim
    swap_names = {}
    for c in G.base.coords:
        swap_names[c] = Polynomial.variable(G.total.coords, "y_" + c)
        swap_names["y_" + c] = Polynomial.variable(G.total.coords, c)
    m = 2 * n
    zero = Polynomial.zero(G.total.coords)
    entries = [[zero] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            entries[(a + n) % m][(b + n) % m] = tensor.entries[a][b].substitute(
                G.total.coords, swap_names
            )
    return pn.TensorOneOne(G.total, entries)


class TestInversion:
    def test_swap_is_anti_poisson(self):
        pi, tensor = conformal_data()
        G = PairGroupoid(R2)
        piG = pair_bivector(G, pi)
        assert _swap_bivector(G, piG) == piG * (-1)

    def test_swap_commutes_with_block_tensor(self):
        pi, tensor = conformal_data()
        G = PairGroupoid(R2)
        NG = pair_tensor(G, tensor)
        assert _swap_tensor(G, NG).entries == NG.entries


class TestBaseStructure:
    def test_round_trip(self):
        pi, tensor = conformal_data()
        G = PairGroupoid(R2)
        result = base_structure(G, pair_bivector(G, pi), pair_tensor(G, tensor))
        assert result.ok
        assert result.pi == pi
        assert result.tensor.entries == tensor.entries
        assert result.residuals() == {}

    def test_zero_identity(self):
        G = PairGroupoid(R2)
        result = base_structure(
            G, MultiVector(G.total, 2, {}), pn.TensorOneOne.identity(G.total)
        )
        assert result.ok
        assert result.pi.is_zero()
        assert result.tensor.entries == pn.TensorOneOne.identity(R2).entries

    def test_hierarchy_consistency(self):
        pi, tensor = conformal_data()
        G = PairGroupoid(R2)
        piG, NG = pair_bivector(G, pi), pair_tensor(G, tensor)
        for k in (1, 2):
            lifted = pn.n_bivector(piG, power(NG, k))
            expected = pn.n_bivector(pi, power(tensor, k))
            for (a, b), poly in expected.components.items():
                assert lifted.component((a, b)) == poly.substitute(
                    G.total.coords, {}
                )

    def test_refuses_non_pn_groupoid(self):
        pi, tensor = conformal_data()
        G = PairGroupoid(R2)
        piG = pair_bivector(G, pi)
        entries = [["0"] * 4 for _ in range(4)]
        entries[0][0] = entries[1][1] = "1 + x1"
        entries[2][2] = entries[3][3] = "1"
        with pytest.raises(PreconditionError):
            base_structure(G, piG, pn.TensorOneOne(G.total, entries))

    def test_round_trip_so3(self):
        G = PairGroupoid(R3)
        pi = so3_bivector()
        tensor = pn.TensorOneOne.identity(R3)
        result = base_structure(G, pair_bivector(G, pi), pair_tensor(G, tensor))
        assert result.ok
        assert result.pi == pi


@given(
    st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
    st.tuples(*(st.integers(0, 2) for _ in range(4))).filter(lambda e: e[2] or e[3]),
    st.sampled_from([Fraction(c) for c in (1, -1, 2, "1/2", "-2/3")]),
)
@settings(max_examples=20, deadline=None)
def test_passing_pn_groupoid_check_forces_a_target_free_source_block(entry, exps, c):
    # base_structure restricts N to the units by projecting its source block
    # to the base chart. That is the diagonal restriction y_c -> c only
    # because a multiplicative N has no y in its source block: adding any
    # y-dependent term there breaks the invariance of the multiplication graph.
    pi, tensor = conformal_data()
    G = PairGroupoid(R2)
    piG, NG = pair_bivector(G, pi), pair_tensor(G, tensor)
    assert pn_groupoid_check(G, piG, NG).ok
    entries = [list(row) for row in NG.entries]
    a, b = entry
    entries[a][b] = entries[a][b] + Polynomial(G.total.coords, {exps: c})
    verdict = pn_groupoid_check(G, piG, pn.TensorOneOne(G.total, entries))
    assert not verdict.tensor_graph.ok
    with pytest.raises(PreconditionError):
        base_structure(G, piG, pn.TensorOneOne(G.total, entries))


def test_only_restriction_substitutes(monkeypatch):
    # Lifts, projections and the diagonal restriction move variables with
    # Polynomial.embed. The graph and the unit diagonal only identify
    # coordinates, so restricting to them moves exponent slots as well;
    # substitute is left to a parametrization with a genuine affine image.
    _, pi, tensor = corpus.pn_pairs()[1]
    assert pi.chart.dim == 2
    G = PairGroupoid(pi.chart)
    counts = {"substitute": 0, "restrict": 0}

    def counting(name, original):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        Polynomial, "substitute", counting("substitute", Polynomial.substitute)
    )
    monkeypatch.setattr(
        AffineSubmanifold, "restrict", counting("restrict", AffineSubmanifold.restrict)
    )
    piG, NG = pair_bivector(G, pi), pair_tensor(G, tensor)
    assert pn_groupoid_check(G, piG, NG).ok
    assert base_structure(G, piG, NG).ok
    assert counts["restrict"] > 0
    assert counts["substitute"] == 0

    counts.update(substitute=0, restrict=0)
    sub = AffineSubmanifold(R2, ["x1 - 2*x2 + 1"])
    invariant_check(tensor, sub)
    coisotropic_check(pi, sub)
    assert counts["restrict"] > 0
    assert counts["substitute"] == counts["restrict"]


def test_groupoid_commands_reuse_the_pairs_n_pi(monkeypatch, capsys):
    # N.pisharp is formed once per pair: pn_groupoid_check hands the total
    # pair's N pi to the unit-space check, and base_structure reads the base
    # pair's from its verdict. pair_groupoid.json passes all three commands.
    from pncalc import cli, linalg

    original = linalg.mat_mul
    calls = []

    def counting(A, B):
        calls.append((len(A), len(B[0])))
        return original(A, B)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    monkeypatch.setattr(pn, "mat_mul", counting)
    path = str(Path(__file__).resolve().parent.parent / "demos" / "documents" / "pair_groupoid.json")
    counts = {}
    for command in ("pn", "base", "coisotropic-invariant"):
        del calls[:]
        assert cli.main(["groupoid", command, "--input", path]) == 0
        counts[command] = len(calls)
    capsys.readouterr()
    assert counts == {"pn": 2, "base": 3, "coisotropic-invariant": 2}


def test_groupoid_pn_reduces_and_restricts_once(monkeypatch, capsys):
    # The graph and the unit diagonal are each reduced once at construction,
    # which reads the tangent basis off that reduction: 2 rref calls. Each nonzero
    # entry of the matrices paired on them is restricted once: 12 of the
    # lifted N and 12 of the graph bivector's sharp matrix on the graph; 4
    # each of N, pi, N pi and N^2 pi on the units. 40 restrictions, each a
    # move of exponent slots: both submanifolds identify coordinates.
    from pncalc import cli, linalg

    counts = {"rref": 0, "substitute": 0, "restrict": 0}

    def counting(name, original):
        def wrapped(*args):
            counts[name] += 1
            return original(*args)

        return wrapped

    rref = counting("rref", linalg.rref)
    monkeypatch.setattr(linalg, "rref", rref)
    monkeypatch.setattr(gd, "rref", rref)
    monkeypatch.setattr(
        Polynomial, "substitute", counting("substitute", Polynomial.substitute)
    )
    monkeypatch.setattr(
        AffineSubmanifold, "restrict", counting("restrict", AffineSubmanifold.restrict)
    )
    path = str(Path(__file__).resolve().parent.parent / "demos" / "documents" / "pair_groupoid.json")
    assert cli.main(["groupoid", "pn", "--input", path]) == 0
    capsys.readouterr()
    assert counts["rref"] == 2
    assert 0 < counts["restrict"] <= 40
    assert counts["substitute"] == 0
