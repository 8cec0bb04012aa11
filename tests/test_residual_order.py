"""Order and strings of the residual families of failing verdicts.

Text reports print residuals in the order a verdict lists them, and the
``--json`` golden sorts its keys, so this file pins the order itself:
``golden_residuals.json`` holds ``list(verdict.residuals().items())`` for
one failing input of each kind of check. After a deliberate change of
order or wording, rewrite the file with

    PYTHONPATH=src python tests/test_residual_order.py --write

The last tests hold the contract of every verdict class: its fields, by
position or keyword, and no assignment after construction.
"""

import json
import sys
from pathlib import Path

import pytest

from pncalc import algebroid as ab
from pncalc import cartan, corpus, suite
from pncalc import groupoid_desk as gd
from pncalc import jacobi as jc
from pncalc import poisson_nijenhuis as pn
from pncalc.cartan import MultiVector
from pncalc.corpus import R2, R3
from pncalc.polyalg import Polynomial
from pncalc.report import Verdict

GOLDEN = Path(__file__).resolve().parent / "golden_residuals.json"


def _diagonal_counterexample():
    return pn.is_pn_pair(*corpus.constant_diagonal_counterexample())


def _holomorphic_same_bivector():
    J = pn.TensorOneOne(R2, [[0, -1], [1, 0]])
    pi = corpus.unit_bivector_r2()
    return pn.holomorphic_check(pi, pi, J)


def _incompatible(label):
    def build():
        for name, first, second, expected in suite._compat_fixtures():
            if name == label:
                assert not expected
                return ab.compat_check(first, second)
        raise KeyError(label)

    return build


def _corrupted_table():
    lie = corpus.point_lie_algebras()
    return ab.bialgebroid_check(lie["so3"], lie["affine"])


def _deformed_tangent_against_so3():
    # (TM_N, T*M_pi) with N = (1 + x1) Id: N is torsion-free, but N and the
    # so(3)* bivector are not compatible, so d_* fails to be a derivation
    tangent = ab.tangent_deformed_algebroid(pn.TensorOneOne.scalar(R3, "1 + x1"))
    return ab.bialgebroid_check(tangent, ab.cotangent_algebroid(corpus.so3_bivector()))


def _cross_block_tensor():
    pi, tensor = corpus.conformal_pair()
    G = gd.PairGroupoid(pi.chart)
    entries = [list(row) for row in gd.pair_tensor(G, tensor).entries]
    entries[0][2] = entries[0][2] + Polynomial.constant(G.total.coords, 1)
    return gd.pn_groupoid_check(G, gd.pair_bivector(G, pi), pn.TensorOneOne(G.total, entries))


def _wrong_sign_lift():
    pi = corpus.unit_bivector_r2()
    G = gd.PairGroupoid(pi.chart)
    x_lift = MultiVector(
        G.total, 2, {key: poly.embed(G.total.coords) for key, poly in pi.components.items()}
    )
    return gd.poisson_groupoid_check(G, x_lift * 2 - gd.pair_bivector(G, pi))


def _not_jacobi():
    return jc.is_jacobi(
        jc.JacobiPair(MultiVector(R3, 2, {(0, 1): 1}), cartan.coordinate_vector(R3, 2))
    )


def _plane_and_field():
    plane = jc.JacobiPair(MultiVector(R3, 2, {(0, 1): 1}), MultiVector(R3, 1, {}))
    field = jc.JacobiPair(MultiVector(R3, 2, {}), cartan.coordinate_vector(R3, 2))
    return jc.jacobi_compat(plane, field)


def _coisotropic_invariant():
    # d2 ^ d3 pairs the two conormals of the x1 axis; the shear moves d1 to d2
    pi = MultiVector(R3, 2, {(1, 2): 1})
    shear = pn.TensorOneOne(R3, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    return gd.coisotropic_invariant_check(pi, shear, gd.AffineSubmanifold(R3, ["x2", "x3"]))


CASES = {
    "is_pn_pair diagonal counterexample": _diagonal_counterexample,
    "holomorphic_check same bivector": _holomorphic_same_bivector,
    "compat_check so3/affine": _incompatible("so3/affine"),
    "compat_check cotangent so3/linear": _incompatible("cotangent so3/linear"),
    "bialgebroid_check corrupted table": _corrupted_table,
    "bialgebroid_check deformed tangent/so3": _deformed_tangent_against_so3,
    "pn_groupoid_check cross-block tensor": _cross_block_tensor,
    "poisson_groupoid_check wrong-sign lift": _wrong_sign_lift,
    "is_jacobi non-Jacobi pair": _not_jacobi,
    "jacobi_compat plane/field": _plane_and_field,
    "coisotropic_invariant_check shear": _coisotropic_invariant,
}


def record():
    return {name: [list(item) for item in build().residuals().items()] for name, build in CASES.items()}


@pytest.fixture(scope="module")
def verdicts():
    return {name: build() for name, build in CASES.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_residuals_match_golden_order(verdicts, name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [list(item) for item in verdicts[name].residuals().items()] == golden[name]


def test_ok_renders_nothing(verdicts, monkeypatch):
    def refuse(self):
        raise AssertionError("ok rendered a residual")

    monkeypatch.setattr(Polynomial, "__str__", refuse)
    for name, verdict in verdicts.items():
        assert not verdict.ok, name


@pytest.mark.parametrize("cls", Verdict.__subclasses__(), ids=lambda cls: cls.__name__)
def test_verdict_fields_by_position_or_keyword_and_immutable(cls):
    names = cls.__slots__
    values = [object() for _ in names]
    for verdict in (cls(*values), cls(**dict(zip(names, values)))):
        assert [getattr(verdict, name) for name in names] == values
        for name in (names[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(verdict, name, None)
    for args, kwargs in (
        (values + [None], {}),
        ((), dict(zip(names[1:], values[1:]))),
        (values, {names[0]: None}),
        (values, {"extra": None}),
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_only_n_pi_has_a_default():
    assert len(Verdict.__subclasses__()) == 16
    assert [cls.__name__ for cls in Verdict.__subclasses__() if cls._defaults] == ["PNVerdict"]
    assert pn.PNVerdict(1, 2, 3, 4).npi is None


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_residual_order.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} residual lists to {GOLDEN}")
