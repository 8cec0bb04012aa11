"""Lie algebroids: differentials, dual Poisson structures, compatibility.

Run with: python3 demos/03_algebroids.py
"""

from pncalc import algebroid as ab, corpus, poisson_nijenhuis as pn
from pncalc.algebroid import AlgebroidSection

print("== the tangent algebroid and its deformation ==")
pi, tensor = corpus.conformal_pair()
tangent = ab.tangent_algebroid(tensor.chart)
deformed = ab.tangent_deformed_algebroid(tensor)
print(f"tangent bundle over {tensor.chart.coords}: valid "
      f"{ab.algebroid_validate(tangent).ok}")
print(f"deformed by N = (1 + x1) Id: valid {ab.algebroid_validate(deformed).ok}")

alpha = AlgebroidSection(deformed, 1, {(1,): "x1"})
image = ab.algebroid_differential(deformed, alpha)
print(f"d_N(x1 e2) components: "
      + ", ".join(f"({i + 1},{j + 1}) -> {v}" for (i, j), v in sorted(image.components.items())))

print()
print("== dual of a Lie algebra is linear Poisson ==")
algebras = corpus.point_lie_algebras()
so3 = algebras["so3"]
dual = ab.dual_linear_poisson(so3)
print(f"dual chart: {dual.chart.coords}")
print(f"pi_dual = {dual}")
print(f"linear bivector is Poisson: {pn.is_poisson(dual).ok}")

print()
print("== cotangent algebroid of a Poisson chart ==")
ctg = ab.cotangent_algebroid(corpus.so3_bivector())
print(f"rank {ctg.rank} over {ctg.base.coords}, valid "
      f"{ab.algebroid_validate(ctg).ok}")

print()
print("== compatibility of two algebroid structures ==")
heisenberg = algebras["heisenberg"]
affine = algebras["affine"]
good = ab.compat_check(so3, heisenberg)
bad = ab.compat_check(so3, affine)
print(f"so3 + heisenberg sums to a Lie algebra: {good.ok}")
print(f"so3 + affine sums to a Lie algebra:     {bad.ok}")
for key, value in list(bad.residuals().items())[:2]:
    print(f"  {key} = {value}")

print()
print("== bialgebroid derivation test ==")
abelian = algebras["abelian"]
print(f"(so3, abelian dual) is a bialgebroid: {ab.bialgebroid_check(so3, abelian).ok}")
print(f"(so3, affine dual) is a bialgebroid:  {ab.bialgebroid_check(so3, affine).ok}")

print()
print("== compatible pair induces a bialgebroid ==")
report = ab.pn_bialgebroid_check(pi, tensor)
print(f"tangent-deformed against cotangent: {report.ok}")
