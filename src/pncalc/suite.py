"""The acceptance battery: nine self-contained desk checks.

Each criterion function runs one scripted verification over the shared
fixtures in :mod:`pncalc.corpus` plus seeded random data, and returns a
:class:`pncalc.report.Report`. A pass report carries a ``checked`` entry
summarizing what ran; a fail report names every offending residual. The
battery is deterministic: seeds are fixed, so two runs agree entry for
entry.

Criterion 9 is different in kind. It re-runs earlier criteria with one
sign deliberately flipped inside a core convention (the graded Leibniz
sign of the bracket recursion, the bracket of coordinate differentials
induced by a bivector, the twist coefficients of the extended bracket)
and demands that the battery notices each sabotage. That guards against
the failure mode where a convention error cancels out of every test.
"""

from __future__ import annotations

import functools
import random
import time

from . import algebroid as ab
from . import cartan
from . import corpus
from . import groupoid_desk as gd
from . import jacobi as jc
from . import poisson_nijenhuis as pn
from .algebroid import AlgebroidSection
from .cartan import MultiVector
from .errors import InputError, InternalError, PreconditionError
from .polyalg import Polynomial
from .report import Report


def _criterion(name):
    """Make a criterion of ``check``, reported under ``name``.

    ``check()`` returns ``(failures, checked)``, and the criterion returns
    a fail report of the failures or a pass report saying what was checked,
    timed from the call. ``run_all`` reports a criterion that raises under
    the same ``report_name``.
    """

    def register(check):
        @functools.wraps(check)
        def criterion():
            started = time.perf_counter()
            failures, checked = check()
            elapsed = time.perf_counter() - started
            if failures:
                return Report(name, "fail", failures, elapsed)
            return Report(name, "pass", {"checked": checked}, elapsed)

        criterion.report_name = name
        return criterion

    return register


# -- criterion 1: bracket oracle agreement ------------------------------------


@_criterion("criterion-1-bracket-oracle")
def criterion_1():
    """Recursion and superpartial expansion agree; graded Jacobi holds."""
    failures = {}
    pairs = corpus.schouten_sample(20260816, 100)
    for i, (P, Q) in enumerate(pairs):
        if cartan.schouten(P, Q) != cartan.schouten_direct(P, Q):
            failures[f"oracle pair {i}"] = "implementations disagree"
    rng = random.Random(414243)
    for i in range(30):
        chart = rng.choice((corpus.R2, corpus.R3))
        degs = [rng.randint(0, min(3, chart.dim)) for _ in range(3)]
        P, Q, R = (
            corpus.random_multivector(rng, chart, d, max_degree=2, coeff_bound=3)
            for d in degs
        )
        p, q, r = degs

        def sgn(a, b):
            return 1 if ((a - 1) * (b - 1)) % 2 == 0 else -1

        # Identically zero inner brackets carry a clamped formal degree, so
        # only nonzero terms enter the sum; all of those share one degree.
        terms = [
            sgn(p, r) * cartan.schouten(P, cartan.schouten(Q, R)),
            sgn(q, p) * cartan.schouten(Q, cartan.schouten(R, P)),
            sgn(r, q) * cartan.schouten(R, cartan.schouten(P, Q)),
        ]
        terms = [t for t in terms if not t.is_zero()]
        total = terms[0] if terms else None
        for term in terms[1:]:
            total = total + term
        if total is not None and not total.is_zero():
            failures[f"graded jacobi triple {i}"] = str(total)
    return failures, "100 oracle pairs, 30 graded identity triples"


# -- criterion 2: deformation hierarchy ----------------------------------------


@_criterion("criterion-2-hierarchy")
def criterion_2():
    """Corpus pairs give a silent hierarchy; the diagonal counterexample fails."""
    failures = {}
    for label, pi, tensor in corpus.pn_pairs():
        result = pn.hierarchy(pi, tensor, 3)
        for key, value in result.residuals().items():
            failures[f"{label} {key}"] = value
    pi, tensor = corpus.constant_diagonal_counterexample()
    verdict = pn.is_pn_pair(pi, tensor)
    if verdict.ok or verdict.sharp_ok:
        failures["counterexample"] = "diag(2, 3) was not rejected at sharp compatibility"
    elif not any(key.startswith("sharp_compat") for key in verdict.residuals()):
        failures["counterexample"] = "rejection carries no sharp_compat residual"
    try:
        pn.hierarchy(pi, tensor, 3)
        failures["counterexample hierarchy"] = "hierarchy accepted a non-compatible pair"
    except PreconditionError:
        pass
    return failures, "3 corpus pairs to order 3, diagonal counterexample rejected"


# -- criterion 3: compatibility certificates -----------------------------------


def _compat_fixtures():
    """Twelve frame-sharing structure pairs, ten compatible and two not."""
    R2, R3 = corpus.R2, corpus.R3
    pi2 = corpus.unit_bivector_r2()
    so3 = corpus.so3_bivector()
    _, conformal = corpus.conformal_pair()
    lie = corpus.point_lie_algebras()
    steps = pn.hierarchy(pi2, conformal, 2).bivectors
    ctg = ab.cotangent_algebroid
    tangent = ab.tangent_algebroid
    deformed = ab.tangent_deformed_algebroid
    return (
        ("tangent/deformed conformal", tangent(R2), deformed(conformal), True),
        ("tangent/deformed identity", tangent(R3), deformed(pn.TensorOneOne.identity(R3)), True),
        ("hierarchy cotangent 0/1", ctg(steps[0]), ctg(steps[1]), True),
        ("hierarchy cotangent 0/2", ctg(steps[0]), ctg(steps[2]), True),
        ("cotangent so3 self", ctg(so3), ctg(so3), True),
        ("cotangent plane pencil", ctg(pi2), ctg(MultiVector(R2, 2, {(0, 1): "x1"})), True),
        ("cotangent so3/constant", ctg(so3), ctg(MultiVector(R3, 2, {(0, 1): 1})), True),
        ("so3/abelian", lie["so3"], lie["abelian"], True),
        ("so3/heisenberg", lie["so3"], lie["heisenberg"], True),
        (
            "deformed conformal x1/x2",
            deformed(conformal),
            deformed(pn.TensorOneOne.scalar(R2, R2.parse("1 + x2"))),
            True,
        ),
        ("so3/affine", lie["so3"], lie["affine"], False),
        ("cotangent so3/linear", ctg(so3), ctg(MultiVector(R3, 2, {(0, 1): "x1"})), False),
    )


@_criterion("criterion-3-compatibility-certificates")
def criterion_3():
    """Three compatibility certificates return identical verdicts on 12 pairs."""
    failures = {}
    fixtures = _compat_fixtures()
    for label, first, second, expected in fixtures:
        verdict = ab.compat_check(first, second)
        votes = (verdict.certificate_a, verdict.certificate_b, verdict.certificate_c)
        if len(set(votes)) != 1:
            failures[label] = f"certificates disagree: {votes}"
        elif verdict.ok is not expected:
            failures[label] = f"expected ok={expected}, got {verdict.ok}"
    return failures, f"{len(fixtures)} pairs, 10 compatible and 2 not, 3 certificates each"


# -- criterion 4: dual differentials as derivations -----------------------------


@_criterion("criterion-4-dual-derivation")
def criterion_4():
    """Tangent/cotangent pairs pass; a corrupted table fails with a residual."""
    failures = {}
    R2, R3 = corpus.R2, corpus.R3
    pi2 = corpus.unit_bivector_r2()
    so3 = corpus.so3_bivector()
    lie = corpus.point_lie_algebras()
    cases = [
        ("tangent/so3", ab.tangent_algebroid(R3), ab.cotangent_algebroid(so3)),
        ("tangent/plane", ab.tangent_algebroid(R2), ab.cotangent_algebroid(pi2)),
        ("so3/abelian", lie["so3"], lie["abelian"]),
    ]
    for label, pi, tensor in corpus.pn_pairs():
        cases.append(
            (
                f"deformed/{label}",
                ab.tangent_deformed_algebroid(tensor),
                ab.cotangent_algebroid(pi),
            )
        )
    for label, primary, dual in cases:
        verdict = ab.bialgebroid_check(primary, dual)
        for key, value in verdict.residuals().items():
            failures[f"{label} {key}"] = value
    corrupted = ab.bialgebroid_check(lie["so3"], lie["affine"])
    if corrupted.ok or not corrupted.residuals():
        failures["corrupted table"] = "sabotaged dual structure passed the derivation check"
    return failures, (
        f"{len(cases)} pairs pass, corrupted table fails with "
        f"{len(corrupted.residuals()) or 'no'} residuals"
    )


# -- criterion 5: extended-bracket characterization ----------------------------


def _random_field_pair(rng, chart):
    pi = corpus.random_multivector(rng, chart, 2, max_degree=2, coeff_bound=2)
    field = corpus.random_multivector(rng, chart, 1, max_degree=2, coeff_bound=2)
    return jc.JacobiPair(pi, field)


@_criterion("criterion-5-extended-bracket")
def criterion_5():
    """Direct and twisted-diagonal characterizations agree; jets validate."""
    failures = {}
    rng = random.Random(515151)
    samples = [p for _, p in corpus.jacobi_pairs() if p.chart.dim > 0]
    while len(samples) < 26:
        samples.append(_random_field_pair(rng, rng.choice((corpus.R2, corpus.R3))))
    for i, pair in enumerate(samples):
        verdict = jc.is_jacobi(pair)
        if verdict.direct_ok is not verdict.twisted_ok:
            failures[f"characterization {i}"] = "direct and twisted verdicts disagree"
        poisson = pn.is_poisson(jc.homogenized_bivector(pair))
        if poisson.ok is not verdict.ok:
            failures[f"homogenization {i}"] = "cone bivector disagrees with the pair verdict"
    for label, pair in corpus.jacobi_pairs():
        jet = jc.first_jet_algebroid(pair)
        check = ab.algebroid_validate(jet)
        for key, value in check.residuals().items():
            failures[f"jet {label} {key}"] = value
    for label, pair in corpus.jacobi_pairs()[:4]:
        jet = jc.first_jet_algebroid(pair)
        structure = jc.ExtendedSection(pair.pi, pair.e)
        chart = pair.chart
        sections = [
            jc.ExtendedSection(MultiVector(chart, 0, {(): corpus.random_polynomial(rng, chart, 2)}))
            for _ in range(2)
        ]
        sections += [
            jc.ExtendedSection(
                corpus.random_multivector(rng, chart, 1, max_degree=2, coeff_bound=2),
                corpus.random_multivector(rng, chart, 0, max_degree=2, coeff_bound=2),
            )
            for _ in range(2)
        ]
        for j, section in enumerate(sections):
            lhs = jc.jacobi_differential(pair, section, jet=jet)
            rhs = jc.twisted_gerstenhaber(structure, section)
            if lhs != rhs:
                failures[f"differential {label} {j}"] = "differential and bracket disagree"
    return failures, "26 characterization pairs, 6 jets validated, 16 differential probes"


# -- criterion 6: pair-groupoid round trip --------------------------------------


def _swap_names(G):
    """The renames that exchange each base coordinate with its ``y_`` copy."""
    names = {c: "y_" + c for c in G.base.coords}
    names.update({y: c for c, y in names.items()})
    return names


def _swap_bivector(G, pi):
    n, names = G.base.dim, _swap_names(G)
    comps = {}
    for (a, b), poly in pi.components.items():
        key = ((a + n) % (2 * n), (b + n) % (2 * n))
        comps[key] = poly.embed(G.total.coords, names)
    return MultiVector(G.total, 2, comps)


def _swap_tensor(G, tensor):
    n, names = G.base.dim, _swap_names(G)
    m = 2 * n
    zero = G.total.zero()
    entries = [[zero] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            entries[(a + n) % m][(b + n) % m] = tensor.entries[a][b].embed(
                G.total.coords, names
            )
    return pn.TensorOneOne(G.total, entries)


@_criterion("criterion-6-groupoid-round-trip")
def criterion_6():
    """Lift, check, and project back: the base pair returns unchanged."""
    failures = {}
    for label, pi, tensor in corpus.pn_pairs():
        G = gd.PairGroupoid(pi.chart)
        piG = gd.pair_bivector(G, pi)
        NG = gd.pair_tensor(G, tensor)
        verdict = gd.pn_groupoid_check(G, piG, NG)
        for key, value in verdict.residuals().items():
            failures[f"{label} {key}"] = value
        recovered = gd.base_structure(G, piG, NG)
        if not recovered.ok:
            failures[f"{label} recovery"] = "; ".join(recovered.residuals()) or "failed"
        if recovered.pi != pi or recovered.tensor.entries != tensor.entries:
            failures[f"{label} recovery value"] = "projection did not return the input pair"
        unit = gd.coisotropic_invariant_check(piG, NG, G.unit_diagonal())
        for key, value in unit.residuals().items():
            failures[f"{label} unit {key}"] = value
        if _swap_bivector(G, piG) != piG * (-1):
            failures[f"{label} inversion bivector"] = "swap did not negate the lift"
        if _swap_tensor(G, NG).entries != NG.entries:
            failures[f"{label} inversion tensor"] = "swap did not commute with the lift"

    pi, tensor = corpus.conformal_pair()
    G = gd.PairGroupoid(pi.chart)
    piG = gd.pair_bivector(G, pi)
    NG = gd.pair_tensor(G, tensor)
    n = pi.chart.dim
    entries = [list(row) for row in NG.entries]
    entries[0][n] = entries[0][n] + Polynomial.constant(G.total.coords, 1)
    crossed = gd.pn_groupoid_check(G, piG, pn.TensorOneOne(G.total, entries))
    if crossed.ok or not crossed.residuals():
        failures["cross-block tensor"] = "off-diagonal block escaped the graph check"
    x_lift = MultiVector(
        G.total,
        2,
        {key: poly.embed(G.total.coords) for key, poly in pi.components.items()},
    )
    wrong_sign = x_lift * 2 - piG
    sign_check = gd.poisson_groupoid_check(G, wrong_sign)
    if sign_check.ok or not sign_check.residuals():
        failures["wrong-sign lift"] = "same-sign lift escaped the coisotropy check"
    return failures, "3 pairs lifted, checked, recovered; 2 sabotages rejected"


# -- criterion 7: lifted pair on the dual chart ---------------------------------


@_criterion("criterion-7-lifted-pair")
def criterion_7():
    """The tangent/cotangent construction passes all stages for corpus pairs."""
    failures = {}
    for label, pi, tensor in corpus.pn_pairs():
        verdict = ab.pn_bialgebroid_check(pi, tensor, hierarchy_orders=2)
        for key, value in verdict.residuals().items():
            failures[f"{label} {key}"] = value
        if not verdict.lift_pair.ok:
            failures[f"{label} lift"] = "lifted pair is not compatible"
    return failures, "3 corpus pairs through all four stages, hierarchy order 2"


# -- criterion 8: deformed differential coherence -------------------------------


@_criterion("criterion-8-deformed-differential")
def criterion_8():
    """The contraction-commutator differential matches the deformed structure."""
    failures = {}
    rng = random.Random(818283)
    for label, tensor in corpus.nijenhuis_tensors():
        chart = tensor.chart
        deformed = ab.tangent_deformed_algebroid(tensor)
        for degree in range(3):
            for i in range(2):
                omega = corpus.random_form(rng, chart, degree, max_degree=2, coeff_bound=3)
                lhs = pn.d_n(tensor, omega)
                rhs = ab.algebroid_differential(
                    deformed, AlgebroidSection(deformed, degree, omega.components)
                )
                if lhs.components != rhs.components:
                    failures[f"{label} degree {degree} sample {i}"] = "differentials disagree"
                anti = pn.d_n(tensor, cartan.exterior_d(omega)) + cartan.exterior_d(
                    pn.d_n(tensor, omega)
                )
                if not anti.is_zero():
                    failures[f"{label} anticommutator degree {degree} sample {i}"] = str(anti)
    return failures, "5 tensors, degrees 0..2, 2 samples each, anticommutator included"


# -- criterion 9: mutation sensitivity ------------------------------------------


# unittest.mock is imported inside the three patches below, not at the top:
# it pulls in asyncio, ssl and concurrent.futures, which every start of the
# CLI would otherwise pay for.


def _flip_leibniz():
    from unittest import mock

    original = cartan._leibniz_sign
    return mock.patch.object(cartan, "_leibniz_sign", lambda p, q: -original(p, q))


def _flip_koszul():
    from unittest import mock

    original = pn.koszul_bracket
    return mock.patch.object(
        pn, "koszul_bracket", lambda pi, alpha, beta: original(pi, alpha, beta) * -1
    )


def _flip_twist():
    from unittest import mock

    original = jc._twist_coeffs

    def flipped(p, q):
        a, b = original(p, q)
        return a, -b

    return mock.patch.object(jc, "_twist_coeffs", flipped)


MUTATIONS = (
    ("graded Leibniz sign flipped", _flip_leibniz, criterion_1),
    ("coordinate-differential bracket negated", _flip_koszul, criterion_3),
    ("extended-bracket twist coefficient negated", _flip_twist, criterion_5),
)


@_criterion("criterion-9-mutation-sensitivity")
def criterion_9():
    """Each single-sign sabotage of a core convention trips the battery."""
    failures = {}
    for label, patcher, criterion in MUTATIONS:
        with patcher():
            try:
                report = criterion()
                detected = not report.ok
            except (InternalError, PreconditionError, InputError):
                detected = True
        if not detected:
            failures[label] = "sabotage went unnoticed"
    return failures, f"{len(MUTATIONS)} sign mutations, each detected by an earlier criterion"


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all():
    """One report per criterion; failures are reported, never raised."""
    reports = []
    for criterion in ALL_CRITERIA:
        started = time.perf_counter()
        try:
            reports.append(criterion())
        except (InternalError, PreconditionError, InputError) as exc:
            reports.append(
                Report(
                    criterion.report_name,
                    "fail",
                    {"unexpected " + type(exc).__name__: str(exc)},
                    time.perf_counter() - started,
                )
            )
    return tuple(reports)
