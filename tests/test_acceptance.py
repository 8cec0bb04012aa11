"""Acceptance gate: every criterion of the battery must pass exactly.

Each test runs one criterion from pncalc.suite and prints its pass or
fail line (run pytest with -s to see the lines live; `pncalc suite`
prints the same battery standalone). Nothing here tolerates an
approximate zero: a criterion fails if any residual polynomial has a
single nonzero coefficient.
"""

from pncalc import suite
from pncalc.report import Report


def _announce(report: Report):
    detail = report.residuals.get("checked")
    status = "PASS" if report.ok else "FAIL"
    line = f"{report.command}: {status}"
    if detail:
        line += f" -- {detail}"
    if not report.ok:
        line += " -- " + "; ".join(
            f"{k} = {v}" for k, v in list(report.residuals.items())[:5]
        )
    print(line)
    assert report.ok, line


def test_criterion_1_bracket_oracle():
    _announce(suite.criterion_1())


def test_criterion_2_hierarchy():
    _announce(suite.criterion_2())


def test_criterion_3_compatibility_certificates():
    _announce(suite.criterion_3())


def test_criterion_4_dual_derivation():
    _announce(suite.criterion_4())


def test_criterion_5_extended_bracket():
    _announce(suite.criterion_5())


def test_criterion_6_groupoid_round_trip():
    _announce(suite.criterion_6())


def test_criterion_7_lifted_pair():
    _announce(suite.criterion_7())


def test_criterion_8_deformed_differential():
    _announce(suite.criterion_8())


def test_criterion_9_mutation_sensitivity():
    assert len(suite.MUTATIONS) >= 3
    _announce(suite.criterion_9())


def test_sign_sabotage_caught_after_groupoid_caches_fill():
    # A groupoid check fills the per-submanifold caches first. Criterion 9
    # must then catch every sign patch, twice, and each sabotaged criterion
    # must pass again once its patch is lifted: no cached value crosses a patch.
    _announce(suite.criterion_6())
    for _ in range(2):
        _announce(suite.criterion_9())
        for label, _, criterion in suite.MUTATIONS:
            assert criterion().ok, f"{label}: a patched result outlived the patch"


def test_run_all_shields_exceptions(monkeypatch):
    def boom():
        raise suite.InternalError("synthetic disagreement")

    # criterion 3 raises before it checks anything, and keeps its report name
    monkeypatch.setattr(suite, "_compat_fixtures", boom)
    monkeypatch.setattr(suite, "ALL_CRITERIA", (suite.criterion_3,))
    reports = suite.run_all()
    assert len(reports) == 1
    assert reports[0].verdict == "fail"
    assert "unexpected InternalError" in reports[0].residuals
    assert reports[0].command == "criterion-3-compatibility-certificates"
