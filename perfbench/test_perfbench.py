"""Self-checks of the benchmark: determinism, labels, tracing, contract.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run

pncalc = run.require_source()
from pncalc import algebroid, cli, document  # noqa: E402
from tracer import Tracer  # noqa: E402

# The smallest sizes of each workload's mix, by check-name prefix.
SMALLEST = {
    "pn_groupoid": ("dim2.", "dim4.", "base1.", "base2."),
    "lie_dense": ("point-gl2.", "point-so3.", "dual-so3.", "deg2."),
}


def _dump(checks):
    return [(c.name, c.argv, json.dumps(c.doc, sort_keys=True), c.exit, c.first_family) for c in checks]


def _smallest(workload, seed, tmp_path):
    """The smallest checks of cycles 0 and 1, written as documents."""
    out = []
    for index in (0, 1):
        for position, check in enumerate(gen.cycle(workload, seed, index)):
            if check.name.startswith(SMALLEST[workload]):
                path = tmp_path / f"{workload}-{index}-{position}.json"
                path.write_text(json.dumps(check.doc), encoding="utf-8")
                out.append((check, path))
    return out


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_documents_other_seed_other_documents(workload):
    first = _dump(gen.cycle(workload, 7, 0))
    assert first == _dump(gen.cycle(workload, 7, 0))
    assert first != _dump(gen.cycle(workload, 8, 0))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_no_document_repeats_within_a_run(workload, tmp_path):
    pool = run.build_pool(workload, 7, 12, tmp_path / "pool")
    texts = [path.read_text() for written in pool for _, path in written]
    assert len(set(texts)) == len(texts)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_smallest_sizes_load_and_hold_their_verdicts(workload, tmp_path):
    checks = _smallest(workload, 3, tmp_path)
    assert checks
    reports = []
    for check, path in checks:
        document.load_document(str(path))
        outcome = run.run_check(cli, check.argv, path)
        assert run.mismatch(check, outcome) is None, (check.name, outcome.output, outcome.error)
        reports.append(outcome.output)
    again = [run.run_check(cli, check.argv, path).output for check, path in checks]
    assert again == reports


def _module_state():
    state = {}
    for name, module in sys.modules.items():
        if name.startswith("pncalc."):
            state[name] = dict(vars(module))
    state["Polynomial"] = dict(vars(pncalc.polyalg.Polynomial))
    state["AffineSubmanifold"] = dict(vars(pncalc.groupoid_desk.AffineSubmanifold))
    state["Report"] = dict(vars(pncalc.report.Report))
    return state


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_traced_run_matches_untraced_and_repeats_its_counts(workload, tmp_path):
    checks = _smallest(workload, 5, tmp_path)
    plain = [run.run_check(cli, c.argv, p) for c, p in checks]
    before = _module_state()
    counts = []
    for _ in range(2):
        tracer = Tracer(pncalc)
        tracer.install()
        try:
            traced = [run.run_check(cli, c.argv, p) for c, p in checks]
        finally:
            tracer.uninstall()
        assert [(o.exit, o.output) for o in traced] == [(o.exit, o.output) for o in plain]
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls") or "products" in k})
        assert metrics["polyalg.mul.calls"] > 0
    assert counts[0] == counts[1]
    assert _module_state() == before


def test_tracer_self_time_excludes_child_spans(tmp_path):
    checks = _smallest("pn_groupoid", 1, tmp_path)
    tracer = Tracer(pncalc)
    tracer.install()
    try:
        for check, path in checks:
            run.run_check(cli, check.argv, path)
    finally:
        tracer.uninstall()
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, name, start, end, parent, check, own in tracer.spans:
        assert 0 <= own <= end - start + 1e-9
        if parent is not None:
            assert by_id[parent][2] <= start and end <= by_id[parent][3]
    assert tracer.span_totals["poisson_nijenhuis.is_pn_pair"][0] > 0


def test_oracles_accept_and_reject():
    alg = gen.MatrixAlgebra("gl", 2)
    base = alg.table(gen.commutator)
    zero = alg.table(gen.a_bracket([[0, 0], [0, 0]]))
    assert gen.is_bialgebra(base, zero, alg.rank)
    assert not gen.is_bialgebra(base, alg.table(gen.a_bracket([[1, 2], [0, 1]])), alg.rank)
    frozen = {key: sum(r * m for r, m in zip(row, (1, -2, 3, 1))) for key, row in base.items()}
    assert gen.is_two_cocycle(base, frozen, alg.rank)
    v = [gen._mul({(1, 0, 0): 1}, gen._diff({(0, 2, 1): 1}, k)) for k in range(3)]
    assert not gen.jacobi_density(v)
    assert gen.jacobi_density([{(0, 1, 0): 1}, {}, {(0, 0, 0): 1}])


def test_point_bialgebra_oracle_agrees_with_pncalc_when_it_passes(tmp_path):
    alg = gen.MatrixAlgebra("gl", 2)
    pair = {
        "first": gen._point_algebroid(alg, alg.table(gen.commutator)),
        "second": gen._point_algebroid(alg, alg.table(gen.a_bracket([[0, 0], [0, 0]]))),
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"chart": gen._chart([]), "algebroid_pair": pair}), encoding="utf-8")
    check = gen.Check("zero", ["algebroid", "bialgebroid"], None, 0, None, "zero cobracket")
    assert run.mismatch(check, run.run_check(cli, check.argv, path)) is None


def test_cotangent_construction_matches_pncalc():
    alg = gen.MatrixAlgebra("so", 3)
    table = alg.table(gen.commutator)
    lp = gen._lie_poisson(alg, table)
    names = alg.names
    built = document.parse_document({"chart": gen._chart(names), "algebroid": gen._cotangent_algebroid(lp, names)})
    bivector = document.parse_document({"chart": gen._chart(names), "bivector": gen._components(lp, names)})
    reference = algebroid.cotangent_algebroid(bivector.bivectors[0])
    assert built.algebroid.anchor == reference.anchor
    assert built.algebroid.structure == reference.structure


def test_tail_rank_leaves_ten_samples_above_in_ten_cycles():
    for workload in gen.WORKLOADS:
        items = len(gen.cycle(workload, 1, 0))
        rank = run.quantile_rank(items, run.TAIL_PERCENTILE)
        assert 10 * (items - rank) >= 10


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pn_groupoid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path, ".perfbench_work").exists() or not any(Path(tmp_path, ".perfbench_work").iterdir())
