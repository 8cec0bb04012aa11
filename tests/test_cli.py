"""Command line behavior: exit codes, report shape, byte-stable JSON."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncalc import cli, document, report
from pncalc import groupoid_desk as gd
from pncalc import poisson_nijenhuis as pn
from pncalc.errors import InputError

SO3_DOC = {
    "chart": {"dim": 3, "coordinates": ["x1", "x2", "x3"]},
    "bivector": {"1,2": "x3", "1,3": "-x2", "2,3": "x1"},
}

CONFORMAL_DOC = {
    "chart": {"coordinates": ["x1", "x2"]},
    "bivector": {"1,2": "1"},
    "tensor11": [["1 + x1", "0"], ["0", "1 + x1"]],
}

DIAG_DOC = {
    "chart": {"coordinates": ["x1", "x2"]},
    "bivector": {"1,2": "1"},
    "tensor11": [["2", "0"], ["0", "3"]],
}

CONTACT_DOC = {
    "chart": {"coordinates": ["x1", "x2", "x3"]},
    "jacobi": {"bivector": {"1,2": "-1", "2,3": "x2"}, "field": {"3": "1"}},
}

GROUPOID_DOC = {
    "chart": {"coordinates": ["x1", "x2"]},
    "pair_groupoid": {
        "bivector": {"1,2": "1"},
        "tensor11": [["1 + x1", "0"], ["0", "1 + x1"]],
    },
}


@pytest.fixture
def write_doc(tmp_path):
    def _write(data, name="doc.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return _write


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_import_leaves_mock_and_asyncio_out():
    # unittest.mock pulls in asyncio; only the criterion-9 patches need it
    package_root = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(package_root))
    code = (
        "import sys, pncalc.cli; "
        "print(sorted(m for m in ('unittest.mock', 'asyncio') if m in sys.modules))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def _parse_outcome(capsys, call, argv):
    with pytest.raises(SystemExit) as exc:
        call(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


_COMMAND_WORDS = [command.split() for command in cli.HANDLERS] + [["suite"]]


@pytest.mark.parametrize("words", _COMMAND_WORDS, ids=" ".join)
def test_leaf_parsing_matches_the_full_parser(capsys, monkeypatch, words):
    # main() builds only the named leaf's parser; help and errors must be
    # the bytes the full tree gives
    monkeypatch.setenv("COLUMNS", "80")
    variants = [
        ["-h"],
        ["--max-order", "x"],
        ["--bogus"],
        ["--input", "doc.json", "--bogus"],
        ["--input", "doc.json", "stray"],
        ["--json=1"],
    ]
    if words != ["suite"]:
        variants.append([])  # a missing --input
    for rest in variants:
        argv = words + rest
        want = _parse_outcome(capsys, lambda a: cli.build_parser().parse_args(a), argv)
        assert _parse_outcome(capsys, cli.main, argv) == want, argv
        assert want[0] in (0, 2)


def test_a_leaf_parser_is_built_once_per_process(capsys, monkeypatch, write_doc):
    # two checks of one command parse with one leaf parser
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._leaf_parser.cache_clear()
    path = write_doc(CONFORMAL_DOC)
    try:
        for _ in range(2):
            assert run_cli(capsys, ["check-pn", "--input", path, "--json"])[0] == 0
    finally:
        cli._leaf_parser.cache_clear()
    assert built == ["pncalc check-pn"]


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        [],
        ["bogus"],
        ["--json", "check-pn"],
        ["algebroid"],
        ["algebroid", "-h"],
        ["algebroid", "bogus", "--input", "doc.json"],
        ["jacobi", "validate"],
        ["groupoid", "--bogus"],
    ],
)
def test_top_level_parsing_matches_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    want = _parse_outcome(capsys, lambda a: cli.build_parser().parse_args(a), argv)
    assert _parse_outcome(capsys, cli.main, argv) == want


def _listed_commands(help_text):
    # one row per subcommand: four spaces, its name, then its help line
    return [m.group(1) for m in re.finditer(r"^ {4}(\S+)", help_text, re.MULTILINE)]


def test_help_lists_commands_in_table_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    tops, leaves = [], {}
    for words in cli.COMMANDS:
        if words[0] not in tops:
            tops.append(words[0])
        if len(words) == 2:
            leaves.setdefault(words[0], []).append(words[1])
    assert _listed_commands(cli.build_parser().format_help()) == tops
    for group, names in leaves.items():
        code, out, _ = _parse_outcome(capsys, cli.main, [group, "-h"])
        assert code == 0
        assert _listed_commands(out) == names
    assert set(cli.HANDLERS) == {" ".join(w) for w in cli.COMMANDS} - {"suite"}


class TestExitCodes:
    def test_pass_is_zero(self, capsys, write_doc):
        code, out = run_cli(capsys, ["check-poisson", "--input", write_doc(SO3_DOC)])
        assert code == 0
        assert "verdict: pass" in out

    def test_math_failure_is_one(self, capsys, write_doc):
        code, out = run_cli(capsys, ["check-pn", "--input", write_doc(DIAG_DOC)])
        assert code == 1
        assert "verdict: fail" in out
        assert "sharp_compat" in out

    def test_parse_error_is_two(self, capsys, write_doc):
        path = write_doc({"chart": {"coordinates": ["x1", "x2"]}, "bivector": {"1,2": "x1 +* 2"}})
        code, out = run_cli(capsys, ["check-poisson", "--input", path])
        assert code == 2
        assert "verdict: error" in out

    def test_deep_nesting_is_two(self, capsys, write_doc):
        deep = "(" * 3000 + "x1" + ")" * 3000
        path = write_doc({"chart": {"coordinates": ["x1", "x2"]}, "tensor11": [[deep, "0"], ["0", "1"]]})
        code, out = run_cli(capsys, ["check-nijenhuis", "--input", path, "--json"])
        assert code == 2
        data = json.loads(out)
        assert data["verdict"] == "error"
        assert "nested more than 100 deep" in data["residuals"]["error"]

    @pytest.mark.parametrize(
        "raw",
        [
            b"[" * 100_000 + b"]" * 100_000,
            b'{"chart": {"coordinates": ["x1", "x2"]}, "bivector": {"1,2": ' + b"9" * 5000 + b"}}",
            b"\xff\xfe{",
        ],
        ids=["nested-100000-deep", "5000-digit-integer", "not-utf-8"],
    )
    def test_hostile_json_is_two(self, capsys, tmp_path, raw):
        # the reader's own refusals: the message depends on the Python version
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        code, out = run_cli(capsys, ["check-poisson", "--input", str(path), "--json"])
        assert code == 2
        assert "Traceback" not in out
        assert json.loads(out)["verdict"] == "error"

    @pytest.mark.parametrize("index", ["\u00b2", "1" * 5000], ids=["superscript", "5000-digit"])
    @pytest.mark.parametrize(
        "argv, block",
        [
            (["check-poisson"], lambda key: {"bivector": {key: "x1"}}),
            (["check-nijenhuis"], lambda key: {"tensor11": {key: "x1"}}),
            (["algebroid", "validate"], lambda key: {"structure": {key: ["0", "0", "1"]}}),
            (["algebroid", "diff"], lambda key: {"section": {"degree": 2, "components": {key: "1"}}}),
        ],
        ids=["bivector", "tensor11", "structure", "section"],
    )
    def test_an_index_int_cannot_read_is_two(self, capsys, write_doc, argv, block, index):
        # str.isdigit accepts a superscript, and int refuses over 4300 digits
        key = f"1,{index}"
        if argv[0] == "algebroid":
            doc = {"chart": {"coordinates": []}, "algebroid": {**SO3_LIE, **block(key)}}
        else:
            doc = {"chart": {"coordinates": ["x1", "x2"]}, **block(key)}
        code, out = run_cli(capsys, [*argv, "--input", write_doc(doc), "--json"])
        assert code == 2
        assert "Traceback" not in out
        assert repr(key) in json.loads(out)["residuals"]["error"]

    @pytest.mark.parametrize(
        "text, message",
        [
            # int() refuses a superscript digit; it is a ParseError at that digit
            ("x3^\u00b2", "expected an integer (at position 3)"),
            # wider than Python's limit on int() of a string
            ("9" * 5000, "integer literal longer than 1000 digits (at position 0)"),
            ("x1^101", "exponent 101 above the budget of 100 (at position 3)"),
        ],
    )
    def test_literal_the_reader_refuses_is_two(self, capsys, write_doc, text, message):
        path = write_doc({"chart": {"coordinates": ["x1", "x2", "x3"]}, "bivector": {"1,2": text}})
        code, out = run_cli(capsys, ["check-poisson", "--input", path, "--json"])
        assert code == 2
        data = json.loads(out)
        assert data["verdict"] == "error"
        assert data["residuals"] == {"error": message}

    def test_power_over_the_term_budget_is_two_before_it_is_formed(self, capsys, write_doc):
        doc = {
            "chart": {"coordinates": ["x1", "x2", "x3", "x4"]},
            "bivector": {"1,2": "((x1+x2+x3+x4)^8)^4", "3,4": "1"},
        }
        path = write_doc(doc)
        start = time.perf_counter()
        code, out = run_cli(capsys, ["check-poisson", "--input", path])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "verdict: error" in out
        assert "could have 6545 terms, above the budget of 5000" in out

    @pytest.mark.parametrize(
        "block",
        [
            {"rank": True, "basis": ["e1"]},
            {"rank": 1, "basis": ["e1"], "section": {"degree": False}},
        ],
    )
    def test_boolean_rank_or_degree_is_two(self, capsys, write_doc, block):
        # JSON true/false are not counts, even though Python's bool is an int
        path = write_doc({"chart": {"coordinates": []}, "algebroid": block})
        code, out = run_cli(capsys, ["algebroid", "validate", "--input", path, "--json"])
        assert code == 2
        assert json.loads(out)["verdict"] == "error"

    def test_invalid_json_is_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, ["check-poisson", "--input", str(path)])
        assert code == 2
        assert "invalid JSON" in out

    def test_missing_file_is_two(self, capsys, tmp_path):
        code, out = run_cli(capsys, ["check-poisson", "--input", str(tmp_path / "absent.json")])
        assert code == 2

    def test_missing_block_is_two(self, capsys, write_doc):
        path = write_doc({"chart": {"coordinates": ["x1", "x2"]}})
        code, out = run_cli(capsys, ["check-poisson", "--input", path])
        assert code == 2
        assert "bivector" in out

    @pytest.mark.parametrize("name", ["a+b", "x y", "x1 ", "2x"])
    def test_coordinate_no_text_can_name_is_two(self, capsys, write_doc, name):
        doc = {"chart": {"coordinates": ["x1", name]}, "bivector": {"1,2": "x1"}}
        code, out = run_cli(capsys, ["check-poisson", "--input", write_doc(doc), "--json"])
        assert code == 2
        assert json.loads(out)["residuals"] == {"error": f"bad coordinate name {name!r}"}

    def test_precondition_failure_is_one(self, capsys, write_doc):
        # not Poisson, so the hierarchy hypothesis fails: exit 1, not 2
        doc = {
            "chart": {"coordinates": ["x1", "x2", "x3"]},
            "bivector": {"1,2": "x1", "1,3": "-1", "2,3": "1"},
            "tensor11": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }
        code, out = run_cli(capsys, ["hierarchy", "--input", write_doc(doc)])
        assert code == 1
        assert "precondition" in out

    def test_internal_disagreement_is_three(self, capsys, write_doc, monkeypatch):
        # A multiplicative tensor's source block is free of y_x1, so
        # base_structure's guard can only fire when pn_groupoid_check passes
        # what it should not: the patch makes it pass a y-dependent block.
        doc = {
            "chart": {"coordinates": ["x1"]},
            "pair_groupoid": {
                "total_bivector": {},
                "total_tensor11": {"1,1": "1 + y_x1", "2,2": "1"},
            },
        }
        path = write_doc(doc)
        code, out = run_cli(capsys, ["groupoid", "base", "--input", path, "--json"])
        assert code == 1
        passing = SimpleNamespace(ok=True, require=lambda message: None)
        monkeypatch.setattr(gd, "pn_groupoid_check", lambda *args: passing)
        code, out = run_cli(capsys, ["groupoid", "base", "--input", path, "--json"])
        assert code == 3
        data = json.loads(out)
        assert data["verdict"] == "internal"
        assert "depends on the target coordinates" in data["residuals"]["internal error"]
        code, out = run_cli(capsys, ["groupoid", "base", "--input", path])
        assert code == 3
        assert "verdict: internal" in out

    def test_failed_jet_validation_names_its_residuals(self, capsys, write_doc, monkeypatch):
        from pncalc import jacobi
        from pncalc.algebroid import AlgebroidVerdict
        from pncalc.corpus import R3

        failing = AlgebroidVerdict({(0, 1, 2): R3.parse("x1")}, {})
        monkeypatch.setattr(jacobi, "algebroid_validate", lambda jet: failing)
        path = write_doc(CONTACT_DOC)
        code, out = run_cli(capsys, ["jacobi", "jet-algebroid", "--input", path, "--json"])
        assert code == 3
        assert json.loads(out)["residuals"] == {
            "internal error": "first-jet table failed validation: {'jacobi(1,2,3)': 'x1'}"
        }


class TestJsonOutput:
    def test_byte_stable(self, capsys, write_doc):
        path = write_doc(SO3_DOC)
        _, first = run_cli(capsys, ["check-poisson", "--input", path, "--json"])
        _, second = run_cli(capsys, ["check-poisson", "--input", path, "--json"])
        assert first == second

    def test_elapsed_is_null_and_keys_sorted(self, capsys, write_doc):
        _, out = run_cli(capsys, ["check-poisson", "--input", write_doc(SO3_DOC), "--json"])
        data = json.loads(out)
        assert data["elapsed"] is None
        assert data["verdict"] == "pass"
        assert list(data) == sorted(data)

    def test_failure_json_carries_residuals(self, capsys, write_doc):
        _, out = run_cli(capsys, ["check-pn", "--input", write_doc(DIAG_DOC), "--json"])
        data = json.loads(out)
        assert data["verdict"] == "fail"
        assert any(key.startswith("sharp_compat") for key in data["residuals"])


class TestTensorCommands:
    def test_check_nijenhuis_pass(self, capsys, write_doc):
        code, _ = run_cli(capsys, ["check-nijenhuis", "--input", write_doc(CONFORMAL_DOC)])
        assert code == 0

    def test_torsion_reports_components(self, capsys, write_doc):
        doc = {
            "chart": {"coordinates": ["x1", "x2"]},
            "tensor11": [["0", "x1"], ["x2", "0"]],
        }
        path = write_doc(doc)
        code, out = run_cli(capsys, ["check-nijenhuis", "--input", path])
        assert code == 1
        code, out = run_cli(capsys, ["torsion", "--input", path])
        assert code == 0
        assert "torsion(1,2)" in out

    def test_koszul_component(self, capsys, write_doc):
        doc = dict(SO3_DOC)
        doc["form"] = [
            {"degree": 1, "components": {"1": "1"}},
            {"degree": 1, "components": {"2": "1"}},
        ]
        code, out = run_cli(capsys, ["koszul", "--input", write_doc(doc)])
        assert code == 0
        assert "bracket(3) = 1" in out

    def test_concomitant_pass_and_fail(self, capsys, write_doc):
        code, _ = run_cli(capsys, ["concomitant", "--input", write_doc(CONFORMAL_DOC)])
        assert code == 0
        doc = {
            "chart": {"coordinates": ["x1", "x2", "x3"]},
            "bivector": {"1,2": "x3", "1,3": "-x2", "2,3": "x1"},
            "tensor11": [["1 + x3", "0", "0"], ["0", "1 + x3", "0"], ["0", "0", "1 + x3"]],
        }
        code, out = run_cli(capsys, ["concomitant", "--input", write_doc(doc)])
        assert code == 1
        assert "concomitant(1,2)" in out
        # a failed precondition is a fail report that names the residual
        code, out = run_cli(capsys, ["concomitant", "--input", write_doc(DIAG_DOC)])
        assert code == 1
        assert "sharp_compat" in out

    def test_hierarchy_lists_bivectors(self, capsys, write_doc):
        code, out = run_cli(
            capsys,
            ["hierarchy", "--max-order", "2", "--input", write_doc(CONFORMAL_DOC)],
        )
        assert code == 0
        assert "pi_0" in out and "pi_2" in out

    def test_hierarchy_order_is_bounded(self, capsys, write_doc, monkeypatch):
        # one past the bound is an input error, refused before any work;
        # the bound itself gets as far as the pair check
        class Reached(Exception):
            pass

        def reached(pi, N):
            raise Reached

        monkeypatch.setattr(pn, "is_pn_pair", reached)
        argv = ["hierarchy", "--input", write_doc(CONFORMAL_DOC), "--json", "--max-order"]
        code, out = run_cli(capsys, argv + [str(pn.MAX_ORDER + 1)])
        assert code == 2
        assert json.loads(out)["residuals"] == {"error": "kmax must be at most 32, got 33"}
        with pytest.raises(Reached):
            cli.main(argv + [str(pn.MAX_ORDER)])

    def test_complementary_builds_tensor(self, capsys, write_doc):
        doc = {
            "chart": {"coordinates": ["x1", "x2"]},
            "bivector": {"1,2": "1"},
            "form": {"degree": 2, "components": {"1,2": "-(1 + x1 + x2^2)"}},
        }
        code, out = run_cli(capsys, ["complementary", "--input", write_doc(doc)])
        assert code == 0
        assert "tensor" in out

    def test_holomorphic_pair(self, capsys, write_doc):
        doc = {
            "chart": {"coordinates": ["x1", "x2", "x3", "x4"]},
            "bivector": [
                {"1,3": "1", "2,4": "-1"},
                {"1,4": "-1", "2,3": "-1"},
            ],
            "tensor11": [
                ["0", "-1", "0", "0"],
                ["1", "0", "0", "0"],
                ["0", "0", "0", "-1"],
                ["0", "0", "1", "0"],
            ],
        }
        code, _ = run_cli(capsys, ["holomorphic", "--input", write_doc(doc)])
        assert code == 0


SO3_LIE = {
    "rank": 3,
    "basis": ["f1", "f2", "f3"],
    "anchor": [[], [], []],
    "structure": {"1,2": ["0", "0", "1"], "1,3": ["0", "-1", "0"], "2,3": ["1", "0", "0"]},
}

AFFINE_LIE = {
    "rank": 3,
    "basis": ["f1", "f2", "f3"],
    "anchor": [[], [], []],
    "structure": {"1,2": ["1", "0", "0"]},
}


class TestAlgebroidCommands:
    def test_validate(self, capsys, write_doc):
        path = write_doc({"chart": {"coordinates": []}, "algebroid": SO3_LIE})
        code, _ = run_cli(capsys, ["algebroid", "validate", "--input", path])
        assert code == 0

    def test_diff_needs_section(self, capsys, write_doc):
        path = write_doc({"chart": {"coordinates": []}, "algebroid": SO3_LIE})
        code, out = run_cli(capsys, ["algebroid", "diff", "--input", path])
        assert code == 2
        assert "section" in out

    def test_diff_computes(self, capsys, write_doc):
        block = dict(SO3_LIE)
        block["section"] = {"degree": 1, "components": {"3": "1"}}
        path = write_doc({"chart": {"coordinates": []}, "algebroid": block})
        code, out = run_cli(capsys, ["algebroid", "diff", "--input", path])
        assert code == 0
        assert "d(1,2)" in out

    def test_dual_poisson(self, capsys, write_doc):
        path = write_doc({"chart": {"coordinates": []}, "algebroid": SO3_LIE})
        code, out = run_cli(capsys, ["algebroid", "dual-poisson", "--input", path])
        assert code == 0
        assert "xi_f1" in out

    @pytest.mark.parametrize("command", ["validate", "dual-poisson"])
    def test_basis_names_must_be_identifiers(self, capsys, write_doc, command):
        # the dual chart would name a fiber coordinate "xi_e 1"
        block = dict(SO3_LIE, basis=["e 1", "e+2", "f3"])
        path = write_doc({"chart": {"coordinates": []}, "algebroid": block})
        code, out = run_cli(capsys, ["algebroid", command, "--input", path, "--json"])
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] == "error"
        assert report["residuals"]["error"] == "bad basis name 'e 1': not an identifier"

    def test_compat_verdicts(self, capsys, write_doc):
        path = write_doc(
            {"chart": {"coordinates": []}, "algebroid_pair": {"first": SO3_LIE, "second": SO3_LIE}}
        )
        code, _ = run_cli(capsys, ["algebroid", "compat", "--input", path])
        assert code == 0
        path = write_doc(
            {"chart": {"coordinates": []}, "algebroid_pair": {"first": SO3_LIE, "second": AFFINE_LIE}}
        )
        code, out = run_cli(capsys, ["algebroid", "compat", "--input", path])
        assert code == 1
        assert "mixed_jacobi" in out

    def test_compat_refuses_an_invalid_half(self, capsys, write_doc):
        # rho(e1) = d/dx1, rho(e2) = x1 d/dx1 and an abelian table: the
        # anchor is not a bracket morphism
        broken = {"rank": 2, "basis": ["e1", "e2"], "anchor": [["1"], ["x1"]], "structure": {}}
        fixed = dict(broken, structure={"1,2": ["1", "0"]})
        path = write_doc(
            {"chart": {"coordinates": ["x1"]}, "algebroid_pair": {"first": fixed, "second": broken}}
        )
        code, out = run_cli(capsys, ["algebroid", "compat", "--input", path, "--json"])
        assert code == 1
        residuals = json.loads(out)["residuals"]
        assert residuals["precondition"].startswith("second algebroid fails its own axioms")
        assert list(residuals) == ["anchor(1,2)", "precondition"]

    def test_bialgebroid_corrupted_table(self, capsys, write_doc):
        path = write_doc(
            {"chart": {"coordinates": []}, "algebroid_pair": {"first": SO3_LIE, "second": AFFINE_LIE}}
        )
        code, out = run_cli(capsys, ["algebroid", "bialgebroid", "--input", path])
        assert code == 1
        assert "derivation" in out

    def test_pn_bialgebroid(self, capsys, write_doc):
        code, _ = run_cli(
            capsys, ["algebroid", "pn-bialgebroid", "--input", write_doc(CONFORMAL_DOC)]
        )
        assert code == 0


class TestJacobiCommands:
    def test_check(self, capsys, write_doc):
        code, _ = run_cli(capsys, ["jacobi", "check", "--input", write_doc(CONTACT_DOC)])
        assert code == 0

    def test_check_failure_names_residual(self, capsys, write_doc):
        doc = {
            "chart": {"coordinates": ["x1", "x2", "x3"]},
            "jacobi": {"bivector": {"1,2": "-1", "2,3": "x2"}, "field": {}},
        }
        code, out = run_cli(capsys, ["jacobi", "check", "--input", write_doc(doc)])
        assert code == 1
        assert "[pi,pi]" in out

    def test_check_on_zero_dimensional_chart(self, capsys, write_doc):
        # The jet algebroid of a point is u alone; tangent_algebroid would
        # refuse a zero-dimensional chart, the extended algebroid must not.
        doc = {"chart": {"coordinates": []}, "jacobi": {"bivector": {}, "field": {}}}
        code, out = run_cli(capsys, ["jacobi", "check", "--json", "--input", write_doc(doc)])
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_compat_needs_two(self, capsys, write_doc):
        code, out = run_cli(capsys, ["jacobi", "compat", "--input", write_doc(CONTACT_DOC)])
        assert code == 2
        assert "two pairs" in out

    def test_jet_algebroid_table(self, capsys, write_doc):
        code, out = run_cli(
            capsys, ["jacobi", "jet-algebroid", "--input", write_doc(CONTACT_DOC)]
        )
        assert code == 0
        assert "basis = dx1, dx2, dx3, one" in out


class TestGroupoidCommands:
    def test_pn_pass(self, capsys, write_doc):
        code, _ = run_cli(capsys, ["groupoid", "pn", "--input", write_doc(GROUPOID_DOC)])
        assert code == 0

    def test_base_recovers(self, capsys, write_doc):
        code, out = run_cli(capsys, ["groupoid", "base", "--input", write_doc(GROUPOID_DOC)])
        assert code == 0
        assert "bivector = d_x1^d_x2" in out

    def test_wrong_sign_total_bivector_fails(self, capsys, write_doc):
        doc = {
            "chart": {"coordinates": ["x1", "x2"]},
            "pair_groupoid": {"total_bivector": {"1,2": "1", "3,4": "1"}},
        }
        code, out = run_cli(capsys, ["groupoid", "poisson", "--input", write_doc(doc)])
        assert code == 1
        assert "conormal" in out

    def test_cross_block_tensor_fails_multiplicativity(self, capsys, write_doc):
        doc = {
            "chart": {"coordinates": ["x1", "x2"]},
            "pair_groupoid": {
                "total_tensor11": {"1,1": "1", "2,2": "1", "3,3": "1", "4,4": "1", "1,3": "1"},
            },
        }
        code, out = run_cli(capsys, ["groupoid", "multiplicative", "--input", write_doc(doc)])
        assert code == 1
        assert "conormal" in out

    def test_coisotropic_invariant_default_diagonal(self, capsys, write_doc):
        code, _ = run_cli(
            capsys, ["groupoid", "coisotropic-invariant", "--input", write_doc(GROUPOID_DOC)]
        )
        assert code == 0

    def test_base_and_total_blocks_conflict(self, capsys, write_doc):
        doc = {
            "chart": {"coordinates": ["x1", "x2"]},
            "pair_groupoid": {
                "bivector": {"1,2": "1"},
                "total_bivector": {"1,2": "1"},
            },
        }
        code, out = run_cli(capsys, ["groupoid", "poisson", "--input", write_doc(doc)])
        assert code == 2
        assert "not both" in out


class TestDocumentRoundTrip:
    def full_doc(self):
        return {
            "chart": {"dim": 2, "coordinates": ["x1", "x2"]},
            "bivector": {"1,2": "x1 + 1/2"},
            "tensor11": [["1 + x1", "0"], ["0", "1 + x1"]],
            "form": {"degree": 1, "components": {"1": "x2"}},
            "multivector": {"degree": 2, "components": {"1,2": "3*x1^2"}},
            "algebroid": {
                "rank": 2,
                "basis": ["e1", "e2"],
                "anchor": [["1", "0"], ["0", "1"]],
                "structure": {"1,2": ["0", "x1"]},
                "section": {"degree": 1, "components": {"2": "x2"}},
            },
            "algebroid_pair": {
                "first": {
                    "rank": 2,
                    "basis": ["e1", "e2"],
                    "anchor": [["1", "0"], ["0", "1"]],
                    "structure": {},
                },
                "second": {
                    "rank": 2,
                    "basis": ["e1", "e2"],
                    "anchor": [["1", "0"], ["0", "1"]],
                    "structure": {},
                },
            },
            "jacobi": {"bivector": {"1,2": "x2"}, "field": {"1": "1"}},
            "pair_groupoid": {
                "bivector": {"1,2": "1"},
                "tensor11": [["1", "0"], ["0", "1"]],
            },
            "submanifold": {"constraints": ["x1 - y_x1", "x2 - y_x2"]},
        }

    def test_parse_render_parse(self):
        doc = document.parse_document(self.full_doc())
        text = document.render_document(doc)
        again = document.loads_document(text)
        assert doc == again
        assert document.render_document(again) == text

    def test_list_blocks_round_trip(self):
        data = {
            "chart": {"dim": 2, "coordinates": ["x1", "x2"]},
            "bivector": [{"1,2": "x1"}, {"1,2": "x2 - 1"}],
            "form": [
                {"degree": 1, "components": {"1": "x2"}},
                {"degree": 2, "components": {"1,2": "1/3"}},
            ],
            "jacobi": [
                {"bivector": {"1,2": "x2"}, "field": {"1": "1"}},
                {"bivector": {}, "field": {"2": "x1^2"}},
            ],
        }
        doc = document.parse_document(data)
        assert len(doc.bivectors) == len(doc.forms) == len(doc.jacobi) == 2
        assert [f.degree for f in doc.forms] == [1, 2]
        text = document.render_document(doc)
        rendered = json.loads(text)
        for block in ("bivector", "form", "jacobi"):
            assert isinstance(rendered[block], list) and len(rendered[block]) == 2
        again = document.loads_document(text)
        assert doc == again
        assert document.render_document(again) == text

    @pytest.mark.parametrize(
        "block, item, message",
        [
            ("bivector", {"1,3": "1"}, "bivector[1]: index 3 out of range"),
            ("form", {"degree": -1}, "form[1]: degree must be"),
            ("jacobi", {"bivector": {}, "field": {"0": "1"}}, "jacobi[1].field: index 0"),
        ],
    )
    def test_list_block_errors_name_the_item(self, block, item, message):
        good = self.full_doc()[block]
        data = {"chart": {"coordinates": ["x1", "x2"]}, block: [good, item]}
        with pytest.raises(InputError) as exc:
            document.parse_document(data)
        assert str(exc.value).startswith(message)

    def test_corpus_documents_round_trip(self):
        for data in (SO3_DOC, CONFORMAL_DOC, DIAG_DOC, CONTACT_DOC, GROUPOID_DOC):
            doc = document.parse_document(data)
            again = document.loads_document(document.render_document(doc))
            assert doc == again


class TestDocumentValidation:
    def test_duplicate_key_rejected(self):
        text = '{"chart": {"coordinates": ["x1", "x2"]}, "bivector": {"1,2": "1", "1,2": "2"}}'
        with pytest.raises(InputError, match="^duplicate JSON key '1,2'$"):
            document.loads_document(text)

    def test_out_of_order_key_rejected(self):
        with pytest.raises(InputError, match="strictly increasing"):
            document.parse_document(
                {"chart": {"coordinates": ["x1", "x2"]}, "bivector": {"2,1": "1"}}
            )

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InputError, match="out of range"):
            document.parse_document(
                {"chart": {"coordinates": ["x1", "x2"]}, "bivector": {"1,3": "1"}}
            )

    def test_boolean_form_degree_rejected(self):
        with pytest.raises(InputError, match="degree"):
            document.parse_document(
                {"chart": {"coordinates": ["x1"]}, "form": {"degree": True, "components": {"1": "1"}}}
            )

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError, match="dim"):
            document.parse_document({"chart": {"dim": 3, "coordinates": ["x1", "x2"]}})

    @pytest.mark.parametrize(
        "dim, coords", [(True, ["x1"]), (False, []), (2.0, ["x1", "x2"]), ("2", ["x1", "x2"])]
    )
    def test_non_int_dim_rejected(self, capsys, write_doc, dim, coords):
        # true == 1 and 2.0 == 2 in Python, but neither is a dimension
        data = {"chart": {"dim": dim, "coordinates": coords}, "bivector": {}}
        with pytest.raises(InputError, match="chart.dim must be an integer"):
            document.parse_document(data)
        code, out = run_cli(capsys, ["check-poisson", "--input", write_doc(data)])
        assert code == 2
        assert "chart.dim must be an integer" in out

    @pytest.mark.parametrize(
        "block, message",
        [
            (
                {"jacobi": {"bivector": {}, "field": {"1,2": "1"}}},
                "jacobi.field: key '1,2' has 2 indices, expected 1",
            ),
            (
                {"jacobi": {"bivector": {}, "field": {"1": 1}}},
                "jacobi.field: component '1' must be a polynomial string",
            ),
            (
                {
                    "algebroid": {
                        "rank": 1,
                        "basis": ["e1"],
                        "anchor": [["1", "0"]],
                        "section": {"degree": 1, "components": {"1": 1}},
                    }
                },
                "algebroid.section: component '1' must be a polynomial string",
            ),
        ],
    )
    def test_shared_component_grammar_messages(self, block, message):
        # the jacobi field and the algebroid section are read by the same
        # component parser as form and bivector blocks, so they word alike
        with pytest.raises(InputError) as exc:
            document.parse_document({"chart": {"coordinates": ["x1", "x2"]}, **block})
        assert str(exc.value) == message

    def test_unknown_block_rejected(self):
        with pytest.raises(InputError, match="unknown keys"):
            document.parse_document({"chart": {"coordinates": ["x1"]}, "bivecotr": {}})

    def test_structure_key_order_rejected(self):
        block = dict(SO3_LIE)
        block["structure"] = {"2,1": ["0", "0", "1"]}
        with pytest.raises(InputError, match="strictly increasing"):
            document.parse_document({"chart": {"coordinates": []}, "algebroid": block})

    def test_tensor_accepts_sparse_and_dense(self):
        sparse = document.parse_document(
            {"chart": {"coordinates": ["x1", "x2"]}, "tensor11": {"1,1": "1", "2,2": "1"}}
        )
        dense = document.parse_document(
            {"chart": {"coordinates": ["x1", "x2"]}, "tensor11": [["1", "0"], ["0", "1"]]}
        )
        assert sparse.tensor11.entries == dense.tensor11.entries


class TestSuiteCommand:
    def test_suite_passes(self, capsys):
        code = cli.main(["suite"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert len(lines) == 9
        assert all(": pass" in l for l in lines)


# -- a bounded fuzz over documents: every run ends in one report ---------------

FUZZ_COMMANDS = (["check-poisson"], ["check-pn"], ["check-nijenhuis"], ["torsion"], ["concomitant"])
# Well-formed documents on R^2 and R^3, most of them passing some checks and
# failing others, and broken ones: bad polynomials, keys, shapes and charts.
sound_texts = st.sampled_from(["0", "1", "2", "x1", "x2", "1 + x1", "-x2 + 3/2", "x1*x2", "(x1 + 1)^2"])
broken_texts = st.one_of(
    st.sampled_from(
        ["x1 +* 2", "x3^\u00b2", "9" * 5000, "((x1 + x2)^8)^40", "(" * 120 + "x1" + ")" * 120, "y", ""]
    ),
    st.text(alphabet="x123 +-*^/()_\u00b2\u0661", max_size=12),
)
fuzz_entries = st.one_of(broken_texts, st.integers(-2, 2), st.none(), st.booleans())
# Index keys int() cannot read: a superscript digit, and more digits than it reads.
BAD_INDEX_KEYS = ("1,\u00b2", "\u00b9,2", "1," + "1" * 5000)


def sound_document(n):
    names = ["x1", "x2", "x3"][:n]
    pairs = [f"{i},{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    square = st.lists(st.lists(sound_texts, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.fixed_dictionaries(
        {"chart": st.just({"coordinates": names})},
        optional={"bivector": st.dictionaries(st.sampled_from(pairs), sound_texts), "tensor11": square},
    )


broken_documents = st.fixed_dictionaries(
    {
        "chart": st.fixed_dictionaries(
            {"coordinates": st.lists(st.sampled_from(["x1", "x2", "x3", "x 1", "1x"]), max_size=3)},
            optional={"dim": st.one_of(st.integers(-1, 4), st.just("3"))},
        )
    },
    optional={
        "bivector": st.dictionaries(
            st.sampled_from(["1,2", "1,3", "2,1", "1,4", "1", "a,b", "1,2,3", *BAD_INDEX_KEYS]),
            st.one_of(sound_texts, fuzz_entries),
            max_size=3,
        ),
        "tensor11": st.one_of(
            st.lists(st.lists(st.one_of(sound_texts, fuzz_entries), max_size=3), max_size=3),
            st.dictionaries(
                st.sampled_from(["1,1", "1,2", "4,1", "x", *BAD_INDEX_KEYS]), fuzz_entries, max_size=3
            ),
        ),
        "bogus": st.just(1),
    },
)
fuzz_documents = st.one_of(st.sampled_from([2, 3]).flatmap(sound_document), broken_documents)


@given(st.sampled_from(FUZZ_COMMANDS), fuzz_documents)
@settings(max_examples=80, deadline=2000)
def test_document_fuzz_prints_one_report_and_an_exit_code(argv, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main([*argv, "--input", str(path), "--json"])
    out = buffer.getvalue()
    assert code in (0, 1, 2, 3)
    data = json.loads(out)
    assert data["command"] == argv[0]
    assert report.EXIT_CODES[data["verdict"]] == code
    assert "Traceback" not in out
