"""Byte-identity of every CLI command on every demo document.

``golden_reports.json`` holds the exit code and the ``--json`` output of
each ``cli.HANDLERS`` command run on each ``demos/documents/*.json``. A
change that claims to leave the output alone must keep every entry byte
for byte. After a deliberate change of output, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pncalc import cli

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ROOT / "demos" / "documents"
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"


def run_all():
    """Map "command | document" to [exit code, stdout] for every pair."""
    out = {}
    for path in sorted(DOCUMENTS.glob("*.json")):
        for command in sorted(cli.HANDLERS):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([*command.split(), "--input", str(path), "--json"])
            out[f"{command} | {path.name}"] = [code, buf.getvalue()]
    return out


def test_reports_match_golden_bytes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_all()
    assert sorted(got) == sorted(golden)
    differing = [key for key in golden if got[key] != golden[key]]
    assert not differing, f"{len(differing)} reports changed, first: {differing[0]}"


@pytest.mark.parametrize("seed", ["0", "12345"])
def test_golden_bytes_do_not_depend_on_the_hash_seed(seed):
    # string hashing, hence set order, is fixed per interpreter: use a fresh one
    here = Path(__file__).resolve().parent
    package_root = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join([str(package_root), str(here)])
    code = "import test_golden; test_golden.test_reports_match_golden_bytes()"
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    assert child.returncode == 0, child.stderr[-2000:]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    reports = run_all()
    text = "".join(stdout for _, stdout in reports.values())
    if str(DOCUMENTS) in text:
        sys.exit("a report names the document path; golden bytes would not be portable")
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
