"""Golden corpus: the exact stdout and exit code of fixed CLI calls.

Each case in `golden/cases.json` is one in-process `trimatch.cli.main`
call with paths relative to `golden/`; `golden/out/<name>.out` holds the
stdout it must print.  Instances are in `golden/in/`, and `verify` cases
read the certificates that earlier cases' expected outputs hold.  The
corpus pins certificate and verifier bytes: a change to any file under
`golden/` changes the output contract and needs review on its own.
"""

import json
from pathlib import Path

import pytest

from trimatch.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(case["argv"])
    expected = (GOLDEN / "out" / f"{case['name']}.out").read_text()
    assert (code, capsys.readouterr().out) == (case["exit"], expected)
