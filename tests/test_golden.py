"""Golden corpus: the exact stdout and exit code of fixed CLI calls.

Each case in `golden/cases.json` is one in-process `trimatch.cli.main`
call with paths relative to `golden/`; `golden/out/<name>.out` holds the
stdout it must print.  Instances are in `golden/in/`, and `verify` cases
read the certificates that earlier cases' expected outputs hold; every text
certificate a `solve` or `lu` case pins must also pass `verify`.  The
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


# every text certificate a successful `solve` or `lu` case pins
CERTIFICATES = [
    c for c in CASES
    if c["argv"][0] in ("solve", "lu") and c["exit"] == 0 and "--json" not in c["argv"]
]


@pytest.mark.parametrize("case", CERTIFICATES, ids=[c["name"] for c in CERTIFICATES])
def test_golden_certificate_verifies(case, capsys, monkeypatch):
    """Pinned certificates are also valid ones: regenerated bytes pass
    `verify` (`verify --lu` for `lu` cases), not just the comparison."""
    monkeypatch.chdir(GOLDEN)
    command, instance = case["argv"][:2]
    flags = ["--lu"] if command == "lu" else []
    code = main(["verify", *flags, instance, f"out/{case['name']}.out"])
    assert (code, capsys.readouterr().out) == (0, "OK\n")
