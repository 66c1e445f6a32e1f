"""The paper-claims ledger runs in a fresh interpreter and prints its rows as strict JSON,
its rows fail on a failing check or a refusal without a traceback, and the README quick
start prints what it says."""

import json
import os
import re
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import leftsym
from leftsym import Check, SystemViolated

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "scripts" / "paper_claims.py"
CLAIMS = [
    "characterization",
    "corollaries 1 and 2",
    "R^n, commutative case",
    "R^n, associative or Novikov",
    "Einstein factor of the closed-form double-space blocks",
    "Kähler-Einstein on TG, generic route",
    "new class",
    "parameter systems",
    "local symmetry of Tg (an extension, not the paper's claim)",
]
OPEN = {"R^n, associative or Novikov": 2, "Kähler-Einstein on TG, generic route": 1,
        "local symmetry of Tg (an extension, not the paper's claim)": 13}


def _reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def test_ledger_certifies_every_landed_claim():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(LEDGER)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert list(doc) == ["rows"]
    rows = doc["rows"]
    assert [r["claim"] for r in rows] == CLAIMS
    for r in rows:
        assert list(r) == ["claim", "status", "inputs", "checks", "worst"]
        if r["claim"] in OPEN:
            assert r == {"claim": r["claim"], "status": f"open (item {OPEN[r['claim']]})",
                         "inputs": [], "checks": 0, "worst": None}
            continue
        assert r["status"] == "ok"
        assert r["checks"] >= len(r["inputs"]) > 0
        assert list(r["worst"]) == ["name", "residual", "threshold", "margin"]
        assert r["worst"]["margin"] <= 1
    by_claim = {r["claim"]: r for r in rows}
    assert len(by_claim["characterization"]["inputs"]) == 21  # seven entries, two transports each
    assert by_claim["Einstein factor of the closed-form double-space blocks"]["inputs"] == \
        by_claim["characterization"]["inputs"]


def _run_ledger(capsys) -> tuple[int, dict]:
    code = runpy.run_path(str(LEDGER))["main"]()
    return code, {r["claim"]: r for r in json.loads(capsys.readouterr().out)["rows"]}


def test_a_check_over_its_threshold_fails_its_row(monkeypatch, capsys):
    real = leftsym.decompose

    def over(A, tol=leftsym.Tolerance()):
        dec = real(A, tol)
        return replace(dec, checks=dec.checks + (Check("forced", 2.0, 1.0),))

    monkeypatch.setattr(leftsym, "decompose", over)
    code, rows = _run_ledger(capsys)
    assert code == 1
    for claim in ("characterization", "corollaries 1 and 2"):
        assert rows[claim]["status"] == "FAIL"
    assert rows["characterization"]["worst"] == {"name": "rn_canonical: forced", "residual": 2.0,
                                                 "threshold": 1.0, "margin": 2.0}
    assert rows["R^n, commutative case"]["status"] == "ok"


def test_a_refusal_fails_its_row_by_name(monkeypatch, capsys):
    def refuse(A, tol=leftsym.Tolerance()):
        raise SystemViolated("B1_skew", 0.5)

    monkeypatch.setattr(leftsym, "decompose", refuse)
    code, rows = _run_ledger(capsys)
    assert code == 1
    worst = rows["characterization"]["worst"]
    assert rows["characterization"]["status"] == "FAIL"
    assert worst["name"] == f"rn_canonical: SystemViolated: {SystemViolated('B1_skew', 0.5)}"
    assert (worst["residual"], worst["threshold"], worst["margin"]) == (0.5, None, None)
    assert rows["new class"]["status"] == "FAIL"
    assert rows["Einstein factor of the closed-form double-space blocks"]["status"] == "ok"


def test_readme_quick_start_prints_its_lines(capsys):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["[[1.5 0. ]", " [0.  1.5]]", "(1, 0, 1.5)"]
