"""Each CLI command loads only the modules it runs.

Every query of `python -m stringalg.cli` is a fresh process, and without
a bytecode cache it compiles each module it imports, so the import sets
are part of its latency.  Each case runs in a fresh interpreter and reads
`sys.modules` there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODULE_CALCULUS = {f"stringalg.{name}" for name in ("calculus", "modules", "algebra", "matrix", "rep")}
HEAVY = {f"stringalg.{name}" for name in ("calculus", "verify", "chars", "groupside", "arquiver")}

COMMANDS = [
    ["strings", "--max-len", "2"],
    ["omega", "--string", "alpha"],
    ["component", "--string", "beta alpha", "--format", "json", "--stable-end"],
    ["taxonomy", "--string", "beta alpha"],
    ["module", "--string", "alpha"],
    ["hom", "--source", "alpha", "--target", "alpha"],
    ["ext1", "--source", "alpha", "--target", "alpha"],
    ["stable-end", "--band", "alpha beta- gamma-"],
    ["chars"],
]


def loaded_by(code: str) -> list[list[str]]:
    """Run `code` in a fresh interpreter; each `mark()` it calls records the
    modules imported since it started."""
    prelude = (
        "import io, json, sys, contextlib\n"
        "_before = set(sys.modules)\n"
        "_marks = []\n"
        "def mark():\n"
        "    _marks.append(sorted(set(sys.modules) - _before))\n"
        "def run(argv):\n"
        "    from stringalg.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
    )
    epilogue = "\nprint(json.dumps(_marks))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code + epilogue],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_cli_import_loads_no_calculus_and_no_dataclasses():
    [new] = loaded_by("import stringalg.cli\nmark()")
    assert "dataclasses" not in new
    assert HEAVY.isdisjoint(new)
    assert "stringalg.words" in new


def test_omega_and_component_load_no_module_calculus():
    code = (
        "run(['omega', '--string', 'alpha', '--power', '3'])\n"
        "run(['component', '--string', 'beta alpha', '--format', 'json'])\n"
        "run(['component', '--string', 'alpha', '--format', 'dot'])\n"
        "mark()"
    )
    [new] = loaded_by(code)
    assert "stringalg.arquiver" in new
    assert "stringalg.calculus" not in new and "stringalg.matrix" not in new


def test_arquiver_and_taxonomy_load_no_module_calculus():
    # the mouth of the rank-3 tube is read off the word
    code = "import stringalg.arquiver\nmark()\nrun(['taxonomy', '--string', 'beta alpha'])\nmark()"
    for new in loaded_by(code):
        assert "stringalg.arquiver" in new
        assert MODULE_CALCULUS.isdisjoint(new), sorted(MODULE_CALCULUS.intersection(new))


def test_only_verify_loads_the_suite():
    code = "".join(f"run({argv!r})\n" for argv in COMMANDS)
    code += "mark()\nrun(['verify', '--sections', 'c09-characters'])\nmark()\n"
    others, with_verify = loaded_by(code)
    assert "stringalg.calculus" in others and "stringalg.verify" not in others
    assert "stringalg.verify" in with_verify
    assert "dataclasses" not in with_verify
