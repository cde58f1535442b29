"""The "Library use" example in README.md runs, and each expression with a
trailing `# value` comment evaluates to that value (compared by repr);
each command of the "Command line" example exits 0."""

import re
import shlex
from pathlib import Path

from stringalg.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_library_use_values():
    text = README.read_text()
    block = re.search(r"## Library use\s+```python\n(.*?)```", text, re.S).group(1)
    env = {}
    checked = 0
    for line in block.splitlines():
        code, _, value = line.partition("#")
        if value.strip():
            assert repr(eval(code, env)) == value.strip(), line
            checked += 1
        else:
            exec(code, env)
    assert checked >= 5


def test_command_line_examples_exit_0(capsys):
    text = README.read_text()
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) >= 10
    for argv in commands:
        assert argv[0] == "stringalg", argv
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
