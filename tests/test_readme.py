"""The "Library use" example in README.md runs, and each expression with a
trailing `# value` comment evaluates to that value (compared by repr)."""

import re
from pathlib import Path

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
