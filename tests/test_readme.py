"""The README's library example runs, and prints the values it documents."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    """The python code block of the README's `## Library` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_gives_its_documented_values():
    code = library_block()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    documented = {}
    for line in code.splitlines():
        expression, _, comment = line.partition("#")
        try:
            documented[expression.strip()] = float(comment)
        except ValueError:
            continue
    assert documented == {
        "sd.witness(np.pi)": -1.0,
        "sd.concurrence(np.pi)": 1.0,
        "sd.bell_mean(np.pi)": 2.0 * np.sqrt(2.0),
    }
    for expression, value in documented.items():
        assert eval(expression, namespace) == value, expression
