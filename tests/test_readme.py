"""README.md: the library example runs and reaches its target, and the
config format names the keys the harness reads."""

import contextlib
import io
import re
from pathlib import Path

from viscostring.harness import CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_steers_mode_one():
    section = README.read_text().split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    velocity, stress = (float(v) for v in printed.getvalue().split())
    assert abs(velocity - 1.0) <= 1e-6
    assert abs(stress) <= 1e-6


def test_config_format_names_exactly_the_config_keys():
    section = README.read_text().split("\n### Config format\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    documented = {}
    for line in block.splitlines():
        if header := re.match(r"\[(\w+)\]", line):
            keys = documented.setdefault(header[1], set())
        elif key := re.match(r";? ?(\w+) =", line):
            keys.add(key[1])
    assert documented == {name: set(table) for name, table in CONFIG_KEYS.items()}
