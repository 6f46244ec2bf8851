"""The library example in README.md runs and reaches its target."""

import contextlib
import io
import re
from pathlib import Path

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
