import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_quick_start_runs():
    """The README's "Library quick start" block runs as written, so a
    documented call that breaks fails the suite."""
    text = open(README, encoding="utf-8").read()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    # one line per branch, the gain, then the squeezing floor and its phase
    assert len(printed) >= 3
    p_min, phi_min = map(float, printed[-1].split())
    assert 0.0 < p_min < 1.0
