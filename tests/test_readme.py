"""The README's library quick start, run as written on samples/steering.sys."""

import contextlib
import io
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quick_start_code() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_what_it_claims(monkeypatch):
    code = quick_start_code()
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == [
        "(1, 2)",
        "[[1, 6, 8], [2, 5, 9]]",
        "{1: 'essential', 2: 'useful', 3: 'useless', 4: 'useful'}",
    ]
    # the README's comments show the same results
    for line in printed:
        assert f"# {line}" in code
