"""The README's library quickstart runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

from mcred import checks

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_prints_its_documented_lines():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    documented = [line.split("#", 1)[1].strip()
                  for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == ["regular_singular", "[[1/2, 1], [1, -1/2]]", "0 0 window-doubling"]
    assert len(documented) == len(printed)
    for line, comment in zip(printed, documented):
        assert comment.startswith(line), (line, comment)


def test_check_lines_name_only_known_suites():
    text = README.read_text(encoding="utf-8")
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()
             if line.startswith("mcred check")]
    assert lines
    for words in lines:
        named = [w for w in words[2:] if not w.startswith("--") and not w.isdigit()]
        assert set(named) <= set(checks.SUITES), words
