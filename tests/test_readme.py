"""The examples of README.md run as written.

Each ```python block runs in a fresh namespace, and every line it prints is
compared with the comment after its `print` call: the comment's text up to
any two-space gap, so `print(x)  # 3  (why)` expects the line "3".  The
JSON descriptor of "Descriptor files" goes through `gvir classify`.
"""

import contextlib
import io
import json
import pathlib
import re
import tokenize

import pytest

from gvir import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _expected_prints(code):
    """The text each `print` line of code promises, in order."""
    lines = code.splitlines(keepends=True)
    expected = []
    for tok in tokenize.generate_tokens(io.StringIO(code).readline):
        if tok.type == tokenize.COMMENT:
            line = lines[tok.start[0] - 1]
            if line.lstrip().startswith("print("):
                expected.append(tok.string[1:].strip().split("  ")[0])
    return expected


PYTHON_BLOCKS = _blocks("python")


def test_readme_has_python_examples_that_print():
    assert len(PYTHON_BLOCKS) >= 2
    assert all(_expected_prints(code) for code in PYTHON_BLOCKS)


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=lambda code: code.splitlines()[0][:40])
def test_python_example_prints_what_its_comments_say(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    assert out.getvalue().splitlines() == _expected_prints(code)


def test_readme_descriptor_example_classifies(tmp_path):
    (descriptor,) = [b for b in _blocks("json") if '"gvir.descriptor/1"' in b]
    path = tmp_path / "descriptor.json"
    path.write_text(descriptor, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["classify", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_OK
    assert json.loads(out.getvalue())["command"] == "classify"
