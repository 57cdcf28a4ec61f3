"""README's `python` blocks run as written and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.S | re.M)


def test_readme_has_its_two_python_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", BLOCKS, ids=["quick-start", "fem-h-study"])
def test_readme_block_prints_its_commented_values(block):
    # each print carries a `# ~value` comment; the block must print that
    # value within 2%
    expected = [float(value) for value in re.findall(r"print\(.*# ~([0-9.]+e[-+]?[0-9]+)", block)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = [float(line) for line in out.getvalue().splitlines()]
    assert expected and len(printed) == len(expected)
    assert printed == pytest.approx(expected, rel=0.02)
