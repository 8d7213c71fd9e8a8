"""The README's Python examples run, and print what their comments say."""

import re
from pathlib import Path

import pytest

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _README, re.S | re.M)


def test_readme_has_python_blocks():
    assert _BLOCKS


@pytest.mark.parametrize("block", _BLOCKS, ids=[f"block{k}" for k in range(len(_BLOCKS))])
def test_python_block_runs(block, capsys):
    exec(compile(block, "README.md", "exec"), {})
    # Each print's comment starts with the digits it prints, then "...".
    claims = re.findall(r"^print\(.*\)\s+# ([0-9.]+)\.\.\.", block, re.M)
    printed = capsys.readouterr().out.split()
    assert len(printed) == len(claims)
    for claim, out in zip(claims, printed):
        assert out.startswith(claim), (claim, out)
