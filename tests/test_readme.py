"""The README's Python examples run, and print what their comments say; its
command-line examples exit 0."""

import re
import shlex
from pathlib import Path

import pytest

import fraccalc as fc
from fraccalc import cli

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _README, re.S | re.M)
_CLI_BLOCK = re.search(r"^## Command line\n\n```sh\n(.*?)^```", _README, re.S | re.M)[1]
_COMMANDS = [ln for ln in _CLI_BLOCK.replace("\\\n", " ").splitlines() if ln.startswith("fraccalc ")]


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


def test_command_lines_exit_0(tmp_path, monkeypatch):
    # In order, in one directory: a later line may read what an earlier one wrote.  f.csv is t^2.
    assert _COMMANDS
    monkeypatch.chdir(tmp_path)
    cli.write_grid_csv("f.csv", fc.sample(fc.builtin("power", {"p": 2.0}), 0.0, 1.0, 257))
    for line in _COMMANDS:
        assert cli.main(shlex.split(line)[1:]) == 0, line
