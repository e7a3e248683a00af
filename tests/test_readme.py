"""The README's Python example and command lines run, and every public name
list stays importable."""

import importlib
import pathlib
import re
import shlex

import pytest

from hypervol.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = [line for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
            for line in block.splitlines() if line.startswith("hypervol ")]


def test_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_command_block_is_found():
    assert len(COMMANDS) >= 6


@pytest.mark.parametrize("command", COMMANDS)
def test_command_line_runs(capsys, command):
    code = main(shlex.split(command)[1:])
    out, err = capsys.readouterr()
    assert code == 0 and out, err
    assert "error:" not in err


@pytest.mark.parametrize("module", ["hypervol", "hypervol.geometry", "hypervol.quadrature",
                                    "hypervol.volume_forms", "hypervol.bounds"])
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
