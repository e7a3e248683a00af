"""The README's Python example and every public name list stay importable."""

import importlib
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("module", ["hypervol", "hypervol.geometry", "hypervol.quadrature",
                                    "hypervol.volume_forms", "hypervol.bounds"])
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
