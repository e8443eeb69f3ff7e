"""The public surface: every exported name exists, and the README's
library quick start runs as written."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import tsadeval

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["tsadeval"] + [
    f"tsadeval.{m.name}" for m in pkgutil.iter_modules(tsadeval.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # one line for score(), one per protocol for score_all()
    assert len(out.getvalue().splitlines()) == 5
