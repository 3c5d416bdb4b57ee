"""Package hygiene: every module imports, every __all__ name resolves,
the README quickstart actually runs, docstrings exist on public API."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__: {name}"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    """Every name a module exports must carry a docstring."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if callable(obj) and getattr(obj, "__module__", "").startswith(
            "repro"
        ):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


def _extract_python_blocks(markdown: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.S)


def test_readme_quickstart_runs():
    readme = Path(repro.__file__).parents[2] / "README.md"
    blocks = _extract_python_blocks(readme.read_text())
    assert blocks, "README must contain python examples"
    namespace: dict = {}
    for block in blocks:
        # Shrink the quickstart graph so the doc test stays fast.
        block = block.replace("scale=14", "scale=10")
        exec(compile(block, "<README>", "exec"), namespace)
    assert "graph" in namespace


def test_top_level_version():
    assert re.match(r"\d+\.\d+\.\d+", repro.__version__)


def test_module_docstring_quickstart_runs():
    lines = repro.__doc__.splitlines()
    start = lines.index("Quick start::") + 1
    code_lines = []
    for line in lines[start:]:
        if line.startswith("    "):
            code_lines.append(line[4:])
        elif line.strip() == "":
            code_lines.append("")
        else:
            break
    code = "\n".join(code_lines).replace("scale=14", "scale=10")
    assert "rmat" in code
    exec(compile(code, "<repro.__doc__>", "exec"), {})


def test_service_import_defers_scipy():
    """scipy (~20 MB of RSS) loads only when a triangle count runs."""
    code = (
        "import sys, repro.service.app, repro.graph.wedges; "
        "sys.exit('scipy' in sys.modules)"
    )
    src = Path(repro.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
