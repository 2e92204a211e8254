"""The harness's import layering, read from the source with ast.

harness/http.py is the HTTP client and the poll loop: it needs nothing of
webrely but the version it sends as its User-agent.  No harness module
reaches into another's private names, so each module's underscore names
can change without a look at the others.
"""

import ast
from pathlib import Path

import pytest

HARNESS = Path(__file__).parents[1] / "src" / "webrely" / "harness"
MODULES = sorted(path.stem for path in HARNESS.glob("*.py"))


def _imports(module: str) -> list[tuple[str, str]]:
    """(absolute module, name) for each name module's source imports;
    name is "" for a plain import statement."""
    package = ["webrely", "harness"]
    found = []
    for node in ast.walk(ast.parse((HARNESS / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            source = ".".join(base + ([node.module] if node.module else []))
            found += [(source, alias.name) for alias in node.names]
    return found


def test_http_imports_nothing_of_webrely_but_its_version():
    assert "http" in MODULES
    ours = [(source, name) for source, name in _imports("http")
            if source == "webrely" or source.startswith("webrely.")]
    assert ours == [("webrely", "__version__")]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_a_harness_module(module):
    private = []
    for source, name in _imports(module):
        if source.startswith("webrely.harness."):
            other = source.removeprefix("webrely.harness.")
            if other != module and name.startswith("_"):
                private.append(f"{other}.{name}")
    assert private == []
