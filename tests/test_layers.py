"""The import layering of webrely, read from the source with ast.

No module imports an underscore name of another webrely package (webrely,
stats, harness, simulator, psp), so a package's private names can change
without a look outside it; inside stats, modules share _cdf for speed.
harness/http.py is the HTTP client and the poll loop: it needs nothing of
webrely but the version it sends as its User-agent.  No harness module
reaches into another's private names, so each module's underscore names
can change without a look at the others.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
HARNESS = SRC / "webrely" / "harness"
MODULES = sorted(path.stem for path in HARNESS.glob("*.py"))
SOURCES = sorted(SRC.rglob("*.py"))


def _dotted(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _imports(path: Path) -> list[tuple[str, str]]:
    """(absolute module, name) for each name the source at path imports;
    name is "" for a plain import statement."""
    package = list(path.parent.relative_to(SRC).parts)
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            source = ".".join(base + ([node.module] if node.module else []))
            found += [(source, alias.name) for alias in node.names]
    return found


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_http_imports_nothing_of_webrely_but_its_version():
    assert "http" in MODULES
    ours = [(source, name) for source, name in _imports(HARNESS / "http.py")
            if source == "webrely" or source.startswith("webrely.")]
    assert ours == [("webrely", "__version__")]


@pytest.mark.parametrize("path", SOURCES, ids=_dotted)
def test_no_private_name_crosses_a_package(path):
    own = ".".join(path.parent.relative_to(SRC).parts)
    private = []
    for source, name in _imports(path):
        if source != "webrely" and not source.startswith("webrely."):
            continue
        # the package of source: source itself, or the package that holds it
        package = source if (SRC / source.replace(".", "/")).is_dir() else source.rpartition(".")[0]
        if package != own and any(map(_private, [*source.split("."), name])):
            private.append(f"{source}.{name}" if name else source)
    assert private == []


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_a_harness_module(module):
    private = []
    for source, name in _imports(HARNESS / f"{module}.py"):
        if source.startswith("webrely.harness."):
            other = source.removeprefix("webrely.harness.")
            if other != module and name.startswith("_"):
                private.append(f"{other}.{name}")
    assert private == []
