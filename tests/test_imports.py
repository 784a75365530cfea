"""Imports: `import wildmckay` loads none of its modules, each CLI command loads only the
modules its code calls, every public name resolves to its home module's object, and a module
loads another late only by binding it lazily.  Each case runs in a fresh interpreter, since
this one has imported every module already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = {"numutil", "qexpr", "series", "partitions", "localfields", "massformulas", "mckay", "padic", "stringy"}


def loaded_after(code: str) -> set[str]:
    """The wildmckay modules whose code has run after a fresh interpreter runs code.  A module
    bound lazily (wildmckay._lazy_module) is in sys.modules before its code runs, as an instance
    of a ModuleType subclass that becomes a plain ModuleType when it loads; type() reads it
    without loading it."""
    script = code + """
import json, sys, types
print(json.dumps([m for m, v in sys.modules.items() if m.startswith('wildmckay.') and type(v) is types.ModuleType]))"""
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {name.split(".", 1)[1] for name in json.loads(done.stdout.splitlines()[-1])}


def test_import_loads_no_module():
    assert loaded_after("import wildmckay") == set()


def test_lazily_bound_qexpr_runs_on_first_use():
    code = """import sys, types
from wildmckay import cli
lazy = sys.modules['wildmckay.qexpr']
assert type(lazy) is not types.ModuleType and cli.qexpr is lazy
import wildmckay
assert wildmckay.qexpr is lazy and wildmckay.QExpr is lazy.QExpr and type(lazy) is types.ModuleType"""
    assert loaded_after(code) == {"cli", "numutil", "qexpr"}


@pytest.mark.parametrize("module", ["cli", "padic", "localfields"])
def test_import_runs_only_the_module_and_numutil(module):
    # cli binds every library module its handlers call; padic binds qexpr and stringy, and
    # localfields binds series, for the one function that calls them
    assert loaded_after(f"import wildmckay.{module}") == {module, "numutil"}


def test_modules_import_late_only_by_lazy_binding():
    """No import statement in a function and no TYPE_CHECKING block in src/wildmckay, and the
    lazy-binding helper is defined once, in the package's __init__."""
    helpers = []
    for path in sorted((ROOT / "src" / "wildmckay").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                imports = [inner for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
                assert not imports, f"{path.name}:{imports[0].lineno}: an import inside a function"
                helpers += [path.name] * (getattr(node, "name", None) == "_lazy_module")
        named = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None) for node in nodes}
        assert "TYPE_CHECKING" not in named, f"{path.name} reads TYPE_CHECKING"
    assert helpers == ["__init__.py"]


def test_public_names_resolve_to_their_home_module():
    code = """import importlib, wildmckay
for name in wildmckay.__all__[:-1]:  # all but __version__
    value = getattr(wildmckay, name)
    assert vars(importlib.import_module(value.__module__))[name] is value, name
assert wildmckay.__all__[-1] == "__version__" and "weights_for_algebra" not in dir(wildmckay)"""
    assert loaded_after(code) == LIBRARY


MASS = {"massformulas", "partitions", "qexpr", "series"}
CIRCLE = "data/sample_circle.json"


@pytest.mark.parametrize("argv, modules", [
    (["padic", "count", "--input", CIRCLE, "--m", "2"], {"padic"}),
    (["padic", "integral", "--c", "1/2", "--p", "5"], {"padic", "qexpr", "stringy"}),
    (["mass", "serre", "--n", "3"], MASS),
    (["mass", "invert", "--nmax", "4"], MASS),
    (["etale", "enumerate", "--p", "5", "--n", "3"], {"localfields"}),
    (["etale", "mass", "--p", "5", "--n", "3"], {"localfields"} | MASS),
    (["mckay", "verify", "--p", "5", "--n", "3", "--format", "csv"], {"localfields", "mckay", "partitions", "qexpr"}),
    (["stringy", "point", "--a", "0", "--c", "1/2", "--at-q", "5"], {"qexpr", "stringy"}),
    (["stringy", "eval", "--input", "data/sample_snc_pair.json"], {"qexpr", "stringy"}),
    (["padic", "measure", "--input", CIRCLE, "--mmax", "2"], {"padic"}),
    (["padic", "nullset", "--input", CIRCLE, "--m", "2"], {"padic"}),
    (["etale", "crossvalidate", "--fixtures", "data/sample_fixtures.json"], {"localfields"}),
], ids=lambda value: "-".join(value[:2]) if isinstance(value, list) else None)
def test_command_loads_only_its_modules(argv, modules):
    # padic count, measure and nullset and etale enumerate and crossvalidate build no q-expression,
    # so the code of qexpr, bound by cli, never runs.
    code = f"import io\nfrom wildmckay import cli\nassert cli.main({argv!r}, stdout=io.StringIO()) == 0"
    assert loaded_after(code) == {"cli", "numutil"} | modules
