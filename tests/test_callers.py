"""Every public name of the package has a caller in the program itself.

The public names are those in a module's ``__all__`` and the public methods
and properties of its ``__all__`` classes.  One is called when ``src/`` or
``scripts/`` uses it, as a name or an attribute, outside its own definition
and outside the definition of another public name that has no caller.
Methods are matched by name alone.  Strings, comments, ``__all__`` entries
and imports are not uses.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import cmest

ROOT = Path(__file__).resolve().parents[1]


def _public_names():
    names = set()
    for info in pkgutil.iter_modules(cmest.__path__):
        module = importlib.import_module(f"cmest.{info.name}")
        for name in getattr(module, "__all__", ()):
            names.add(name)
            obj = getattr(module, name)
            if inspect.isclass(obj):
                names.update(
                    attr for attr, value in vars(obj).items()
                    if not attr.startswith("_")
                    and (inspect.isfunction(value) or isinstance(value, property))
                )
    return names


def _uses():
    """(used name, names of the enclosing top-level definition and, in a
    class, method) for every use."""
    files = [*(ROOT / "src" / "cmest").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    uses = []
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            method_of = {}
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    for node in ast.walk(member):
                        method_of[node] = getattr(member, "name", None)
            for node in ast.walk(stmt):
                owners = {getattr(stmt, "name", None), method_of.get(node)}
                if isinstance(node, ast.Name):
                    uses.append((node.id, owners))
                elif isinstance(node, ast.Attribute):
                    uses.append((node.attr, owners))
    return uses


def _names_without_caller():
    public, uses = _public_names(), _uses()
    dead = set()
    while True:
        called = {
            name for name, owners in uses
            if name in public and name not in owners and not owners & dead
        }
        newly_dead = public - called - dead
        if not newly_dead:
            return dead
        dead |= newly_dead


def test_every_public_name_has_a_caller():
    assert _names_without_caller() == set()


def _imported_modules(path):
    """Dotted names of every module (or module member) a file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_asv_does_not_import_the_channel():
    # asv is the formula over the models' quantities: the fading penalty and
    # snr_inv come from the channel's models, so asv needs nothing from it
    imported = _imported_modules(ROOT / "src" / "cmest" / "asv.py")
    assert [name for name in imported if "channel" in name.split(".")] == []


def test_every_error_type_is_raised():
    # an error type nothing raises is dead code a handler can still name
    tree = ast.parse((ROOT / "src" / "cmest" / "errors.py").read_text())
    types = {"CmestError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id in types for base in node.bases
        ):
            types.add(node.name)
    raised = set()
    for path in (ROOT / "src" / "cmest").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert types - {"CmestError"} - raised == set()
