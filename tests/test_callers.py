"""Every public name of the package has a caller in the program itself.

A name in a module's ``__all__`` is called when ``src/`` or ``scripts/``
uses it, as a name or an attribute, outside its own definition and outside
the definition of another public name that has no caller.  Strings,
comments, ``__all__`` entries and imports are not uses.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import cmest

ROOT = Path(__file__).resolve().parents[1]

#: The paper's analytic results.  Tests compare the exact variance against
#: them; no command outputs them yet.
ALLOWED_WITHOUT_CALLER = {
    "asv_small_omega": "the small-phase kurtosis expansion (criterion 04)",
    "asv_upper_bound": "the distribution-free upper bound (criterion 05)",
    "asv_low_snr_gaussian": "the low-channel-SNR Gaussian variance",
}


def _public_names():
    names = set()
    for info in pkgutil.iter_modules(cmest.__path__):
        module = importlib.import_module(f"cmest.{info.name}")
        names.update(getattr(module, "__all__", ()))
    return names


def _uses():
    """(used name, enclosing top-level definition or None) for every use."""
    files = [*(ROOT / "src" / "cmest").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    uses = []
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    uses.append((node.attr, owner))
    return uses


def _names_without_caller():
    public, uses = _public_names(), _uses()
    dead = set()
    while True:
        called = {
            name for name, owner in uses
            if name in public and owner != name and owner not in dead
        }
        newly_dead = public - called - dead
        if not newly_dead:
            return dead
        dead |= newly_dead


def test_every_public_name_has_a_caller():
    dead = _names_without_caller()
    assert dead - ALLOWED_WITHOUT_CALLER.keys() == set()
    # an allowed name that gains a caller leaves the list
    assert ALLOWED_WITHOUT_CALLER.keys() - dead == set()
