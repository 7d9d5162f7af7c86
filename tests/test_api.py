"""The package's exported names all resolve, so a deleted function cannot
leave a stale export behind, and every private module-level name is still
used, so a deletion cannot leave an orphaned helper behind."""

import ast
import importlib
from pathlib import Path

import pytest

import acausal

MODULES = ("causal", "cli", "diagop", "game", "process")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"acausal.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)


def test_package_names_resolve_to_their_modules():
    public = [name for name in vars(acausal) if not name.startswith("_")]
    reexported = [
        name for name in public
        if not isinstance(getattr(acausal, name), type(acausal))
    ]
    assert reexported
    for name in reexported:
        value = getattr(acausal, name)
        owner = importlib.import_module(value.__module__)
        assert getattr(owner, name) is value
        assert name in getattr(owner, "__all__", ()), name


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from acausal.{name} import *", namespace)
    module = importlib.import_module(f"acausal.{name}")
    for attr in getattr(module, "__all__", ()):
        assert namespace[attr] is getattr(module, attr)


def _defined_names(node):
    """Names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Name)}
    return set()


def _referenced_names(node):
    """Names a statement reads, as a variable, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_private_module_name_is_used():
    # a reference from inside the name's own definition (recursion) does
    # not count
    source = Path(acausal.__file__).parent
    private, used = set(), set()
    for path in sorted(source.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defined = _defined_names(node)
            private |= {(path.stem, name) for name in defined
                        if name.startswith("_") and not name.startswith("__")}
            used |= _referenced_names(node) - defined
    assert private
    assert sorted(key for key in private if key[1] not in used) == []
