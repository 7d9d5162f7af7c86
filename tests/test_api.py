"""The package's exported names all resolve, so a deleted function cannot
leave a stale export behind."""

import importlib

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
