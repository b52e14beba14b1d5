"""The public names: every entry of a module's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import cofib

MODULES = ["cofib"] + [f"cofib.{info.name}" for info in pkgutil.iter_modules(cofib.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_listed_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # AttributeError on a listed name that is gone
    listed = getattr(importlib.import_module(name), "__all__", ())
    assert len(set(listed)) == len(listed), name
    assert namespace.keys() >= set(listed), name


def test_every_module_is_covered():
    assert {"cofib.automata", "cofib.cli", "cofib.pcs", "cofib.words"} <= set(MODULES)
