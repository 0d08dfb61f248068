"""Every name a ``repro`` module lists in ``__all__`` resolves, so
``from <module> import *`` works for each of them."""

import importlib
import pkgutil

import pytest

import repro


def _modules_with_all():
    names = ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    )
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", _modules_with_all())
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
