"""Every name a module exports through ``__all__`` exists."""

import importlib

import pytest

MODULES = ["cglspiral", "cglspiral.core", "cglspiral.outer",
           "cglspiral.solver", "cglspiral.wavenumber", "cglspiral.field",
           "cglspiral.physical"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
