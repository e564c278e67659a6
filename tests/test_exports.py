"""Every exported name resolves."""

import importlib
import pkgutil

import pytest

import dmdmotion

MODULES = sorted(m.name for m in pkgutil.iter_modules(dmdmotion.__path__))


@pytest.mark.parametrize("name", ["", *MODULES])
def test_every_name_in_all_resolves(name):
    # A name left in __all__ after its definition is deleted breaks
    # `from dmdmotion import *` and any tool that walks __all__ by getattr.
    module = importlib.import_module(f"dmdmotion.{name}" if name else "dmdmotion")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
