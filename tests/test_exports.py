"""Every exported name resolves, and so does every name the README documents."""

import importlib
import pathlib
import pkgutil
import re

import pytest

import dmdmotion

MODULES = sorted(m.name for m in pkgutil.iter_modules(dmdmotion.__path__))
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", ["", *MODULES])
def test_every_name_in_all_resolves(name):
    # A name left in __all__ after its definition is deleted breaks
    # `from dmdmotion import *` and any tool that walks __all__ by getattr.
    module = importlib.import_module(f"dmdmotion.{name}" if name else "dmdmotion")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_readme_api_names_resolve():
    # The API paragraph lists names by module, "`a` / `b` (module)", and
    # calls some of them, "`a(x)`" or "`A.method(x)`"; each listed name
    # resolves in its module, and each called name is listed. Other
    # parentheses after a backticked name, "`tpr` (recall)", are prose.
    text = README.read_text()
    start = text.index("Lower-level pieces are importable individually")
    paragraph = text[start : text.index("\n\n", start)]
    module_of = {
        name: module
        for names, module in re.findall(r"((?:`\w+`\s*/\s*)*`\w+`)\s*\((\w+)\)", paragraph)
        for name in re.findall(r"`(\w+)`", names)
        if module in MODULES
    }
    assert len(module_of) >= 10
    missing = [
        f"{module}.{name}"
        for name, module in module_of.items()
        if not hasattr(importlib.import_module(f"dmdmotion.{module}"), name)
    ]
    for called in re.findall(r"`([\w.]+)\(", paragraph):
        head, *attrs = called.split(".")
        if head not in module_of:
            missing.append(called)
            continue
        obj = importlib.import_module(f"dmdmotion.{module_of[head]}")
        for attr in [head, *attrs]:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(called)
    assert missing == []


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library in five lines"))
    code = text[start + len("```python\n") : text.index("```", start + 3)]
    namespace = {}
    exec(code, namespace)
    assert "best_f_filtered" in namespace["report"].summary
    assert "best_f_filtered" in capsys.readouterr().out
