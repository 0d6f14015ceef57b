"""README's list of the names the package root re-exports stays true: every
listed name exists in its module, and every name in ``nadescent.__all__``
is listed."""

from __future__ import annotations

import importlib
import os
import re

import nadescent

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
BULLET = re.compile(r"^- `(nadescent\.\w+)`:(.*?)(?=^- |\Z)", re.MULTILINE | re.DOTALL)


def export_list() -> str:
    """The bullet list after "The package root re-exports" in README.md."""
    text = open(README, encoding="utf-8").read()
    return text[text.index("The package root re-exports"):].split("\n\n")[1]


def listed_names() -> dict:
    """{module: [names]} from the list's bullets."""
    return {
        module: re.findall(r"`(\w+)`", names)
        for module, names in BULLET.findall(export_list())
    }


def test_every_listed_name_exists_in_its_module():
    listed = listed_names()
    assert "nadescent.selmer_bounds" in listed
    for module, names in listed.items():
        owner = importlib.import_module(module)
        for name in names:
            assert hasattr(owner, name), f"README lists {module}.{name}"
            if name in nadescent.__all__:
                assert getattr(nadescent, name) is getattr(owner, name), name


def test_every_root_export_is_listed():
    listed = {name for names in listed_names().values() for name in names}
    missing = sorted(set(nadescent.__all__) - listed)
    assert not missing, f"nadescent.__all__ names missing from README: {missing}"
    assert "- `__version__`" in export_list()
    assert nadescent.__version__
