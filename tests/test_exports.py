"""Every public name a module declares exists, so ``import *`` cannot fail, and
each engine decision is read only by the module that owns it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import enrq

MODULES = sorted(m.name for m in pkgutil.iter_modules(enrq.__path__, "enrq."))


def test_every_module_is_listed():
    assert {"enrq.checks", "enrq.enriques", "enrq.perverse", "enrq.series"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


# the packed key layout (kernel), the symbol ids (ring) and the stored slices
# (series): no other module may read them
PACKED_NAMES = {"BIAS", "FIELD_MASK", "FIELD_BITS", "SYMBOL_BY_ID", "PackedSlice", "madd"}
PACKED_ATTRS = PACKED_NAMES | {"slices", "shifts"}


def _used_names(name):
    """Every name, imported name and attribute a module's source mentions."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


@pytest.mark.parametrize("name", [m for m in MODULES if m not in ("enrq.kernel", "enrq.ring", "enrq.series")])
def test_only_series_reads_packed_keys(name):
    names, attrs = _used_names(name)
    assert (names & PACKED_NAMES) | (attrs & PACKED_ATTRS) == set()


@pytest.mark.parametrize("name", [m for m in MODULES if m != "enrq.perverse"])
def test_only_perverse_names_its_identity_terms(name):
    names, attrs = _used_names(name)
    assert "_identity_terms" not in names | attrs


@pytest.mark.parametrize("name", [m for m in MODULES if m != "enrq.perverse"])
def test_only_perverse_builds_grid_tables(name):
    # other modules read a grid through perverse's readers (identity_cells,
    # grid_rows, flip_mismatches), never by building a table of their own
    names, attrs = _used_names(name)
    assert "PerverseTable" not in names | attrs
