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


def _mentions(path):
    """Every name a source file reads or imports, and every attribute it takes;
    a name it only assigns (a definition) is no mention."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def _used_names(name):
    """:func:`_mentions` of a module's source."""
    return _mentions(Path(importlib.import_module(name).__file__))


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
    # other modules read a grid through perverse's readers (identity_cells and
    # signed_cells for the cells, grid_rows over them, flip_mismatches), never
    # by building a table of their own
    names, attrs = _used_names(name)
    assert "PerverseTable" not in names | attrs


# public names that no library or benchmark code reads: reference routes, each
# kept for the test that compares the library's own route against it
REFERENCE_ROUTES = {
    "omega_fiber": "test_enriques.py::TestDTValues::test_bps_inversion_reconstructs_dt",
    "equivariant_hilb_vir_series": "test_enriques.py::TestEquivariantHilb::test_fixed_point_calibration",
    "rational_elliptic_surface_vir": "test_enriques.py::TestEquivariantHilb::test_fixed_point_calibration",
    "rank0_ordinary_log_from_dt": "test_enriques.py::TestFullPipeline::test_chi_independence_wiring",
}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_public_name_has_a_caller_outside_the_tests():
    # an __all__ entry is no mention either, and MODULES leaves out the
    # re-exports of enrq/__init__.py
    mentions = [_used_names(m) for m in MODULES]
    mentions += [_mentions(p) for p in sorted(PERFBENCH.glob("*.py")) if not p.name.startswith("test_")]
    mentioned = set().union(*(names | attrs for names, attrs in mentions))
    unread = {n for m in MODULES for n in getattr(importlib.import_module(m), "__all__", ())} - mentioned
    assert unread == set(REFERENCE_ROUTES)
    for test in REFERENCE_ROUTES.values():
        path, *_, func = test.split("::")
        assert f"def {func}(" in (Path(__file__).parent / path).read_text(encoding="utf-8")
