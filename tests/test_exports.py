"""Every public name a module declares exists, so ``import *`` cannot fail."""

import importlib
import pkgutil

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
