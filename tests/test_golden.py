"""Golden outputs: sha256 of the canonical JSON of the paper's main series.

The hashes were taken before coefficients were kept as ints while integral;
a change of coefficient representation must leave every printed coefficient,
truncation order and window as it was.  The tables use shared main and Betti
terms at q_order 16; ``perverse_table(d)`` with its own defaults gave the same
hash.
"""

import hashlib
import json

import pytest

from enrq import enriques, perverse
from enrq.series import Window

GOLDEN = {
    "ph_main_term": "022bf0841c20e22758f876beec89a8c146e3efc992f18896b3ae876e888ec236",
    "ph_main_term_jacobi": "022bf0841c20e22758f876beec89a8c146e3efc992f18896b3ae876e888ec236",
    "ph_betti_term": "122fad58e8c371b8f28dd4f724c8aab3365f474838cd81d3fbadbcba446981e0",
    "perverse_table": "ed2fe87d771cabb0d7432b405d87d6733a05d714261d5eb00672e4bee9c577c7",
    "gv_refined_extract": "52b501af33e9152c0b98f46a55012109b79f4f5dcd5f39d113b2aa284c906d52",
}


def sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def identity_terms():
    betti = perverse.BettiTable.default()
    return betti, perverse.ph_main_term(16), perverse.ph_betti_term(betti, 16)


def test_main_term(identity_terms):
    _, main, _ = identity_terms
    assert sha(main.to_json_dict()) == GOLDEN["ph_main_term"]


def test_main_term_jacobi():
    assert sha(perverse.ph_main_term_jacobi(16).to_json_dict()) == GOLDEN["ph_main_term_jacobi"]


def test_betti_term(identity_terms):
    _, _, second = identity_terms
    assert sha(second.to_json_dict()) == GOLDEN["ph_betti_term"]


def test_perverse_tables(identity_terms):
    betti, main, second = identity_terms
    tables = [perverse.perverse_table(d, betti, 16, main, second) for d in range(16)]
    assert sha([t.to_json_dict() for t in tables]) == GOLDEN["perverse_table"]


def test_refined_gv_extraction():
    Z = enriques.pt_fiber_full(6, Window(-20, 20, False))
    gv = enriques.gv_refined_extract(enriques.betti_realization(Z), 6)
    doc = {str(d): p.poly.to_json_dict() for d, p in sorted(gv.items())}
    assert sha(doc) == GOLDEN["gv_refined_extract"]
