"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is bit-exact on rational coefficients; truncation
orders are fixed here, never tuned.
"""

import random

from conftest import random_series
from enrq import checks, enriques
from enrq.qfunc import plethystic_exp, plethystic_log
from enrq.series import FRAME_QP, FRAME_QTS, agree


def _criterion(number, name, result):
    status = "PASS" if result["passed"] else "FAIL"
    line = f"criterion {number:>2} [{name}]: {status}"
    if result["detail"] and not result["passed"]:
        line += f"  -- {result['detail']}"
    print(line)
    assert result["passed"], line


BETTI = None


def _betti():
    global BETTI
    if BETTI is None:
        from enrq.perverse import BettiTable

        BETTI = BettiTable.default()
    return BETTI


def test_criterion_01_table2():
    _criterion(1, "table2", checks.check_table2(_betti()))


def test_criterion_02_tables34():
    _criterion(2, "tables34", checks.check_tables34(_betti()))


def test_criterion_03_table1():
    _criterion(3, "table1", checks.check_table1(_betti()))


def test_criterion_04_tables56():
    _criterion(4, "tables56", checks.check_tables56())


def test_criterion_05_gv_closed_forms():
    _criterion(5, "gv-closed-forms", checks.check_gv_closed_forms(q_order=7))


def test_criterion_06_toda_vs_prop():
    _criterion(6, "toda-vs-prop", checks.check_toda_vs_prop(q_order=9))


def test_criterion_07_jacobi_gate_and_chain():
    _criterion(7, "jacobi-vs-product", checks.check_jacobi_vs_product(q_order=9))
    _criterion(7, "chain-three-forms", checks.check_chain_three_forms(_betti(), q_order=6))


def test_criterion_08_asymptotics():
    _criterion(8, "asymptotics", checks.check_asymptotics())


def test_criterion_09_stabilization():
    _criterion(9, "stabilization", checks.check_stabilization(_betti()))


def test_criterion_10_ky_calibration():
    _criterion(10, "ky-calibration", checks.check_ky_calibration())


def test_criterion_11_smooth_curve():
    _criterion(11, "smooth-curve", checks.check_smooth_curve())


def test_criterion_12_euler_specialization():
    _criterion(12, "euler-specialization", checks.check_euler_specialization(q_order=6))


def test_criterion_13_dt_special_value():
    # Literal target: DT(2, 2f, 0)|_{s=1} == (1/t - 2 + t)/[2]_t.  The
    # wallcrossing corollary verified by criterion 6 forces the negative of
    # this value, so the two targets cannot both hold; the comparison is
    # kept literal rather than weakened.
    _criterion(13, "dt-special-value", checks.check_dt_special_value())


def test_criterion_14_property_suites():
    rng = random.Random(14)
    failures = []
    for k in range(200):
        f = random_series(rng, FRAME_QP, 4, max_terms=4, min_weight=1)
        ok, info = agree(plethystic_log(plethystic_exp(f)), f)
        if not ok:
            failures.append(f"roundtrip {k}: {info}")
            break
    for k in range(40):
        f = random_series(rng, FRAME_QTS, 4, max_terms=3, min_weight=1)
        g = random_series(rng, FRAME_QTS, 4, max_terms=3, min_weight=1)
        ok, info = agree(plethystic_exp(f + g), plethystic_exp(f) * plethystic_exp(g))
        if not ok:
            failures.append(f"homomorphism {k}: {info}")
            break
    deterministic = checks.check_properties(_betti())
    if not deterministic["passed"]:
        failures.append(deterministic["detail"])
    _criterion(
        14,
        "property-suites",
        {"name": "property-suites", "passed": not failures, "detail": "; ".join(failures)},
    )


def test_every_check_runs_at_the_order_it_is_asked_for(monkeypatch):
    # no check caps its order (toda-vs-prop and jacobi-vs-product only raise
    # it to 9), and at q = 12 only the literal dt-special-value target fails
    orders = []
    build = enriques.pt_fiber_full

    def recording(q_order, *args, **kwargs):
        orders.append(q_order)
        return build(q_order, *args, **kwargs)

    monkeypatch.setattr(enriques, "pt_fiber_full", recording)
    failed = [r["name"] for r in checks.run_checks(q_order=12) if not r["passed"]]
    assert failed == ["dt-special-value"]
    assert orders == [12, 12, 12]  # gv-closed-forms once, euler-specialization twice
