"""Named consistency checks: every cross-identity the engine can verify.

Each check function returns {"name", "passed", "detail"}; ``run_checks``
executes a selection.  These back both the command-line ``check`` subcommand
and the acceptance test suite.
"""

from fractions import Fraction
from math import ceil

from . import enriques, perverse
from .ring import rat
from .series import (
    FRAME_QPUTS,
    FRAME_QTS,
    Series,
    SeriesError,
    Window,
    _as_order,
    agree,
)

__all__ = ["CHECKS", "run_checks"]

# expected perverse-Hodge grids for low degree (symmetric halves spelled out)
TABLE_D0 = {(-1, 0): 1, (0, 0): 2, (1, 0): 1}
TABLE_D1 = {
    (-2, -1): 1, (-2, 1): 1, (-1, 0): 8,
    (0, -1): 1, (0, 0): 22, (0, 1): 1,
    (1, 0): 8, (2, -1): 1, (2, 1): 1,
}
TABLE_D2_DETERMINED = {
    (-3, -2): 1, (-3, 0): 1, (-3, 2): 1,
    (-2, -1): 9, (-2, 1): 9,
    (-1, -2): 1, (-1, -1): 2, (-1, 0): 47, (-1, 1): 2, (-1, 2): 1,
    (1, -2): 1, (1, -1): 2, (1, 0): 47, (1, 1): 2, (1, 2): 1,
    (2, -1): 9, (2, 1): 9,
    (3, -2): 1, (3, 0): 1, (3, 2): 1,
}
TABLE_D3_DETERMINED = {
    (-4, -3): 1, (-4, -1): 1, (-4, 1): 1, (-4, 3): 1,
    (-3, -2): 9, (-3, 0): 10, (-3, 2): 9,
    (-2, -3): 1, (-2, -1): 55, (-2, 1): 55, (-2, 3): 1,
    (-1, -2): 10, (-1, -1): 22, (-1, 0): 220, (-1, 1): 22, (-1, 2): 10,
    (1, -2): 10, (1, -1): 22, (1, 0): 220, (1, 1): 22, (1, 2): 10,
    (2, -3): 1, (2, -1): 55, (2, 1): 55, (2, 3): 1,
    (3, -2): 9, (3, 0): 10, (3, 2): 9,
    (4, -3): 1, (4, -1): 1, (4, 1): 1, (4, 3): 1,
}
TABLE_FIBER_ODD = {(-1, 0): 8, (0, 0): 16, (1, 0): 8}
TABLE_FIBER_EVEN = {
    (-1, -2): 1, (-1, 0): 2, (-1, 2): 1,
    (0, -1): 8, (0, 0): 24, (0, 1): 8,
    (1, -2): 1, (1, 0): 2, (1, 2): 1,
}
ASYMPT_COEFFS = {
    (0, 0): 1,
    (2, 0): 1, (1, 1): 9, (0, 2): 1,
    (4, 0): 1, (3, 1): 10, (2, 2): 56, (1, 3): 10, (0, 4): 1,
    (6, 0): 1, (5, 1): 10, (4, 2): 66, (3, 3): 276, (2, 4): 66, (1, 5): 10, (0, 6): 1,
}
BETTI_INFTY = [1, 11, 78, 430, 2015, 8373, 31706]


def _result(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _table_problems(betti, expected_by_degree):
    """Each degree-d table (at its own order d + 1) against its expected determined cells.

    The nonzero determined cells must be exactly the expected ones, none
    negative; unknowns sit on row 0 only, across every column, for d >= 2,
    and nowhere below.
    """
    problems = []
    for d, expected in expected_by_degree.items():
        table = perverse.perverse_table(d, betti)
        got = {c: table.entry(*c) for c in table.determined_cells() if table.entry(*c)}
        if got != expected:
            extra = sorted(got.items() - expected.items())
            missing = sorted(expected.items() - got.items())
            problems.append(f"d={d}: determined cells {extra} where {missing} expected")
        neg = table.negative_determined()
        if neg:
            problems.append(f"d={d}: negative determined entries (would contradict positivity): {neg}")
        unknown = [(0, j) for j in table.cols()] if d >= 2 else []
        if table.unknown_cells() != unknown:
            problems.append(f"d={d}: unknowns {table.unknown_cells()}, expected {unknown}")
    return problems


def check_table1(betti, q_order=8, **_):
    problems = _table_problems(betti, {0: TABLE_D0})
    # independent back-solve of the derived d=0 Betti input: the degree-0
    # slice of the identity forces it
    t1 = perverse.ph_main_term(1).coefficient({"q": 0})
    target = Series(
        t1.frame,
        {t1.frame.exps({"p": -1}): -1, t1.frame.exps({}): 2, t1.frame.exps({"p": 1}): -1},
    )
    forced = t1 - target  # must equal u^{-1} sum_i b_{i,0} (-u)^i
    expect = Series(
        t1.frame,
        {t1.frame.exps({"u": -1}): 1, t1.frame.exps({}): -2, t1.frame.exps({"u": 1}): 1},
    )
    if forced != expect:
        problems.append("back-solve of the d=0 Betti vector does not give (1, 2, 1)")
    return _result("table1", not problems, "; ".join(problems))


def check_table2(betti, q_order=8, **_):
    problems = _table_problems(betti, {1: TABLE_D1})
    return _result("table2", not problems, "; ".join(problems))


def check_tables34(betti, q_order=8, **_):
    problems = _table_problems(betti, {2: TABLE_D2_DETERMINED, 3: TABLE_D3_DETERMINED})
    return _result("tables34", not problems, "; ".join(problems))


def check_tables56(betti=None, q_order=8, **_):
    problems = []
    for parity, expected in (("odd", TABLE_FIBER_ODD), ("even", TABLE_FIBER_EVEN)):
        grid = enriques.fiber_ph_grid(parity)
        if {k: v for k, v in grid.items() if v} != {k: rat(v) for k, v in expected.items()}:
            problems.append(f"{parity}: {grid}")
    return _result("tables56", not problems, "; ".join(problems))


def _default_window():
    return Window(-20, 20, False)


def check_gv_closed_forms(betti=None, q_order=8, **_):
    q_order = _as_order(q_order)
    window = _default_window()
    Z = enriques.pt_fiber_full(q_order, window)
    Zb = enriques.betti_realization(Z)
    gv = enriques.gv_refined_extract(Zb, q_order)
    problems = []
    if not gv[0].is_zero():
        problems.append("degree 0 should vanish")
    d = 1
    while d < q_order:
        if gv[d] != enriques.gv_fiber_closed(d):
            problems.append(f"degree {d} differs from the closed form")
        if not (gv[d].symmetric_p() and gv[d].symmetric_u()):
            problems.append(f"degree {d} breaks p or u inversion symmetry")
        d += 1
    return _result("gv-closed-forms", not problems, "; ".join(problems))


def check_toda_vs_prop(betti=None, q_order=9, **_):
    q_order = max(_as_order(q_order), Fraction(9))
    table = enriques.dt_fiber_table(q_order)
    assembled = enriques.assemble_pt_from_dt(table, q_order)
    target = enriques.pt_fiber_series(q_order).embed(FRAME_QPUTS)
    ok, info = agree(assembled, target)
    return _result("toda-vs-prop", ok, "" if ok else f"first mismatch {info}")


def check_jacobi_vs_product(betti=None, q_order=9, **_):
    q_order = max(_as_order(q_order), Fraction(9))
    jac = perverse.ph_main_term_jacobi(q_order)
    plain = perverse.ph_main_term(q_order)
    ok, info = agree(jac, plain)
    return _result("jacobi-vs-product", ok, "" if ok else f"first mismatch {info}")


def check_chain_three_forms(betti, q_order=6, eta_prefactor=True, **_):
    rep = perverse.check_primitive_chain(betti, _as_order(q_order), eta_prefactor)
    detail = "" if rep["ok"] else str({k: v for k, v in rep.items() if k != "ok"})
    return _result("chain-three-forms", rep["ok"], detail)


def check_asymptotics(betti=None, q_order=8, **_):
    gf = perverse.asymptotic_ph_gf(7)
    problems = []
    for (i, j), want in ASYMPT_COEFFS.items():
        got = gf.coeff({"x": i, "y": j})
        if got != want:
            problems.append(f"x^{i}y^{j}: got {got}, want {want}")
    total = sum(1 for e, c in gf.terms.items() if c and e[0] + e[1] <= 6)
    if total != len(ASYMPT_COEFFS):
        problems.append(f"{total} nonzero coefficients through degree 6, expected {len(ASYMPT_COEFFS)}")
    bi = perverse.asymptotic_betti_gf(13)
    for k, want in enumerate(BETTI_INFTY):
        got = bi.coeff({"x": 2 * k})
        if got != want:
            problems.append(f"x^{2*k}: got {got}, want {want}")
    for e, c in bi.terms.items():
        if e[0] % 2 and c:
            problems.append(f"odd coefficient at x^{e[0]}")
    return _result("asymptotics", not problems, "; ".join(problems))


def check_stabilization(betti, q_order=9, **_):
    rep = perverse.stabilization_check(betti, 5, 8)
    bad = (
        [r for r in rep["shifted"] if not r.get("ok")]
        + [r for r in rep["vanishing"] if not r["ok"]]
        + [r for r in rep["stable"] if not r["ok"]]
    )
    return _result("stabilization", rep["ok"], "" if rep["ok"] else str(bad[:3]))


def check_ky_calibration(betti=None, q_order=8, **_):
    log_pt = enriques.local_enriques_log_pt(3)
    problems = []
    ng_f = enriques.ng_from_gv(enriques.local_enriques_gv(log_pt, 0, False), basis="logz")
    if ng_f != {1: 2}:
        problems.append(f"half-fiber class: {ng_f}")
    ng_sf = enriques.ng_from_gv(enriques.local_enriques_gv(log_pt, 1, False), basis="logz")
    if ng_sf != {1: 32, 2: -4}:
        problems.append(f"square-2 class: {ng_sf}")
    return _result("ky-calibration", not problems, "; ".join(problems))


def check_smooth_curve(betti=None, q_order=8, **_):
    problems = []
    for g in range(4):
        lhs = enriques.smooth_curve_pt_series(g, 9)
        rhs = enriques.smooth_curve_pt_closed(g, 9)
        ok, info = agree(lhs, rhs)
        if not ok:
            problems.append(f"g={g}: {info}")
    return _result("smooth-curve", not problems, "; ".join(problems))


def check_euler_specialization(betti=None, q_order=6, **_):
    q_order = _as_order(q_order)
    window = _default_window()
    refined = enriques.pt_fiber_full(q_order, window)
    specialized = refined.specialize({"t": 1, "s": 1})
    direct = enriques.pt_fiber_full(q_order, window, euler=True)
    ok, info = agree(specialized, direct)
    return _result("euler-specialization", ok, "" if ok else f"first mismatch {info}")


def check_dt_special_value(betti=None, q_order=8, **_):
    # Stated target: DT(2, 2f, 0)|_{s=1} = (1/t - 2 + t) / [2]_t.  The
    # wallcrossing table itself (rank-2 even case, forced by the n=0 series)
    # yields the NEGATIVE of this; the comparison is kept literal.
    computed = enriques.dt_reference_values()["dt_2_2f_0_chi_t"]
    frame = computed.num.frame
    num = Series(
        frame, {frame.exps({"t": -1}): 1, frame.exps({}): -2, frame.exps({"t": 1}): 1}
    )
    den = Series(
        frame, {frame.exps({"t": Fraction(-1, 2)}): 1, frame.exps({"t": Fraction(1, 2)}): 1}
    )
    target = enriques.DTValue(num, den)
    ok = computed.same_as(target)
    detail = "" if ok else (
        f"computed {computed.num!r} / {computed.den!r}; the stated value has the opposite sign"
    )
    return _result("dt-special-value", ok, detail)


def check_properties(betti, q_order=8, **_):
    problems = []
    # duality and Betti recovery for every degree the order covers, both over
    # the full slice (for d >= 3 a symbol cell sits just outside the table's
    # support box), from one pair of terms
    q_order = _as_order(q_order)
    main, second = perverse.ph_main_term(q_order), perverse.ph_betti_term(betti, q_order)
    for d in range(ceil(q_order)):
        cells = perverse.identity_cells(d, betti, q_order, main, second)
        violations = perverse.flip_mismatches(cells, -1, -1)
        if violations:
            problems.append(f"d={d} duality violations {violations}")
        sums = {}
        for (i, j), c in cells.items():
            sums[i + j] = sums.get(i + j, 0) + c
        for k in range(-(2 * d + 1), 2 * d + 2):
            total = sums.get(k, 0)
            want = betti.entry(d, k + 2 * d + 1)
            if total != want:
                problems.append(f"d={d}: sum over i+j={k} gives {total!r}, want {want!r}")
    # plethystic Exp turns sums into products (fixed smoke instance)
    from .qfunc import plethystic_exp

    f = Series.monomial(FRAME_QTS, {"q": 1, "t": Fraction(1, 2), "s": Fraction(1, 2)}, q_order=5)
    g = Series.monomial(FRAME_QTS, {"q": 2}, 2, q_order=5)
    lhs = plethystic_exp(f + g)
    rhs = plethystic_exp(f) * plethystic_exp(g)
    if agree(lhs, rhs) != (True, None):
        problems.append("Exp homomorphism failure")
    return _result("properties", not problems, "; ".join(problems))


CHECKS = {
    "table1": check_table1,
    "table2": check_table2,
    "tables34": check_tables34,
    "tables56": check_tables56,
    "gv-closed-forms": check_gv_closed_forms,
    "toda-vs-prop": check_toda_vs_prop,
    "jacobi-vs-product": check_jacobi_vs_product,
    "chain-three-forms": check_chain_three_forms,
    "asymptotics": check_asymptotics,
    "stabilization": check_stabilization,
    "ky-calibration": check_ky_calibration,
    "smooth-curve": check_smooth_curve,
    "euler-specialization": check_euler_specialization,
    "dt-special-value": check_dt_special_value,
    "properties": check_properties,
}


def run_checks(names=None, betti=None, q_order=8, eta_prefactor=True):
    betti = betti or perverse.BettiTable.default()
    names = list(names) if names else list(CHECKS)
    results = []
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}")
        try:
            results.append(
                CHECKS[name](betti=betti, q_order=q_order, eta_prefactor=eta_prefactor)
            )
        except SeriesError as exc:
            results.append(_result(name, False, f"{type(exc).__name__}: {exc}"))
    return results
