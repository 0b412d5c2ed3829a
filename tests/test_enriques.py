from fractions import Fraction
from math import comb

import pytest

from conftest import assert_agree
from enrq.enriques import (
    DTValue,
    MissingDivisor,
    NotInBasisSpan,
    UnstableWindow,
    assemble_pt_from_dt,
    betti_realization,
    bps_to_dt,
    dt_fiber,
    dt_fiber_table,
    dt_reference_values,
    elliptic_curve_chi_vir,
    enriques_cy3_chi_vir,
    equivariant_hilb_vir_series,
    fiber_ph_grid,
    gv_fiber_closed,
    gv_refined_extract,
    local_enriques_gv,
    local_enriques_log_pt,
    ng_from_gv,
    omega_fiber,
    pt_fiber_full,
    pt_fiber_series,
    quantum_sum_prefactor,
    rank0_dt,
    rank0_exp_argument,
    rank0_ordinary_log_from_dt,
    rational_elliptic_surface_vir,
    smooth_curve_pt_closed,
    smooth_curve_pt_series,
)
from enrq.qfunc import plethystic_exp, plethystic_log, quantum_integer
from enrq.ring import rat
from enrq.series import (
    FRAME_P0,
    FRAME_QPU,
    FRAME_QPUTS,
    FRAME_QTS,
    FRAME_TS,
    Frame,
    Series,
    Window,
    agree,
    exp_series,
)

WINDOW = Window(-20, 20, False)


def fiber_series_oracle(order):
    """Independent route: convolve the four factor families as dicts
    {(q_power, ts_power): coeff} with plain integer arithmetic."""

    def mul(a, b):
        out = {}
        for (qa, ta), ca in a.items():
            for (qb, tb), cb in b.items():
                if qa + qb >= order:
                    continue
                key = (qa + qb, ta + tb)
                out[key] = out.get(key, 0) + ca * cb
        return {k: v for k, v in out.items() if v}

    acc = {(0, 0): 1}
    for m in range(1, order):
        # (1 - q^m)^{-8}
        fac = {(0, 0): 1}
        layer = {(0, 0): 1}
        for j in range(1, (order - 1) // m + 1):
            fac[(j * m, 0)] = comb(j + 7, 7)
        acc = mul(acc, fac)
        if 2 * m < order:
            # (1 - q^{2m})^6
            fac = {(0, 0): 1}
            for j in range(1, 7):
                if 2 * m * j >= order:
                    break
                fac[(2 * m * j, 0)] = (-1) ** j * comb(6, j)
            acc = mul(acc, fac)
            for sign in (1, -1):
                fac = {(0, 0): 1}
                for j in range(1, (order - 1) // (2 * m) + 1):
                    fac[(2 * m * j, sign * j)] = 1
                acc = mul(acc, fac)
        del layer
    return acc


class TestFiberSeries:
    def test_low_coefficients(self):
        P = pt_fiber_series(4)
        assert P.coeff({"q": 0}) == 1
        assert P.coefficient({"q": 1}).coeff({}) == 8
        sl = P.coefficient({"q": 2})
        assert sl.coeff({}) == 38
        assert sl.coeff({"t": 1, "s": 1}) == 1 and sl.coeff({"t": -1, "s": -1}) == 1

    def test_against_convolution_oracle(self):
        order = 6
        P = pt_fiber_series(order)
        oracle = fiber_series_oracle(order)
        got = {}
        for (eq, et, es), c in P.terms.items():
            assert et == es
            got[(eq // 24, et // 2)] = int(c)
        assert got == oracle


class TestEquivariantHilb:
    def test_fixed_point_calibration(self):
        res = rational_elliptic_surface_vir()
        assert agree(equivariant_hilb_vir_series(8, res, 9), pt_fiber_series(9))[0]
        assert not agree(equivariant_hilb_vir_series(4, res, 9), pt_fiber_series(9))[0]

    def test_degenerate_inputs(self):
        zero = Series.zero(FRAME_TS)
        assert equivariant_hilb_vir_series(0, zero, 5) == Series.one(FRAME_QTS, q_order=5)

    def test_exp_factor_alone_at_q2(self):
        res = rational_elliptic_surface_vir()
        ser = equivariant_hilb_vir_series(0, res, 3)
        assert ser.coefficient({"q": 2}) == res


class TestDTValues:
    def test_rank1(self):
        v = dt_fiber(1, 1)
        assert v.num == Series.const(FRAME_TS, 8) and v.den == Series.one(FRAME_TS)

    def test_rank2(self):
        v = dt_fiber(2, 2)
        expected_num = (
            Series.monomial(FRAME_TS, {"t": -1, "s": -1})
            - 2
            + Series.monomial(FRAME_TS, {"t": 1, "s": 1})
        ) * rat(-1)
        assert v.num == expected_num and v.den == quantum_integer(2)

    def test_nondivisible_rank_vanishes(self):
        assert dt_fiber(3, 2).is_zero()

    def test_omega(self):
        assert omega_fiber(1, 5).num == Series.const(FRAME_TS, 8)
        assert omega_fiber(2, 4).num == -quantum_integer(2)
        assert omega_fiber(2, 3).is_zero()
        assert omega_fiber(3, 3).is_zero()

    def test_bps_inversion_reconstructs_dt(self):
        table = {(1, 1, 0): omega_fiber(1, 1), (2, 2, 0): omega_fiber(2, 2)}
        rec = bps_to_dt(table, (2, 2, 0))
        assert rec.same_as(dt_fiber(2, 2))

    def test_primitive_key_is_identity(self):
        table = {(1, 3, 0): omega_fiber(1, 3)}
        assert bps_to_dt(table, (1, 3, 0)).same_as(omega_fiber(1, 3))

    def test_missing_divisor(self):
        with pytest.raises(MissingDivisor):
            bps_to_dt({}, (2, 2, 0))

    def test_euler_value_is_exact(self):
        # integer numerator and denominator whose quotient is not an integer
        v = DTValue(Series.const(FRAME_TS, 3), Series.const(FRAME_TS, 2))
        assert v.euler() == rat(3, 2) and type(v.euler()) is type(rat(3, 2))
        assert dt_fiber(3, 3).euler() == rat(8, 9)
        assert dt_fiber(1, 1).euler() == 8 and type(dt_fiber(1, 1).euler()) is int

    def test_key_metadata(self):
        # the divisors of gcd(r, d, n) decide which Omega values are read
        class Asked(dict):
            def __contains__(self, key):
                self.setdefault(key, omega_fiber(key[0], key[1]))
                return True

        for key, want in (((2, 4, 1), [(2, 4, 1)]), ((2, 4, 0), [(2, 4, 0), (1, 2, 0)])):
            asked = Asked()
            bps_to_dt(asked, key)
            assert list(asked) == want

    def test_zero_key_is_refused(self):
        with pytest.raises(ValueError, match="zero Chern character"):
            bps_to_dt({}, (0, 0, 0))


class TestAssembly:
    def test_empty_table(self):
        assert assemble_pt_from_dt({}, 5) == Series.one(FRAME_QPUTS, q_order=5)

    def test_corollary_table_reproduces_fiber_series(self):
        assembled = assemble_pt_from_dt(dt_fiber_table(9), 9)
        assert_agree(assembled, pt_fiber_series(9).embed(FRAME_QPUTS))

    def test_euler_route_matches_specialized(self):
        table = dt_fiber_table(6)
        euler_table = {k: v.specialize({"t": 1, "s": 1}) for k, v in table.items()}
        refined = assemble_pt_from_dt(table, 6).specialize({"t": 1, "s": 1})
        direct = assemble_pt_from_dt(euler_table, 6, euler=True).specialize({"u": 1})
        assert_agree(refined.specialize({"u": 1}), direct)


class TestFullPipeline:
    def test_q0_slice_is_one(self):
        Z = pt_fiber_full(3, WINDOW)
        assert Z.coefficient({"q": 0}).coeff({}) == 1

    def test_full_equals_assembled(self):
        table = dt_fiber_table(5)
        for d in range(1, 5):
            for n in range(1, WINDOW.hi // 2 + 1):
                table[(0, d, n)] = rank0_dt(d, n)
        assert_agree(pt_fiber_full(5, WINDOW), assemble_pt_from_dt(table, 5, window=WINDOW))

    def test_chi_independence_wiring(self):
        A = rank0_exp_argument(5, WINDOW)
        L = rank0_ordinary_log_from_dt(5, WINDOW)
        assert_agree(plethystic_exp(A), exp_series(L))

    def test_prefactor_is_quantum_geometric(self):
        pref = quantum_sum_prefactor(4, WINDOW)
        for m in range(1, WINDOW.hi // 2 + 1):
            sl = pref.coefficient({"p": m})
            assert sl == -quantum_integer(m).embed(sl.frame)


class TestGVExtraction:
    def test_closed_forms_to_degree_six(self):
        Zb = pt_fiber_full(7, WINDOW).specialize({"t": {"u": 1}, "s": {"u": 1}})
        gv = gv_refined_extract(Zb, 7)
        assert gv[0].is_zero()
        for d in range(1, 7):
            assert gv[d] == gv_fiber_closed(d)
            assert gv[d].symmetric_p() and gv[d].symmetric_u()

    def test_gv_and_log_coefficients_are_ints(self):
        Zb = betti_realization(pt_fiber_full(6, Window(-20, 20, False)))
        assert all(type(c) is int for c in plethystic_log(Zb).terms.values())
        gv = gv_refined_extract(Zb, 6)
        assert len(gv) == 6 and all(
            type(c) is int for p in gv.values() for c in p.poly.terms.values()
        )

    @pytest.mark.parametrize("q_order", [3, 5])
    def test_betti_realization_of_a_frame_without_u(self, q_order):
        # a (q, t, s) series keeps q: realized directly and through its
        # (q, p, u, t, s) embedding, whose p = 0 slice it is
        Z = pt_fiber_series(q_order)
        assert Z.frame == FRAME_QTS
        direct = betti_realization(Z)
        assert direct.frame == Frame(("q", "u"), (24, 2), (1, 0)) and direct.q_order == q_order
        ref = {}
        for (eq, et, es), c in Z.terms.items():  # t = s = u on the scaled exponents
            ref[(eq, et + es)] = ref.get((eq, et + es), 0) + c
        assert direct.terms == {e: c for e, c in ref.items() if c}
        via = betti_realization(Z.embed(FRAME_QPUTS))
        assert via.frame.names == ("q", "p", "u")
        assert direct == via.coefficient({"p": 0}) and direct.q_order == via.q_order
        assert via.terms == {(eq, 0, eu): c for (eq, eu), c in direct.terms.items()}

    def test_betti_realization_of_a_ts_series(self):
        H = betti_realization(enriques_cy3_chi_vir())
        assert H.frame == Frame(("u",), (2,), (0,))
        assert H.terms == {(-6,): -1, (-2,): -11, (0,): 24, (2,): -11, (6,): -1}

    def test_unstable_window_detected(self):
        narrow = Window(-8, 8, False)
        Zb = pt_fiber_full(4, narrow).specialize({"t": {"u": 1}, "s": {"u": 1}})
        with pytest.raises(UnstableWindow):
            gv_refined_extract(Zb, 4)

    def test_stability_under_widening(self):
        wide = Window(-30, 30, False)
        a = gv_refined_extract(
            pt_fiber_full(5, WINDOW).specialize({"t": {"u": 1}, "s": {"u": 1}}), 5
        )
        b = gv_refined_extract(
            pt_fiber_full(5, wide).specialize({"t": {"u": 1}, "s": {"u": 1}}), 5
        )
        assert all(a[d] == b[d] for d in a)

    def test_smooth_curve_extraction(self):
        # genus-2 contribution: GV = (-p)^{-2} (1-p)^4, u-free
        g, order = 2, 12
        C = smooth_curve_pt_series(g, order)
        terms = {(24, ep, eu): c for (ep, eu), c in C.terms.items()}
        terms[(0, 0, 0)] = rat(1)
        Z = Series(FRAME_QPU, terms, 2, Window(2 * (1 - g), 2 * (order - g), True))
        gv = gv_refined_extract(Z, 2)[1]
        expect = {
            (2 * (j - g), 0): rat((-1) ** ((g + j) % 2) * comb(2 * g, j)) for j in range(2 * g + 1)
        }
        assert gv.poly.terms == expect

    def test_fiber_ph_grids(self):
        assert fiber_ph_grid("odd") == {(-1, 0): 8, (0, 0): 16, (1, 0): 8}
        even = fiber_ph_grid("even")
        assert even[(0, 0)] == 24 and even[(0, 1)] == 8 and even[(-1, -2)] == 1

    def test_even_closed_form_backsolves_cy3_betti(self):
        # H of the weight-shifted threefold class is forced by the even form:
        # GV_even + (u^{-2}+2+u^2)(1-up)(1-u^{-1}p)/p must equal it
        frame = gv_fiber_closed(2).poly.frame
        bracket = Series(
            frame,
            {
                frame.exps({"u": -2}): rat(1),
                frame.exps({}): rat(2),
                frame.exps({"u": 2}): rat(1),
            },
        )
        norm = Series(
            frame,
            {
                frame.exps({"p": -1}): rat(1),
                frame.exps({"u": 1}): rat(-1),
                frame.exps({"u": -1}): rat(-1),
                frame.exps({"p": 1}): rat(1),
            },
        )
        forced = gv_fiber_closed(2).poly + bracket * norm
        H = betti_realization(enriques_cy3_chi_vir())
        assert forced == H.embed(frame)


class TestNgBases:
    def test_standard_basis(self):
        s = Series(FRAME_P0, {(-2,): rat(-8), (0,): rat(16), (2,): rat(-8)})
        assert ng_from_gv(s, basis="standard") == {1: 8}
        assert ng_from_gv(Series.const(FRAME_P0, 2), basis="standard") == {0: 2}

    def test_symmetric_two_term(self):
        # p + 1/p sits in the span: 2 - (-1/p + 2 - p)
        s = Series(FRAME_P0, {(-2,): rat(1), (2,): rat(1)})
        assert ng_from_gv(s, basis="standard") == {0: 2, 1: -1}

    def test_asymmetric_rejected(self):
        s = Series(FRAME_P0, {(2,): rat(1)})
        with pytest.raises(NotInBasisSpan):
            ng_from_gv(s)

    def test_logz_relabels(self):
        s = Series(FRAME_P0, {(-2,): rat(-8), (0,): rat(16), (2,): rat(-8)})
        assert ng_from_gv(s, basis="logz") == {2: 8}


class TestLocalEnriques:
    def test_log_pt_oracle(self):
        # independent (q, p) convolution to q^2
        order = 3
        L = local_enriques_log_pt(order)

        def mul(a, b):
            out = {}
            for (qa, pa), ca in a.items():
                for (qb, pb), cb in b.items():
                    if qa + qb >= order:
                        continue
                    out[(qa + qb, pa + pb)] = out.get((qa + qb, pa + pb), 0) + ca * cb
            return out

        acc = {(0, 0): 2}
        for m in range(1, order):
            for pexp, e in (( -1, 2), (0, 4), (1, 2)) if m % 2 else ():
                fac = {(0, 0): 1}
                for j in range(1, (order - 1) // m + 1):
                    fac[(j * m, pexp * j)] = comb(j + e - 1, e - 1)
                acc = mul(acc, fac)
            fac = {(0, 0): 1}
            for j in range(1, (order - 1) // m + 1):
                fac[(j * m, 0)] = comb(j + 7, 7)
            acc = mul(acc, fac)
        got = {(eq // 24, ep // 2): int(c) for (eq, ep), c in L.terms.items()}
        assert got == {k: v for k, v in acc.items() if v}

    def test_a_values(self):
        L = local_enriques_log_pt(3)
        assert local_enriques_gv(L, 0, False) == Series.const(FRAME_P0, 2)
        a1 = local_enriques_gv(L, 1, False)
        assert a1.coeff({"p": -1}) == 4 and a1.coeff({}) == 24 and a1.coeff({"p": 1}) == 4

    def test_divisible_combination(self):
        L = local_enriques_log_pt(3)
        # beta = 2f: subtract half of a(0); half-integral inner index gives 0
        v = local_enriques_gv(L, 0, True)
        assert v == Series.const(FRAME_P0, 1)
        w = local_enriques_gv(L, 1, True)  # (beta/2)^2/2 = 1/4 is half-integral
        assert w == local_enriques_gv(L, 1, False)

    def test_calibration_values(self):
        L = local_enriques_log_pt(3)
        assert ng_from_gv(local_enriques_gv(L, 0, False), basis="logz") == {1: 2}
        assert ng_from_gv(local_enriques_gv(L, 1, False), basis="logz") == {1: 32, 2: -4}

    def test_coefficients_symmetric_and_growing(self):
        L = local_enriques_log_pt(6)
        prev = 0
        for n in range(6):
            sl = L.coefficient({"q": n})
            flipped = {(-e[0],): c for e, c in sl.terms.items()}
            assert flipped == sl.terms
            at1 = sum(sl.terms.values())
            assert at1 > prev
            prev = at1


class TestSmoothCurves:
    @pytest.mark.parametrize("g", range(4))
    def test_identity(self, g):
        assert_agree(smooth_curve_pt_series(g, 9), smooth_curve_pt_closed(g, 9))

    def test_genus_zero_shape(self):
        s = smooth_curve_pt_closed(0, 5)
        assert s.coeff({"p": 1}) == -1  # leading (-p)
        assert s.coeff({"p": 2, "u": 1}) == -1 and s.coeff({"p": 2, "u": -1}) == -1


class TestReferenceValues:
    def test_rank0_values(self):
        vals = dt_reference_values()
        assert vals["dt_rank0_odd_n1"].num == elliptic_curve_chi_vir() * 8
        assert vals["dt_rank0_even_n1"].num == enriques_cy3_chi_vir()
        assert vals["dt_rank0_even_n1"].euler() == 0
        assert vals["dt_rank0_odd_n1"].euler() == 0

    def test_rank2_value_consistent_with_bps_route(self):
        vals = dt_reference_values()
        rec = bps_to_dt({(1, 1, 0): omega_fiber(1, 1), (2, 2, 0): omega_fiber(2, 2)}, (2, 2, 0))
        assert vals["dt_2_2f_0"].same_as(rec)
        assert vals["dt_2_2f_0"].euler() == 0

    def test_chi_t_specialization_shape(self):
        chit = dt_reference_values()["dt_2_2f_0_chi_t"]
        # numerator proportional to (1/t - 2 + t), denominator the rank-2
        # quantum integer in t alone
        frame = chit.num.frame
        assert chit.den == Series(
            frame,
            {frame.exps({"t": Fraction(-1, 2)}): rat(1), frame.exps({"t": Fraction(1, 2)}): rat(1)},
        )
        tri = Series(
            frame,
            {frame.exps({"t": -1}): rat(1), frame.exps({}): rat(-2), frame.exps({"t": 1}): rat(1)},
        )
        assert chit.num == tri * rat(-1)
