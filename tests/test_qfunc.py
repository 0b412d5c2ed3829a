from fractions import Fraction

import pytest

from conftest import assert_agree, random_series
from enrq import qfunc
from enrq.kernel import BIAS
from enrq.qfunc import (
    eta,
    inv_theta_pair,
    inv_zero_mode,
    mobius,
    plethystic_exp,
    plethystic_log,
    quantum_integer,
    theta,
    theta_pair,
    virtual_shift,
)
from enrq.ring import rat
from enrq.series import (
    FRAME_Q,
    FRAME_QP,
    FRAME_QPU,
    FRAME_QPUTS,
    FRAME_QTS,
    FRAME_TS,
    BadConstantTerm,
    FieldOverflow,
    Series,
    Window,
    WindowOverflow,
    WindowUnderflow,
    divide_exact,
    product_expand,
)


class TestQuantumInteger:
    def test_small_values(self):
        assert quantum_integer(1) == Series.one(FRAME_TS)
        two = quantum_integer(2)
        assert two.coeff({"t": Fraction(1, 2), "s": Fraction(1, 2)}) == 1
        assert two.coeff({"t": Fraction(-1, 2), "s": Fraction(-1, 2)}) == 1
        assert quantum_integer(3).specialize({"t": 1, "s": 1}).coeff({}) == 3
        with pytest.raises(ValueError):
            quantum_integer(0)

    def test_inversion_symmetry(self):
        for n in range(1, 7):
            qi = quantum_integer(n)
            flipped = {tuple(-x for x in e): c for e, c in qi.terms.items()}
            assert flipped == qi.terms

    def test_product_decomposes_with_unit_structure_constants(self):
        # [m][n] = [|m-n|+1] + [|m-n|+3] + ... + [m+n-1]
        for m in range(1, 5):
            for n in range(1, 5):
                prod = quantum_integer(m) * quantum_integer(n)
                expected = Series.zero(FRAME_TS)
                for k in range(abs(m - n) + 1, m + n, 2):
                    expected = expected + quantum_integer(k)
                assert prod == expected


class TestEta:
    def test_pentagonal_numbers(self):
        e = eta(1, 13)
        lead = Fraction(1, 24)
        coeffs = {Fraction(x[0], 24) - lead: c for x, c in e.terms.items()}
        assert coeffs == {
            Fraction(0): 1,
            Fraction(1): -1,
            Fraction(2): -1,
            Fraction(5): 1,
            Fraction(7): 1,
            Fraction(12): -1,
        }

    def test_scaled_leading_exponent(self):
        assert eta(2, 4).wmin() == Fraction(2, 24)

    def test_eta_ratio_weight_zero(self):
        pad = Fraction(9)
        B = divide_exact(eta(2, pad) ** 8, eta(1, pad) ** 16)
        assert B.wmin() == 0

    def test_matches_product_expand(self):
        # independent route: plain product times the explicit prefactor
        e = eta(3, 8)
        prod = product_expand(FRAME_Q, [({"q": 3 * m}, 1) for m in (1, 2)], 8)
        assert_agree(e, prod * Series.monomial(FRAME_Q, {"q": Fraction(3, 24)}))


class TestTheta:
    def test_zero_mode(self):
        t = theta({"u": 2}, 1, 2, FRAME_QPU)
        sl = t.coefficient({"q": 0})
        assert sl.coeff({"u": 1}) == 1 and sl.coeff({"u": -1}) == -1

    def test_antisymmetry_under_inversion(self):
        a = theta({"u": 2}, 1, 5, FRAME_QPU)
        b = theta({"u": -2}, 1, 5, FRAME_QPU)
        assert (a + b).is_zero()

    def test_pair_zero_mode(self):
        tp = theta_pair({"p": 1}, {"u": 1}, 2, 2, FRAME_QPU)
        sl = tp.coefficient({"q": 0})
        expect = {(2, 0): rat(1), (0, 2): rat(-1), (0, -2): rat(-1), (-2, 0): rat(1)}
        assert sl.terms == expect

    def test_pair_equals_product_of_thetas(self):
        a = theta({"p": 1, "u": 1}, 2, 7, FRAME_QPU)
        b = theta({"p": 1, "u": -1}, 2, 7, FRAME_QPU)
        assert_agree(theta_pair({"p": 1}, {"u": 1}, 2, 7, FRAME_QPU), a * b)

    def test_inv_pair_inverts(self):
        w = Window(-12, 12, False)
        inv = inv_theta_pair({"p": 1}, {"u": 1}, 1, 5, FRAME_QPU, w)
        tp = theta_pair({"p": 1}, {"u": 1}, 1, 5, FRAME_QPU)
        assert_agree(tp * inv, Series.one(FRAME_QPU, q_order=5, window=inv.window))

    def test_inv_zero_mode_inverts_the_zero_mode(self):
        # x - y - 1/y + 1/x times sum_m [m]_{y^2} x^m is 1 below the window top
        x = {"p": 1}
        for y in ({"t": Fraction(1, 2), "s": Fraction(1, 2)}, {}):
            zm = sum(
                (Series.monomial(FRAME_QPUTS, m, c) for m, c in
                 ((x, 1), ({"p": -1}, 1), (y, -1), ({v: -e for v, e in y.items()}, -1))),
                Series.zero(FRAME_QPUTS),
            )
            for hi in (0, 2, 7, 20):
                inv = inv_zero_mode(x, y, 3, FRAME_QPUTS, Window(-hi, hi, False))
                assert inv.window == Window(2, hi, True) and inv.q_order == 3
                prod = zm * inv
                assert_agree(prod, Series.one(FRAME_QPUTS, q_order=3, window=prod.window))
        # the Euler point y = 1: the coefficient of x^m is m
        euler = inv_zero_mode(x, {}, 3, FRAME_QPU, Window(0, 8, True))
        assert [euler.coeff({"p": m}) for m in range(1, 5)] == [1, 2, 3, 4]

    def test_inv_zero_mode_needs_x_raising_p(self):
        for x in ({"p": -1}, {"u": 1}):
            with pytest.raises(WindowUnderflow):
                inv_zero_mode(x, {"u": 1}, 3, FRAME_QPU, Window(0, 8, True))
        with pytest.raises(WindowUnderflow):
            inv_zero_mode({"p": 1}, {"u": 1}, 3, FRAME_QPU, None)

    def test_inv_zero_mode_refuses_an_out_of_field_top_before_building_terms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("inv_zero_mode built its terms")

        monkeypatch.setattr(qfunc, "Series", refuse)
        half = {"t": Fraction(1, 2), "s": Fraction(1, 2)}
        # the CLI's --p-window -300000:300000: summing m up to 300000 never ends
        with pytest.raises(WindowOverflow, match="scaled exponent of p may reach 600000"):
            inv_zero_mode({"p": 1}, half, 2, FRAME_QPUTS, Window(-600000, 600000))
        # three terms, the last with (m - 1)|y| = 2 * 2 * 131072 = BIAS: refused before packing
        with pytest.raises(WindowOverflow, match=f"scaled exponent of t may reach {BIAS}"):
            inv_zero_mode({"p": 1}, {"t": BIAS // 4}, 2, FRAME_QPUTS, Window(0, 6))
        assert issubclass(WindowOverflow, FieldOverflow)

    def test_inv_zero_mode_packs_a_top_just_inside_the_field(self):
        # the last term p^3 y^{+-2} reaches 2 * (BIAS - 2) / 2 scaled units of t
        inv = inv_zero_mode({"p": 1}, {"t": Fraction(BIAS - 2, 4)}, 2, FRAME_QPUTS, Window(0, 6))
        assert inv.coeff({"p": 3, "t": Fraction(BIAS - 2, 2)}) == 1
        with pytest.raises(WindowOverflow):
            inv_zero_mode({"p": 1}, {"t": Fraction(BIAS, 4)}, 2, FRAME_QPUTS, Window(0, 6))

    def test_theta_ratio_remainder_free_to_q8(self):
        q = Fraction(9)
        ratio = divide_exact(theta({"u": 2}, 2, q, FRAME_QPU), theta({"u": 2}, 1, q, FRAME_QPU))
        assert ratio.coeff({}) == 1  # zero modes cancel exactly


class TestPlethystics:
    def test_exp_of_q(self):
        e = plethystic_exp(Series.monomial(FRAME_Q, {"q": 1}, q_order=6))
        assert all(e.coeff({"q": n}) == 1 for n in range(6))

    def test_exp_two_routes(self):
        # Exp(q(t+s)) against the product 1/((1-tq)(1-sq))
        f = Series.monomial(FRAME_QTS, {"q": 1, "t": 1}, q_order=4) + Series.monomial(
            FRAME_QTS, {"q": 1, "s": 1}, q_order=4
        )
        direct = plethystic_exp(f)
        prod = product_expand(FRAME_QTS, [({"q": 1, "t": 1}, -1), ({"q": 1, "s": 1}, -1)], 4)
        assert_agree(direct, prod)
        sl = direct.coefficient({"q": 2})
        assert sl.coeff({"t": 1, "s": 1}) == 1 and sl.coeff({"t": 2}) == 1

    def test_general_route_agrees_with_product_route(self, rng):
        # halving f gives rational exponents in the product, whose divisions
        # go through qdiv; Exp(f/2)^2 = Exp(f) ties them to f's integer ones
        for _ in range(10):
            f = random_series(rng, FRAME_QTS, 4, max_terms=4, min_weight=1)
            half = f * rat(1, 2)
            via_general = plethystic_exp(half) * plethystic_exp(half)
            assert_agree(via_general, plethystic_exp(f))

    def test_log_of_geometric(self):
        F = product_expand(FRAME_Q, [({"q": m}, -1) for m in range(1, 9)], 9)
        L = plethystic_log(F)
        assert all(L.coeff({"q": n}) == 1 for n in range(1, 9))

    def test_log_homomorphism(self, rng):
        for _ in range(10):
            f = random_series(rng, FRAME_QP, 4, min_weight=1)
            g = random_series(rng, FRAME_QP, 4, min_weight=1)
            F, G = plethystic_exp(f), plethystic_exp(g)
            assert_agree(plethystic_log(F * G), plethystic_log(F) + plethystic_log(G))

    def test_round_trip(self, rng):
        for _ in range(25):
            f = random_series(rng, FRAME_QP, 4, min_weight=1)
            assert_agree(plethystic_log(plethystic_exp(f)), f)

    def test_windowed_exp_needs_floor(self):
        # an argument without a floor is refused where it is built
        with pytest.raises(WindowUnderflow):
            plethystic_exp(Series(FRAME_QP, {(24, 2): rat(1)}, 3, Window(-2, 4, False)))

    def test_bad_constant_term(self):
        with pytest.raises(BadConstantTerm):
            plethystic_exp(Series.one(FRAME_Q, q_order=3) + Series.monomial(FRAME_Q, {"q": 1}))


class TestVirtualShift:
    def test_projective_line(self):
        chi_p1 = Series.one(FRAME_TS) + Series.monomial(FRAME_TS, {"t": 1, "s": 1})
        assert virtual_shift(chi_p1, 1) == quantum_integer(2)

    def test_elliptic_curve_literal_shift(self):
        from enrq.enriques import elliptic_curve_chi_vir, hodge_chi

        chi_e = hodge_chi({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
        # the literal (ts)^{-1/2} shift is the sign-free variant of chi^vir
        assert virtual_shift(chi_e, 1) == -elliptic_curve_chi_vir()

    def test_dim_zero(self):
        f = Series.one(FRAME_TS)
        assert virtual_shift(f, 0) == f


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
