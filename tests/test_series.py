from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from conftest import assert_agree, random_series
from enrq import enriques, perverse, qfunc
from enrq.cli import SERIES_IDS
from enrq.cli import main as cli_main
from enrq.ring import LinExpr, betti_symbol, is_rational, rat
from enrq.series import (
    FRAME_PU,
    FRAME_Q,
    FRAME_QP,
    FRAME_QPU,
    FRAME_QPUTS,
    FRAME_QTS,
    FRAME_TS,
    FRAME_XY,
    BadConstantTerm,
    InexactDivision,
    NonConvergentFactor,
    NonUnitLeadingTerm,
    OffLattice,
    OutsideValidWindow,
    Series,
    SeriesError,
    TruncationLoss,
    Window,
    WindowUnderflow,
    agree,
    divide_exact,
    exp_series,
    log_series,
    product_expand,
)


def geom(frame, q_order):
    """1/(1-q) via product_expand."""
    return product_expand(frame, [({"q": m}, -1) for m in (1,)], q_order)


def mono(frame, exps, c=1, **kw):
    return Series.monomial(frame, exps, c, **kw)


class TestAdd:
    def test_cancellation(self):
        one, q = mono(FRAME_Q, {}), mono(FRAME_Q, {"q": 1})
        assert (one + q) + (one - q) == Series.const(FRAME_Q, 2)

    def test_half_integer_merge(self):
        h = mono(FRAME_Q, {"q": Fraction(1, 2)})
        assert h + h == mono(FRAME_Q, {"q": Fraction(1, 2)}, 2)

    def test_identity(self):
        f = mono(FRAME_QP, {"q": 1, "p": -1}, 3)
        assert f + Series.zero(FRAME_QP) == f

    def test_trunc_is_min(self):
        f = Series.const(FRAME_Q, 1, q_order=3)
        g = Series.const(FRAME_Q, 1, q_order=5)
        assert (f + g).q_order == 3

    def test_frame_mismatch(self):
        with pytest.raises(ValueError):
            Series.one(FRAME_Q) + Series.one(FRAME_QP)


class TestMul:
    def test_geometric_inverse(self):
        one_minus_q = Series.one(FRAME_Q) - mono(FRAME_Q, {"q": 1})
        g = geom(FRAME_Q, 6)
        assert_agree(one_minus_q * g, Series.one(FRAME_Q, q_order=6))

    def test_laurent_square(self):
        f = mono(FRAME_QP, {"p": -1}) + mono(FRAME_QP, {"p": 1})
        sq = f * f
        assert sq == mono(FRAME_QP, {"p": -2}) + 2 + mono(FRAME_QP, {"p": 2})

    def test_windowed_times_windowed_without_floor_raises(self):
        w = Window(-2, 2, False)
        f = Series.monomial(FRAME_QP, {"p": 1}, q_order=3, window=w)
        with pytest.raises(WindowUnderflow):
            f * f

    def test_floored_windows_multiply(self):
        w = Window(0, 6, True)
        f = Series(FRAME_QP, {(24, 2): rat(1)}, 3, w)
        g = f * f
        assert g.window == Window(0, 6, True)
        assert g.terms == {(48, 4): rat(1)}

    def test_exact_times_windowed_window_shift(self):
        w = Window(0, 6, True)
        f = Series(FRAME_QP, {(0, 0): rat(1), (24, 2): rat(1)}, 4, w)
        k = mono(FRAME_QP, {"p": -1}) + mono(FRAME_QP, {"p": 1})
        assert (k * f).window == Window(-2, 4, True)

    def test_commutative_associative_random(self, rng):
        for _ in range(40):
            f = random_series(rng, FRAME_QP, 5)
            g = random_series(rng, FRAME_QP, 5)
            h = random_series(rng, FRAME_QP, 5)
            assert_agree(f * g, g * f, "commutativity")
            assert_agree((f * g) * h, f * (g * h), "associativity")


class TestInvert:
    def test_geometric(self):
        f = (Series.one(FRAME_Q) - mono(FRAME_Q, {"q": 1})).with_q_order(4)
        assert f.invert() == sum(
            (mono(FRAME_Q, {"q": k}) for k in range(1, 4)), Series.one(FRAME_Q)
        )

    def test_monomial(self):
        assert mono(FRAME_Q, {"q": Fraction(1, 2)}).invert() == mono(
            FRAME_Q, {"q": Fraction(-1, 2)}
        )

    def test_two_term_slice_rejected(self):
        f = mono(FRAME_QPU, {"u": 1}) - mono(FRAME_QPU, {"u": -1})
        with pytest.raises(NonUnitLeadingTerm):
            f.invert()

    def test_symbolic_lead_rejected(self):
        f = Series.const(FRAME_QPU, 1 + betti_symbol(1, 2), q_order=2)
        with pytest.raises(NonUnitLeadingTerm):
            f.invert()

    def test_roundtrip_random_unit_leading(self, rng):
        for _ in range(1000):
            f = random_series(rng, FRAME_QP, 4, max_terms=4, min_weight=1)
            f = f + rng.choice((1, 2, -1))
            inv = f.invert()
            assert_agree(f * inv, Series.one(FRAME_QP, q_order=inv.q_order))
            if len(f.terms) > 1:
                assert_equivalent(inv, invert_oracle(f))

    @pytest.mark.parametrize("scale", [1, 2])
    @pytest.mark.parametrize("q_order", [8, 16, 24])
    def test_eta_power_matches_oracle(self, scale, q_order):
        f = qfunc.eta(scale, q_order) ** 4
        assert_integral_equivalent(f.invert(), invert_oracle(f))


def invert_oracle(f):
    """Reference for Series.invert on a non-monomial unit-led truncated series.

    This is the Neumann loop ``sum (-h)^n`` with ``h = f/lead - 1`` that
    ``divide_exact`` replaced; it is kept here only as the oracle the
    equivalence tests compare against.
    """
    frame = f.frame
    w0s = min(map(frame.weight_scaled, f.terms))
    (e0, c0), = [(e, c) for e, c in f.terms.items() if frame.weight_scaled(e) == w0s]
    inv_mono = Series(frame, {tuple(-x for x in e0): rat(1) / c0}, None, None, _clean=True)
    h = f * inv_mono - 1
    target = h.q_order
    acc = Series.one(frame, target)
    p = acc
    while p.terms:
        p = (p * (-h)).with_q_order(target)
        acc = acc + p
    return acc * inv_mono


class TestDivideExact:
    def test_u_binomial(self):
        num = mono(FRAME_QPU, {"u": 2}) - mono(FRAME_QPU, {"u": -2})
        den = mono(FRAME_QPU, {"u": 1}) - mono(FRAME_QPU, {"u": -1})
        got = divide_exact(num, den)
        assert got == mono(FRAME_QPU, {"u": 1}) + mono(FRAME_QPU, {"u": -1})
        assert not any(isinstance(c, float) for c in got.terms.values())

    def test_integer_quotient_stays_int(self):
        num = Series.monomial(FRAME_QPU, {"u": 2}) - Series.monomial(FRAME_QPU, {"u": -2})
        den = Series.monomial(FRAME_QPU, {"u": 1}) - Series.monomial(FRAME_QPU, {"u": -1})
        got = divide_exact(num, den)
        assert got.terms == {(0, 0, 2): 1, (0, 0, -2): 1}
        assert all(type(c) is int for c in got.terms.values())

    def test_inexact_integer_quotient_is_rational(self):
        got = divide_exact(mono(FRAME_Q, {"q": 1}, 3), Series.const(FRAME_Q, 2))
        (c,) = got.terms.values()
        assert c == rat(3, 2) and type(c) is type(rat(3, 2))

    def test_scalar_division(self):
        f = mono(FRAME_Q, {"q": 1}, 4) + mono(FRAME_Q, {"q": 2}, 3)
        got = f / 2
        assert got.terms == {(24,): 2, (48,): rat(3, 2)}
        assert type(got.terms[(24,)]) is int and type(got.terms[(48,)]) is type(rat(3, 2))
        with pytest.raises(ZeroDivisionError):
            Series.zero(FRAME_Q) / 0

    def test_inexact(self):
        num = Series.one(FRAME_QPU) + mono(FRAME_QPU, {"q": 1})
        den = mono(FRAME_QPU, {"u": 1}) - mono(FRAME_QPU, {"u": -1})
        with pytest.raises(InexactDivision):
            divide_exact(num, den)

    def test_exact_nonterminating_detected(self):
        num = Series.one(FRAME_Q)
        den = Series.one(FRAME_Q) - mono(FRAME_Q, {"q": 1})
        with pytest.raises(InexactDivision):
            divide_exact(num, den)

    def test_symbolic_numerator(self):
        b = betti_symbol(1, 2)
        den = mono(FRAME_QPU, {"u": 1}) - mono(FRAME_QPU, {"u": -1})
        num = den * Series.const(FRAME_QPU, b)
        assert divide_exact(num, den) == Series.const(FRAME_QPU, b)

    def test_division_then_multiplication_roundtrip(self, rng):
        den = mono(FRAME_QP, {"p": -1}) + 2 + mono(FRAME_QP, {"p": 1})
        for _ in range(25):
            g = random_series(rng, FRAME_QP, 4)
            assert_agree(divide_exact(g * den, den), g)


class TestAdams:
    def test_examples(self):
        f = mono(FRAME_QTS, {"q": 1}) + mono(FRAME_QTS, {"t": 1})
        assert f.adams(2) == mono(FRAME_QTS, {"q": 2}) + mono(FRAME_QTS, {"t": 2})
        assert f.adams(1) is f
        assert mono(FRAME_Q, {"q": Fraction(1, 2)}).adams(3) == mono(
            FRAME_Q, {"q": Fraction(3, 2)}
        )

    def test_composition(self, rng):
        for _ in range(20):
            f = random_series(rng, FRAME_QTS, 3)
            assert f.adams(2).adams(3) == f.adams(6)

    def test_cutoff_scaling(self):
        f = Series.const(FRAME_Q, 1, q_order=3)
        assert f.adams(4).q_order == 12


class TestSpecialize:
    def test_ts_to_u(self):
        frame = FRAME_QPUTS
        f = mono(frame, {"t": Fraction(1, 2), "s": Fraction(1, 2)})
        out = f.specialize({"t": {"u": 1}, "s": {"u": 1}})
        assert out == Series.monomial(out.frame, {"u": 1})

    def test_euler_point(self):
        f = mono(FRAME_QTS, {"t": 1, "s": -2}, 5)
        assert f.specialize({"t": 1, "s": 1}).coeff({}) == 5

    def test_commutes_with_add_mul(self, rng):
        sub = {"t": {"u": 1}, "s": {"u": 1}}
        for _ in range(25):
            f = random_series(rng, FRAME_QPUTS, 3, max_terms=4)
            g = random_series(rng, FRAME_QPUTS, 3, max_terms=4)
            assert_agree((f + g).specialize(sub), f.specialize(sub) + g.specialize(sub))
            assert_agree((f * g).specialize(sub), f.specialize(sub) * g.specialize(sub))

    def test_weighted_variable_rejected(self):
        f = mono(FRAME_QP, {"q": 1})
        with pytest.raises(TruncationLoss):
            f.specialize({"q": 1})

    def test_windowed_p_substitution_rejected(self):
        f = Series(FRAME_QPU, {(0, 2, 0): rat(1)}, 3, Window(0, 4, True))
        with pytest.raises(TruncationLoss):
            f.specialize({"p": 1})
        with pytest.raises(TruncationLoss):
            f.specialize({"u": {"p": 1}})


class TestCoefficient:
    def test_basic(self):
        f = 1 + 2 * mono(FRAME_Q, {"q": 1}) + 3 * mono(FRAME_Q, {"q": 2})
        f = f.with_q_order(3)
        assert f.coefficient({"q": 1}).coeff({}) == 2

    def test_outside_order(self):
        f = Series.const(FRAME_Q, 1, q_order=3)
        with pytest.raises(OutsideValidWindow):
            f.coefficient({"q": 3})

    def test_outside_window(self):
        f = Series(FRAME_QP, {(0, 0): rat(1)}, 3, Window(-2, 2, False))
        with pytest.raises(OutsideValidWindow):
            f.coefficient({"p": 2})
        with pytest.raises(OutsideValidWindow):
            f.coeff({"q": 0, "p": -3})

    def test_floored_window_lookup_below_floor(self):
        f = Series(FRAME_QP, {(0, 2): rat(1)}, 3, Window(1, 4, True))
        assert f.coeff({"q": 0, "p": -5}) == 0


class TestExpLog:
    def test_exp_coefficients(self):
        e = exp_series(mono(FRAME_Q, {"q": 1}, q_order=4))
        assert [e.coeff({"q": n}) for n in range(4)] == [1, 1, rat(1, 2), rat(1, 6)]

    def test_round_trip(self, rng):
        for _ in range(30):
            f = random_series(rng, FRAME_QP, 4, min_weight=1)
            assert_agree(log_series(exp_series(f)), f)

    def test_bad_constant(self):
        with pytest.raises(BadConstantTerm):
            exp_series(Series.const(FRAME_Q, 1, q_order=3) + mono(FRAME_Q, {"q": 1}))
        with pytest.raises(BadConstantTerm):
            log_series(mono(FRAME_Q, {"q": 1}, q_order=3))

    def test_early_vanishing_power_narrows_the_window(self):
        # exp(q p^(1/2)) = 1 + q p^(1/2) + q^2 p / 2 + ...; on the floor
        # [-2, 4] the square is cut at p <= 0, so the power loop stops after
        # one power; the window must be the one reached at the weight cut.
        f = Series(FRAME_QP, {(24, 1): 1}, 3, Window(-2, 4, True))
        got = exp_series(f)
        assert got.window == Window(-6, 0, True) and got.terms == {(0, 0): 1}
        truth = exp_series(Series(FRAME_QP, f.terms, 3))
        assert truth.terms[(48, 2)] == rat(1, 2)
        assert_agree(got, truth)
        wide = exp_series(Series(FRAME_QP, f.terms, 3, Window(-2, 12, True)))
        assert wide.window == Window(-6, 8, True)
        assert_agree(wide, truth)

    def test_exp_homomorphism(self, rng):
        for _ in range(20):
            f = random_series(rng, FRAME_QP, 4, min_weight=1)
            g = random_series(rng, FRAME_QP, 4, min_weight=1)
            assert_agree(exp_series(f + g), exp_series(f) * exp_series(g))


class TestProductExpand:
    def test_partition_numbers(self):
        P = product_expand(FRAME_Q, [({"q": m}, -1) for m in range(1, 6)], 6)
        assert [P.coeff({"q": n}) for n in range(6)] == [1, 1, 2, 3, 5, 7]

    def test_single_factor(self):
        f = product_expand(FRAME_QPU, [({"q": 1, "p": 1, "u": 1}, -1)], 3)
        assert f == 1 + mono(FRAME_QPU, {"q": 1, "p": 1, "u": 1}) + mono(
            FRAME_QPU, {"q": 2, "p": 2, "u": 2}
        )

    def test_eight_colors(self):
        P = product_expand(FRAME_Q, [({"q": m}, -8) for m in range(1, 3)], 3)
        assert P.coeff({"q": 2}) == 44

    def test_nonconvergent(self):
        with pytest.raises(NonConvergentFactor):
            product_expand(FRAME_QPU, [({"u": 1}, -1)], 3)
        with pytest.raises(NonConvergentFactor):
            product_expand(FRAME_QPU, [({"q": 1}, -1), ({"q": -1, "p": 2}, 1)], 3)
        with pytest.raises(NonConvergentFactor):
            product_expand(FRAME_QP, [({"q": 1, "p": 1}, -1), ({"p": 1}, 2)], 3, Window(0, 8, True))


def product_expand_oracle(frame, factors, q_order, window=None):
    """Reference for product_expand: one windowed sparse product per factor.

    This is the product-of-binomials loop the Euler recurrence replaced; it is
    kept here only as the oracle the equivalence tests compare against.
    """
    q_order = Fraction(q_order)
    acc = Series.one(frame, q_order, window)
    for mono, e in factors:
        exps = mono if isinstance(mono, tuple) else frame.exps(mono)
        ws = frame.weight_scaled(exps)
        if ws <= 0:
            raise NonConvergentFactor(f"factor exponent {mono} has weight <= 0")
        if Fraction(ws, frame.wden) >= q_order:
            continue
        acc = acc * _oracle_binomial(frame, exps, int(e), q_order, window)
    return acc


def _oracle_binomial(frame, exps, e, q_order, window):
    """(1 - m)^e truncated, for a monomial m of positive weight."""
    w = frame.weight(exps)
    jmax = int((q_order - Fraction(1, frame.wden)) / w) + 1
    pi = frame.p_index if window is not None else -1
    terms = {frame.zero_exp(): rat(1)}
    top = min(e, jmax) if e >= 0 else jmax
    for j in range(1, top + 1):
        if j * w >= q_order:
            break
        ej = tuple(x * j for x in exps)
        if pi >= 0 and (ej[pi] > window.hi or (not window.floored and ej[pi] < window.lo)):
            continue
        coef = rat((-1) ** j * comb(e, j)) if e >= 0 else rat(comb(j - e - 1, -e - 1))
        terms[ej] = coef
    return Series(frame, terms, q_order, window, _clean=True)


def assert_exact(f):
    """Every coefficient is an int, a rational or a LinExpr over those; never a float."""
    for c in f.terms.values():
        parts = [c.const, *c.terms.values()] if isinstance(c, LinExpr) else [c]
        assert all(is_rational(x) for x in parts), c


def assert_equivalent(a, b):
    """Same coefficient values, q_order and window; no float coefficient on either side."""
    assert a.frame == b.frame
    assert a.terms == b.terms
    assert_exact(a)
    assert_exact(b)
    assert a.q_order == b.q_order and type(a.q_order) is type(b.q_order)
    assert a.window == b.window and type(a.window) is type(b.window)


def assert_integral_equivalent(a, b):
    """assert_equivalent, and every coefficient of ``a`` is an int."""
    assert_equivalent(a, b)
    assert all(type(c) is int for c in a.terms.values())


def assert_identical(a, b):
    """Bit-identical series: assert_equivalent plus equal coefficient types."""
    assert_equivalent(a, b)
    assert {e: type(c) for e, c in a.terms.items()} == {e: type(c) for e, c in b.terms.items()}


@contextmanager
def product_expand_checked_against_oracle():
    """Route every library call of product_expand through an oracle comparison.

    Yields the list of compared calls, so a test can assert it saw some.
    """
    calls = []

    def twin(frame, factors, q_order, window=None):
        factors = list(factors)
        new = product_expand(frame, factors, q_order, window)
        assert_integral_equivalent(new, product_expand_oracle(frame, factors, q_order, window))
        calls.append((frame, len(factors), q_order, window))
        return new

    mods = (qfunc, perverse, enriques)
    saved = [m.product_expand for m in mods]
    for m in mods:
        m.product_expand = twin
    try:
        yield calls
    finally:
        for m, f in zip(mods, saved):
            m.product_expand = f


def _random_factors(rng, frame, q_order, n, p_nonnegative=False):
    """Factors with exponents of both signs and zero, repeats, and some >= q_order."""
    factors = []
    for _ in range(n):
        mono = {}
        for name, den, w in zip(frame.names, frame.denoms, frame.weights):
            if w:
                mono[name] = Fraction(rng.randint(1, 2 * den * int(q_order)), den)
            elif name == "p" and p_nonnegative:
                mono[name] = Fraction(rng.randint(0, 4), den)
            else:
                mono[name] = Fraction(rng.randint(-3, 3), den)
        factors.append((mono, rng.randint(-4, 4)))
    factors += rng.choices(factors, k=3)
    return factors


class TestProductExpandOracle:
    def test_random_factor_lists(self, rng):
        for frame in (FRAME_Q, FRAME_QP, FRAME_QPU, FRAME_XY, FRAME_PU):
            for _ in range(8):
                q_order = Fraction(rng.randint(2, 6), rng.choice((1, 2)))
                factors = _random_factors(rng, frame, q_order, rng.randint(1, 8))
                assert_integral_equivalent(
                    product_expand(frame, factors, q_order),
                    product_expand_oracle(frame, factors, q_order),
                )

    def test_random_factor_lists_floored_window(self, rng):
        for frame in (FRAME_QP, FRAME_QPU, FRAME_QPUTS):
            for hi in (0, 3, 8):
                for _ in range(6):
                    q_order = rng.randint(2, 5)
                    factors = _random_factors(rng, frame, q_order, rng.randint(1, 8), p_nonnegative=True)
                    window = Window(0, hi, True)
                    assert_integral_equivalent(
                        product_expand(frame, factors, q_order, window),
                        product_expand_oracle(frame, factors, q_order, window),
                    )

    def test_edge_cases(self):
        cases = [
            (FRAME_Q, [], 5, None),
            (FRAME_Q, [({"q": 1}, 0), ({"q": 2}, 0)], 5, None),
            (FRAME_Q, [({"q": 5}, -3), ({"q": 7}, 2)], 5, None),
            (FRAME_Q, [({"q": 1}, 3), ({"q": 1}, -3)], 6, None),
            (FRAME_Q, [({"q": 1}, -1)], 0, None),
            (FRAME_Q, [({"q": 1}, -1)], -2, None),
            (FRAME_Q, [((24,), -2), ({"q": Fraction(1, 24)}, 5)], Fraction(7, 3), None),
            (FRAME_QP, [({"q": 1, "p": 1}, -2)], 4, Window(0, 0, True)),
            (FRAME_QP, [({"q": 1, "p": 3}, -2)], 4, Window(0, 5, True)),
            (FRAME_QP, [({"q": 1, "p": 1}, -2)], 4, Window(0, -2, True)),
            (FRAME_QP, [({"q": 9, "p": -1}, -2)], 4, Window(0, 6, True)),
        ]
        for frame, factors, q_order, window in cases:
            assert_integral_equivalent(
                product_expand(frame, factors, q_order, window),
                product_expand_oracle(frame, factors, q_order, window),
            )

    @pytest.mark.parametrize("scale", [1, 2])
    def test_qfunc_factor_lists(self, scale):
        with product_expand_checked_against_oracle() as calls:
            qfunc.eta(scale, 8)
            qfunc.eta(scale, Fraction(17, 3))
            qfunc.theta({"t": 1, "s": -1}, scale, 6, FRAME_QTS)
            qfunc.theta_pair({"p": 1}, {"u": Fraction(1, 2)}, scale, 6, FRAME_QPU)
            qfunc.inv_theta_pair({"p": 1}, {"u": Fraction(1, 2)}, scale, 6, FRAME_QPU,
                                 Window(-12, 12, False))
        assert len(calls) == 5

    @pytest.mark.parametrize("q_order", [4, 5, 6])
    @pytest.mark.parametrize("half_width", [12, 20])
    def test_plethystic_exp_of_rank0_argument(self, q_order, half_width):
        window = Window(-half_width, half_width, False)
        f = enriques.rank0_exp_argument(q_order, window)
        with product_expand_checked_against_oracle() as calls:
            got = qfunc.plethystic_exp(f)
        assert calls and got.window == Window(0, half_width, True)

    def test_every_cli_series_id(self, capsys):
        # The p-window only reaches pt-fiber-full.  On the default -10:10 the
        # oracle needs about a minute at q = 8; -4:4 runs the same windowed
        # path (the plethystic Exp of the rank-0 argument) in about a second.
        for name in SERIES_IDS:
            with product_expand_checked_against_oracle() as calls:
                assert cli_main(["expand", name, "--q-order", "8", "--p-window=-4:4"]) == 0
            assert calls, name
        capsys.readouterr()


class TestProductExpandWindows:
    @pytest.mark.parametrize(
        "window,factors",
        [
            (Window(-4, 4, False), [({"q": 1, "p": 1}, -1)]),
            (Window(0, 4, False), [({"q": 1, "p": 1}, -1)]),
            (Window(0, 4, False), []),
            (Window(2, 8, True), [({"q": 1, "p": 1}, -1)]),
            (Window(-2, 8, True), [({"q": 1, "p": 1}, -1)]),
            (Window(0, 8, True), [({"q": 1, "p": 1}, -1), ({"q": 1, "p": -1}, -1)]),
        ],
    )
    def test_rejected_windows(self, window, factors):
        with pytest.raises(WindowUnderflow):
            product_expand(FRAME_QP, factors, 4, window)


def log_series_oracle(f):
    """Reference for log_series: the power series ``sum (-1)^(n+1) h^n / n``, h = F - 1.

    This is the loop of windowed sparse products the Euler recurrence
    replaced; it is kept here only as the oracle the equivalence tests
    compare against.
    """
    frame = f.frame
    zero_exp = frame.zero_exp()
    lead = {e: c for e, c in f.terms.items() if frame.weight_scaled(e) <= 0}
    if lead != {zero_exp: rat(1)} and lead != {zero_exp: 1}:
        raise BadConstantTerm("log argument must have constant slice 1")
    h = f - 1
    if h.terms and h.q_order is None:
        raise BadConstantTerm("log of an exact series is infinite; set a truncation order")
    target = h.q_order
    acc = Series.zero(f.frame, target, f.window)
    term = Series.one(f.frame, target, f.window)
    n = 1
    while term.terms:
        term = (term * h).with_q_order(target)
        if not term.terms:
            break
        acc = acc + term * rat((-1) ** (n + 1), n)
        n += 1
    return acc


def _random_log_argument(rng, frame, window=None):
    """1 + random terms of positive weight: half-integer q, rational and int coefficients."""
    q_order = Fraction(rng.randint(3, 8), 2)
    terms = {frame.zero_exp(): rng.choice((1, rat(1)))}
    for _ in range(rng.randint(1, 6)):
        e = []
        for name, den in zip(frame.names, frame.denoms):
            if name == "q":
                e.append(12 * rng.randint(1, int(2 * q_order) - 1))
            elif name == "p" and window is not None:
                e.append(rng.randint(window.lo, window.hi + 2))
            else:
                e.append(rng.randint(-3, 3))
        c = rng.choice((rng.randint(-3, 3), rat(rng.randint(-4, 4), rng.choice((2, 3)))))
        if c:
            terms[tuple(e)] = c
    return Series(frame, terms, q_order, window)


def _smooth_curve_log_argument():
    """The floored lo < 0 input of the smooth-curve GV extraction (genus 2)."""
    g, order = 2, 12
    C = enriques.smooth_curve_pt_series(g, order)
    terms = {(24, ep, eu): c for (ep, eu), c in C.terms.items()}
    terms[(0, 0, 0)] = rat(1)
    return Series(FRAME_QPU, terms, 2, Window(2 * (1 - g), 2 * (order - g), True))


class TestLogSeriesOracle:
    def test_random_inputs(self, rng):
        for frame in (FRAME_QP, FRAME_QPU):
            for window in (None, Window(0, 0, True), Window(0, 3, True), Window(0, 8, True)):
                for _ in range(15):
                    f = _random_log_argument(rng, frame, window)
                    assert_identical(log_series(f), log_series_oracle(f))

    def test_edge_cases(self):
        q = mono(FRAME_QP, {"q": 1})
        cases = [
            Series.one(FRAME_QP),
            Series.one(FRAME_QP, q_order=3),
            Series.one(FRAME_QP, q_order=3, window=Window(-4, 6, True)),
            Series.one(FRAME_QP, window=Window(0, 6, True)),
            (1 + q).with_q_order(1),
            (1 + q).with_q_order(Fraction(7, 3)),
            (1 + mono(FRAME_QP, {"q": 3})).with_q_order(3),
        ]
        for f in cases:
            assert_identical(log_series(f), log_series_oracle(f))

    def test_symbol_carrying_inputs(self):
        b, c = betti_symbol(1, 2), betti_symbol(2, 3)
        cases = [
            1 + mono(FRAME_QPU, {"q": 1}) + Series.const(FRAME_QPU, b) * mono(FRAME_QPU, {"q": 2}),
            1
            + mono(FRAME_QPU, {"q": 1, "p": 1}, rat(1, 2))
            + mono(FRAME_QPU, {"q": 2, "u": -1}, 3)
            + Series.const(FRAME_QPU, 2 + b - c) * mono(FRAME_QPU, {"q": Fraction(5, 2), "u": 1}),
        ]
        for f in cases:
            for window in (None, Window(0, 4, True)):
                f = Series(f.frame, f.terms, 3, window)
                got = log_series(f)
                assert got.has_symbols()
                assert_identical(got, log_series_oracle(f))

    @pytest.mark.parametrize("q_order", [4, 5, 6])
    def test_betti_realized_fiber_series(self, q_order):
        Z = enriques.pt_fiber_full(q_order, Window(-20, 20, False))
        Zb = enriques.betti_realization(Z)
        assert_identical(log_series(Zb), log_series_oracle(Zb))

    @pytest.mark.parametrize("q_order", [4, 5])
    def test_fiber_series(self, q_order):
        Z = enriques.pt_fiber_full(q_order, Window(-20, 20, False))
        assert_identical(log_series(Z), log_series_oracle(Z))

    def test_smooth_curve_input(self):
        f = _smooth_curve_log_argument()
        assert_identical(log_series(f), log_series_oracle(f))

    def test_floors_below_zero(self, rng):
        identical = narrowed = 0
        for frame in (FRAME_QP, FRAME_QPU):
            for lo in (-2, -4):
                for _ in range(25):
                    f = _random_log_argument(rng, frame, Window(lo, rng.randint(0, 8), True))
                    got, ref = log_series(f), log_series_oracle(f)
                    if got.terms == ref.terms and got.window == ref.window:
                        assert_identical(got, ref)
                        identical += 1
                        continue
                    # a windowed power vanished early: the loop kept a wider window
                    assert got.q_order == ref.q_order and got.window.floored
                    assert got.window.lo <= ref.window.lo and got.window.hi < ref.window.hi
                    assert_agree(got, ref)
                    narrowed += 1
        assert identical and narrowed

    def test_widening_agrees(self, rng):
        for frame in (FRAME_QP, FRAME_QPU):
            for lo in (0, -2, -4):
                for _ in range(10):
                    hi = rng.randint(0, 8)
                    wide = _random_log_argument(rng, frame, Window(lo, hi + 8, True))
                    narrow = wide.with_window(Window(lo, hi, True))
                    got, ref = log_series(narrow), log_series(wide)
                    if lo == 0:
                        assert got.window == Window(0, hi, True)
                    assert_agree(got, ref)

    def test_early_vanishing_power_narrows_the_window(self):
        # log(1 + q p^(1/2)) = q p^(1/2) - q^2 p / 2 + ...; on the floor
        # [-2, 4] the square is cut at p <= 0, so the loop stops after one
        # power and claims a window up to p^1, where it misses -q^2 p / 2.
        f = Series(FRAME_QP, {(0, 0): rat(1), (24, 1): rat(1)}, 3, Window(-2, 4, True))
        got = log_series(f)
        assert got.window == Window(-6, 0, True) and not got.terms
        truth = log_series(Series(FRAME_QP, f.terms, 3))
        assert truth.terms[(48, 2)] == rat(-1, 2)
        wide = log_series(Series(FRAME_QP, f.terms, 3, Window(-2, 12, True)))
        assert wide.window == Window(-6, 8, True)
        assert_agree(got, truth)
        assert_agree(wide, truth)
        assert log_series_oracle(f).window == Window(-4, 2, True)
        assert not agree(log_series_oracle(f), truth)[0]

    @pytest.mark.parametrize(
        "f",
        [
            mono(FRAME_Q, {"q": 1}, q_order=3),
            Series.const(FRAME_Q, 2, q_order=3) + mono(FRAME_Q, {"q": 1}),
            Series.one(FRAME_QP, q_order=3) + mono(FRAME_QP, {"p": 1}),
            Series.one(FRAME_Q, q_order=3) + mono(FRAME_Q, {"q": -1}),
            Series.one(FRAME_Q) + mono(FRAME_Q, {"q": 1}),
            Series(FRAME_QP, {(0, 0): rat(1), (24, 2): rat(1)}, 3, Window(-4, 4, False)),
            Series.one(FRAME_QP, q_order=3, window=Window(-4, 4, False)),
            Series.one(FRAME_QP, q_order=3, window=Window(0, 4, False)),
        ],
    )
    def test_rejected_inputs(self, f):
        with pytest.raises(SeriesError) as ref:
            log_series_oracle(f)
        with pytest.raises(type(ref.value)):
            log_series(f)


class TestWeightedFrames:
    def test_total_degree_truncation(self):
        f = product_expand(FRAME_XY, [({"x": 1, "y": 1}, -1)], 5)
        assert f.coeff({"x": 2, "y": 2}) == 1
        with pytest.raises(OutsideValidWindow):
            f.coeff({"x": 3, "y": 3})

    def test_p_weighted_frame(self):
        f = product_expand(FRAME_PU, [({"p": 1, "u": 1}, -1)], 3)
        assert f.coeff({"p": 2, "u": 2}) == 1


class TestSerialization:
    def test_round_trip(self, rng):
        f = random_series(rng, FRAME_QPU, 4)
        g = Series.loads(f.dumps())
        assert g == f and g.q_order == f.q_order

    def test_windowed_and_symbolic(self):
        b = betti_symbol(2, 4)
        f = Series(FRAME_QPU, {(24, 2, -2): 2 + b}, 3, Window(-4, 4, False))
        g = Series.loads(f.dumps())
        assert g == f and g.window == f.window

    def test_deterministic(self, rng):
        f = random_series(rng, FRAME_QPUTS, 3)
        assert f.dumps() == Series.loads(f.dumps()).dumps()


class TestLattice:
    def test_off_lattice_rejected(self):
        with pytest.raises(OffLattice):
            Series.monomial(FRAME_QPU, {"u": Fraction(1, 4)})

    def test_embed(self):
        f = mono(FRAME_TS, {"t": Fraction(1, 2), "s": Fraction(1, 2)})
        g = f.embed(FRAME_QPUTS)
        assert g.coeff({"t": Fraction(1, 2), "s": Fraction(1, 2)}) == 1

    def test_embed_rejects_weight_change_on_truncated(self):
        f = Series.const(FRAME_PU, 1, q_order=3)
        with pytest.raises(TruncationLoss):
            f.embed(FRAME_QPU.subframe(["p", "u"]))


def test_symbol_degree_guard_propagates():
    from enrq.ring import SymbolDegreeOverflow

    b1 = Series.const(FRAME_QPU, betti_symbol(1, 2), q_order=2)
    b2 = Series.const(FRAME_QPU, betti_symbol(1, 3), q_order=2)
    with pytest.raises(SymbolDegreeOverflow):
        b1 * b2
