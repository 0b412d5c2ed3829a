import json
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import count
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_agree, random_series
from oracles import (
    Terms,
    add_terms,
    agree_oracle,
    cut_terms,
    divide_exact_oracle,
    exp_series_oracle,
    mul_oracle,
    mul_terms,
    plethystic_exp_oracle,
    plethystic_log_oracle,
    scale_terms,
    specialize_oracle,
    tuple_madd,
)
from enrq import cli, enriques, perverse, qfunc
from enrq.cli import SERIES_IDS
from enrq.cli import main as cli_main
from enrq.kernel import BIAS
from enrq.ring import LinExpr, betti_symbol, exact, is_rational, rat
from enrq.series import (
    FRAME_P0,
    FRAME_PU,
    FRAME_PU0,
    FRAME_Q,
    FRAME_QP,
    FRAME_QPU,
    FRAME_QPUTS,
    FRAME_QTS,
    FRAME_TS,
    FRAME_XY,
    BadConstantTerm,
    FieldOverflow,
    Frame,
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
    _unpack,
    agree,
    divide_exact,
    exp_series,
    json_text,
    log_series,
    product_expand,
)


def geom(frame, q_order):
    """1/(1-q) via product_expand."""
    return product_expand(frame, [({"q": m}, -1) for m in (1,)], q_order)


def mono(frame, exps, c=1, **kw):
    return Series.monomial(frame, exps, c, **kw)


def _built(f):
    """A parametrized input.  One given as a ``partial`` is built here, when the
    test runs: an unfloored window is refused where its series is built."""
    return f() if isinstance(f, partial) else f


def test_constructors_refuse_floats():
    with pytest.raises(TypeError):
        Series.const(FRAME_Q, 0.5)
    with pytest.raises(TypeError):
        Series.monomial(FRAME_Q, {"q": 1}, 0.5)
    assert Series.const(FRAME_Q, "1/2").terms == {(0,): rat(1, 2)}
    assert Series.monomial(FRAME_Q, {"q": 1}, 3).terms == {(24,): 3}


def test_truncation_orders_refuse_floats():
    f = Series.one(FRAME_Q, q_order=3)
    for build in (
        lambda: Series.one(FRAME_Q, q_order=0.1),
        lambda: f.with_q_order(0.5),
        lambda: enriques.pt_fiber_series(2.5),
        lambda: qfunc.eta(1, 0.5),
        lambda: perverse.perverse_table(1, q_order=2.0),
    ):
        with pytest.raises(TypeError):
            build()
    assert Series.one(FRAME_Q, q_order="5/2").q_order == Fraction(5, 2)


def test_unfloored_windows_are_refused():
    # a series window always has a known floor; Window(lo, hi, False) is a
    # p-range request that only the builders read
    w = Window(-2, 4, False)
    builds = [
        lambda: Series(FRAME_QP, {(24, 2): 1}, 3, w),
        lambda: Series(FRAME_QP, {}, 3, w),
        lambda: Series.one(FRAME_QP, q_order=3, window=w),
        lambda: Series.zero(FRAME_QP, 3, window=Window(0, 4, False)),
        lambda: Series.const(FRAME_QP, 2, window=w),
        lambda: Series.monomial(FRAME_QP, {"p": 1}, q_order=3, window=w),
    ]
    floored = Series(FRAME_QPU, {(24, 2, -2): 1}, 3, Window(-4, 4, True)).dumps()
    unfloored = floored.replace('"floored": true', '"floored": false')
    assert unfloored != floored
    builds.append(lambda: Series.loads(unfloored))
    for build in builds:
        with pytest.raises(WindowUnderflow, match="needs a known floor"):
            build()
    assert Series.loads(floored).window == Window(-4, 4, True)


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

    def test_sub_matches_adding_the_negation(self, rng):
        syms = [betti_symbol(1, 2), betti_symbol(2, 3), betti_symbol(0, 1)]

        def draw(q_order, window):
            floor = -4 if window is None else window.lo
            terms = {}
            for _ in range(rng.randint(0, 8)):
                e = (24 * rng.randint(0, 3), rng.randint(floor, floor + 8), rng.randint(-2, 2))
                c = rat(rng.randint(-3, 3), rng.randint(1, 2))
                if rng.random() < 0.4:
                    c = c + rng.randint(-2, 2) * rng.choice(syms)
                if c:
                    terms[e] = c
            return Series(FRAME_QPU, terms, q_order, window)

        orders = [None, 1, 2, Fraction(7, 3), 4]
        windows = [None, Window(-4, 4, True), Window(-2, 3, True)]
        for _ in range(150):
            a = draw(rng.choice(orders), rng.choice(windows))
            b = draw(rng.choice(orders), rng.choice(windows))
            # share a's slices with b, so some weights cancel to nothing
            b = rng.choice([b, a, a + b, b - a])
            for x, y in ((a, b), (b, a), (a, a)):
                got, want = x - y, x + (-y)
                assert got == want
                assert (got.q_order, got.window) == (want.q_order, want.window)
                assert list(got.slices) == list(want.slices)
                for W, sl in got.slices.items():
                    assert sl and list(sl.items()) == list(want.slices[W].items())
                    assert [type(c) for c in sl.values()] == [type(c) for c in want.slices[W].values()]
            assert (a - a).is_zero()

    def test_sub_of_a_coefficient(self):
        f = Series(FRAME_QPU, {(0, 0, 0): 3, (24, 2, 0): 1}, 2)
        b = betti_symbol(1, 2)
        assert f - 3 == f + (-3)
        assert f - (2 + b) == f + (-(2 + b))
        assert 5 - f == -f + 5


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
        # a window without a floor is refused where the operand is built
        w = Window(-2, 2, False)
        with pytest.raises(WindowUnderflow):
            Series.monomial(FRAME_QP, {"p": 1}, q_order=3, window=w)

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
        truncated = mono(FRAME_Q, {"q": 2}, 3, q_order=5)
        inv = truncated.invert()
        assert inv.terms == {(-48,): Fraction(1, 3)} and inv.q_order == 1
        for m in (truncated, mono(FRAME_Q, {"q": Fraction(1, 2)}), mono(FRAME_QPU, {"p": 1, "u": -1}, -2)):
            inv = m.invert()
            want = divide_exact(Series.one(m.frame), m)
            assert inv.slices == want.slices and inv.q_order == want.q_order
            assert (inv.q_order is None) == (m.q_order is None)  # an exact inverse stays exact

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
    equivalence tests compare against.  Its products run on the tuple kernel.
    """
    frame = f.frame
    w0s = min(map(frame.weight_scaled, f.terms))
    (e0, c0), = [(e, c) for e, c in f.terms.items() if frame.weight_scaled(e) == w0s]
    inv_mono = Series(frame, {tuple(-x for x in e0): rat(1) / c0}, None, None)
    h = mul_oracle(f, inv_mono) - 1
    target = h.q_order
    acc = Terms(frame, {frame.zero_exp(): 1}, target)
    p = acc
    while p.terms:
        p = cut_terms(mul_terms(p, -h), target)
        acc = add_terms(acc, p)
    return mul_oracle(acc, inv_mono)


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


# -- the packed-key kernel against the tuple kernel ------------------------------

KINDS = ("int", "rat", "lin_int", "lin_rat")


def _random_coeff(rng, kind):
    """A nonzero coefficient whose rational parts are all ints or all rationals.

    For two such operands every term product then has one rational type, so
    the coefficient types of a sum do not depend on the order of accumulation.
    """
    n = rng.choice((-3, -2, -1, 1, 2, 3))
    if kind == "int":
        return n
    d = rng.choice((1, 2, 3))
    if kind == "rat":
        return rat(n, d)
    sym = betti_symbol(1, rng.randint(0, 6))
    if kind == "lin_int":
        return n + rng.randint(-2, 2) * sym
    return rat(n, d) + sym * rat(rng.randint(-2, 2), rng.choice((1, 2)))


def _random_operand(rng, frame, kind, q_order=None, window=None, max_terms=8):
    """Random terms with exponents of both signs; p mostly inside a window, never below a floor."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = []
        for i, (den, w) in enumerate(zip(frame.denoms, frame.weights)):
            if w:
                e.append(rng.randint(-den, 3 * den))
            elif i == frame.p_index and window is not None:
                e.append(rng.randint(window.lo, window.hi + 1))
            else:
                e.append(rng.randint(-4, 4))
        terms[tuple(e)] = _random_coeff(rng, kind)
    return Series(frame, terms, q_order, window)


def _random_order(rng):
    return rng.choice((None, Fraction(rng.randint(1, 8), 2), rng.randint(1, 4)))


def _random_window(rng, kind):
    lo = rng.randint(-4, 2)
    if kind is None:
        return None
    return Window(lo, lo + rng.randint(0, 10), True)


def assert_same_outcome(new, old, *args):
    """``new(*args)`` and ``old(*args)`` give identical series or raise the same class."""
    try:
        ref = old(*args)
    except SeriesError as exc:
        with pytest.raises(type(exc)):
            new(*args)
        return None
    got = new(*args)
    assert_identical(got, ref)
    return got


class TestPackedKernelOracle:
    FRAMES = (FRAME_Q, FRAME_QP, FRAME_QPU, FRAME_QPUTS, FRAME_XY, FRAME_PU, FRAME_TS)

    @staticmethod
    def _kinds(rng):
        a = rng.choice(KINDS)
        b = rng.choice(("int", "rat") if a.startswith("lin") else KINDS)
        return (a, b) if rng.random() < 0.5 else (b, a)

    def test_products_without_window(self, rng):
        seen = 0
        for frame in self.FRAMES:
            for _ in range(60):
                ka, kb = self._kinds(rng)
                size = rng.choice((4, 8, 30))
                a = _random_operand(rng, frame, ka, _random_order(rng), max_terms=size)
                b = _random_operand(rng, frame, kb, _random_order(rng), max_terms=size)
                got = assert_same_outcome(Series.__mul__, mul_oracle, a, b)
                seen += got is not None and bool(got.terms)
        assert seen > 300

    @pytest.mark.parametrize("kinds", [("floored", "floored"), (None, "floored"), ("floored", None)])
    def test_windowed_products(self, rng, kinds):
        for frame in (FRAME_QP, FRAME_QPU, FRAME_QPUTS):
            for _ in range(30):
                ka, kb = self._kinds(rng)
                wa, wb = (_random_window(rng, k) for k in kinds)
                oa = _random_order(rng) if wa is None else rng.randint(1, 4)
                ob = _random_order(rng) if wb is None else rng.randint(1, 4)
                a = _random_operand(rng, frame, ka, oa, wa, max_terms=rng.choice((4, 12)))
                b = _random_operand(rng, frame, kb, ob, wb, max_terms=rng.choice((4, 12)))
                assert_same_outcome(Series.__mul__, mul_oracle, a, b)

    @staticmethod
    def _line_divisor(rng, frame, kind, q_order):
        """A divisor whose leading slice is a monomial, binomial or quantum integer."""
        free = [i for i, w in enumerate(frame.weights) if not w]
        if not free or rng.random() < 0.3:
            lead = {tuple(rng.randint(-2, 2) if not w else 0 for w in frame.weights):
                    _random_coeff(rng, kind)}
        else:
            delta = [0] * frame.nvars
            for i in rng.sample(free, rng.randint(1, len(free))):
                delta[i] = rng.choice((-2, -1, 1, 2))
            n = rng.randint(2, 4)
            lead = {tuple((2 * j - n + 1) * x for x in delta): _random_coeff(rng, kind)
                    for j in range(n)}
        den = Series(frame, lead)
        w0 = min(map(frame.weight_scaled, lead))
        tail = _random_operand(rng, frame, kind)
        tail = {e: c for e, c in tail.terms.items() if frame.weight_scaled(e) > w0}
        if rng.random() < 0.6:
            den = den + Series(frame, tail)
        return Series(frame, den.terms, q_order)

    def test_divide_exact_of_products(self, rng):
        for frame in (FRAME_Q, FRAME_QP, FRAME_QPU, FRAME_QPUTS, FRAME_XY, FRAME_TS):
            for _ in range(40):
                kd = rng.choice(("int", "rat"))
                kg = rng.choice(KINDS)
                den = self._line_divisor(rng, frame, kd, _random_order(rng))
                g = _random_operand(rng, frame, kg, _random_order(rng))
                num = mul_oracle(den, g)
                got = assert_same_outcome(divide_exact, divide_exact_oracle, num, den)
                if den.q_order is None and g.q_order is None:
                    assert got is not None

    def test_divide_exact_inexact_operands(self, rng):
        raised = 0
        for frame in (FRAME_Q, FRAME_QPU, FRAME_QPUTS, FRAME_XY, FRAME_TS):
            for _ in range(40):
                den = self._line_divisor(rng, frame, rng.choice(("int", "rat")), None)
                num = _random_operand(rng, frame, rng.choice(KINDS))
                if rng.random() < 0.5:
                    num = mul_oracle(num, den) + _random_operand(rng, frame, "int", max_terms=2)
                raised += assert_same_outcome(divide_exact, divide_exact_oracle, num, den) is None
        assert raised > 50

    @pytest.mark.parametrize("scale", [1, 2])
    def test_divide_exact_of_theta_and_eta(self, scale):
        q = 6
        for num, den in [
            (qfunc.theta({"u": 2}, 2, q, FRAME_QPU), qfunc.theta({"u": 2}, 1, q, FRAME_QPU)),
            (qfunc.eta(2, q).embed(FRAME_QPU) ** 8, qfunc.eta(scale, q).embed(FRAME_QPU) ** 16),
            (qfunc.theta({"t": 1, "s": 1}, 2, q, FRAME_QTS),
             Series.monomial(FRAME_QTS, {"t": Fraction(1, 2), "s": Fraction(1, 2)})
             - Series.monomial(FRAME_QTS, {"t": Fraction(-1, 2), "s": Fraction(-1, 2)})),
            (qfunc.theta({"p": 1, "u": 1}, 2, q, FRAME_QPU), qfunc.theta({"p": 1, "u": 1}, 1, q, FRAME_QPU)),
        ]:
            assert_same_outcome(divide_exact, divide_exact_oracle, num, den)


def assert_slices_labelled(f):
    """Every stored key lies in the slice of its own weight; slices ascend, none is empty."""
    assert list(f.slices) == sorted(f.slices)
    for W, s in f.slices.items():
        assert s and all(f.frame.weight_scaled(e) == W for e in _unpack(f.frame, s)), W


class TestStoredSlices:
    """A series stores weight slices: each key must sit under its own weight."""

    def test_every_cli_series_id_and_the_jacobi_main_term(self):
        for name in SERIES_IDS:
            args = cli._parser().parse_args(["expand", name, "--q-order", "8"])
            assert_slices_labelled(cli._build_series(name, args))
        assert_slices_labelled(perverse.ph_main_term_jacobi(8))

    def test_quotient_slices_feed_an_unpadded_product(self):
        # with prefactors the divisor eta(1)^16 leads at weight 16/24, so the
        # solve's slice at weight W is the quotient's slice at W - 16/24
        q = 6
        num = qfunc.eta(2, q).embed(FRAME_QPU) ** 8
        den = qfunc.eta(1, q).embed(FRAME_QPU) ** 16
        quo, quo_ref = divide_exact(num, den), divide_exact_oracle(num, den)
        assert_identical(quo, quo_ref)
        assert_slices_labelled(quo)
        th = qfunc.theta({"u": 2}, 1, q, FRAME_QPU)
        got, ref = quo * th, mul_oracle(quo_ref, th)
        assert_identical(got, ref)
        assert_slices_labelled(got)
        for d in range(q):
            want = {e[1:]: c for e, c in ref.terms.items() if e[0] == 24 * d}
            assert got.coefficient({"q": d}).terms == want

    def test_agree_matches_the_tuple_scan(self, rng):
        # slice-wise agree reports the same first mismatch and count as the scan
        for _ in range(300):
            frame, kind = rng.choice((FRAME_QP, FRAME_QPU)), rng.choice(("int", "rat", "lin_int"))
            a = _random_operand(rng, frame, kind, _random_order(rng), _random_window(rng, rng.choice((None, 1))))
            b = a
            if rng.random() < 0.8:
                b = a + _random_operand(rng, frame, kind, _random_order(rng),
                                        _random_window(rng, rng.choice((None, 1))), max_terms=3)
            assert agree(a, b) == agree_oracle(a, b)
            assert agree(b, a) == agree_oracle(b, a)


class TestFieldGuard:
    """Each packed operation raises FieldOverflow where a field could wrap."""

    def test_product_edge(self):
        a = Series(FRAME_QPU, {(0, 0, BIAS // 2): 1, (24, 1, -3): 2})
        b = Series(FRAME_QPU, {(0, 0, BIAS // 2 - 1): 1, (0, -1, 1): 3})
        assert_identical(a * b, mul_oracle(a, b))
        c = Series(FRAME_QPU, {(0, 0, BIAS // 2): 1})
        with pytest.raises(FieldOverflow):
            a * c
        # the true product needs u = BIAS, one past the field: a wrap would carry
        # into p, so no series holds it
        assert (0, 0, BIAS) in tuple_madd({}, a.terms, c.terms, FRAME_QPU.wnum, 0, 0, -1, 0, 0)
        with pytest.raises(FieldOverflow, match="series"):
            mul_oracle(a, c)
        with pytest.raises(FieldOverflow):
            a * Series(FRAME_QPU, {(0, 0, -BIAS // 2 - 1): 1, (0, 0, BIAS // 2): 1})

    def test_windowed_product_p_field(self):
        w = Window(0, 2 * BIAS, True)
        a = Series(FRAME_QP, {(0, BIAS // 2): 1}, 3, w)
        assert (a * Series(FRAME_QP, {(0, BIAS // 2 - 1): 1}, 3, w)).terms == {(0, BIAS - 1): 1}
        with pytest.raises(FieldOverflow):
            a * a

    def test_product_expand(self):
        s = BIAS // 2 + 1
        factors = [({"q": 1, "u": Fraction(s, 2)}, -1)]
        # the true expansion holds q^2 u^s, past the field: the oracle cannot build it
        with pytest.raises(FieldOverflow, match="series: scaled exponent of u may reach 524290"):
            product_expand_oracle(FRAME_QPU, factors, 3)
        with pytest.raises(FieldOverflow):
            product_expand(FRAME_QPU, factors, 3)

    def test_product_expand_family_fails_fast(self):
        # member x^BIAS leaves the field: raised there, not after enumerating
        # every member below the order
        with pytest.raises(FieldOverflow):
            product_expand(FRAME_XY, [({"x": 1}, 1, {"x": 1})], 10**20)

    def test_log_series(self):
        s = BIAS // 2 + 1
        f = Series(FRAME_QPU, {(0, 0, 0): 1, (24, 0, s): 1}, 3)
        with pytest.raises(FieldOverflow, match="series: scaled exponent of u may reach 524290"):
            log_series_oracle(f)
        with pytest.raises(FieldOverflow):
            log_series(f)

    def test_divide_exact(self):
        s = BIAS // 2 + 1
        den = Series(FRAME_QPU, {(0, 0, 0): 1, (24, 0, s): -1}, 3)
        num = Series.one(FRAME_QPU, 3)
        with pytest.raises(FieldOverflow, match="series: scaled exponent of u may reach 524290"):
            divide_exact_oracle(num, den)
        with pytest.raises(FieldOverflow):
            divide_exact(num, den)
        with pytest.raises(FieldOverflow):
            den.invert()

    def test_divide_exact_line_labels(self):
        # dividing by p^(1/2)u^(1/2) - p^(-1/2)u^(-1/2) labels a term by u - p,
        # here -2a < -BIAS: it would leave the field although the quotient fits
        a = BIAS // 2 + 2
        den = Series(FRAME_QPU, {(0, 1, 1): 1, (0, -1, -1): -1})
        num = mul_oracle(den, Series(FRAME_QPU, {(0, a, -a): 1, (0, -4, 2): 3}))
        assert divide_exact_oracle(num, den).terms == {(0, a, -a): 1, (0, -4, 2): 3}
        with pytest.raises(FieldOverflow):
            divide_exact(num, den)
        small = mul_oracle(den, Series(FRAME_QPU, {(0, a // 2, -a // 2): 1, (0, -4, 2): 3}))
        assert_identical(divide_exact(small, den), divide_exact_oracle(small, den))

    def test_divide_exact_single_weighted_variable(self):
        # with q the only weighted variable, q's exponent is a term's scaled
        # weight: the bound is the solve's weight range (3599 here), where
        # (weight steps) x (largest divisor exponent) would reach 529,248
        P = product_expand(FRAME_Q, [({"q": m}, 4) for m in range(1, 150)], 150)
        inv = P.invert()
        assert inv.q_order == 150 and inv * P == 1
        den = Series(FRAME_Q, {(0,): 1, (24,): -1}, BIAS // 24 + 1)
        with pytest.raises(FieldOverflow):
            den.invert()


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

    def test_off_lattice_target(self):
        f = mono(FRAME_QTS, {"t": Fraction(1, 2), "s": 1})
        with pytest.raises(OffLattice, match=r"substitution leaves the lattice: s\^5/4 not on the 1/2 lattice"):
            f.specialize({"t": {"s": Fraction(1, 2)}})

    def test_off_lattice_parts_may_sum_onto_the_lattice(self):
        f = mono(FRAME_QPUTS, {"t": Fraction(1, 2), "s": Fraction(1, 2)})
        sub = {"t": {"u": Fraction(1, 2)}, "s": {"u": Fraction(1, 2)}}
        out = f.specialize(sub)
        assert out == Series.monomial(out.frame, {"u": Fraction(1, 2)})
        assert_identical(out, specialize_oracle(f, sub))

    def test_random_substitutions_match_the_oracle(self, rng):
        exps = (1, -1, 2, 0, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 4), Fraction(2, 3))
        outcomes = {"same": 0, "off": 0}
        for _ in range(300):
            frame = rng.choice((FRAME_QPUTS, FRAME_QTS, FRAME_TS, FRAME_QPU, FRAME_PU0, FRAME_P0))
            window = None
            if frame.p_index >= 0 and rng.random() < 0.3:
                window = Window(rng.randint(-4, 0), rng.randint(0, 6), True)
            f = _random_operand(rng, frame, rng.choice(KINDS), rng.choice((None, 3)), window)
            free = [n for n, w in zip(frame.names, frame.weights)
                    if not w and not (window is not None and n == "p")]
            if not free:
                continue
            subs = rng.sample(free, rng.randint(1, len(free)))
            rest = [n for n in frame.names if n not in subs and not (window is not None and n == "p")]
            mapping = {}
            for name in subs:
                if not rest or rng.random() < 0.2:
                    mapping[name] = rng.choice((1, None, {}))
                else:
                    mapping[name] = {v: rng.choice(exps) for v in rng.sample(rest, rng.randint(1, len(rest)))}
            try:
                ref = specialize_oracle(f, mapping)
            except OffLattice as exc:
                with pytest.raises(OffLattice) as got:
                    f.specialize(mapping)
                assert str(got.value) == str(exc)
                outcomes["off"] += 1
                continue
            assert_identical(f.specialize(mapping), ref)
            outcomes["same"] += 1
        assert outcomes["same"] > 100 and outcomes["off"] > 10


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
        f = Series(FRAME_QP, {(0, 0): rat(1)}, 3, Window(-2, 2, True))
        with pytest.raises(OutsideValidWindow):
            f.coefficient({"p": 2})
        with pytest.raises(OutsideValidWindow):
            f.coeff({"q": 0, "p": 3})

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
        # [-2, 4] the windowed square is cut at p <= 0, so a power loop would
        # stop after one power; the window is the one reached at the weight cut.
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

    def test_rational_exponents(self):
        half = product_expand(FRAME_QP, [({"q": 1, "p": 1}, Fraction(1, 2)), ({"q": 2}, rat(-3, 2))], 5)
        whole = product_expand(FRAME_QP, [({"q": 1, "p": 1}, 1), ({"q": 2}, -3)], 5)
        assert half.coeff({"q": 1, "p": 1}) == rat(-1, 2)
        assert_agree(half * half, whole)
        assert all(type(c) is int for c in whole.terms.values())
        assert_identical(product_expand(FRAME_Q, [({"q": 1}, rat(4, 2))], 5),
                         product_expand(FRAME_Q, [({"q": 1}, 2)], 5))
        for inexact in (0.5, "1/2"):
            with pytest.raises(TypeError):
                product_expand(FRAME_Q, [({"q": 1}, inexact)], 3)

    def test_nonconvergent(self):
        with pytest.raises(NonConvergentFactor):
            product_expand(FRAME_QPU, [({"u": 1}, -1)], 3)
        with pytest.raises(NonConvergentFactor):
            product_expand(FRAME_QPU, [({"q": 1}, -1), ({"q": -1, "p": 2}, 1)], 3)
        with pytest.raises(NonConvergentFactor):
            product_expand(FRAME_QP, [({"q": 1, "p": 1}, -1), ({"p": 1}, 2)], 3, Window(0, 8, True))

    def test_zero_exponent_family_returns_at_once(self):
        # (1 - m)^0 = 1: the family is dropped after its first member, not
        # enumerated to the order
        got = product_expand(FRAME_XY, [({"x": 1}, 0, {"x": 1})], 10**20)
        assert_identical(got, Series.one(FRAME_XY, 10**20))
        got = product_expand(FRAME_XY, [({"x": 1}, 0, {"x": 1}), ({"y": 1}, -1)], 3)
        assert_identical(got, product_expand(FRAME_XY, [({"y": 1}, -1)], 3))
        # the step and the first member are still checked
        for family in (({"x": 1}, 0, {"x": -1}), ({"x": -1}, 0, {"x": 1})):
            with pytest.raises(NonConvergentFactor):
                product_expand(FRAME_XY, [family], 10**20)
        with pytest.raises(TypeError):
            product_expand(FRAME_XY, [({"x": 1}, 0.0, {"x": 1})], 10**20)


def product_expand_oracle(frame, factors, q_order, window=None):
    """Reference for product_expand: one windowed sparse product per factor.

    This is the product-of-binomials loop the Euler recurrence replaced; it is
    kept here only as the oracle the equivalence tests compare against.  Its
    products run on the tuple kernel.  A factor family
    ``(monomial, exponent, step)`` is unpacked by :func:`_oracle_members`.
    """
    q_order = Fraction(q_order)
    acc = Terms(frame, {frame.zero_exp(): 1}, q_order, window)
    for mono, e, *step in factors:
        for exps in _oracle_members(frame, mono, step, q_order):
            acc = mul_terms(acc, _oracle_binomial(frame, exps, e, q_order, window))
    return acc.series()


def _oracle_members(frame, mono, step, q_order):
    """Scaled exponents of the factors of one entry below the order.

    A single factor ``m`` (``step == []``), or the members ``m * s^k`` of a
    family with ``step == [s]``, for k = 0, 1, ... while the weight of
    ``m * s^k`` is below the order.
    """
    def scaled(m):
        return m if isinstance(m, tuple) else frame.exps(m)

    exps = scaled(mono)
    ds = scaled(step[0]) if step else frame.zero_exp()
    if step and frame.weight_scaled(ds) <= 0:
        raise NonConvergentFactor(f"family step {step[0]} has weight <= 0")
    for k in count():
        ek = tuple(x + k * d for x, d in zip(exps, ds))
        ws = frame.weight_scaled(ek)
        if ws <= 0:
            raise NonConvergentFactor(f"factor exponent {ek} has weight <= 0")
        if Fraction(ws, frame.wden) >= q_order:
            return
        yield ek
        if not step:
            return


def _oracle_binomial(frame, exps, e, q_order, window):
    """(1 - m)^e truncated, for a monomial m of positive weight.

    The coefficient of m^j is (-1)^j binomial(e, j): by ``comb`` for an
    integral ``e``, by the product (0 - e)(1 - e)...(j - 1 - e) / j! otherwise.
    """
    w = Fraction(frame.weight_scaled(exps), frame.wden)
    jmax = int((q_order - Fraction(1, frame.wden)) / w) + 1
    pi = frame.p_index if window is not None else -1
    terms = {frame.zero_exp(): rat(1)}
    integral = rat(e).denominator == 1
    e = int(e) if integral else rat(e)
    top = min(e, jmax) if integral and e >= 0 else jmax
    coef = rat(1)
    for j in range(1, top + 1):
        coef = coef * (j - 1 - e) / j
        if j * w >= q_order:
            break
        ej = tuple(x * j for x in exps)
        if pi >= 0 and (ej[pi] > window.hi or (not window.floored and ej[pi] < window.lo)):
            continue
        if not integral:
            terms[ej] = coef
        elif e >= 0:
            terms[ej] = rat((-1) ** j * comb(e, j))
        else:
            terms[ej] = rat(comb(j - e - 1, -e - 1))
    return Series(frame, terms, q_order, window)


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


def _random_families(rng, frame, q_order, n, p_nonnegative=False, rational=False):
    """Factor families ``(monomial, exponent, step)`` mixed with single factors.

    Exponents take both signs and zero, and with ``rational`` also
    non-integral values.  The first weighted variable gives each monomial a
    weight of at least 1/4 (1 in ``FRAME_XY``) and each step at least 1/2, so
    a family often has several members under the order; with
    ``p_nonnegative`` no monomial or step lowers p.  Some entries repeat.
    """
    den0 = next(d for d, w in zip(frame.denoms, frame.weights) if w)

    def draw(lo, hi):
        mono, first = {}, True
        for name, den, w in zip(frame.names, frame.denoms, frame.weights):
            if w:
                mono[name] = Fraction(rng.randint(lo, hi) if first else rng.randint(0, den), den)
                first = False
            elif name == "p" and p_nonnegative:
                mono[name] = Fraction(rng.randint(0, 2), den)
            else:
                mono[name] = Fraction(rng.randint(-2, 2), den)
        return mono

    out = []
    for _ in range(n):
        e = rng.randint(-4, 4)
        if rational and rng.random() < 0.5:
            e = Fraction(rng.randint(-6, 6), rng.choice((2, 3)))
        mono = draw(max(1, den0 // 4), int(den0 * q_order))
        if rng.random() < 0.25:
            out.append((mono, e))
        else:
            out.append((mono, e, draw(max(1, den0 // 2), 2 * den0)))
    return out + rng.choices(out, k=2)


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

    def test_random_factor_families(self, rng):
        for frame in (FRAME_Q, FRAME_QP, FRAME_QPU, FRAME_XY):
            for rational in (False, True):
                for _ in range(10):
                    q_order = Fraction(rng.randint(2, 6), rng.choice((1, 2)))
                    factors = _random_families(rng, frame, q_order, rng.randint(1, 4), rational=rational)
                    check = assert_equivalent if rational else assert_integral_equivalent
                    check(product_expand(frame, factors, q_order),
                          product_expand_oracle(frame, factors, q_order))

    def test_random_factor_families_floored_window(self, rng):
        for frame in (FRAME_QP, FRAME_QPU, FRAME_QPUTS):
            for hi in (0, 3, 8):
                for _ in range(6):
                    q_order = rng.randint(2, 5)
                    factors = _random_families(rng, frame, q_order, rng.randint(1, 4), p_nonnegative=True)
                    window = Window(0, hi, True)
                    assert_integral_equivalent(
                        product_expand(frame, factors, q_order, window),
                        product_expand_oracle(frame, factors, q_order, window),
                    )

    @pytest.mark.parametrize(
        "frame,factors,exc",
        [
            (FRAME_QP, [({"q": 1}, -1, {"p": 1})], NonConvergentFactor),
            (FRAME_QP, [({"q": 1}, -1, {"q": -1, "p": 2})], NonConvergentFactor),
            (FRAME_XY, [({"x": 1}, 2, {"x": 1, "y": -1})], NonConvergentFactor),
            (FRAME_QP, [({"q": -1, "p": 1}, -1, {"q": 1})], NonConvergentFactor),
            (FRAME_Q, [({"q": 1}, "1/2", {"q": 1})], TypeError),
        ],
    )
    def test_rejected_families(self, frame, factors, exc):
        with pytest.raises(exc):
            product_expand(frame, factors, 4)
        if exc is NonConvergentFactor:
            with pytest.raises(exc):
                product_expand_oracle(frame, factors, 4)

    def test_edge_cases(self):
        xy = {"x": 1, "y": 1}
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
            (FRAME_Q, [({"q": 5}, -3, {"q": 1})], 5, None),
            (FRAME_Q, [({"q": 1}, 0, {"q": 1}), ({"q": 2}, 4, {"q": 2})], 5, None),
            (FRAME_Q, [({"q": 1}, -1, {"q": 1})], 0, None),
            (FRAME_Q, [((24,), -2, (12,)), ({"q": 1}, 2, {"q": Fraction(1, 24)})], Fraction(7, 3), None),
            (FRAME_QP, [({"q": 1, "p": 1}, -2, {"q": 1, "p": 1})], 4, Window(0, 3, True)),
            (FRAME_QP, [({"q": 1, "p": 2}, -1, {"q": 1, "p": -1})], 3, Window(0, 4, True)),
            (FRAME_XY, [(xy, 1), (xy, -10, xy), ({"x": 2}, -1, xy), ({"y": 2}, -1, xy)], 7, None),
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
            (Window(0, 8, True), [({"q": 1, "p": 1}, -1, {"q": 1, "p": -1})]),
        ],
    )
    def test_rejected_windows(self, window, factors):
        with pytest.raises(WindowUnderflow):
            product_expand(FRAME_QP, factors, 4, window)


def log_series_oracle(f):
    """Reference for log_series: the power series ``sum (-1)^(n+1) h^n / n``, h = F - 1.

    This is the loop of windowed sparse products the Euler recurrence
    replaced; it is kept here only as the oracle the equivalence tests
    compare against.  Its products run on the tuple kernel.
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
    acc = Terms(f.frame, {}, target, f.window)
    term = Terms(f.frame, {zero_exp: 1}, target, f.window)
    n = 1
    while term.terms:
        term = cut_terms(mul_terms(term, h), target)
        if not term.terms:
            break
        acc = add_terms(acc, scale_terms(term, rat((-1) ** (n + 1), n)))
        n += 1
    return acc.series()


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
                    narrow = Series(frame, wide.terms, wide.q_order, Window(lo, hi, True))
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
            partial(Series, FRAME_QP, {(0, 0): rat(1), (24, 2): rat(1)}, 3, Window(-4, 4, False)),
            partial(Series.one, FRAME_QP, q_order=3, window=Window(-4, 4, False)),
            partial(Series.one, FRAME_QP, q_order=3, window=Window(0, 4, False)),
        ],
    )
    def test_rejected_inputs(self, f):
        with pytest.raises(SeriesError) as ref:
            log_series_oracle(_built(f))
        with pytest.raises(type(ref.value)):
            log_series(_built(f))


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
        f = Series(FRAME_QPU, {(24, 2, -2): 2 + b}, 3, Window(-4, 4, True))
        g = Series.loads(f.dumps())
        assert g == f and g.window == f.window

    def test_deterministic(self, rng):
        f = random_series(rng, FRAME_QPUTS, 3)
        assert f.dumps() == Series.loads(f.dumps()).dumps()

    def test_loaded_coefficients_keep_their_types(self):
        parser = cli._parser()
        series = [cli._build_series(n, parser.parse_args(["expand", n, "--q-order", "8"]))
                  for n in SERIES_IDS]
        b, c = betti_symbol(1, 2), betti_symbol(2, 3)
        series.append(Series(FRAME_QPU, {
            (0, 0, 0): 3, (24, 1, -1): rat(5, 2), (24, 0, 2): 2 + b,
            (48, -2, 0): rat(1, 3) - c * rat(3, 2), (48, 0, 0): 4 * b, (48, 2, 2): -7,
        }, 3))
        for s in series:
            back = Series.loads(s.dumps())
            assert back.terms == s.terms
            assert coeff_types(back) == coeff_types(s)
        assert any(type(c) is int for c in series[0].terms.values())

    @staticmethod
    def loads_through_linexpr(text):
        """The read-back that builds a ``LinExpr`` per symbol record for the constructor."""

        def coeff(c):
            if isinstance(c, str):
                return exact(c)
            return LinExpr(exact(c["const"]), {(t["d"], t["i"]): exact(t["coef"]) for t in c["terms"]})

        obj = json.loads(text)
        w = obj["p_window"]
        window = None if w is None else Window(w["lo"], w["hi"], w["floored"])
        terms = {tuple(t["exp"]): coeff(t["coef"]) for t in obj["terms"]}
        return Series(Frame(obj["vars"], obj["denoms"], obj["weights"]), terms, obj["q_order"], window)

    def test_loads_equals_the_built_series(self, tmp_path):
        # a Betti file that withholds b(1, 3) and b(d, 2) for d >= 2
        path = tmp_path / "betti.json"
        path.write_text(json.dumps([
            {"d": 0, "betti": [1, 2, 1], "complete": True},
            {"d": 1, "betti": [1, 0, 10], "complete": False},
            {"d": None, "betti": [1, 0], "complete": False},
        ]))
        parser = cli._parser()
        argvs = [["expand", n, "--q-order", "8"] for n in SERIES_IDS]
        argvs.append(["expand", "keyeq-rhs2", "--q-order", "8", "--betti-file", str(path)])
        series = [cli._build_series(argv[1], parser.parse_args(argv)) for argv in argvs]
        withheld = {sym for c in series[-1].terms.values() if isinstance(c, LinExpr) for sym in c.terms}
        assert {(1, 3), (2, 2)} <= withheld
        b, c = betti_symbol(1, 2), betti_symbol(3, 5)
        series.append(Series(FRAME_QPU, {
            (0, 0, 0): rat(-7, 3), (24, 2, -2): rat(5, 2) + b * rat(1, 4), (24, 0, 2): 2 - 3 * b + c,
            (48, -2, 0): c * rat(3, 2), (48, 4, 2): 6,
        }, rat(5, 2), Window(-2, 6, True)))
        for s in series:
            text = s.dumps()
            for back in (Series.loads(text), self.loads_through_linexpr(text)):
                assert back.slices == s.slices
                assert (back.frame, back.q_order, back.window) == (s.frame, s.q_order, s.window)
                assert stored_types(back) == stored_types(s)

    def test_loads_keeps_the_constructor_checks(self):
        head = Series(FRAME_QPU, {}, 3).to_json_dict()

        def doc(*records):
            return json.dumps({**head, "terms": list(records)})

        def sym(const, *terms):
            return {"const": const, "terms": [{"d": d, "i": i, "coef": v} for d, i, v in terms]}

        kept = [
            # zeros dropped and integral values read as ints, in the constant and the symbols
            doc({"exp": [24, 0, 0], "coef": "0"}, {"exp": [48, 0, 0], "coef": sym("4/2", (1, 2, "0"))},
                {"exp": [0, 0, 0], "coef": sym("0", (1, 2, "6/3"), (2, 4, "1/2"))}),
            # a zero record is dropped before its arity is checked
            doc({"exp": [24], "coef": "0"}, {"exp": [0, 0, 0], "coef": sym("0", (1, 2, "0"))}),
            # a repeated exponent keeps its last record
            doc({"exp": [24, 0, 0], "coef": sym("1", (1, 2, "1"))}, {"exp": [24, 0, 0], "coef": "5"}),
        ]
        for text in kept:
            new, old = Series.loads(text), self.loads_through_linexpr(text)
            assert new.slices == old.slices and stored_types(new) == stored_types(old)
            assert all(all(sl.values()) for sl in new.slices.values())
        refused = [
            (FieldOverflow, doc({"exp": [24, 0, 0], "coef": sym("1", (723, 2394, "1"))})),  # id 2^20
            (FieldOverflow, doc({"exp": [24, BIAS, 0], "coef": "1"})),
            (ValueError, doc({"exp": [24, 0], "coef": "1"})),
            (ValueError, doc({"exp": [24, 0, 0], "coef": sym("1", (1, 7, "1"))})),  # b(1, 7)
        ]
        for exc, text in refused:
            for read in (Series.loads, self.loads_through_linexpr):
                with pytest.raises(exc):
                    read(text)


def stored_types(s):
    """The type of every stored number, by weight and packed key."""
    return {W: {k: type(c) for k, c in sl.items()} for W, sl in s.slices.items()}


def stdlib_text(obj, indent=2):
    return json.dumps(obj, indent=indent, sort_keys=True)


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.text()
    | st.sampled_from(['"', "\\", "\n", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "a\"b\\c"])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers(), max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    max_leaves=25,
)


class TestJsonText:
    """``json_text`` is ``json.dumps(..., indent=..., sort_keys=True)`` byte for byte."""

    @pytest.mark.parametrize("name", SERIES_IDS)
    def test_every_cli_series(self, name):
        parser = cli._parser()
        args = parser.parse_args(["expand", name, "--q-order", "6"])
        doc = cli._build_series(name, args).to_json_dict()
        assert json_text(doc, 2) == stdlib_text(doc)

    def test_symbols_and_window(self):
        parser = cli._parser()
        rhs2 = cli._build_series("keyeq-rhs2", parser.parse_args(["expand", "keyeq-rhs2", "--q-order", "4"]))
        assert rhs2.has_symbols()
        args = parser.parse_args(["expand", "pt-fiber-full", "--q-order", "4", "--p-window=-6:6"])
        windowed = cli._build_series("pt-fiber-full", args)
        assert windowed.window is not None
        for f in (rhs2, windowed):
            doc = f.to_json_dict()
            assert f.dumps(indent=2) == json_text(doc, 2) == stdlib_text(doc)
            assert f.dumps() == json.dumps(doc, sort_keys=True)

    @settings(max_examples=300, deadline=None)
    @given(obj=_JSON_VALUES, indent=st.sampled_from([2, 0, 4, "\t", None]))
    def test_nested_values(self, obj, indent):
        assert json_text(obj, indent) == stdlib_text(obj, indent)

    @pytest.mark.parametrize("obj", [
        {"a": [], "b": {}, "c": [[], {}], "d": [1, True, None, 1.5], "e": (1, 2)},
        {"q": {1: "x", 2.5: [1]}, "r": {False: 0, True: {"x": [2]}}},
        [10**30, -(10**30), 0, -1],
        {"\u00e9": "\x00", "\"": "\\"},
    ])
    def test_fixed_values(self, obj):
        assert json_text(obj, 2) == stdlib_text(obj)

    def test_unsortable_keys_raise_as_json_does(self):
        for obj in ({"a": {1: 0, "b": 1}}, [{1: 0, "b": 1}]):
            with pytest.raises(TypeError):
                stdlib_text(obj)
            with pytest.raises(TypeError):
                json_text(obj, 2)


def coeff_types(s):
    """The type of every coefficient, and of every rational part of a LinExpr."""
    out = {}
    for e, c in s.terms.items():
        if isinstance(c, LinExpr):
            out[e] = (type(c.const), tuple(sorted((k, type(v)) for k, v in c.terms.items())))
        else:
            out[e] = type(c)
    return out


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


# -- exp_series and plethystic_exp on the graded Euler solve ----------------------

FRAME_QPTS = Frame(("q", "p", "t", "s"), (24, 2, 2, 2), (1, 0, 0, 0))
EXP_FRAMES = (FRAME_Q, FRAME_QP, FRAME_XY, FRAME_QPU, FRAME_QTS, FRAME_QPTS, FRAME_QPUTS)


def _random_exp_argument(rng, frame, window=None, kind=None, max_terms=5):
    """Random terms of weight in (0, q_order); p in [lo, hi + 2] under a window."""
    q_order = Fraction(rng.randint(3, 7), 2)
    terms = {}
    for _ in range(4 * rng.randint(1, max_terms)):
        e = []
        for i, (den, w) in enumerate(zip(frame.denoms, frame.weights)):
            if w:
                unit = den // 2 if den % 2 == 0 else den
                e.append(unit * rng.randint(0, int(q_order * den) // unit))
            elif i == frame.p_index and window is not None:
                e.append(rng.randint(window.lo, window.hi + 2))
            else:
                e.append(rng.randint(-3, 3))
        if 0 < Fraction(frame.weight_scaled(e), frame.wden) < q_order and rng.random() < 0.25:
            terms[tuple(e)] = _random_coeff(rng, kind or rng.choice(("int", "rat")))
    return Series(frame, terms, q_order, window)


class TestExpSeriesOracle:
    def test_random_inputs(self, rng):
        for frame in EXP_FRAMES:
            for _ in range(20):
                f = _random_exp_argument(rng, frame)
                assert_equivalent(exp_series(f), exp_series_oracle(f))

    def test_random_floored_windows(self, rng):
        for frame in (FRAME_QP, FRAME_QPU, FRAME_QPTS, FRAME_QPUTS):
            for lo in (0, -1, -2, -4):
                for _ in range(10):
                    window = Window(lo, rng.randint(0, 8), True)
                    f = _random_exp_argument(rng, frame, window)
                    got = exp_series(f)
                    assert_equivalent(got, exp_series_oracle(f))
                    if lo == 0:
                        assert got.window == window

    def test_edge_cases(self):
        cases = [
            Series.zero(FRAME_Q),
            Series.zero(FRAME_Q, 3),
            Series.zero(FRAME_QP, 3, Window(-2, 4, True)),
            Series.zero(FRAME_QP, 3, Window(0, 4, True)),
            mono(FRAME_Q, {"q": 1}, q_order=1),
            mono(FRAME_Q, {"q": 1}, q_order=Fraction(7, 3)),
            mono(FRAME_Q, {"q": Fraction(1, 24)}, rat(3, 2), q_order=Fraction(1, 3)),
            Series(FRAME_QP, {(24, 1): 1}, 3, Window(-2, 4, True)),
            Series(FRAME_QP, {(24, -2): 1, (36, -1): rat(1, 3)}, 3, Window(-2, -1, True)),
            Series(FRAME_QP, {(24, 0): 2, (36, 0): -3}, 4, Window(0, 0, True)),
        ]
        for f in cases:
            assert_equivalent(exp_series(f), exp_series_oracle(f))

    @pytest.mark.parametrize(
        "f,exc",
        [
            (partial(Series, FRAME_QP, {(24, 2): 1}, 3, Window(-2, 4, False)), WindowUnderflow),
            (partial(Series.zero, FRAME_QP, 3, Window(-2, 4, False)), WindowUnderflow),
            (Series(FRAME_QP, {(24, 2): 1}, 3, Window(2, 8, True)), WindowUnderflow),
            (Series.zero(FRAME_QP, 3, Window(1, 8, True)), WindowUnderflow),
            (mono(FRAME_QP, {"p": 1}, q_order=3), BadConstantTerm),
            (Series.const(FRAME_Q, 1, q_order=3) + mono(FRAME_Q, {"q": 1}), BadConstantTerm),
            (mono(FRAME_Q, {"q": 1}), BadConstantTerm),
        ],
    )
    def test_rejected_inputs(self, f, exc):
        with pytest.raises(exc):
            exp_series(_built(f))

    def test_floor_above_zero_was_an_accidental_value_error(self):
        # the power loop failed building its constant term 1 below the floor
        f = Series(FRAME_QP, {(24, 2): 1}, 3, Window(2, 8, True))
        with pytest.raises(ValueError):
            exp_series_oracle(f)


class TestPlethysticExpOracle:
    def test_random_inputs(self, rng):
        for frame in EXP_FRAMES:
            for kind in ("int", "rat"):
                for _ in range(10):
                    f = _random_exp_argument(rng, frame, kind=kind)
                    got = qfunc.plethystic_exp(f)
                    assert_equivalent(got, plethystic_exp_oracle(f))
                    if kind == "int":
                        assert all(type(c) is int for c in got.terms.values())

    def test_windowed_rational_argument(self, rng):
        for frame in (FRAME_QP, FRAME_QPU, FRAME_QPUTS):
            for _ in range(8):
                hi = rng.randint(1, 8)
                f = _random_exp_argument(rng, frame, Window(rng.randint(1, 2), hi, True), kind="rat")
                got = qfunc.plethystic_exp(f)
                assert got.window == Window(0, hi, True)
                truth = qfunc.plethystic_exp(Series(frame, f.terms, f.q_order))
                assert_equivalent(got, Series(frame, truth.terms, truth.q_order, got.window))

    @pytest.mark.parametrize(
        "f,exc",
        [
            (partial(Series, FRAME_QP, {(24, 2): 1}, 3, Window(1, 4, False)), WindowUnderflow),
            (partial(Series, FRAME_QP, {(24, 2): rat(1, 2)}, 3, Window(1, 4, False)), WindowUnderflow),
            (Series(FRAME_QP, {(24, 2): 1}, 3, Window(0, 4, True)), WindowUnderflow),
            (Series(FRAME_QP, {(24, 2): rat(1, 2)}, 3, Window(-2, 4, True)), WindowUnderflow),
            (Series.const(FRAME_QPU, betti_symbol(1, 2), q_order=3) * mono(FRAME_QPU, {"q": 1}),
             BadConstantTerm),
            (mono(FRAME_QP, {"p": 1}, rat(1, 2), q_order=3), BadConstantTerm),
            (Series.one(FRAME_Q, q_order=3) + mono(FRAME_Q, {"q": 1}), BadConstantTerm),
            (mono(FRAME_Q, {"q": 1}, rat(1, 2)), BadConstantTerm),
        ],
    )
    def test_rejected_inputs(self, f, exc):
        with pytest.raises(exc):
            qfunc.plethystic_exp(_built(f))


class TestPlethysticLogOracle:
    """The integer Moebius route of ``plethystic_log`` is bit-identical to the
    ``Fraction`` sum of Adams images it replaced: coefficients and their types,
    ``q_order`` and window."""

    def test_random_exp_images(self, rng):
        for frame in (FRAME_QP, FRAME_QTS, FRAME_XY):  # on FRAME_XY a weight meets the cut
            for _ in range(20):
                f = random_series(rng, frame, rng.randint(2, 6), min_weight=1)
                for g in (f, f * rat(1, 2), f * rat(1, 3)):
                    F = qfunc.plethystic_exp(g)
                    got = qfunc.plethystic_log(F)
                    assert_identical(got, plethystic_log_oracle(F))
                    if g is f:
                        assert all(type(c) is int for c in got.terms.values())

    def test_windowed_inputs(self, rng):
        for _ in range(20):
            f = random_series(rng, FRAME_QP, rng.randint(2, 6), min_weight=1)
            terms = {e: c for e, c in f.terms.items() if e[1] >= 1}
            F = qfunc.plethystic_exp(Series(FRAME_QP, terms, f.q_order, Window(1, rng.randint(1, 8), True)))
            for lo in (0, -2):
                G = Series(FRAME_QP, F.terms, F.q_order, Window(lo, F.window.hi, True))
                assert_identical(qfunc.plethystic_log(G), plethystic_log_oracle(G))

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
            for q_order in (3, Fraction(7, 2)):
                for window in (None, Window(0, 4, True), Window(-2, 4, True)):
                    g = Series(f.frame, f.terms, q_order, window)
                    got = qfunc.plethystic_log(g)
                    assert got.has_symbols() or (window is not None and window.lo < 0)  # the top narrows
                    assert_identical(got, plethystic_log_oracle(g))

    def test_edge_cases(self):
        cases = [
            Series.one(FRAME_QP),
            Series.one(FRAME_QP, q_order=3, window=Window(-4, 6, True)),
            (1 + mono(FRAME_QP, {"q": 3})).with_q_order(3),
            Series(FRAME_QP, {(0, 0): rat(1), (24, 1): rat(1)}, 3, Window(-2, 4, True)),
        ]
        for f in cases:
            assert_identical(qfunc.plethystic_log(f), plethystic_log_oracle(f))

    @pytest.mark.parametrize("q_order", [3, 5, 7])
    def test_fiber_series(self, q_order):
        Z = enriques.pt_fiber_full(q_order, Window(-20, 20, False))
        for F in (Z, enriques.betti_realization(Z)):
            got = qfunc.plethystic_log(F)
            assert_identical(got, plethystic_log_oracle(F))
            assert all(type(c) is int for c in got.terms.values())
