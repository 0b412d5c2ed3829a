"""Betti symbols stored in the lowest packed key field, against the LinExpr-ring oracles.

A coefficient ``c0 + sum c_s * b_s`` is stored as one entry per part, keyed
``key(e)`` and ``key(e) + id(b_s)``; the oracles in ``oracles.py`` compute on
tuple-keyed ``LinExpr`` coefficients, as series did before the field.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_identical
from oracles import agree_oracle, divide_exact_oracle, mul_oracle
from enrq import perverse, series
from enrq.kernel import FIELD_MASK
from enrq.ring import (
    SYMBOL_BY_ID,
    BettiSymbol,
    LinExpr,
    SymbolDegreeOverflow,
    betti_symbol,
    exact,
    is_rational,
    symbol_id,
)
from enrq.series import (
    FRAME_Q,
    FRAME_QP,
    FRAME_QPU,
    FieldOverflow,
    Series,
    Window,
    _unpack,
    agree,
    divide_exact,
    exp_series,
)

# a few small symbols, and large ones up to the last id the field holds
SYMBOLS = [BettiSymbol(1, 2), BettiSymbol(1, 3), BettiSymbol(2, 4), BettiSymbol(3, 0),
           BettiSymbol(722, 2890), BettiSymbol(723, 2393)]

# ints while integral, as the engine keeps them
rationals = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4).map(exact))


@st.composite
def coefficients(draw, symbolic=True):
    const = draw(rationals)
    if not symbolic or draw(st.booleans()):
        return const
    terms = draw(st.dictionaries(st.sampled_from(SYMBOLS), rationals.filter(bool), max_size=3))
    return LinExpr(const, terms) if terms else const


@st.composite
def series_of(draw, frame, symbolic=True, window=None, q_order=None, min_weight=0):
    terms = {}
    for _ in range(draw(st.integers(0, 7))):
        e = []
        for i, (den, w) in enumerate(zip(frame.denoms, frame.weights)):
            if w:
                e.append(den * draw(st.integers(min_weight, 3)))
            elif i == frame.p_index and window is not None:
                e.append(draw(st.integers(window.lo, window.hi + 2)))
            else:
                e.append(draw(st.integers(-3, 3)))
        terms[tuple(e)] = draw(coefficients(symbolic))
    return Series(frame, terms, q_order, window)


def assert_plain_slices(f):
    """Every stored coefficient is an int or a Fraction, and each slice's flag is right."""
    for s in f.slices.values():
        assert all(type(c) in (int, Fraction) for c in s.values())
        assert s.symbolic() == any(k & FIELD_MASK for k in s)


def test_symbol_ids_are_the_fixed_injective_formula():
    seen = set()
    for d in range(40):
        for i in range(4 * d + 3):
            sid = symbol_id(BettiSymbol(d, i))
            assert sid == 1 + 2 * d * d + d + i and sid not in seen
            assert SYMBOL_BY_ID[sid] == (d, i)
            seen.add(sid)
    assert seen == set(range(1, len(seen) + 1))  # ids of d < 40 fill 1..N: 0 stays the constant
    assert symbol_id(BettiSymbol(723, 2393)) == FIELD_MASK


def test_an_id_beyond_the_field_overflows():
    b = betti_symbol(723, 2394)  # id 1 + 2*723^2 + 723 + 2394 = 2^20
    assert symbol_id(BettiSymbol(723, 2394)) == FIELD_MASK + 1
    with pytest.raises(FieldOverflow, match="symbol"):
        Series(FRAME_QPU, {(24, 0, 0): 1 + b})
    with pytest.raises(FieldOverflow):
        Series.const(FRAME_QPU, b)
    with pytest.raises(FieldOverflow):
        Series.one(FRAME_QPU, 2) * b


@settings(max_examples=60, deadline=None)
@given(f=series_of(FRAME_QPU, q_order=3))
def test_terms_view_round_trip(f):
    assert_plain_slices(f)
    assert Series(f.frame, f.terms, f.q_order).slices == f.slices
    for s in f.slices.values():
        view = _unpack(f.frame, s)
        assert Series(f.frame, view).terms == view
    assert f.has_symbols() == any(isinstance(c, LinExpr) for c in f.terms.values())


@settings(max_examples=60, deadline=None)
@given(f=series_of(FRAME_QPU, q_order=3), g=series_of(FRAME_QPU, symbolic=False),
       order=st.sampled_from([None, 1, Fraction(5, 2), 4]))
def test_symbolic_times_plain_products(f, g, order):
    g = Series(g.frame, g.terms, order)
    for a, b in ((f, g), (g, f)):
        got = a * b
        assert_plain_slices(got)
        assert_identical(got, mul_oracle(a, b))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), lo=st.integers(-3, 1), width=st.integers(0, 6))
def test_symbolic_times_plain_products_in_a_p_window(data, lo, width):
    w = Window(lo, lo + width, True)
    f = data.draw(series_of(FRAME_QP, window=w, q_order=3))
    g = data.draw(series_of(FRAME_QP, symbolic=False, window=data.draw(st.sampled_from([None, w])),
                            q_order=data.draw(st.sampled_from([None, 2, 4]))))
    for a, b in ((f, g), (g, f)):
        assert_identical(a * b, mul_oracle(a, b))


@settings(max_examples=60, deadline=None)
@given(g=series_of(FRAME_QPU), order=st.sampled_from([None, 2, 3]))
def test_symbolic_quotient_by_u_minus_inverse_u(g, order):
    zm = Series(FRAME_QPU, {(0, 0, 2): 1, (0, 0, -2): -1}, order)
    num = mul_oracle(g, zm)
    got = divide_exact(num, zm)
    assert_plain_slices(got)
    assert_identical(got, divide_exact_oracle(num, zm))
    if order is None:
        assert got == g


def test_symbolic_divisor_lead_is_refused():
    den = Series(FRAME_QPU, {(0, 0, 2): 1 + betti_symbol(1, 2), (0, 0, -2): -1})
    with pytest.raises(series.InexactDivision):
        divide_exact(Series.one(FRAME_QPU), den)


@settings(max_examples=60, deadline=None)
@given(f=series_of(FRAME_QPU, q_order=4), d=st.integers(0, 3))
def test_coefficient_deletes_the_q_field(f, d):
    got = f.coefficient({"q": d})
    want = {e[1:]: c for e, c in f.terms.items() if e[0] == 24 * d}
    assert got.frame == FRAME_QPU.subframe(["p", "u"]) and got.terms == want
    assert got.slices == Series(got.frame, want).slices
    assert_plain_slices(got)


def test_coefficient_to_a_frame_without_variables():
    b = betti_symbol(2, 4)
    f = Series(FRAME_Q, {(0,): 3, (24,): 2 - b, (48,): b}, 3)
    assert f.coefficient({"q": 1}).terms == {(): 2 - b}
    assert f.coefficient({"q": 2}).coeff({}) == b


@settings(max_examples=60, deadline=None)
@given(f=series_of(FRAME_QPU, q_order=3), k=st.integers(2, 4))
def test_adams_keeps_the_symbol_field(f, k):
    got = f.adams(k)
    assert got.terms == {tuple(k * x for x in e): c for e, c in f.terms.items()}
    assert got.q_order == 3 * k
    assert_plain_slices(got)


@settings(max_examples=60, deadline=None)
@given(f=series_of(FRAME_QP, window=Window(-2, 4, True), q_order=3))
def test_json_round_trip(f):
    back = Series.loads(f.dumps())
    assert_identical(back, f)
    assert back.slices == f.slices
    assert back.dumps() == f.dumps()


@settings(max_examples=60, deadline=None)
@given(a=series_of(FRAME_QPU, q_order=3), b=series_of(FRAME_QPU, q_order=3), both=st.booleans())
def test_agree_mismatch_info(a, b, both):
    b = a + b if both else b
    assert agree(a, b) == agree_oracle(a, b)
    assert agree(b, a) == agree_oracle(b, a)


def test_agree_reports_the_whole_coefficient():
    b, c = betti_symbol(1, 2), betti_symbol(2, 4)
    x = Series(FRAME_QPU, {(24, 2, 0): 3 + b - c, (24, 0, 0): 1}, 2)
    y = Series(FRAME_QPU, {(24, 2, 0): 3 + b, (24, 0, 0): 1}, 2)
    ok, info = agree(x, y)
    assert not ok and info["count"] == 1 and info["monomial"] == {"q": "1", "p": "1"}
    assert info["left"]["terms"] == [{"d": 1, "i": 2, "coef": "1"}, {"d": 2, "i": 4, "coef": "-1"}]
    assert info["right"]["const"] == "3"
    assert agree(x, y) == agree_oracle(x, y)


def test_two_symbol_carrying_slices_never_multiply():
    f = Series(FRAME_Q, {(24,): betti_symbol(1, 2)}, 4)
    with pytest.raises(SymbolDegreeOverflow):
        f * f
    with pytest.raises(SymbolDegreeOverflow):
        exp_series(f)  # E_2 needs f_1 * E_1, both symbol-carrying
    assert (f * Series(FRAME_Q, {(0,): 2, (24,): 1})).terms == {(24,): 2 * betti_symbol(1, 2),
                                                                 (48,): betti_symbol(1, 2)}


def test_symbol_entries_never_reach_a_kernel_as_linexpr(monkeypatch):
    seen = []
    madd = series.madd

    def checked(out, f, g, *args):
        for s in (f, g):
            assert all(type(c) in (int, Fraction) for c in s.values())
        seen.append(f.symbolic() or g.symbolic())
        return madd(out, f, g, *args)

    monkeypatch.setattr(series, "madd", checked)
    betti = perverse.BettiTable.default()
    second = perverse.ph_betti_term(betti, 6)
    assert second.has_symbols()
    assert_plain_slices(second)
    forms = perverse.primitive_pt_forms(betti, 4, Window(-16, 16, False))
    for f in forms.values():
        assert f.has_symbols()
        assert_plain_slices(f)
    assert perverse.check_primitive_chain(betti, q_order=4)["ok"]
    assert any(seen) and not all(seen)


def test_table_cells_are_linexpr_at_the_boundary():
    table = perverse.perverse_table(3, q_order=4)
    unknown = table.unknown_cells()
    assert unknown and all(isinstance(table.entry(*c), LinExpr) for c in unknown)
    for cell in table.determined_cells():
        assert is_rational(table.entry(*cell))


def test_scalar_linexpr_factors_and_comparisons():
    b = betti_symbol(1, 2)
    f = Series(FRAME_QPU, {(0, 0, 0): 2, (24, 1, -1): Fraction(1, 2)}, 3, None)
    got = f * (1 + b)
    assert_identical(got, mul_oracle(f, Series.const(FRAME_QPU, 1 + b)))
    assert got.q_order == 3 and (1 + b) * f == got
    assert Series.const(FRAME_QPU, 3 - b) == 3 - b
    assert Series.const(FRAME_QPU, 3 - b) != 3 + b
    assert (got / 2).terms == {e: c * Fraction(1, 2) for e, c in got.terms.items()}
    with pytest.raises(SymbolDegreeOverflow):
        got * b
    with pytest.raises(SymbolDegreeOverflow):
        f / b
