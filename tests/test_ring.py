from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrq import ring
from enrq.ring import (
    BettiSymbol,
    LinExpr,
    SymbolDegreeOverflow,
    betti_symbol,
    coeff_from_json,
    coeff_to_json,
    exact,
    qdiv,
    rat,
)


def test_rat_construction():
    assert rat(3, 2) == rat("3/2") == rat(Fraction(3, 2))
    assert str(rat(6, 4)) == "3/2"
    assert rat("-7") == -7


def test_rat_refuses_non_exact_numbers():
    for args in ((0.1,), (1, 2.0), (0.5, 1), (None,), ([1],)):
        with pytest.raises(TypeError):
            rat(*args)
    with pytest.raises(TypeError):
        LinExpr(0.5)
    with pytest.raises(TypeError):
        LinExpr(0, {(1, 2): 0.5})


def test_exact_keeps_integral_values_int():
    assert exact("4/2") == 2 and type(exact("4/2")) is int
    assert exact(Fraction(-6, 3)) == -2 and type(exact(Fraction(-6, 3))) is int
    assert exact("1/2") == Fraction(1, 2) and type(exact("1/2")) is Fraction
    with pytest.raises(TypeError):
        exact(2.0)


def test_rational_backend_reported():
    assert ring.RATIONAL_BACKEND == "fractions"


def test_qdiv_keeps_exact_integer_quotients_int():
    assert qdiv(6, 3) == 2 and type(qdiv(6, 3)) is int
    assert qdiv(-6, 4) == rat(-3, 2) and type(qdiv(-6, 4)) is type(rat(1, 2))
    assert qdiv(rat(3, 2), 3) == rat(1, 2)
    assert qdiv(3, rat(3, 2)) == 2
    b = betti_symbol(1, 2)
    got = qdiv(4 + 6 * b, 2)
    assert got == 2 + 3 * b and type(got.const) is int and type(got.terms[BettiSymbol(1, 2)]) is int
    assert qdiv(1 + b, LinExpr(2)) == LinExpr(rat(1, 2), {BettiSymbol(1, 2): rat(1, 2)})
    assert (3 * b) / 2 == qdiv(3 * b, 2)
    with pytest.raises(SymbolDegreeOverflow):
        qdiv(1, 1 + b)
    with pytest.raises(ZeroDivisionError):
        qdiv(1, 0)


def test_betti_symbol_range():
    assert BettiSymbol(2, 3).d == 2 and BettiSymbol(2, 3).i == 3
    with pytest.raises(ValueError):
        BettiSymbol(1, 7)  # above 4d+2
    with pytest.raises(ValueError):
        BettiSymbol(-1, 0)


def test_lin_add_examples():
    b32 = betti_symbol(2, 3)
    assert (3 + 2 * b32) + (1 - 2 * b32) == 4
    x = 5 + betti_symbol(1, 2)
    assert LinExpr(0) + x == x
    assert (rat(1, 2) + betti_symbol(1, 0)) + rat(1, 2) == 1 + betti_symbol(1, 0)


def test_lin_mul_examples():
    b32 = betti_symbol(2, 3)
    assert rat(2) * (3 + b32) == 6 + 2 * b32
    assert rat(0) * (3 + b32) == 0
    with pytest.raises(SymbolDegreeOverflow):
        (1 + betti_symbol(2, 3)) * (1 + betti_symbol(2, 4))


def test_division_by_scalar():
    e = (4 + 2 * betti_symbol(1, 2)) / 2
    assert e == 2 + betti_symbol(1, 2)
    with pytest.raises(SymbolDegreeOverflow):
        (1 + betti_symbol(1, 2)) / (1 + betti_symbol(1, 3))


def test_full_cancellation_demotes_to_rational():
    b = betti_symbol(1, 2)
    v = (3 + b) - b
    assert not isinstance(v, LinExpr) and v == 3


def test_json_round_trip():
    e = rat(1, 2) + 3 * betti_symbol(2, 3) - rat(7, 5) * betti_symbol(1, 2)
    blob = coeff_to_json(e)
    assert blob["const"] == "1/2"
    assert coeff_from_json(blob) == e
    assert coeff_from_json(coeff_to_json(rat(-5, 3))) == rat(-5, 3)


def _read(reader, obj):
    """Value and types of ``reader(obj)`` (a LinExpr's parts one by one), or the
    type of the error it raises."""
    try:
        v = reader(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)
    if isinstance(v, LinExpr):
        return v, type(v.const), [(s, type(c)) for s, c in v.terms.items()]
    return v, type(v)


def _exact_record(obj):
    """The reading of a coefficient record by ``exact`` alone."""
    if isinstance(obj, str):
        return exact(obj)
    terms = {BettiSymbol(t["d"], t["i"]): exact(t["coef"]) for t in obj["terms"]}
    return ring.linexpr(exact(obj["const"]), {s: c for s, c in terms.items() if c})


@pytest.mark.parametrize(
    "text", ["-0", "007", " 3", "+3", "3/4", "-12", "\u0663", "-\u0663", "1_000", "--3", "-", "", "12\n"]
)
def test_json_reader_matches_exact(text):
    # the int shortcut takes only ASCII -?[0-9]+; every other string, a
    # non-ASCII digit included, is read by exact() as before
    assert _read(coeff_from_json, text) == _read(_exact_record, text)
    for record in (
        {"const": text, "terms": [{"d": 1, "i": 2, "coef": text}]},
        {"const": "1/2", "terms": [{"d": 1, "i": 2, "coef": text}, {"d": 2, "i": 0, "coef": "-5"}]},
    ):
        assert _read(coeff_from_json, record) == _read(_exact_record, record)


_sym = st.tuples(st.integers(0, 3), st.integers(0, 6)).filter(lambda di: di[1] <= 4 * di[0] + 2)
_coef = st.integers(-9, 9).map(rat)


@st.composite
def lin_exprs(draw, with_symbols=True):
    const = draw(_coef)
    terms = {}
    if with_symbols:
        for d, i in draw(st.lists(_sym, max_size=3, unique=True)):
            c = draw(_coef)
            if c:
                terms[BettiSymbol(d, i)] = c
    return LinExpr(const, terms)


@settings(max_examples=120, deadline=None)
@given(a=lin_exprs(), b=lin_exprs(), c=lin_exprs())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    scalar = LinExpr(rat(3, 2))
    assert scalar * (a + b) == scalar * a + scalar * b


@settings(max_examples=120, deadline=None)
@given(a=lin_exprs(), b=lin_exprs(), values=st.data())
def test_substitution_commutes(a, b, values):
    syms = set()
    for e in (a, b):
        if isinstance(e, LinExpr):
            syms |= e.symbols()
    vals = {s: rat(values.draw(st.integers(-5, 5))) for s in syms}

    def ev(x):
        return x.substitute(vals) if isinstance(x, LinExpr) else x

    total = a + b
    assert ev(total) == ev(a) + ev(b)
    prod = LinExpr(rat(2)) * a
    assert ev(prod) == 2 * ev(a)
