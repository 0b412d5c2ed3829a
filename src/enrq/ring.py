"""Exact coefficient arithmetic for the series engine.

A coefficient is a Python ``int`` while it is integral and a ``Fraction``
otherwise, optionally extended by formal symbols ``b(d, i)`` standing for
still-unknown Betti numbers of the degree-``d`` sheaf moduli space.  It is
never a float: :func:`rat` builds every rational and refuses anything but an
``int``, a ``Fraction`` or a ``'p/q'`` string, and :func:`exact` turns an
integral rational back into an ``int``.
:func:`qdiv` is the only coefficient division: it keeps an exact integer
quotient an ``int`` and turns an inexact one into a rational, where ``/``
would give a float.  Only affine-linear expressions in the symbols are
supported: every identity in scope is linear in the unknown Betti numbers,
so a genuinely quadratic product signals a pipeline bug and raises
:class:`SymbolDegreeOverflow`.

:class:`LinExpr` is a view and boundary type.  A series never stores one:
it keeps each symbol in its own key field under the fixed id
:func:`symbol_id`, so every stored coefficient is an ``int`` or a
``Fraction`` (layout in :mod:`enrq.kernel`).  A ``LinExpr`` is built from
those entries for the ``terms`` view, a single coefficient, JSON, table
cells and mismatch reports, and taken apart again where one enters a
series.
"""

from fractions import Fraction
from math import isqrt

__all__ = [
    "RATIONAL_BACKEND",
    "SymbolDegreeOverflow",
    "BettiSymbol",
    "LinExpr",
    "rat",
    "exact",
    "qdiv",
    "is_rational",
    "betti_symbol",
    "symbol_id",
    "SYMBOL_BY_ID",
    "linexpr",
    "coeff_to_json",
    "coeff_entries_from_json",
]


class SymbolDegreeOverflow(ArithmeticError):
    """Product would be quadratic in Betti symbols."""


# the one rational type, named in benchmark records and the series cache key
RATIONAL_BACKEND = "fractions"

_RAT_TYPES = (int, Fraction)


def rat(num, den=None):
    """The ``Fraction`` ``num`` or ``num / den``.

    ``num`` is an ``int``, a ``Fraction`` or a ``'p/q'`` string, ``den`` an
    ``int`` or a ``Fraction``; anything else, a float included, is a
    ``TypeError``.
    """
    if den is None:
        if isinstance(num, (*_RAT_TYPES, str)):
            return Fraction(num)
    elif isinstance(num, _RAT_TYPES) and isinstance(den, _RAT_TYPES):
        return Fraction(num, den)
    raise TypeError(f"not an exact rational: {num!r}" + ("" if den is None else f" / {den!r}"))


def exact(x):
    """``rat(x)``, as an ``int`` when it is integral."""
    x = rat(x)
    return x.numerator if x.denominator == 1 else x


def qdiv(a, b):
    """Exact quotient ``a / b``, never a float.

    Two ints give an ``int`` when ``b`` divides ``a`` and ``rat(a, b)``
    otherwise.  ``a`` may also be a rational or a :class:`LinExpr` (divided
    term by term); ``b`` a rational or a symbol-free :class:`LinExpr`.
    """
    if isinstance(b, LinExpr):
        if b.terms:
            raise SymbolDegreeOverflow("division by a symbol-carrying expression")
        b = b.const
    elif not is_rational(b):
        b = rat(b)
    if isinstance(a, LinExpr):
        return linexpr(qdiv(a.const, b), {s: qdiv(c, b) for s, c in a.terms.items()})
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        return rat(a, b) if rem else quo
    return a / b


def is_rational(x):
    return isinstance(x, _RAT_TYPES)


class BettiSymbol(tuple):
    """Formal Betti number ``b_i`` of the moduli space with half-square d.

    The space has complex dimension 2d+1, so 0 <= i <= 4d+2.
    """

    __slots__ = ()

    def __new__(cls, d, i):
        d, i = int(d), int(i)
        if d < 0:
            raise ValueError("half-square d must be nonnegative")
        if not 0 <= i <= 4 * d + 2:
            raise ValueError(f"cohomological degree out of range: b({d},{i})")
        return tuple.__new__(cls, (d, i))

    @property
    def d(self):
        return self[0]

    @property
    def i(self):
        return self[1]

    def __repr__(self):
        return f"b[{self.i},{self.d}]"


def symbol_id(sym):
    """The fixed id ``1 + 2 d^2 + d + i`` of ``b(d, i)``: injective, and 0 is left
    for the constant part (ids of degree d fill ``[2d^2 + d + 1, 2d^2 + 5d + 3]``)."""
    d, i = sym
    return 1 + 2 * d * d + d + i


class _SymbolById(dict):
    """``{id: BettiSymbol}``, the inverse of :func:`symbol_id`, filled on first lookup."""

    __slots__ = ()

    def __missing__(self, sid):
        m = sid - 1
        d = (isqrt(8 * m + 1) - 1) // 4  # the largest d with 2d^2 + d <= m
        self[sid] = sym = BettiSymbol(d, m - 2 * d * d - d)
        return sym


SYMBOL_BY_ID = _SymbolById()


class _IdByPair(dict):
    """``{(d, i): symbol_id(b(d, i))}`` for the raw ``d`` and ``i`` of a JSON record,
    checked by :class:`BettiSymbol` on first lookup."""

    __slots__ = ()

    def __missing__(self, pair):
        self[pair] = sid = symbol_id(BettiSymbol(*pair))
        return sid


_ID_BY_PAIR = _IdByPair()


def linexpr(const, terms):
    """``const + sum c * s`` over ``terms = {BettiSymbol: nonzero rational}``, no
    argument checked; a plain rational when ``terms`` is empty (all symbols cancelled)."""
    if terms:
        e = LinExpr.__new__(LinExpr)
        e.const = const
        e.terms = terms
        return e
    return const


class LinExpr:
    """Affine-linear expression: rational constant plus rational multiples of symbols."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms=None):
        self.const = const if is_rational(const) else rat(const)
        self.terms = {}
        if terms:
            for sym, c in terms.items():
                if not isinstance(sym, BettiSymbol):
                    sym = BettiSymbol(*sym)
                if not is_rational(c):
                    c = rat(c)
                if c:
                    self.terms[sym] = c

    def __bool__(self):
        return bool(self.const) or bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, LinExpr):
            return self.const == other.const and self.terms == other.terms
        if is_rational(other):
            return not self.terms and self.const == other
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, LinExpr):
            t = dict(self.terms)
            for s, c in other.terms.items():
                v = t.get(s, 0) + c
                if v:
                    t[s] = v
                else:
                    t.pop(s, None)
            return linexpr(self.const + other.const, t)
        if is_rational(other):
            return linexpr(self.const + other, dict(self.terms))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return linexpr(-self.const, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LinExpr):
            if self.terms and other.terms:
                raise SymbolDegreeOverflow(
                    f"product of symbol-carrying expressions: ({self!r}) * ({other!r})"
                )
            if other.terms:
                self, other = other, self
            other = other.const
        elif not is_rational(other):
            return NotImplemented
        if not other:
            return 0
        return linexpr(self.const * other, {s: c * other for s, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return qdiv(self, other)

    def __repr__(self):
        parts = [] if not self.const and self.terms else [str(self.const)]
        for s in sorted(self.terms):
            c = self.terms[s]
            if c == 1:
                parts.append(f"{s!r}")
            elif c == -1:
                parts.append(f"-{s!r}")
            else:
                parts.append(f"{c}*{s!r}")
        return " + ".join(parts).replace("+ -", "- ")


def betti_symbol(d, i):
    """The symbol b(d, i) as a LinExpr."""
    return LinExpr(0, {BettiSymbol(d, i): 1})


def coeff_to_json(c):
    if isinstance(c, LinExpr):
        return {
            "const": str(c.const),
            "terms": [
                {"d": s.d, "i": s.i, "coef": str(c.terms[s])} for s in sorted(c.terms)
            ],
        }
    return str(c)


def _exact_text(s):
    """``exact(s)``, read by ``int`` when ``s`` is a ``str`` matching ``-?[0-9]+``."""
    if type(s) is str:
        t = s.removeprefix("-")
        if t.isascii() and t.isdigit():
            return int(s)
    return exact(s)


def coeff_entries_from_json(obj):
    """A :func:`coeff_to_json` value in the form a series stores it: a rational when
    no symbol term is nonzero, else ``(const, [(symbol_id(b), nonzero rational), ...])``;
    integral values come back as ints."""
    if isinstance(obj, str):
        return _exact_text(obj)
    entries = []
    for t in obj.get("terms", ()):
        v = _exact_text(t["coef"])
        if v:
            entries.append((_ID_BY_PAIR[t["d"], t["i"]], v))
    const = _exact_text(obj["const"])
    return (const, entries) if entries else const
