"""Exact coefficient arithmetic for the series engine.

A coefficient is a Python ``int`` while it is integral and an exact rational
otherwise (gmpy2.mpq when available, ``Fraction`` otherwise), optionally
extended by formal symbols ``b(d, i)`` standing for still-unknown Betti
numbers of the degree-``d`` sheaf moduli space.  It is never a float.
:func:`qdiv` is the only coefficient division: it keeps an exact integer
quotient an ``int`` and turns an inexact one into a rational, where ``/``
would give a float.  Only affine-linear expressions in the symbols are
supported: every identity in scope is linear in the unknown Betti numbers,
so a genuinely quadratic product signals a pipeline bug and raises
:class:`SymbolDegreeOverflow`.
"""

from fractions import Fraction

__all__ = [
    "RATIONAL_BACKEND",
    "SymbolDegreeOverflow",
    "BettiSymbol",
    "LinExpr",
    "rat",
    "qdiv",
    "is_rational",
    "as_fraction",
    "betti_symbol",
    "lin_add",
    "lin_mul",
    "coeff_to_json",
    "coeff_from_json",
]


class SymbolDegreeOverflow(ArithmeticError):
    """Product would be quadratic in Betti symbols."""


try:
    from gmpy2 import mpq as _mpq

    RATIONAL_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpq = Fraction
    RATIONAL_BACKEND = "fractions"

_RAT_TYPES = (int, Fraction, type(_mpq(0)))


def rat(num=0, den=None):
    """Exact rational from ints, 'p/q' strings, Fractions or rationals."""
    if den is not None:
        return _mpq(num, den)
    if isinstance(num, str):
        return _mpq(Fraction(num))
    return _mpq(num)


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
        return _make(qdiv(a.const, b), {s: qdiv(c, b) for s, c in a.terms.items()})
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        return rat(a, b) if rem else quo
    return a / b


def is_rational(x):
    return isinstance(x, _RAT_TYPES)


def as_fraction(x):
    if isinstance(x, Fraction):
        return x
    return Fraction(x.numerator, x.denominator) if not isinstance(x, int) else Fraction(x)


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


def _make(const, terms):
    # Demote to a plain rational when all symbols cancelled.
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
            return _make(self.const + other.const, t)
        if is_rational(other):
            return _make(self.const + other, dict(self.terms))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.const, {s: -c for s, c in self.terms.items()})

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
        return _make(self.const * other, {s: c * other for s, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return qdiv(self, other)

    def substitute(self, values):
        """Evaluate with concrete rationals for every symbol present."""
        acc = self.const
        for s, c in self.terms.items():
            if s not in values:
                raise KeyError(f"no value supplied for {s!r}")
            acc = acc + c * rat(values[s])
        return acc

    def symbols(self):
        return set(self.terms)

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


def lin_add(a, b):
    """Sum of affine-linear expressions (rationals accepted on either side)."""
    if isinstance(a, LinExpr) or isinstance(b, LinExpr):
        return a + b
    return rat(a) + rat(b)


def lin_mul(a, b):
    """Product of affine-linear expressions; at most one side may carry symbols."""
    if isinstance(a, LinExpr) or isinstance(b, LinExpr):
        return a * b
    return rat(a) * rat(b)


def coeff_to_json(c):
    if isinstance(c, LinExpr):
        return {
            "const": str(c.const),
            "terms": [
                {"d": s.d, "i": s.i, "coef": str(c.terms[s])} for s in sorted(c.terms)
            ],
        }
    return str(c)


def _number_from_json(text):
    # an int while integral, as the coefficient was before it was written
    v = rat(text)
    return int(v) if v.denominator == 1 else v


def coeff_from_json(obj):
    """Inverse of :func:`coeff_to_json`; integral values (also in a LinExpr) come back as ints."""
    if isinstance(obj, str):
        return _number_from_json(obj)
    terms = {}
    for t in obj.get("terms", ()):
        v = _number_from_json(t["coef"])
        if v:
            terms[BettiSymbol(t["d"], t["i"])] = v
    return _make(_number_from_json(obj["const"]), terms)
