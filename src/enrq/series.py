"""Truncated multivariate Laurent series over exact coefficients.

Coefficients follow :mod:`enrq.ring`: an ``int`` while integral, otherwise a
``Fraction``, or a ``LinExpr`` over those, never a float; every coefficient
division goes through :func:`enrq.ring.qdiv`.  A ``LinExpr`` is never stored:
its Betti symbols live in the lowest key field (see below), so every stored
coefficient is an ``int`` or a ``Fraction``.

Exponents live on a fixed fractional lattice: each variable has an integer
denominator (q carries 1/24 steps for eta prefactors, the others 1/2 steps
for half-integer powers) and exponents are stored scaled by it.  Truncation
is graded: every variable has an integer weight and a series holds all
coefficients of weighted degree strictly below its cutoff ``q_order``.  The
box-counting variable ``p``, when it carries weight 0, may instead have a
validity window for geometric directions: every series of the engine is
expanded in ascending powers of ``p`` from a known lowest power, so a window
is one kind only, known zeros below its floor and unknown above its top (see
:class:`Window`).

Series are immutable values; all operations return new objects.  A series
stores its terms once, as packed weight slices: ``Series.slices`` maps each
scaled weight W, ascending, to the :class:`enrq.kernel.PackedSlice` of its
terms of weight W.  ``Series.terms``, the ``{exponent tuple: coefficient}``
view, is built from the slices on first read and then kept.

Products run on the stored slices: every step multiplies one weight slice by
one weight slice with :func:`enrq.kernel.madd` into the accumulator of their
summed weight (the truncation cut is the loop bound), and the accumulators
are the result's slices.  Half path: in a frame with one weighted variable
``q``, the inversion ``rho`` that negates every other exponent maps the slice
of weight W onto itself as the key map ``k -> 2 c_W - k`` (``c_W`` the key of
the pure q-power of weight W).  When both operands of an unwindowed product
are even or odd under ``rho`` (:func:`_parity`) and its slice products are
wide (:data:`_HALF_MIN_PAIRS`), each accumulator collects only the keys at
or above ``c_W`` and the rest are filled by reflection; the perverse-Hodge
tables' duality ``(i, j) -> (-i, -j)`` is this symmetry.
Besides ``Series.__mul__``, one graded solve (:func:`_euler_solve`,
``S_W = finish(W, seed_W + sum_l K_l * S_{W-l})``) multiplies slices, and
its solved slices are the result's: it runs
:func:`product_expand`, :func:`exp_series`, :func:`log_series` and
:func:`divide_exact`.  A key is one int of fixed-width biased fields with
``p`` most significant (layout in :mod:`enrq.kernel`), so a p-window is a key
range.  Below the variable fields sits the symbol field: a coefficient
``c0 + sum_s c_s * b_s`` at exponent ``e`` is stored as ``key(e) -> c0`` and
``key(e) + id(b_s) -> c_s``, with ``id(b(d, i)) = 1 + 2 d^2 + d + i``
(:func:`enrq.ring.symbol_id`), so products, sums, solves and comparisons run
on plain numbers, and ``terms``, ``coeff``, JSON and :func:`agree`'s
mismatch report rebuild the ``LinExpr``.  Each stored slice caches whether
it carries symbols (:meth:`enrq.kernel.PackedSlice.symbolic`), and a product
or solve raises :class:`enrq.ring.SymbolDegreeOverflow` before it multiplies
two symbol-carrying slices.  Field guard: the constructor refuses an
exponent outside a field or a symbol id beyond the symbol field, and
every variable's exponent of a packed operation is bounded a priori -- by the
operand maxima for a product, and for a solve by the factors that fit under
the weight cut (see :func:`_cut_bounds` and :func:`divide_exact`) --
:class:`FieldOverflow` is raised when a bound reaches ``BIAS``.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd, lcm
from operator import add, lshift, mul, neg

from .kernel import BIAS, FIELD_BITS, FIELD_MASK, PackedSlice, madd
from .ring import (
    SYMBOL_BY_ID,
    LinExpr,
    SymbolDegreeOverflow,
    coeff_entries_from_json,
    coeff_to_json,
    exact,
    is_rational,
    linexpr,
    qdiv,
    rat,
    symbol_id,
)

__all__ = [
    "Frame",
    "Window",
    "Series",
    "SeriesError",
    "WindowUnderflow",
    "NonUnitLeadingTerm",
    "InexactDivision",
    "BadConstantTerm",
    "NonConvergentFactor",
    "TruncationLoss",
    "OutsideValidWindow",
    "OffLattice",
    "FieldOverflow",
    "WindowOverflow",
    "divide_exact",
    "exp_series",
    "log_series",
    "product_expand",
    "agree",
    "signed_cells",
    "json_text",
    "FRAME_Q",
    "FRAME_QP",
    "FRAME_QPU",
    "FRAME_QTS",
    "FRAME_QPUTS",
    "FRAME_TS",
    "FRAME_PU",
    "FRAME_PU0",
    "FRAME_P0",
    "FRAME_XY",
    "FRAME_X",
]


class SeriesError(Exception):
    pass


class WindowUnderflow(SeriesError):
    """Operation would need p-coefficients outside every guaranteed window."""


class NonUnitLeadingTerm(SeriesError):
    """Leading graded slice is not a single invertible monomial."""


class InexactDivision(SeriesError):
    """Division left a nonzero remainder in an exact variable."""


class BadConstantTerm(SeriesError):
    """Constant slice unsuitable for exp/log."""


class NonConvergentFactor(SeriesError):
    """Infinite-product factor has nonpositive weight, so it never truncates."""


class TruncationLoss(SeriesError):
    """Substitution would invalidate the stored truncation data."""


class OutsideValidWindow(SeriesError):
    """Requested coefficient lies outside the guaranteed-valid region."""


class OffLattice(SeriesError):
    """Exponent does not lie on the fixed fractional lattice."""


class FieldOverflow(SeriesError):
    """An exponent of a packed operation could leave its fixed-width key field."""


class WindowOverflow(FieldOverflow):
    """A requested p-window whose top lies beyond a packed exponent field."""


class Window(tuple):
    """p-exponent validity window, in scaled units.

    A series carries only a floored window: the true series has no support
    below ``lo``, so positions below the floor are known zeros and only
    positions above ``hi`` are unknown.  ``floored=False`` marks a p-range
    request (the CLI's ``--p-window``, the builders' ``window`` argument, of
    which they read ``hi``); a series refuses it with :class:`WindowUnderflow`.
    """

    __slots__ = ()

    def __new__(cls, lo, hi, floored=False):
        return tuple.__new__(cls, (int(lo), int(hi), bool(floored)))

    @property
    def lo(self):
        return self[0]

    @property
    def hi(self):
        return self[1]

    @property
    def floored(self):
        return self[2]

    def scaled(self, k):
        return Window(self.lo * k, self.hi * k, self.floored)

    def __repr__(self):
        tag = "floor" if self.floored else "window"
        return f"{tag}[{self.lo}..{self.hi}]"


class Frame:
    """Variable layout: names, exponent denominators and truncation weights."""

    __slots__ = (
        "names", "denoms", "weights", "nvars", "index", "p_index", "q_index", "wden", "wnum", "shifts",
        "base", "_key",
    )

    def __init__(self, names, denoms, weights):
        self.names = tuple(names)
        self.denoms = tuple(int(d) for d in denoms)
        self.weights = tuple(int(w) for w in weights)
        if not (len(self.names) == len(self.denoms) == len(self.weights)):
            raise ValueError("names/denoms/weights length mismatch")
        if any(d <= 0 for d in self.denoms):
            raise ValueError("denominators must be positive")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        self.nvars = len(self.names)
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != self.nvars:
            raise ValueError("duplicate variable names")
        weighted = [i for i in range(self.nvars) if self.weights[i]]
        self.wden = lcm(*(self.denoms[i] for i in weighted))
        self.wnum = tuple(
            self.weights[i] * self.wden // self.denoms[i] for i in range(self.nvars)
        )
        # windowing applies to an unweighted variable named p
        i = self.index.get("p")
        self.p_index = i if (i is not None and self.weights[i] == 0) else -1
        # the one weighted variable, if only one is, which the inversion rho keeps (see _parity)
        self.q_index = weighted[0] if len(weighted) == 1 else -1
        # packed keys: the symbol field lowest, then the variables in tuple
        # order, p in the most significant field
        order = [j for j in range(self.nvars) if j != self.p_index]
        if self.p_index >= 0:
            order.append(self.p_index)
        shifts = [0] * self.nvars
        for pos, j in enumerate(order, 1):
            shifts[j] = pos * FIELD_BITS
        self.shifts = tuple(shifts)
        self.base = sum(BIAS << sh for sh in shifts)
        self._key = (self.names, self.denoms, self.weights)

    def __eq__(self, other):
        return isinstance(other, Frame) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Frame({','.join(self.names)})"

    def zero_exp(self):
        return (0,) * self.nvars

    def exps(self, mono):
        """Scaled exponent tuple from a {name: exponent} mapping."""
        e = [0] * self.nvars
        for name, x in mono.items():
            i = self.index.get(name)
            if i is None:
                raise KeyError(f"variable {name!r} not in {self!r}")
            x = Fraction(x)
            s = x * self.denoms[i]
            if s.denominator != 1:
                raise OffLattice(f"{name}^{x} not on the 1/{self.denoms[i]} lattice")
            e[i] = int(s)
        return tuple(e)

    def weight_scaled(self, e):
        w = 0
        for i in range(self.nvars):
            w += self.wnum[i] * e[i]
        return w

    def subframe(self, keep):
        keep = [n for n in self.names if n in keep]
        return Frame(
            keep,
            [self.denoms[self.index[n]] for n in keep],
            [self.weights[self.index[n]] for n in keep],
        )


FRAME_Q = Frame(("q",), (24,), (1,))
FRAME_QP = Frame(("q", "p"), (24, 2), (1, 0))
FRAME_QPU = Frame(("q", "p", "u"), (24, 2, 2), (1, 0, 0))
FRAME_QTS = Frame(("q", "t", "s"), (24, 2, 2), (1, 0, 0))
FRAME_QPUTS = Frame(("q", "p", "u", "t", "s"), (24, 2, 2, 2, 2), (1, 0, 0, 0, 0))
FRAME_TS = Frame(("t", "s"), (2, 2), (0, 0))
FRAME_PU = Frame(("p", "u"), (2, 2), (1, 0))
FRAME_PU0 = Frame(("p", "u"), (2, 2), (0, 0))
FRAME_P0 = Frame(("p",), (2,), (0,))
FRAME_XY = Frame(("x", "y"), (1, 1), (1, 1))
FRAME_X = Frame(("x",), (1,), (1,))


def _as_order(q_order):
    """A truncation order as an exact ``Fraction`` (or None); a float is a ``TypeError``."""
    if q_order is None or isinstance(q_order, Fraction):
        return q_order
    return rat(q_order)


def _bounds(frame, q_order):
    # keep a term iff weight_scaled * bd < bn; bd == 0 disables the cut
    if q_order is None:
        return 0, 0
    return q_order.numerator * frame.wden, q_order.denominator


def _top(frame, q_order):
    """Largest scaled weight below the truncation order, or None without one."""
    bn, bd = _bounds(frame, q_order)
    return (bn - 1) // bd if bd else None


def _offset(frame, e):
    """``key(e) - frame.base``: linear in ``e``, so ``key(k*e) = base + k*_offset(e)``."""
    return sum(map(lshift, e, frame.shifts))


def _scaled(frame, mono):
    """Scaled exponent tuple of a {name: exponent} mapping or a pre-scaled tuple."""
    return mono if isinstance(mono, tuple) else frame.exps(mono)


def _add_shifted(terms, s, mono):
    """Add ``mono * s`` into the term dict ``terms`` (``mono`` a {name: exponent} mapping)."""
    shift = s.frame.exps(mono)
    for e, v in s.terms.items():
        k = tuple(map(add, e, shift))
        terms[k] = terms.get(k, 0) + v


def _pack(frame, terms):
    """Tuple-keyed terms as ``{scaled weight: PackedSlice}``, zero coefficients dropped
    and a ``LinExpr`` split into its symbol entries, as is a coefficient already split
    into ``(const, [(symbol id, nonzero value), ...])``; an exponent outside its packed
    field, or a symbol id beyond the symbol field, raises :class:`FieldOverflow`."""
    _guard(frame, [max(map(abs, col)) for col in zip(*terms)], "series")
    base, wnum, n = frame.base, frame.wnum, frame.nvars
    out = {}
    for e, c in terms.items():
        if not c:
            continue
        if len(e) != n:
            raise ValueError("exponent arity mismatch")
        w = sum(map(mul, wnum, e))
        s = out.get(w)
        if s is None:
            out[w] = s = PackedSlice()
        k = base + _offset(frame, e)
        if type(c) is tuple:
            const, entries = c
        elif isinstance(c, LinExpr):
            const, entries = c.const, [(symbol_id(sym), v) for sym, v in c.terms.items()]
        else:
            s[k] = c
            continue
        if const:
            s[k] = const
        for sid, v in entries:
            if sid > FIELD_MASK:
                raise FieldOverflow(
                    f"symbol {SYMBOL_BY_ID[sid]!r} has id {sid}; the symbol field holds ids <= {FIELD_MASK}"
                )
            s[k + sid] = v
    return out


def _gather(packed, sign_bits=0):
    """``{monomial key: coefficient}``: symbol entries join their constant in a ``LinExpr``,
    each stored number first negated if its key sets an odd number of ``sign_bits``."""
    out, syms, symbol = {}, {}, SYMBOL_BY_ID
    for k, c in packed.items():
        if sign_bits and (k & sign_bits).bit_count() & 1:
            c = -c
        sid = k & FIELD_MASK
        if sid:
            m = k - sid
            t = syms.get(m)
            if t is None:
                syms[m] = t = {}
            t[symbol[sid]] = c
        else:
            out[k] = c
    for k, t in syms.items():
        out[k] = linexpr(out.get(k, 0), t)
    return out


def _unpack(frame, packed):
    """Tuple-keyed terms from one ``{packed key: coefficient}`` dict, symbols gathered."""
    if any(map(FIELD_MASK.__and__, packed)):
        packed = _gather(packed)
    if not frame.nvars:
        return {(): c for c in packed.values()}
    keys = list(packed)
    cols = [[((k >> sh) & FIELD_MASK) - BIAS for k in keys] for sh in frame.shifts]
    return dict(zip(zip(*cols), packed.values()))


def _cut(frame, slices, q_order, window):
    """The nonempty ``slices`` up to the order's top, ascending; on a window, keys
    above its top are dropped and a key below its floor raises ``ValueError``."""
    top = _top(frame, q_order)
    lo, hi = (None, None) if window is None else _p_keys(frame, window.lo, window.hi)
    out = {}
    for W in sorted(slices):
        if top is not None and W > top:
            break
        s = slices[W]
        if window is not None and s:
            if min(s) < lo:
                raise ValueError("term below declared window floor")
            if max(s) >= hi:
                s = PackedSlice((k, c) for k, c in s.items() if k < hi)
        if s:
            out[W] = s
    return out


def _p_keys(frame, lo, hi):
    """Packed-key range ``[lo_key, hi_key)`` of the terms with ``lo <= p <= hi``."""
    sh = frame.shifts[frame.p_index]
    return (lo + BIAS) << sh, (hi + 1 + BIAS) << sh


def _amax(frame, slices):
    """Largest |scaled exponent| of each variable over the ``{weight: slice}`` dict ``slices``."""
    keys = [k for s in slices.values() for k in s]
    cols = [[(k >> sh) & FIELD_MASK for k in keys] for sh in frame.shifts]
    return [max(max(col) - BIAS, BIAS - min(col)) for col in cols]


def _cut_bounds(frame, factors, top):
    """Per-variable bound on any product of ``factors`` of total weight <= ``top``.

    ``factors`` yields (scaled exponents, scaled weight > 0).  A factor ``t``
    has ``|e_i(t)| <= r_i * w(t)`` with ``r_i`` the largest ratio
    ``|e_i| / w`` over the factors, so a product under the cut has
    ``|e_i| <= r_i * top``: never more than (number of factors under the
    cut) x (largest factor exponent).
    """
    bounds = [0] * frame.nvars
    for e, w in factors:
        for i, x in enumerate(e):
            b = top * abs(x) // w
            if b > bounds[i]:
                bounds[i] = b
    return bounds


def _guard(frame, bounds, op, error=FieldOverflow):
    """Raise ``error`` (a :class:`FieldOverflow`) unless every per-variable bound fits a field."""
    for name, b in zip(frame.names, bounds):
        if b >= BIAS:
            raise error(
                f"{op}: scaled exponent of {name} may reach {b}; a packed field holds |e| < {BIAS}"
            )


def _adams_slice(frame, s, k):
    """The packed slice ``s`` with every monomial raised to the k-th power."""
    # key(k*e) = base + k*(key(e) - base); the symbol field, scaled along, is set back
    shift = (k - 1) * frame.base
    if s.symbolic():
        return PackedSlice({k * key - shift - (k - 1) * (key & FIELD_MASK): c for key, c in s.items()})
    return PackedSlice({k * key - shift: c for key, c in s.items()})


class Series:
    """A truncated Laurent series: packed weight slices plus truncation state.

    ``slices`` (ascending weight, never empty slices) is the one stored form;
    ``terms`` is a read-only tuple-keyed view of it, built on first read.  The
    constructor packs ``terms`` once and cuts them with :func:`_cut`.
    """

    __slots__ = ("frame", "slices", "q_order", "window", "_terms")

    def __init__(self, frame, terms=None, q_order=None, window=None):
        q_order = _as_order(q_order)
        if window is not None:
            if not window.floored:
                raise WindowUnderflow(f"a series window needs a known floor, got {window!r}")
            if frame.p_index < 0:
                raise ValueError("window on a frame without an unweighted p variable")
        self._set(frame, _pack(frame, terms or {}), q_order, window)

    def _set(self, frame, slices, q_order, window):
        self.frame, self.q_order, self.window, self._terms = frame, q_order, window, None
        self.slices = _cut(frame, slices, q_order, window)

    @classmethod
    def _from_slices(cls, frame, slices, q_order=None, window=None):
        """A series of ``{weight: PackedSlice}`` slices, cut as the constructor cuts terms."""
        s = cls.__new__(cls)
        s._set(frame, slices, q_order, window)
        return s

    @property
    def terms(self):
        if self._terms is None:
            self._terms = {e: c for s in self.slices.values() for e, c in _unpack(self.frame, s).items()}
        return self._terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, frame, q_order=None, window=None):
        return cls(frame, {}, q_order, window)

    @classmethod
    def const(cls, frame, value, q_order=None, window=None):
        value = _coerce_coeff(value)
        t = {frame.zero_exp(): value} if value else {}
        return cls(frame, t, q_order, window)

    @classmethod
    def one(cls, frame, q_order=None, window=None):
        return cls.const(frame, 1, q_order, window)

    @classmethod
    def monomial(cls, frame, mono, coeff=1, q_order=None, window=None):
        coeff = _coerce_coeff(coeff)
        return cls(frame, {frame.exps(mono): coeff}, q_order, window)

    # -- inspection --------------------------------------------------------

    def is_zero(self):
        return not self.slices

    def wmin(self):
        """Minimal weighted degree of the support, or None when empty."""
        if not self.slices:
            return None
        return Fraction(next(iter(self.slices)), self.frame.wden)

    def p_support(self):
        """(min, max) scaled exponent of an unweighted p over the support, or None."""
        if self.frame.p_index < 0 or not self.slices:
            return None
        sh = self.frame.shifts[self.frame.p_index]  # p is the most significant field
        ends = [f(s) for s in self.slices.values() for f in (min, max)]
        return (min(ends) >> sh) - BIAS, (max(ends) >> sh) - BIAS

    def has_symbols(self):
        return any(s.symbolic() for s in self.slices.values())

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def coeff(self, mono):
        """Coefficient of a fully specified monomial (validity-checked)."""
        e = self.frame.exps(mono)
        bn, bd = _bounds(self.frame, self.q_order)
        if bd and self.frame.weight_scaled(e) * bd >= bn:
            raise OutsideValidWindow(f"weight of {mono} is beyond the truncation order")
        if self.window is not None and e[self.frame.p_index] > self.window.hi:
            raise OutsideValidWindow(f"p-exponent of {mono} outside {self.window!r}")
        return self.terms.get(e, 0)

    # -- arithmetic --------------------------------------------------------

    def _check_frame(self, other):
        if self.frame != other.frame:
            raise ValueError(f"frame mismatch: {self.frame!r} vs {other.frame!r}")

    def __add__(self, other):
        if isinstance(other, Series):
            return self._merge(other, False)
        if is_rational(other) or isinstance(other, LinExpr):
            return self + Series.const(self.frame, other, self.q_order, self.window)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        slices = {W: _negated(s) for W, s in self.slices.items()}
        return Series._from_slices(self.frame, slices, self.q_order, self.window)

    def __sub__(self, other):
        if isinstance(other, Series):
            return self._merge(other, True)
        return self + -_coerce_coeff(other)

    def _merge(self, other, negate):
        """``self - other`` when ``negate``, else ``self + other``: at a weight both
        carry, the smaller slice is merged into a copy of the larger."""
        self._check_frame(other)
        q_order = _min_order(self.q_order, other.q_order)
        window = _window_add(self, other)
        slices = dict(self.slices)
        for W, s in other.slices.items():
            t = slices.get(W)
            if t is None:
                slices[W] = _negated(s) if negate else s
                continue
            if len(t) <= len(s):
                acc = _negated(s) if negate else PackedSlice(s)
                s, neg_s = t, False
            else:
                acc, neg_s = PackedSlice(t), negate
            for k, c in s.items():
                v = acc.get(k)
                if v is None:
                    acc[k] = -c if neg_s else c
                else:
                    v = v - c if neg_s else v + c
                    if v:
                        acc[k] = v
                    else:
                        del acc[k]
            slices[W] = acc
        return Series._from_slices(self.frame, slices, q_order, window)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check_frame(other)
            window = _window_mul(self, other)
            q_order = _mul_order(self, other)
            frame = self.frame
            if not self.slices or not other.slices:
                return Series._from_slices(frame, {}, q_order, window)
            _guard(frame, map(add, _amax(frame, self.slices), _amax(frame, other.slices)), "product")
            top = _top(frame, q_order)
            lo, hi = (None, None) if window is None else _p_keys(frame, window.lo, window.hi)
            sign = 0 if window is not None else _product_parity(frame, self.slices, other.slices)
            both = self.has_symbols() and other.has_symbols()
            acc = {}
            for wf, sf in self.slices.items():
                for wg, sg in other.slices.items():
                    w = wf + wg
                    if top is not None and w > top:
                        break
                    if both and sf.symbolic() and sg.symbolic():
                        raise SymbolDegreeOverflow(f"product of symbol-carrying slices at weights {wf}, {wg}")
                    a, b = (sf, sg) if len(sf) <= len(sg) else (sg, sf)
                    if sign:
                        lo = _center(frame, w)
                    madd(acc.setdefault(w, PackedSlice()), a, b, frame.base, lo, hi)
            if sign:
                for w, t in acc.items():
                    _mirror(t, _center(frame, w), sign)
            return Series._from_slices(frame, acc, q_order, window)
        if isinstance(other, LinExpr):
            return self * Series.const(self.frame, other)
        if is_rational(other):
            if not other:
                return Series.zero(self.frame, self.q_order, self.window)
            return self.map_coeffs(lambda c: c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            return divide_exact(self, other)
        other = _coerce_coeff(other)
        if not other:
            raise ZeroDivisionError("series divided by zero")
        return self.map_coeffs(lambda c: qdiv(c, other))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        acc = Series.one(self.frame, self.q_order, self.window)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.frame == other.frame and self.slices == other.slices
        if is_rational(other) or isinstance(other, LinExpr):
            return self.slices == _pack(self.frame, {self.frame.zero_exp(): other})
        return NotImplemented

    # -- structural operations ---------------------------------------------

    def adams(self, k):
        """Raise every monomial to the k-th power; cutoffs scale along."""
        k = int(k)
        if k < 1:
            raise ValueError("adams index must be >= 1")
        if k == 1:
            return self
        frame = self.frame
        if self.slices:
            _guard(frame, [k * a for a in _amax(frame, self.slices)], "adams")
        slices = {k * W: _adams_slice(frame, s, k) for W, s in self.slices.items()}
        q_order = None if self.q_order is None else self.q_order * k
        window = None if self.window is None else self.window.scaled(k)
        return Series._from_slices(frame, slices, q_order, window)

    def invert(self):
        """Multiplicative inverse: ``divide_exact(1, self)`` below a unit monomial lead.

        Each coefficient is an ``int`` while integral and otherwise a
        ``Fraction`` (or a ``LinExpr`` over those), never a float: the
        inverse of an integer series with lead coefficient +-1, such as
        ``eta(q)**4``, has only ``int`` coefficients.
        """
        if self.window is not None:
            raise WindowUnderflow("cannot invert a p-windowed series")
        if not self.slices:
            raise NonUnitLeadingTerm("zero series has no inverse")
        lead = next(iter(self.slices.values()))
        if lead.symbolic():
            raise NonUnitLeadingTerm("leading coefficient carries symbols")
        if len(lead) != 1:
            raise NonUnitLeadingTerm(f"leading slice has {len(lead)} terms")
        if self.q_order is None and len(self.slices) > 1:
            raise NonUnitLeadingTerm(
                "inverse of a non-monomial exact series is an infinite series; set a truncation order"
            )
        return divide_exact(Series.one(self.frame), self)

    def specialize(self, mapping):
        """Substitute monomials (or 1) for variables, e.g. {"t": {"u": 1}, "s": {"u": 1}}."""
        frame = self.frame
        targets = {}
        for name, target in mapping.items():
            i = frame.index.get(name)
            if i is None:
                raise KeyError(f"variable {name!r} not in {frame!r}")
            if frame.weights[i]:
                raise TruncationLoss(f"cannot substitute the truncated variable {name!r}")
            if target in (1, None):
                target = {}
            if self.window is not None and (name == "p" or "p" in target):
                raise TruncationLoss("substitution touching p would invalidate the window")
            targets[name] = {v: Fraction(x) for v, x in dict(target).items()}
        remaining = [n for n in frame.names if n not in targets]
        new_frame = frame.subframe(remaining)
        for target in targets.values():
            for v in target:
                if v in targets:
                    raise ValueError("substitution target must use only remaining variables")
                if v not in new_frame.index:
                    raise KeyError(f"target variable {v!r} not in result frame")
        # v's scaled exponent gains e_name * t * denom(v) / denom(name): summed
        # as ints over one common denominator per v
        ratios = {}
        for name, target in targets.items():
            i = frame.index[name]
            for v, t in target.items():
                j = new_frame.index[v]
                ratios.setdefault(j, []).append((i, t * new_frame.denoms[j] / frame.denoms[i]))
        subs = []
        for j, rs in sorted(ratios.items()):
            den = lcm(*(r.denominator for _, r in rs))
            subs.append((j, den, [(i, int(r * den)) for i, r in rs]))
        keep = [frame.index[n] for n in remaining]
        out = {}
        for e, c in self.terms.items():
            en = [e[i] for i in keep]
            for j, den, parts in subs:
                acc = sum(e[i] * r for i, r in parts)
                x, rem = divmod(acc, den)
                if rem:
                    v, d = new_frame.names[j], new_frame.denoms[j]
                    x = Fraction(en[j] * den + acc, den * d)
                    raise OffLattice(f"substitution leaves the lattice: {v}^{x} not on the 1/{d} lattice")
                en[j] += x
            en = tuple(en)
            v = out.pop(en, None)
            v = c if v is None else v + c
            if v:
                out[en] = v
        return Series(new_frame, out, self.q_order, self.window)  # a window keeps p

    def coefficient(self, constraints):
        """Sub-series at fixed exponents of some variables, e.g. {"q": 2}."""
        frame = self.frame
        fixed = {}
        wfix = Fraction(0)
        for name, x in constraints.items():
            i = frame.index.get(name)
            if i is None:
                raise KeyError(f"variable {name!r} not in {frame!r}")
            x = Fraction(x)
            s = x * frame.denoms[i]
            if s.denominator != 1:
                raise OffLattice(f"{name}^{x} not on the lattice")
            fixed[i] = int(s)
            wfix += x * frame.weights[i]
        if self.q_order is not None and wfix >= self.q_order:
            raise OutsideValidWindow(
                f"slice at weight {wfix} is not covered by q_order {self.q_order}"
            )
        window = self.window
        if window is not None and frame.p_index in fixed:
            pe = fixed[frame.p_index]
            if pe > window.hi:
                raise OutsideValidWindow(f"p-exponent {pe} outside {window!r}")
            window = None
        remaining = [n for i, n in enumerate(frame.names) if i not in fixed]
        new_frame = frame.subframe(remaining)
        q_order = self.q_order - wfix if self.q_order is not None and any(new_frame.weights) else None
        if list(fixed) == [i for i, w in enumerate(frame.wnum) if w]:
            # the one weighted variable fixes the weight: one slice holds the
            # terms, and deleting its field from each key gives the key in the
            # new frame (the other fields keep their order and bias)
            (i, x), = fixed.items()
            s = self.slices.get(x * frame.wnum[i])
            lo = frame.shifts[i]
            hi, low = lo + FIELD_BITS, (1 << lo) - 1
            slices = {0: PackedSlice({((k >> hi) << lo) | (k & low): c for k, c in s.items()})} if s else {}
            return Series._from_slices(new_frame, slices, q_order, window)
        keep_idx = [frame.index[n] for n in remaining]
        out = {tuple(e[i] for i in keep_idx): c for e, c in self.terms.items()
               if all(e[i] == v for i, v in fixed.items())}
        return Series(new_frame, out, q_order, window)

    def embed(self, frame):
        """Reinterpret in a larger frame containing the same-named variables."""
        pos = []
        for i, n in enumerate(self.frame.names):
            j = frame.index.get(n)
            if j is None:
                raise KeyError(f"variable {n!r} missing from target frame")
            if frame.denoms[j] != self.frame.denoms[i]:
                raise OffLattice(f"denominator mismatch for {n!r}")
            if frame.weights[j] != self.frame.weights[i] and not (
                self.q_order is None and self.window is None
            ):
                raise TruncationLoss(f"weight change for {n!r} on a truncated series")
            pos.append(j)
        out = {}
        for e, c in self.terms.items():
            en = [0] * frame.nvars
            for i, j in enumerate(pos):
                en[j] = e[i]
            out[tuple(en)] = c
        window = self.window
        if window is not None and frame.p_index < 0:
            raise TruncationLoss("window lost in embedding")
        return Series(frame, out, self.q_order, window)

    def map_coeffs(self, fn):
        """Apply ``fn`` to every stored coefficient: the rational constant and each
        symbol's rational coefficient, one by one.  ``fn`` must be a linear map of
        the coefficients (negation, a rational scale or quotient) or ``exact``."""
        slices = {W: PackedSlice((k, v) for k, v in zip(s, map(fn, s.values())) if v)
                  for W, s in self.slices.items()}
        return Series._from_slices(self.frame, slices, self.q_order, self.window)

    def with_q_order(self, q_order):
        """Restrict to a smaller truncation order."""
        q_order = _as_order(q_order)
        if self.q_order is not None and q_order is not None and q_order > self.q_order:
            raise TruncationLoss("cannot raise the truncation order of a computed series")
        return Series._from_slices(self.frame, self.slices, q_order, self.window)

    def truncated(self, q_order):
        """Restrict to at most the given order, keeping a smaller computed one."""
        q_order = _as_order(q_order)
        if self.q_order is not None and (q_order is None or q_order > self.q_order):
            q_order = self.q_order
        return Series._from_slices(self.frame, self.slices, q_order, self.window)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {
            "vars": list(self.frame.names),
            "denoms": list(self.frame.denoms),
            "weights": list(self.frame.weights),
            "q_order": None if self.q_order is None else str(self.q_order),
            "p_window": None
            if self.window is None
            else {"lo": self.window.lo, "hi": self.window.hi, "floored": self.window.floored},
            "terms": [
                {"exp": list(e), "coef": coeff_to_json(c)} for e, c in self.items_sorted()
            ],
        }

    def dumps(self, indent=None):
        return json_text(self.to_json_dict(), indent)

    @classmethod
    def from_json_dict(cls, obj):
        frame = Frame(obj["vars"], obj["denoms"], obj.get("weights") or [0] * len(obj["vars"]))
        w = obj.get("p_window")
        window = None if w is None else Window(w["lo"], w["hi"], w.get("floored", False))
        terms = {tuple(t["exp"]): coeff_entries_from_json(t["coef"]) for t in obj["terms"]}
        return cls(frame, terms, obj.get("q_order"), window)

    @classmethod
    def loads(cls, text):
        return cls.from_json_dict(json.loads(text))

    def __repr__(self):
        frame = self.frame
        bits = []
        for e, c in self.items_sorted()[:8]:
            mono = []
            for i, name in enumerate(frame.names):
                if e[i]:
                    x = Fraction(e[i], frame.denoms[i])
                    mono.append(f"{name}^{x}" if x != 1 else name)
            cs = repr(c) if isinstance(c, LinExpr) else str(c)
            bits.append(f"({cs})·{'·'.join(mono)}" if mono else f"({cs})")
        if len(self.terms) > 8:
            bits.append(f"...[{len(self.terms)} terms]")
        tail = "" if self.q_order is None else f" + O(wt {self.q_order})"
        win = "" if self.window is None else f" {self.window!r}"
        return f"Series[{','.join(frame.names)}]({' + '.join(bits) or '0'}{tail}{win})"


def json_text(obj, indent=None):
    """Exactly ``json.dumps(obj, indent=indent, sort_keys=True)``.

    With an ``indent`` the standard library leaves its C encoder for a
    generator-based one; this writer is one recursive function that appends
    to one list, escapes strings with the C helper of :mod:`json` and joins a
    list of plain ints in one step, as the ``"exp"`` lists are.  Every other
    value -- floats, bools, ``None``, empty containers, tuples, subclasses and
    dicts with a non-``str`` key -- is written by ``json.dumps`` and indented
    to its depth, so the text is the same byte for byte.
    """
    if indent is None:
        return json.dumps(obj, sort_keys=True)
    if not isinstance(indent, str):
        indent = " " * indent
    out = []
    _write_json(obj, out, "\n", indent)
    return "".join(out)


_INT_ONLY, _STR_ONLY = {int}, {str}


def _write_json(obj, out, nl, step):
    """Append the text of ``obj`` at the depth whose line break is ``nl``."""
    t = type(obj)
    if t is str:
        out.append(_json_str(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is list and obj:
        inner = nl + step
        if set(map(type, obj)) == _INT_ONLY:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
            return
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _write_json(x, out, inner, step)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict and obj and set(map(type, obj)) == _STR_ONLY:
        inner = nl + step
        sep = "{" + inner
        for k, v in sorted(obj.items()):  # keys are distinct: sorted by key alone
            if type(v) is str:
                out.append(sep + _json_str(k) + ": " + _json_str(v))
            else:
                out.append(sep + _json_str(k) + ": ")
                _write_json(v, out, inner, step)
            sep = "," + inner
        out.append(nl + "}")
    else:
        # a JSON string holds no raw line break, so each one is a new line
        out.append(json.dumps(obj, indent=step, sort_keys=True).replace("\n", nl))


def _negated(s):
    """A new slice holding the negated entries of ``s``."""
    return PackedSlice(zip(s, map(neg, s.values())))


def _coerce_coeff(x):
    return x if (is_rational(x) or isinstance(x, LinExpr)) else rat(x)


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _mul_order(f, g):
    cands = []
    if f.q_order is not None:
        cands.append(f.q_order + (g.wmin() or 0))
    if g.q_order is not None:
        cands.append(g.q_order + (f.wmin() or 0))
    return min(cands) if cands else None


def _p_reach(f, empty=None):
    """``(floor, top)`` of ``f`` in p: those of its window, or for a p-exact
    series its least p-exponent (``empty`` when it has no terms) and no top."""
    if f.window is not None:
        return f.window.lo, f.window.hi
    ps = f.p_support()
    return (empty if ps is None else ps[0]), None


def _window_add(f, g):
    """The floor is the least floor or exact p-exponent, the top the least top."""
    if f.window is None and g.window is None:
        return None
    reach = (_p_reach(f), _p_reach(g))
    lo = min(x for x, _ in reach if x is not None)
    hi = min(t for _, t in reach if t is not None)
    return Window(lo, hi, True)


def _window_mul(f, g):
    """Floors add, and each top moves up by the other operand's floor (an
    empty p-exact operand has floor 0)."""
    if f.window is None and g.window is None:
        return None
    (fl, ft), (gl, gt) = _p_reach(f, 0), _p_reach(g, 0)
    hi = min(t + x for t, x in ((ft, gl), (gt, fl)) if t is not None)
    return Window(fl + gl, hi, True)


def _euler_solve(frame, kernel, seed, finish, first, top, keys=(None, None), solved=None, mirror=False):
    """``S_W = finish(W, seed_W + sum_l K_l * S_{W-l})`` for ascending W in first..top.

    ``kernel`` lists packed ``(l, K_l)``, ascending in ``l > 0``; ``seed``
    maps weights to ``{key: coefficient}`` dicts (read, never changed, so a
    series' stored slices may seed it); ``solved`` holds slices known
    beforehand.  Products run through ``madd`` cut to the p-key
    range ``keys``.  Returns the nonempty slices as ``{W: PackedSlice}``.

    ``mirror`` (with an empty ``seed``, no ``keys`` and even ``solved``
    slices) asks for the half path.  At the first step wide enough for it
    (:data:`_HALF_MIN_PAIRS` term pairs for an average kernel slice times
    the last solved slice) the kernel's parity under ``rho`` is read; if the
    kernel is even, so is every product ``K_l * S_{W-l}``, and each wide
    step collects the keys at or above the center ``c_W`` and fills the rest
    by reflection before ``finish``, which must act key by key (see
    :func:`_parity`).

    Only the weights that can hold a slice are visited: every ``K_l`` has
    ``l`` a multiple of ``g``, the gcd of the kernel weights, so a solved
    weight is congruent mod ``g`` to a seed or beforehand-solved weight
    (see :func:`_reachable`).  A step that would multiply a symbol-carrying
    ``K_l`` by a symbol-carrying ``S_{W-l}`` raises
    :class:`enrq.ring.SymbolDegreeOverflow`.
    """
    solved = dict(solved or {})
    low = min(solved, default=first)
    kernel = [(l, k, k.symbolic()) for l, k in kernel]
    wide = _HALF_MIN_PAIRS * len(kernel)
    kernel_terms = sum(len(k) for _, k, _ in kernel)
    last = max(map(len, solved.values()), default=0)
    even = None if mirror else False  # None: the kernel's parity is not read yet
    for W in _reachable(first, top, gcd(*(l for l, _, _ in kernel)), seed.keys() | solved.keys()):
        acc = dict(seed.get(W, ()))
        half = kernel_terms * last >= wide
        if half and even is None:
            even = _parity(frame, {l: k for l, k, _ in kernel}) == 1
        half = half and even
        cut = (_center(frame, W), None) if half else keys
        for l, k, ksym in kernel:
            if W - l < low:
                break
            s = solved.get(W - l)
            if s:
                if ksym and s.symbolic():
                    raise SymbolDegreeOverflow(f"solve step {W}: symbol-carrying kernel slice {l} "
                                               f"times a symbol-carrying slice")
                a, b = (k, s) if len(k) <= len(s) else (s, k)
                madd(acc, a, b, frame.base, *cut)
        if half:
            _mirror(acc, cut[0], 1)
        if acc:
            out = finish(W, acc)
            if out:
                solved[W] = PackedSlice(out)
                last = len(out)
    return solved


def _center(frame, W):
    """``c_W``: the key of the monomial of weight W with only its weighted variable nonzero."""
    i = frame.q_index
    return frame.base + ((W // frame.wnum[i]) << frame.shifts[i])


# The half path skips about half of the term pairs of each slice product, but
# it checks every stored slice of both operands and reflects every output
# slice: it pays only when an average slice product has at least this many
# term pairs.  Timed product by product (2-core Xeon, Python 3.11), the
# narrower products of the perverse-identity and cli-session workloads in
# perfbench ran slower on the half path than on the full one.
_HALF_MIN_PAIRS = 64


def _product_parity(frame, f, g):
    """The parity under ``rho`` of the product of the ``{W: PackedSlice}``
    slices ``f`` and ``g`` if both have one (:func:`_parity`) and an average
    slice product has at least :data:`_HALF_MIN_PAIRS` term pairs, else 0."""
    if frame.q_index < 0 or (sum(map(len, f.values())) * sum(map(len, g.values()))
                             < _HALF_MIN_PAIRS * len(f) * len(g)):
        return 0
    sign = _parity(frame, f)
    return sign and sign * _parity(frame, g)


def _parity(frame, slices):
    """+1 (-1) when the ``{W: PackedSlice}`` slices are even (odd) under ``rho``, else 0.

    In a frame whose only weighted variable is ``q`` (``frame.q_index``),
    ``rho`` negates every other exponent; on the slice of weight W it is the
    key map ``k -> 2 c_W - k`` (:func:`_center`).  The slices are even (odd)
    when every entry's image is stored with the same (negated) value.  A
    symbol entry or a coefficient other than an ``int`` gives 0: a sum of
    ``Fraction`` products takes its type from the order of summation, which
    a reflected half would not repeat.  A product of operands of parities
    ``a`` and ``b`` has parity ``a * b``, and an odd one an empty center.
    """
    if frame.q_index < 0:
        return 0
    sign = 0
    for W, s in slices.items():
        vals = list(s.values())
        if not _INT_ONLY.issuperset(map(type, vals)) or s.symbolic():
            return 0
        image = list(map(s.get, map((2 * _center(frame, W)).__sub__, s)))
        t = 1 if image == vals else -1 if image == list(map(neg, vals)) else 0
        if not t or (sign and t != sign):
            return 0
        sign = t
    return sign


def _mirror(acc, center, sign):
    """Fill a slice that holds its keys at or above ``center`` with their
    ``rho``-images: ``acc[2 center - k] = sign * acc[k]``."""
    vals = list(acc.values() if sign > 0 else map(neg, acc.values()))
    acc.update(zip(map((2 * center).__sub__, list(acc)), vals))


def _reachable(first, top, g, starts):
    """The weights in ``first..top``, ascending, congruent mod ``g`` to one of
    ``starts``: a kernel whose weights are multiples of ``g`` reaches no other
    (``g = 0``, an empty kernel, leaves ``starts`` alone)."""
    if not g:
        return sorted(W for W in starts if first <= W <= top)
    return sorted(W for r in {W % g for W in starts} for W in range(first + (r - first) % g, top + 1, g))


def _qdiv_by_weight(W, acc):
    return {k: qdiv(c, W) for k, c in acc.items()}


def _divide_by_weight(W, acc):
    """``acc / W`` for int coefficients that the weight must divide."""
    out = {}
    for k, c in acc.items():
        quo, rem = divmod(c, W)
        if rem:
            raise InexactDivision(f"Euler recurrence: {c} not divisible by weight {W}")
        out[k] = quo
    return out


def _power_window(frame, window, n):
    """Window contract of exp and log, with ``n`` factors of the argument under the cut.

    On a floor ``lo <= 0`` every product is cut to ``[n*lo, hi]`` and the
    result declares ``Window((n+1)*lo, hi + n*lo, True)``, where the cut
    products are exact (for ``lo = 0`` that is the window as given).  A
    floor above 0 would lie above the constant term and raises
    :class:`WindowUnderflow`.  Returns the declared window and the p-key
    range of the cut.
    """
    if window is None:
        return None, (None, None)
    if window.lo > 0:
        raise WindowUnderflow(f"exp/log of a p-windowed series needs a floor <= 0, got {window!r}")
    lo = n * window.lo
    declared = Window(lo + window.lo, window.hi + lo, True)
    return declared, _p_keys(frame, lo, window.hi)


def divide_exact(num, den):
    """Solve ``num = den * g`` by graded recursion with exact slice division.

    Succeeds only when every slice division is remainder-free; the divisor's
    leading slice must be symbol-free and supported on a line in exponent
    space (monomials, binomials such as u - 1/u, quantum integers, theta
    zero-modes all qualify).

    With ``D_l`` the weight-``l`` slice of ``den`` and ``wd`` its least weight,
    slice ``W`` of ``num = den * g`` reads

        D_wd * g_{W-wd} = num_W - sum_{l > wd} D_l * g_{W-l},

    solved for ascending W by :func:`_euler_solve`.  Field guard: every
    exponent of the solve is at most ``A_num + A_0 + J * (A_den + A_0)`` in
    each variable, with ``A`` the operand maxima (``A_0`` over ``D_wd``) and
    ``J`` the number of steps of ``den``'s weight gap that fit in the
    quotient's weight range, except that a frame's only weighted variable is
    bounded by the solve's weight range over its ``wnum``.  For a
    non-monomial ``D_wd`` the class labels of the line division move a
    variable by up to ``(M + 1) * span``, with ``span`` the extent of
    ``D_wd`` in that variable and ``M`` the largest bound over the variables
    that ``D_wd`` spans.
    """
    if isinstance(den, Series) and isinstance(num, Series):
        num._check_frame(den)
    if num.window is not None or den.window is not None:
        raise WindowUnderflow("exact division requires p-exact operands")
    if not den.slices:
        raise InexactDivision("division by the zero series")
    frame = num.frame
    wds = next(iter(den.slices))
    wd = Fraction(wds, frame.wden)
    if den.slices[wds].symbolic():
        raise InexactDivision("divisor leading slice carries symbols")
    d0 = _unpack(frame, den.slices[wds])
    cands = []
    if num.q_order is not None:
        cands.append(num.q_order - wd)
    if den.q_order is not None:
        cands.append(den.q_order - 2 * wd + (num.wmin() or 0))
    q_out = min(cands) if cands else None
    if not num.slices:
        return Series._from_slices(frame, {}, q_out)
    bound = None if q_out is None else q_out + wd  # keep remainder below this weight
    ns = num.slices
    wmin_num = next(iter(ns))
    # With two exact operands the quotient must itself be finite: its top
    # weight cannot exceed wmax(num) - wmax(den), so anything deeper means a
    # nonterminating (hence inexact) division, and no remainder slice lies
    # above wmax(num).
    exact_top = None
    if bound is None:
        wtop = max(ns)
        exact_top = wtop - max(den.slices)
    else:
        wtop = _top(frame, bound)
    kernel = [(w - wds, PackedSlice({k: -c for k, c in t.items()}))
              for w, t in den.slices.items() if w != wds]

    a_num, a_den, a_0 = (_amax(frame, x) for x in (ns, den.slices, {wds: den.slices[wds]}))
    steps = max(0, wtop - wmin_num) // kernel[0][0] if kernel else 0
    bounds = [n + z + steps * (d + z) for n, d, z in zip(a_num, a_den, a_0)]
    weighted = [i for i, w in enumerate(frame.wnum) if w]
    if len(weighted) == 1:
        # the weights of num, product (W) and quotient slices (W - wd) fix e_i
        (i,) = weighted
        reach = max(abs(w) for w in (wmin_num, wtop, wmin_num - wds, wtop - wds))
        bounds[i] = max(a_num[i], reach // frame.wnum[i])
    if len(d0) > 1:
        # a class label moves each variable by m * delta_i, |m| <= M + 1 and
        # |delta_i| <= the span of D_wd in that variable
        span = [max(col) - min(col) for col in zip(*d0)]
        m = max(b for b, w in zip(bounds, span) if w) + 1
        bounds = [b + m * w for b, w in zip(bounds, span)]
    _guard(frame, map(max, bounds, a_den), "division")
    if wtop < wmin_num:
        return Series._from_slices(frame, {}, q_out)

    divide = _slice_divider(frame, d0)

    def finish(W, rhs):
        if exact_top is not None and W - wds > exact_top:
            raise InexactDivision("quotient of exact series does not terminate")
        return divide(rhs)

    quo = _euler_solve(frame, kernel, ns, finish, wmin_num, wtop)
    # the slice solved at product weight W is the quotient's slice of weight W - wds
    return Series._from_slices(frame, {W - wds: s for W, s in quo.items()}, q_out)


def _slice_divider(frame, dslice):
    """Exact division of packed slices by a line-supported tuple-keyed slice.

    Returns ``divide(nslice) -> quotient``, both ``{packed key: coefficient}``.
    Writing the divisor as ``sum_k d_k x^(e0 + k*delta)``, each numerator
    term falls in the class of ``e - m*delta`` with ``m = floor(e_c / delta_c)``
    (``c`` the first variable that ``delta`` moves); on packed keys that
    label is ``key - m * key(delta)``, and each class is a univariate long
    division from its top down.
    """
    if len(dslice) == 1:
        ((e0, c0),) = dslice.items()
        k0 = _offset(frame, e0)
        return lambda nslice: {k - k0: qdiv(c, c0) for k, c in nslice.items()}
    exps = sorted(dslice)
    e0 = exps[0]
    delta = tuple(exps[1][i] - e0[i] for i in range(frame.nvars))
    g = 0
    for x in delta:
        g = gcd(g, abs(x))
    delta = tuple(x // g for x in delta)
    c = next(i for i, x in enumerate(delta) if x)
    if delta[c] < 0:
        delta = tuple(-x for x in delta)
    dc = delta[c]
    duni = {}
    for e in exps:
        k, rem = divmod(e[c] - e0[c], dc)
        if rem or tuple(e0[i] + k * delta[i] for i in range(frame.nvars)) != e:
            raise InexactDivision("divisor leading slice is not supported on a line")
        duni[k] = dslice[e]
    kd_max, kd_min = max(duni), min(duni)
    lead = duni[kd_max]
    k0, kdelta, sc = _offset(frame, e0), _offset(frame, delta), frame.shifts[c]

    def divide(nslice):
        classes = {}
        for kn, coef in nslice.items():
            m = (((kn >> sc) & FIELD_MASK) - BIAS) // dc
            classes.setdefault(kn - m * kdelta, {})[m] = coef
        out = {}
        for rep, nuni in classes.items():
            m_min = min(nuni) - kd_min
            quo = {}
            while nuni:
                km = max(nuni)
                m = km - kd_max
                if m < m_min:
                    raise InexactDivision("nonzero remainder in an exact variable")
                qc = qdiv(nuni[km], lead)
                quo[m] = qc
                for k, dcf in duni.items():
                    pos = m + k
                    v = nuni.get(pos, 0) - qc * dcf
                    if v:
                        nuni[pos] = v
                    else:
                        nuni.pop(pos, None)
            for m, qc in quo.items():
                out[rep - k0 + m * kdelta] = qc
        return out

    return divide


def exp_series(f):
    """Ordinary formal exponential; the argument needs strictly positive weights.

    ``E = exp f`` is solved by :func:`_euler_solve` like a product: the
    weighted Euler operator ``D`` gives ``DE = Df * E``, so slice by slice

        W * E_W = sum_{l <= W} l * f_l * E_{W-l},    E_0 = 1.

    Each coefficient is an ``int`` while integral, else an exact rational.
    Window contract: :func:`_power_window`, with ``N`` the largest n such
    that ``n * wmin(f)`` is below the truncation order.
    """
    if f.slices and (f.wmin() or 0) <= 0:
        raise BadConstantTerm("exp argument must have strictly positive weight")
    if f.slices and f.q_order is None:
        raise BadConstantTerm("exp of an exact series is infinite; set a truncation order")
    frame, target = f.frame, f.q_order
    if not f.slices:
        return Series.one(frame, target, _power_window(frame, f.window, 0)[0])
    top = _top(frame, target)
    fs = f.slices
    _guard(frame, _cut_bounds(frame, ((_amax(frame, {l: t}), l) for l, t in fs.items()), top), "exp")
    window, keys = _power_window(frame, f.window, top // min(fs))
    kernel = [(l, PackedSlice({k: l * c for k, c in t.items()})) for l, t in fs.items()]
    slices = _euler_solve(frame, kernel, {}, _qdiv_by_weight, 1, top, keys,
                          {0: PackedSlice({frame.base: 1})})
    return Series._from_slices(frame, slices, target, window)


def _log_derivative(f):
    """``DL`` for ``L = log f``, by the recurrence of :func:`log_series`.

    Returns ``({W: (DL)_W}, q_order, window)``: the solved slices, not yet
    cut to the window, and the truncation order and window of ``L``.  For an
    integral ``f`` every coefficient is an ``int``.
    """
    frame = f.frame
    if [(W, s) for W, s in f.slices.items() if W <= 0] != [(0, {frame.base: 1})]:
        raise BadConstantTerm("log argument must have constant slice 1")
    h = f - 1
    if h.slices and h.q_order is None:
        raise BadConstantTerm("log of an exact series is infinite; set a truncation order")
    target = h.q_order
    if not h.slices:
        return {}, target, _power_window(frame, f.window, 0)[0]
    top = _top(frame, target)
    hs = h.slices  # F - 1 by scaled weight, every weight > 0
    _guard(frame, _cut_bounds(frame, ((_amax(frame, {l: t}), l) for l, t in hs.items()), top), "log")
    window, keys = _power_window(frame, f.window, top // min(hs))
    kernel = [(l, PackedSlice({k: -c for k, c in t.items()})) for l, t in hs.items()]
    seed = {l: {k: l * c for k, c in t.items()} for l, t in hs.items()}
    return _euler_solve(frame, kernel, seed, lambda W, acc: acc, min(hs), top, keys), target, window


def log_series(f, mobius=None):
    """Ordinary formal logarithm; the constant slice must be exactly 1.

    ``L = log F`` is solved graded slice by graded slice with the weighted
    Euler operator ``D = sum_i w_i x_i d/dx_i`` (weights in the frame's
    scaled units).  The derivation property gives ``F * DL = DF``, and with
    ``F_0 = 1`` that reads, slice by slice,

        (DL)_W = W * F_W - sum_{wmin <= l <= W - wmin} F_l * (DL)_{W-l},
        L_W = (DL)_W / W,

    where wmin is the least weight of ``F - 1`` (Brent and Kung, "Fast
    algorithms for manipulating formal power series", J. ACM 25 (1978);
    Knuth, TAOCP vol. 2, section 4.7), run by :func:`_euler_solve`.
    Coefficients are exact rationals and the truncation order is that of
    ``F``.  Window contract: :func:`_power_window`, with ``N`` the largest n
    such that ``n * wmin`` is below the truncation order.  Where a power of
    the windowed series ``sum (-1)^(n+1) (F-1)^n / n`` vanishes before the
    weight cut, that series claims a wider window, whose extra columns can
    hold wrong zeros; this result agrees with it on the narrower window.

    With ``mobius``, the Moebius function ``k -> mu(k)``, the result is the
    plethystic logarithm ``sum_k mu(k)/k adams_k(L)`` (see
    :func:`enrq.qfunc.plethystic_log`), summed over the k with
    ``k * wmin(L)`` below the order, as :func:`_plethystic_log` reads it.
    """
    frame = f.frame
    dl, target, window = _log_derivative(f)
    if mobius is not None:
        return _plethystic_log(frame, _cut(frame, dl, target, window), target, window, mobius)
    slices = {}
    for W, s in dl.items():
        inv = rat(1, W)  # L_W = (DL)_W / W
        slices[W] = PackedSlice({k: c * inv for k, c in s.items()})
    return Series._from_slices(frame, slices, target, window)


def _plethystic_log(frame, dl, q_order, window, mobius):
    """``P = sum_k mu(k)/k adams_k(L)`` from the cut slices ``dl`` of ``DL``.

    ``D adams_k(L) = k adams_k(DL)``, so ``(DP)_W = sum_k mu(k) adams_k(DL)_W``:
    the Moebius sum adds the packed Adams images into the coefficients as they
    come (all ``int`` for an integral argument), and each slice is divided
    once by its weight with :func:`enrq.ring.qdiv`, a coefficient kept an
    ``int`` while integral.  ``P`` has the order of ``L``; its window is the
    sum's, lowest floor and lowest top over the ``k * window`` summed.
    """
    if not dl:
        return Series._from_slices(frame, {}, q_order, window)
    top = _top(frame, q_order)
    ks = [(k, m) for k in range(1, top // min(dl) + 1) if (m := mobius(k))]
    _guard(frame, [ks[-1][0] * a for a in _amax(frame, dl)], "adams")
    sums = {}
    for k, m in ks:
        for W, s in dl.items():
            if k * W > top:
                break
            acc = sums.setdefault(k * W, {})
            for key, c in (_adams_slice(frame, s, k) if k > 1 else s).items():
                acc[key] = acc.get(key, 0) + m * c
    slices = {}
    for W, acc in sums.items():
        out = {}
        for key, c in acc.items():
            if c:
                c = qdiv(c, W)
                out[key] = c if type(c) is int or c.denominator != 1 else c.numerator
        slices[W] = PackedSlice(out)
    if window is not None:
        window = Window(min(k * window.lo for k, _ in ks), min(k * window.hi for k, _ in ks), True)
    return Series._from_slices(frame, slices, q_order, window)


def product_expand(frame, factors, q_order, window=None):
    """Expand ``F = prod (1 - m)^e`` exactly to the given truncation order.

    ``factors`` yields single factors ``(monomial, exponent)`` for
    ``(1 - m)^e`` and factor families ``(monomial, exponent, step)`` for the
    infinite product ``prod_{k>=0} (1 - m*step^k)^e``.  Monomials and steps
    are {name: exponent} mappings or pre-scaled tuples; every factor and
    every step has strictly positive weight (else
    :class:`NonConvergentFactor`), and exponents are ints or exact
    rationals.  This is the one place that decides the truncation cut: a
    factor or family member of weight >= q_order is dropped, and a family
    is enumerated only while its members fall below the order.  A factor of
    exponent 0 is 1: once its first member is checked like any other, the
    factor or family is dropped without enumerating the rest.  A kept
    member whose own exponent leaves a packed field raises
    :class:`FieldOverflow` at once, before the rest of its family.

    F is solved graded slice by graded slice with the weighted Euler operator
    ``D = sum_i w_i x_i d/dx_i`` (weights in the frame's scaled units, so a
    monomial of scaled weight W is an eigenvector with eigenvalue W).  With
    ``A = log F = -sum e sum_k m^k / k`` the derivation property gives
    ``D F = DA * F``, i.e. slice by slice

        W * F_W = sum_{l <= W} (DA)_l * F_{W-l},    F_0 = 1,

    where ``DA = -sum e * w(m) * sum_k m^k``, run by :func:`_euler_solve`
    (Brent and Kung, "Fast algorithms for manipulating formal power series",
    J. ACM 25 (1978); Knuth, TAOCP vol. 2, section 4.7).  For integer
    exponents every division by W is exact, so every coefficient is an
    ``int``; otherwise the divisions go through :func:`enrq.ring.qdiv`.
    Without a window, an even ``DA`` (a factor list closed under the
    inversion ``rho``, integer exponents) makes ``F`` even, and once its
    slices are wide the solve collects half of each and reflects the rest
    (see :func:`_parity`).

    Window contract: the only accepted p-window is ``Window(0, hi, True)``
    with every kept factor of p-exponent >= 0.  All products then stay at
    p >= 0, so dropping p > hi is exact and the window is returned as given.
    Any other window raises :class:`WindowUnderflow`.
    """
    q_order = _as_order(q_order)
    if q_order is None:
        raise ValueError("product_expand needs a finite truncation order")
    pi, hi = -1, 0
    if window is not None:
        if not window.floored or window.lo != 0:
            raise WindowUnderflow(
                f"product_expand needs a p-window floored at 0, got {window!r}"
            )
        pi, hi = frame.p_index, window.hi
    top = _top(frame, q_order)
    kept = []  # (scaled exponents, scaled weight, exponent) below the cut
    for mono, e, *family in factors:
        exps = _scaled(frame, mono)
        step = _scaled(frame, family[0]) if family else None
        if step is not None and frame.weight_scaled(step) <= 0:
            raise NonConvergentFactor(f"factor family {mono} has a step of weight <= 0")
        x = exact(e) if is_rational(e) else None
        while True:
            ws = frame.weight_scaled(exps)
            if ws <= 0:
                raise NonConvergentFactor(f"factor exponent {mono} has weight <= 0")
            if ws > top:
                break
            if pi >= 0 and exps[pi] < 0:
                raise WindowUnderflow(
                    f"factor {mono} has a negative p-exponent under the floored window {window!r}"
                )
            if x is None:
                raise TypeError(f"factor exponent {e!r} is not an exact rational")
            if not x:
                break  # (1 - m)^0 = 1: the factor, or its whole family, is dropped
            _guard(frame, map(abs, exps), "product_expand")
            kept.append((exps, ws, x))
            if step is None:
                break
            exps = tuple(map(add, exps, step))
    if not kept:
        # the empty product, built exactly as Series.one builds it
        return Series.one(frame, q_order, window)
    if hi < 0:
        # the window excludes p^0, so even the constant term is cut
        return Series._from_slices(frame, {}, q_order, window)
    _guard(frame, _cut_bounds(frame, ((x, ws) for x, ws, _ in kept), top), "product_expand")
    base = frame.base
    # DA grouped by scaled weight: {l: {packed key: coefficient}}, m^k kept while p^k <= hi
    da = {}
    for exps, ws, e in kept:
        offset = _offset(frame, exps)
        kmax = top // ws if pi < 0 or not exps[pi] else min(top // ws, hi // exps[pi])
        for k in range(1, kmax + 1):
            slot, ek = da.setdefault(k * ws, {}), base + k * offset
            slot[ek] = slot.get(ek, 0) - e * ws
    keys = _p_keys(frame, 0, hi) if pi >= 0 else (None, None)
    kernel = [(l, PackedSlice({k: c for k, c in t.items() if c})) for l, t in sorted(da.items())]
    integral = all(type(e) is int for _, _, e in kept)
    slices = _euler_solve(frame, kernel, {}, _divide_by_weight if integral else _qdiv_by_weight,
                          1, top, keys, {0: PackedSlice({base: 1})}, mirror=pi < 0)
    return Series._from_slices(frame, slices, q_order, window)


def agree(a, b):
    """Compare two series on the common guaranteed-valid region.

    Returns (True, None) or (False, info) with the first mismatch.  The
    stored entries are compared one by one; ``info`` rebuilds the two
    coefficients of the first mismatching monomial and counts the
    mismatching monomials.
    """
    if a.frame != b.frame:
        return False, {"reason": "frame mismatch"}
    frame = a.frame
    top = _top(frame, _min_order(a.q_order, b.q_order))
    tops = [_p_keys(frame, 0, w.hi)[1] for w in (a.window, b.window) if w is not None]
    hi = min(tops, default=None)  # keys at or above it lie above a window
    mismatches = {}  # monomial key (symbol field cleared) -> weight
    for W in a.slices.keys() | b.slices.keys():
        sa, sb = a.slices.get(W, {}), b.slices.get(W, {})
        if (top is not None and W > top) or sa == sb:
            continue
        for k in sa.keys() | sb.keys():
            if (hi is None or k < hi) and sa.get(k, 0) != sb.get(k, 0):
                mismatches[k & ~FIELD_MASK] = W
    if not mismatches:
        return True, None
    e, k = min(_unpack(frame, {k: k for k in mismatches}).items(), key=lambda m: m[0])
    W = mismatches[k]
    ca, cb = (_coefficient_at(k, x.slices.get(W, {})) for x in (a, b))
    mono = {n: str(Fraction(e[i], frame.denoms[i])) for i, n in enumerate(frame.names) if e[i]}
    return False, {
        "monomial": mono,
        "left": coeff_to_json(ca),
        "right": coeff_to_json(cb),
        "count": len(mismatches),
    }


def signed_cells(series):
    """Grid cells ``{(i, j): (-1)^(i+j) c}``, ``c`` the coefficient of ``x^i y^j``.

    A frame of other than two variables on the 1/2 lattice, or a
    half-integral exponent, raises ``ValueError``.  The sign goes on each
    stored number before :func:`_gather` builds a cell: ``BIAS`` is 0 mod 4,
    so bit 0 of a packed field is the parity of the scaled exponent, bit 1 that of i (j).
    """
    frame = series.frame
    if frame.denoms != (2, 2):
        raise ValueError(f"a perverse-Hodge grid reads two variables on the 1/2 lattice, not {frame!r}")
    half = sum(1 << sh for sh in frame.shifts)
    cells = {}
    for s in series.slices.values():
        gathered = _gather(s, half << 1)
        if any(map(half.__and__, gathered)):
            raise ValueError("half-integral exponent in a perverse-Hodge grid slice")
        keys = list(gathered)
        cols = [[((k >> sh & FIELD_MASK) - BIAS) >> 1 for k in keys] for sh in frame.shifts]
        cells.update(zip(zip(*cols), gathered.values()))
    return cells


def _coefficient_at(k, s):
    """The coefficient of the monomial key ``k`` in the slice ``s``, symbols gathered."""
    return _gather({x: c for x, c in s.items() if (x & ~FIELD_MASK) == k}).get(k, 0)
