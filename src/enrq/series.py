"""Truncated multivariate Laurent series over exact coefficients.

Coefficients follow :mod:`enrq.ring`: an ``int`` while integral, otherwise a
``Fraction``/mpq or a ``LinExpr`` over those, never a float; every
coefficient division goes through :func:`enrq.ring.qdiv`.

Exponents live on a fixed fractional lattice: each variable has an integer
denominator (q carries 1/24 steps for eta prefactors, the others 1/2 steps
for half-integer powers) and exponents are stored scaled by it.  Truncation
is graded: every variable has an integer weight and a series holds all
coefficients of weighted degree strictly below its cutoff ``q_order``.  The
box-counting variable ``p``, when it carries weight 0, may instead have a
per-slice validity window for geometric directions (see :class:`Window`).

Series are immutable values; all operations return new objects.
``Series.terms`` maps exponent tuples to coefficients.

Products and the graded solves (``Series.__mul__``, :func:`divide_exact`,
:func:`product_expand`, :func:`log_series`) run on packed keys: each
operand is split into weight slices and packed once, every step multiplies
one weight slice by one weight slice with :func:`enrq.kernel.madd` into the
accumulator of their summed weight (the truncation cut is the loop bound),
and the result is unpacked once.  A key is one int of fixed-width biased
fields with ``p`` most significant (layout in :mod:`enrq.kernel`), so a
p-window is a key range.  Field guard: before the kernel runs, every
variable's exponent is bounded a priori -- by the sum of the operand maxima
for a product, and for a solve by the number of factors that fit under the
weight cut times the largest factor exponent (see :func:`_cut_bounds` and
:func:`divide_exact`) -- and :class:`FieldOverflow` is raised when a bound
reaches ``BIAS``, so a field never wraps into its neighbour.
"""

import json
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .kernel import BIAS, FIELD_BITS, FIELD_MASK, PackedSlice, madd
from .ring import LinExpr, coeff_from_json, coeff_to_json, is_rational, qdiv, rat

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
    "divide_exact",
    "exp_series",
    "log_series",
    "adams",
    "product_expand",
    "agree",
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


class Window(tuple):
    """p-exponent validity window, in scaled units.

    ``floored`` means the true series has no support below ``lo``; positions
    below the floor are then known zeros and only positions above ``hi`` are
    unknown.  Without the floor, positions outside [lo, hi] are unknown on
    both sides, and products of two such windows are unsound (they raise
    :class:`WindowUnderflow`).
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
        "names", "denoms", "weights", "nvars", "index", "p_index", "wden", "wnum", "shifts", "base",
        "_key",
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
        weighted = [self.denoms[i] for i in range(self.nvars) if self.weights[i]]
        self.wden = lcm(*weighted) if weighted else 1
        self.wnum = tuple(
            self.weights[i] * self.wden // self.denoms[i] for i in range(self.nvars)
        )
        # windowing applies to an unweighted variable named p
        i = self.index.get("p")
        self.p_index = i if (i is not None and self.weights[i] == 0) else -1
        # packed keys: p in the most significant field, the rest below in tuple order
        order = [j for j in range(self.nvars) if j != self.p_index]
        if self.p_index >= 0:
            order.append(self.p_index)
        shifts = [0] * self.nvars
        for pos, j in enumerate(order):
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

    def weight(self, e):
        return Fraction(self.weight_scaled(e), self.wden)

    def exp_of(self, e, name):
        i = self.index[name]
        return Fraction(e[i], self.denoms[i])

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
    if q_order is None:
        return None
    return q_order if isinstance(q_order, Fraction) else Fraction(q_order)


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
    return sum(x << sh for x, sh in zip(e, frame.shifts))


def _pack(frame, terms, graded=True):
    """Tuple-keyed terms as ``{scaled weight: {packed key: coefficient}}``.

    Ungraded, every term lands in the bucket of weight 0.
    """
    base, wnum = frame.base, frame.wnum
    out = {}
    for e, c in terms.items():
        k = base + _offset(frame, e)
        w = sum(map(mul, wnum, e)) if graded else 0
        bucket = out.get(w)
        if bucket is None:
            out[w] = {k: c}
        else:
            bucket[k] = c
    return out


def _unpack(frame, packed):
    """Tuple-keyed terms from one ``{packed key: coefficient}`` dict."""
    if not frame.nvars:
        return {(): c for c in packed.values()}
    keys = list(packed)
    cols = [[((k >> sh) & FIELD_MASK) - BIAS for k in keys] for sh in frame.shifts]
    return dict(zip(zip(*cols), packed.values()))


def _slices(frame, terms, graded):
    """``(weight, PackedSlice)`` pairs in ascending weight."""
    return [(w, PackedSlice(t)) for w, t in sorted(_pack(frame, terms, graded).items())]


def _p_keys(frame, lo, hi):
    """Packed-key range ``[lo_key, hi_key)`` of the terms with ``lo <= p <= hi``."""
    sh = frame.shifts[frame.p_index]
    return (lo + BIAS) << sh, (hi + 1 + BIAS) << sh


def _amax(terms):
    """Largest |scaled exponent| of each variable over tuple-keyed ``terms``."""
    return [max(map(abs, col)) for col in zip(*terms)]


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


def _guard(frame, bounds, op):
    """Raise :class:`FieldOverflow` unless every per-variable bound fits a field."""
    for name, b in zip(frame.names, bounds):
        if b >= BIAS:
            raise FieldOverflow(
                f"{op}: scaled exponent of {name} may reach {b}; a packed field holds |e| < {BIAS}"
            )


class Series:
    """A truncated Laurent series: sparse terms plus truncation state."""

    __slots__ = ("frame", "terms", "q_order", "window")

    def __init__(self, frame, terms=None, q_order=None, window=None, _clean=False):
        self.frame = frame
        self.q_order = _as_order(q_order)
        self.window = window
        if window is not None and frame.p_index < 0:
            raise ValueError("window on a frame without an unweighted p variable")
        if _clean:
            self.terms = terms if terms is not None else {}
            return
        kept = {}
        bn, bd = _bounds(frame, self.q_order)
        pi = frame.p_index if window is not None else -1
        for e, c in (terms or {}).items():
            if not c:
                continue
            e = tuple(e)
            if len(e) != frame.nvars:
                raise ValueError("exponent arity mismatch")
            if bd and frame.weight_scaled(e) * bd >= bn:
                continue
            if pi >= 0:
                pe = e[pi]
                if pe > window.hi:
                    continue
                if pe < window.lo:
                    if window.floored:
                        raise ValueError("term below declared window floor")
                    continue
            kept[e] = c
        self.terms = kept

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, frame, q_order=None, window=None):
        return cls(frame, {}, q_order, window, _clean=True)

    @classmethod
    def const(cls, frame, value, q_order=None, window=None):
        value = value if (is_rational(value) or isinstance(value, LinExpr)) else rat(value)
        t = {frame.zero_exp(): value} if value else {}
        return cls(frame, t, q_order, window)

    @classmethod
    def one(cls, frame, q_order=None, window=None):
        return cls.const(frame, 1, q_order, window)

    @classmethod
    def monomial(cls, frame, mono, coeff=1, q_order=None, window=None):
        coeff = coeff if (is_rational(coeff) or isinstance(coeff, LinExpr)) else rat(coeff)
        return cls(frame, {frame.exps(mono): coeff}, q_order, window)

    # -- inspection --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def wmin(self):
        """Minimal weighted degree of the support, or None when empty."""
        if not self.terms:
            return None
        return Fraction(min(map(self.frame.weight_scaled, self.terms)), self.frame.wden)

    def p_support(self):
        """(min, max) scaled p-exponent over the support, or None."""
        pi = self.frame.index.get("p")
        if pi is None or not self.terms:
            return None
        ps = [e[pi] for e in self.terms]
        return min(ps), max(ps)

    def has_symbols(self):
        return any(isinstance(c, LinExpr) for c in self.terms.values())

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def coeff(self, mono):
        """Coefficient of a fully specified monomial (validity-checked)."""
        e = self.frame.exps(mono)
        bn, bd = _bounds(self.frame, self.q_order)
        if bd and self.frame.weight_scaled(e) * bd >= bn:
            raise OutsideValidWindow(f"weight of {mono} is beyond the truncation order")
        if self.window is not None:
            pe = e[self.frame.p_index]
            if pe > self.window.hi or (not self.window.floored and pe < self.window.lo):
                raise OutsideValidWindow(f"p-exponent of {mono} outside {self.window!r}")
        return self.terms.get(e, 0)

    # -- arithmetic --------------------------------------------------------

    def _check_frame(self, other):
        if self.frame != other.frame:
            raise ValueError(f"frame mismatch: {self.frame!r} vs {other.frame!r}")

    def __add__(self, other):
        if isinstance(other, Series):
            self._check_frame(other)
            q_order = _min_order(self.q_order, other.q_order)
            window = _window_add(self, other)
            t = dict(self.terms)
            for e, c in other.terms.items():
                v = t.get(e)
                v = c if v is None else v + c
                if v:
                    t[e] = v
                else:
                    t.pop(e, None)
            return Series(self.frame, t, q_order, window)
        if is_rational(other) or isinstance(other, LinExpr):
            return self + Series.const(self.frame, other, self.q_order, self.window)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Series(
            self.frame, {e: -c for e, c in self.terms.items()}, self.q_order, self.window, _clean=True
        )

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -_coerce_coeff(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check_frame(other)
            window = _window_mul(self, other)
            q_order = _mul_order(self, other)
            frame = self.frame
            if not self.terms or not other.terms:
                return Series(frame, {}, q_order, window, _clean=True)
            _guard(frame, map(add, _amax(self.terms), _amax(other.terms)), "product")
            top = _top(frame, q_order)
            fs = _slices(frame, self.terms, top is not None)
            gs = _slices(frame, other.terms, top is not None)
            lo = hi = None
            if window is not None:
                lo, hi = _p_keys(frame, window.lo, window.hi)
            acc = {}
            for wf, sf in fs:
                for wg, sg in gs:
                    w = wf + wg
                    if top is not None and w > top:
                        break
                    a, b = (sf, sg) if len(sf) <= len(sg) else (sg, sf)
                    madd(acc.setdefault(w, {}), a, b, frame.base, lo, hi)
            terms = {}
            for out in acc.values():
                terms.update(out)
            return Series(frame, _unpack(frame, terms), q_order, window, _clean=True)
        if is_rational(other) or isinstance(other, LinExpr):
            if not other:
                return Series.zero(self.frame, self.q_order, self.window)
            out = {}
            for e, c in self.terms.items():
                v = c * other
                if v:
                    out[e] = v
            return Series(self.frame, out, self.q_order, self.window, _clean=True)
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
        acc = Series.one(self.frame, self.q_order, None if self.window is None else self.window)
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
            return self.frame == other.frame and self.terms == other.terms
        if is_rational(other) or isinstance(other, LinExpr):
            if not other:
                return not self.terms
            return self.terms == {self.frame.zero_exp(): other}
        return NotImplemented

    # -- structural operations ---------------------------------------------

    def adams(self, k):
        """Raise every monomial to the k-th power; cutoffs scale along."""
        k = int(k)
        if k < 1:
            raise ValueError("adams index must be >= 1")
        if k == 1:
            return self
        terms = {tuple(x * k for x in e): c for e, c in self.terms.items()}
        q_order = None if self.q_order is None else self.q_order * k
        window = None if self.window is None else self.window.scaled(k)
        return Series(self.frame, terms, q_order, window, _clean=True)

    def invert(self):
        """Multiplicative inverse: ``divide_exact(1, self)`` below a unit monomial lead.

        Each coefficient is an ``int`` while integral and otherwise a
        ``Fraction``/mpq (or a ``LinExpr`` over those), never a float: the
        inverse of an integer series with lead coefficient +-1, such as
        ``eta(q)**4``, has only ``int`` coefficients.
        """
        if self.window is not None:
            raise WindowUnderflow("cannot invert a p-windowed series")
        if not self.terms:
            raise NonUnitLeadingTerm("zero series has no inverse")
        frame = self.frame
        w0s = min(map(frame.weight_scaled, self.terms))
        lead = [(e, c) for e, c in self.terms.items() if frame.weight_scaled(e) == w0s]
        if len(lead) != 1:
            raise NonUnitLeadingTerm(f"leading slice has {len(lead)} terms")
        (e0, c0), = lead
        if isinstance(c0, LinExpr):
            raise NonUnitLeadingTerm("leading coefficient carries symbols")
        if len(self.terms) == 1:
            inv_mono = {tuple(-x for x in e0): qdiv(1, c0)}
            if self.q_order is None:
                return Series(frame, inv_mono, None, None, _clean=True)
            w0 = Fraction(w0s, frame.wden)
            return Series(frame, inv_mono, self.q_order - 2 * w0, None, _clean=True)
        if self.q_order is None:
            raise NonUnitLeadingTerm(
                "inverse of a non-monomial exact series is an infinite series; set a truncation order"
            )
        return divide_exact(Series.one(frame), self)

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
        out = {}
        for e, c in self.terms.items():
            acc = {n: Fraction(e[frame.index[n]], frame.denoms[frame.index[n]]) for n in remaining}
            for name, target in targets.items():
                x = Fraction(e[frame.index[name]], frame.denoms[frame.index[name]])
                for v, t in target.items():
                    acc[v] += x * t
            try:
                en = new_frame.exps(acc)
            except OffLattice as exc:
                raise OffLattice(f"substitution leaves the lattice: {exc}") from exc
            v = out.get(en)
            v = c if v is None else v + c
            if v:
                out[en] = v
            else:
                out.pop(en, None)
        window = self.window
        if window is not None and "p" not in new_frame.index:
            window = None
        return Series(new_frame, out, self.q_order, window)

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
            if pe > window.hi or (not window.floored and pe < window.lo):
                raise OutsideValidWindow(f"p-exponent {pe} outside {window!r}")
            window = None
        remaining = [n for i, n in enumerate(frame.names) if i not in fixed]
        new_frame = frame.subframe(remaining)
        keep_idx = [frame.index[n] for n in remaining]
        out = {}
        for e, c in self.terms.items():
            if all(e[i] == v for i, v in fixed.items()):
                out[tuple(e[i] for i in keep_idx)] = c
        if any(new_frame.weights):
            q_order = None if self.q_order is None else self.q_order - wfix
        else:
            q_order = None
        if window is not None and "p" not in new_frame.index:
            window = None
        return Series(new_frame, out, q_order, window, _clean=True)

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
        return Series(frame, out, self.q_order, window, _clean=True)

    def substitute_symbols(self, values):
        """Replace every Betti symbol by a concrete rational."""
        out = {}
        for e, c in self.terms.items():
            if isinstance(c, LinExpr):
                c = c.substitute(values)
            if c:
                out[e] = c
        return Series(self.frame, out, self.q_order, self.window, _clean=True)

    def map_coeffs(self, fn):
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return Series(self.frame, out, self.q_order, self.window, _clean=True)

    def with_q_order(self, q_order):
        """Restrict to a smaller truncation order."""
        q_order = _as_order(q_order)
        if self.q_order is not None and q_order is not None and q_order > self.q_order:
            raise TruncationLoss("cannot raise the truncation order of a computed series")
        return Series(self.frame, dict(self.terms), q_order, self.window)

    def truncated(self, q_order):
        """Restrict to at most the given order, keeping a smaller computed one."""
        q_order = _as_order(q_order)
        if self.q_order is not None and (q_order is None or q_order > self.q_order):
            q_order = self.q_order
        return Series(self.frame, dict(self.terms), q_order, self.window)

    def with_window(self, window):
        """Restrict to a narrower validity window."""
        w = self.window
        if w is not None and window is not None:
            if window.hi > w.hi or (not w.floored and window.lo < w.lo):
                raise TruncationLoss("cannot widen the validity window of a computed series")
        if w is not None and window is None:
            raise TruncationLoss("cannot drop the window of a windowed series")
        return Series(self.frame, dict(self.terms), self.q_order, window)

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
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_dict(cls, obj):
        frame = Frame(obj["vars"], obj["denoms"], obj.get("weights") or [0] * len(obj["vars"]))
        w = obj.get("p_window")
        window = None if w is None else Window(w["lo"], w["hi"], w.get("floored", False))
        q_order = obj.get("q_order")
        terms = {tuple(t["exp"]): coeff_from_json(t["coef"]) for t in obj["terms"]}
        return cls(frame, terms, None if q_order is None else Fraction(q_order), window)

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


def _window_add(f, g):
    fw, gw = f.window, g.window
    if fw is None and gw is None:
        return None
    if fw is None or gw is None:
        exact, w = (f, gw) if fw is None else (g, fw)
        if not w.floored:
            return w
        ps = exact.p_support()
        lo = w.lo if ps is None else min(w.lo, ps[0])
        return Window(lo, w.hi, True)
    if fw.floored and gw.floored:
        return Window(min(fw.lo, gw.lo), min(fw.hi, gw.hi), True)
    if fw.floored or gw.floored:
        fl, pl = (fw, gw) if gw.floored else (gw, fw)
        # fl unfloored: unknown below fl.lo wins
        return Window(fl.lo, min(fw.hi, gw.hi), False)
    return Window(max(fw.lo, gw.lo), min(fw.hi, gw.hi), False)


def _window_mul(f, g):
    fw, gw = f.window, g.window
    if fw is None and gw is None:
        return None
    if fw is None or gw is None:
        exact, w = (f, gw) if fw is None else (g, fw)
        ps = exact.p_support()
        if ps is None:
            return w
        a, b = ps
        if w.floored:
            return Window(w.lo + a, w.hi + a, True)
        return Window(w.lo + b, w.hi + a, False)
    if fw.floored and gw.floored:
        return Window(fw.lo + gw.lo, min(fw.hi + gw.lo, gw.hi + fw.lo), True)
    raise WindowUnderflow(
        "product of two p-windowed series; at least one operand must be p-exact "
        "or both windows must have known floors"
    )


def divide_exact(num, den):
    """Solve ``num = den * g`` by graded recursion with exact slice division.

    Succeeds only when every slice division is remainder-free; the divisor's
    leading slice must be symbol-free and supported on a line in exponent
    space (monomials, binomials such as u - 1/u, quantum integers, theta
    zero-modes all qualify).

    With ``D_l`` the weight-``l`` slice of ``den`` and ``wd`` its least weight,
    slice ``W`` of ``num = den * g`` reads

        D_wd * g_{W-wd} = num_W - sum_{l > wd} D_l * g_{W-l},

    solved for ascending W on packed keys.  Field guard: every exponent of
    the solve is at most ``A_num + A_0 + J * (A_den + A_0)`` in each variable,
    with ``A`` the operand maxima (``A_0`` over ``D_wd``) and ``J`` the
    number of steps of ``den``'s weight gap that fit in the quotient's weight
    range; for a non-monomial ``D_wd`` the class labels of the line division
    move a variable by up to ``(M + 1) * span``, with ``span`` the extent of
    ``D_wd`` in that variable and ``M`` the largest bound over the variables
    that ``D_wd`` spans.
    """
    if isinstance(den, Series) and isinstance(num, Series):
        num._check_frame(den)
    if num.window is not None or den.window is not None:
        raise WindowUnderflow("exact division requires p-exact operands")
    if not den.terms:
        raise InexactDivision("division by the zero series")
    frame = num.frame
    wds = min(map(frame.weight_scaled, den.terms))
    wd = Fraction(wds, frame.wden)
    d0 = {e: c for e, c in den.terms.items() if frame.weight_scaled(e) == wds}
    if any(isinstance(c, LinExpr) for c in d0.values()):
        raise InexactDivision("divisor leading slice carries symbols")
    cands = []
    if num.q_order is not None:
        cands.append(num.q_order - wd)
    if den.q_order is not None:
        cands.append(den.q_order - 2 * wd + (num.wmin() or 0))
    q_out = min(cands) if cands else None
    if not num.terms:
        return Series(frame, {}, q_out, None, _clean=True)
    bound = None if q_out is None else q_out + wd  # keep remainder below this weight
    ns = _pack(frame, num.terms)
    wmin_num = min(ns)
    # With two exact operands the quotient must itself be finite: its top
    # weight cannot exceed wmax(num) - wmax(den), so anything deeper means a
    # nonterminating (hence inexact) division, and no remainder slice lies
    # above wmax(num).
    exact_top = None
    if bound is None:
        wtop = max(ns)
        exact_top = wtop - max(map(frame.weight_scaled, den.terms))
    else:
        wtop = _top(frame, bound)
    neg = [(w, PackedSlice({k: -c for k, c in t.items()}))
           for w, t in sorted(_pack(frame, den.terms).items()) if w != wds]

    a_num, a_den, a_0 = _amax(num.terms), _amax(den.terms), _amax(d0)
    steps = max(0, wtop - wmin_num) // (neg[0][0] - wds) if neg else 0
    bounds = [n + z + steps * (d + z) for n, d, z in zip(a_num, a_den, a_0)]
    if len(d0) > 1:
        # a class label moves each variable by m * delta_i, |m| <= M + 1 and
        # |delta_i| <= the span of D_wd in that variable
        span = [max(col) - min(col) for col in zip(*d0)]
        m = max(b for b, w in zip(bounds, span) if w) + 1
        bounds = [b + m * w for b, w in zip(bounds, span)]
    _guard(frame, map(max, bounds, a_den), "division")

    base = frame.base
    quo = {}  # quotient slices by weight
    terms = {}
    divide = None
    for w in range(wmin_num, wtop + 1):
        rhs = ns.get(w, {})
        for l, dl in neg:
            gs = quo.get(w - l)
            if gs:
                a, b = (gs, dl) if len(gs) <= len(dl) else (dl, gs)
                madd(rhs, a, b, base, None, None)
        if rhs:
            if exact_top is not None and w - wds > exact_top:
                raise InexactDivision("quotient of exact series does not terminate")
            if divide is None:
                divide = _slice_divider(frame, d0)
            q = divide(rhs)
            terms.update(q)
            quo[w - wds] = PackedSlice(q)
    return Series(frame, _unpack(frame, terms), q_out, None, _clean=True)


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

    Window contract: a floor ``lo < 0`` lets each power of ``f`` lower p by
    up to |lo|.  With ``N`` the largest n such that ``n * wmin(f)`` is below
    the truncation order, the result declares ``Window((N+1)*lo, hi + N*lo,
    True)``, as :func:`log_series` does.  That is the window the power loop
    reaches at the weight cut; where a windowed power vanishes earlier, the
    wider window the loop had reached could claim wrong zeros.
    """
    if f.terms and (f.wmin() or 0) <= 0:
        raise BadConstantTerm("exp argument must have strictly positive weight")
    if f.terms and f.q_order is None:
        raise BadConstantTerm("exp of an exact series is infinite; set a truncation order")
    target = f.q_order
    acc = Series.one(f.frame, target, f.window)
    term = acc
    n = 1
    while term.terms:
        term = (term * f * rat(1, n)).with_q_order(target)
        if not term.terms:
            break
        acc = acc + term
        n += 1
    window = f.window
    if f.terms and window is not None and window.floored and window.lo < 0:
        bn, bd = _bounds(f.frame, target)
        # at most N factors of f fit below the truncation order
        N = (bn - 1) // (min(map(f.frame.weight_scaled, f.terms)) * bd)
        window = Window((N + 1) * window.lo, window.hi + N * window.lo, True)
        acc = Series(f.frame, acc.terms, target, window)
    return acc


def log_series(f):
    """Ordinary formal logarithm; the constant slice must be exactly 1.

    ``L = log F`` is solved graded slice by graded slice with the weighted
    Euler operator ``D = sum_i w_i x_i d/dx_i`` (weights in the frame's
    scaled units).  The derivation property gives ``F * DL = DF``, and with
    ``F_0 = 1`` that reads, slice by slice,

        (DL)_W = W * F_W - sum_{wmin <= l <= W - wmin} (DL)_l * F_{W-l},
        L_W = (DL)_W / W,

    where wmin is the least weight of ``F - 1`` (Brent and Kung, "Fast
    algorithms for manipulating formal power series", J. ACM 25 (1978);
    Knuth, TAOCP vol. 2, section 4.7).  Coefficients are returned as exact
    rationals and the truncation order is that of ``F``.

    Window contract: an unfloored p-window raises :class:`WindowUnderflow`.
    With no window or ``Window(0, hi, True)`` every product stays at
    p >= 0, so dropping p > hi is exact and the window is returned as given.
    A floor ``lo < 0`` lets each factor of ``F - 1`` lower p by up to |lo|:
    with ``N`` the largest n such that ``n * wmin`` is below the truncation
    order, every product is cut to ``[N*lo, hi]`` and the result declares
    ``Window((N+1)*lo, hi + N*lo, True)``.  That is the window of the
    windowed power series ``sum (-1)^(n+1) (F-1)^n / n`` whenever none of
    its powers vanishes before the weight cut.  Where one does, the power
    series stops early and claims a wider window, whose extra columns can
    hold wrong zeros; this result agrees with it on the narrower window.
    """
    frame = f.frame
    zero_exp = frame.zero_exp()
    lead = {e: c for e, c in f.terms.items() if frame.weight_scaled(e) <= 0}
    if lead != {zero_exp: rat(1)} and lead != {zero_exp: 1}:
        raise BadConstantTerm("log argument must have constant slice 1")
    h = f - 1
    if h.terms and h.q_order is None:
        raise BadConstantTerm("log of an exact series is infinite; set a truncation order")
    window = f.window
    if window is not None and not window.floored:
        raise WindowUnderflow("log of a p-windowed series needs a known floor")
    target = h.q_order
    if not h.terms:
        return Series.zero(frame, target, window)
    top = _top(frame, target)
    _guard(frame, _cut_bounds(frame, ((e, frame.weight_scaled(e)) for e in h.terms), top), "log")
    # F - 1 grouped by scaled weight, every weight > 0
    hs = {w: PackedSlice(t) for w, t in _pack(frame, h.terms).items()}
    wmin = min(hs)
    lo_key = hi_key = keep = None
    if window is not None:
        # at most n factors of F - 1 fit below the truncation order
        lo, hi = (top // wmin) * window.lo, window.hi
        window = Window(lo + window.lo, hi + lo, True)
        lo_key, hi_key = _p_keys(frame, lo, hi)
        keep = _p_keys(frame, lo, window.hi)[1]
    base = frame.base
    neg_dl = []  # (l, -(DL)_l) for every nonempty slice, ascending in l
    terms = {}
    for W in range(wmin, top + 1):
        acc = {k: W * c for k, c in hs[W].items} if W in hs else {}
        for l, dl in neg_dl:
            if l > W - wmin:
                break
            fs = hs.get(W - l)
            if fs:
                a, b = (dl, fs) if len(dl) <= len(fs) else (fs, dl)
                madd(acc, a, b, base, lo_key, hi_key)
        if acc:
            neg_dl.append((W, PackedSlice({k: -c for k, c in acc.items()})))
            inv = rat(1, W)
            for k, c in acc.items():
                if keep is None or k < keep:
                    terms[k] = c * inv
    return Series(frame, _unpack(frame, terms), target, window, _clean=True)


def adams(f, k):
    return f.adams(k)


def product_expand(frame, factors, q_order, window=None):
    """Expand ``F = prod (1 - m)^e`` exactly to the given truncation order.

    ``factors`` yields pairs (monomial, integer exponent); monomials are
    {name: exponent} mappings or pre-scaled tuples, each of strictly
    positive weight.  Factors of weight >= q_order are skipped.

    F is solved graded slice by graded slice with the weighted Euler operator
    ``D = sum_i w_i x_i d/dx_i`` (weights in the frame's scaled units, so a
    monomial of scaled weight W is an eigenvector with eigenvalue W).  With
    ``A = log F = -sum e sum_k m^k / k`` the derivation property gives
    ``D F = DA * F``, i.e. slice by slice

        W * F_W = sum_{l <= W} (DA)_l * F_{W-l},    F_0 = 1,

    where ``DA = -sum e * w(m) * sum_k m^k`` has integer coefficients, so
    every division by W is exact (Brent and Kung, "Fast algorithms for
    manipulating formal power series", J. ACM 25 (1978); Knuth, TAOCP vol. 2,
    section 4.7).  Every coefficient of the result is an ``int``.

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
    for mono, e in factors:
        exps = mono if isinstance(mono, tuple) else frame.exps(mono)
        ws = frame.weight_scaled(exps)
        if ws <= 0:
            raise NonConvergentFactor(f"factor exponent {mono} has weight <= 0")
        if ws > top:
            continue
        if pi >= 0 and exps[pi] < 0:
            raise WindowUnderflow(
                f"factor {mono} has a negative p-exponent under the floored window {window!r}"
            )
        kept.append((exps, ws, int(e)))
    if not kept:
        # the empty product, built exactly as Series.one builds it
        return Series.one(frame, q_order, window)
    if hi < 0:
        # the window excludes p^0, so even the constant term is cut
        return Series(frame, {}, q_order, window, _clean=True)
    _guard(frame, _cut_bounds(frame, ((x, ws) for x, ws, e in kept if e), top), "product_expand")
    base = frame.base
    # DA grouped by scaled weight: {l: {packed key: int}}
    da = {}
    for exps, ws, e in kept:
        c = -e * ws
        step = _offset(frame, exps)
        k = 1
        while c and k * ws <= top:
            if pi >= 0 and k * exps[pi] > hi:
                break
            slot = da.setdefault(k * ws, {})
            ek = base + k * step
            v = slot.get(ek, 0) + c
            if v:
                slot[ek] = v
            else:
                del slot[ek]
            k += 1
    lo_key = hi_key = None
    if pi >= 0:
        lo_key, hi_key = _p_keys(frame, 0, hi)
    slices = {0: PackedSlice({base: 1})}
    da_slices = [(l, PackedSlice(t)) for l, t in sorted(da.items()) if t]
    for W in range(1, top + 1):
        acc = {}
        for l, dl in da_slices:
            if l > W:
                break
            fs = slices.get(W - l)
            if fs:
                f, g = (dl, fs) if len(dl) <= len(fs) else (fs, dl)
                madd(acc, f, g, base, lo_key, hi_key)
        if acc:
            out = {}
            for k, c in acc.items():
                quo, rem = divmod(c, W)
                if rem:
                    raise InexactDivision(f"Euler recurrence: {c} not divisible by weight {W}")
                out[k] = quo
            slices[W] = PackedSlice(out)
    terms = _unpack(frame, {k: c for s in slices.values() for k, c in s.items})
    return Series(frame, terms, q_order, window, _clean=True)


def agree(a, b):
    """Compare two series on the common guaranteed-valid region.

    Returns (True, None) or (False, info) with the first mismatch.
    """
    if a.frame != b.frame:
        return False, {"reason": "frame mismatch"}
    frame = a.frame
    q_order = _min_order(a.q_order, b.q_order)
    bn, bd = _bounds(frame, q_order)

    def valid(e):
        if bd and frame.weight_scaled(e) * bd >= bn:
            return False
        for w in (a.window, b.window):
            if w is not None:
                pe = e[frame.p_index]
                if pe > w.hi or (not w.floored and pe < w.lo):
                    return False
        return True

    mismatches = []
    for e in set(a.terms) | set(b.terms):
        if not valid(e):
            continue
        ca = a.terms.get(e, 0)
        cb = b.terms.get(e, 0)
        if ca != cb:
            mismatches.append((e, ca, cb))
    if not mismatches:
        return True, None
    mismatches.sort(key=lambda m: m[0])
    e, ca, cb = mismatches[0]
    mono = {n: str(Fraction(e[i], frame.denoms[i])) for i, n in enumerate(frame.names) if e[i]}
    return False, {
        "monomial": mono,
        "left": coeff_to_json(ca),
        "right": coeff_to_json(cb),
        "count": len(mismatches),
    }
