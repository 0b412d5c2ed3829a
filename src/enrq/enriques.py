"""Refined curve counting on the Enriques Calabi-Yau threefold in fiber classes.

The pipeline: the stable-pair series for multiples of a half-fiber, the
wallcrossing assembly linking it to generalized sheaf-counting invariants
DT(r, d, n) and their multiple-cover-stripped BPS classes Omega, the
conjectural all-n completion, and Gopakumar-Vafa polynomial extraction.

All refined values live in the variables (t, s); the Betti realization sets
t = s = u, the chi_t specialization sets s = 1, the Euler limit t = s = 1.
"""

from fractions import Fraction
from math import ceil, comb, gcd
from operator import add

from .config import hodge_inputs, parse_hodge
from .perverse import _main_prefactor, flip_mismatches
from .qfunc import inv_zero_mode, plethystic_exp, plethystic_log, quantum_integer, virtual_shift
from .ring import qdiv, rat
from .series import (
    FRAME_P0,
    FRAME_PU,
    FRAME_PU0,
    FRAME_QP,
    FRAME_QPU,
    FRAME_QPUTS,
    FRAME_QTS,
    FRAME_TS,
    Frame,
    Series,
    SeriesError,
    Window,
    _add_shifted,
    _as_order,
    divide_exact,
    exp_series,
    product_expand,
    signed_cells,
)

__all__ = [
    "MissingDivisor",
    "UnstableWindow",
    "NotInBasisSpan",
    "DTValue",
    "GVPolynomial",
    "hodge_chi",
    "chi_vir",
    "betti_realization",
    "elliptic_curve_chi_vir",
    "enriques_cy3_chi_vir",
    "rational_elliptic_surface_vir",
    "pt_fiber_series",
    "pt_fiber_series_euler",
    "equivariant_hilb_vir_series",
    "dt_fiber",
    "omega_fiber",
    "bps_to_dt",
    "dt_fiber_table",
    "assemble_pt_from_dt",
    "quantum_sum_prefactor",
    "rank0_dt",
    "rank0_exp_argument",
    "rank0_ordinary_log_from_dt",
    "pt_fiber_full",
    "gv_refined_extract",
    "gv_fiber_closed",
    "gv_to_ph_grid",
    "fiber_ph_grid",
    "ng_from_gv",
    "local_enriques_log_pt",
    "local_enriques_gv",
    "smooth_curve_pt_series",
    "smooth_curve_pt_closed",
    "dt_reference_values",
]


class MissingDivisor(SeriesError):
    """BPS-to-DT sum needs an Omega value that was not supplied."""


class UnstableWindow(SeriesError):
    """Extracted polynomial still changes near the edge of the p-window."""


class NotInBasisSpan(SeriesError):
    """Polynomial has no finite expansion in the requested genus basis."""


# -- Hodge-theoretic inputs -------------------------------------------------

def hodge_chi(hodge):
    """chi_{t,s}(V) = sum (-1)^{p+q} h^{p,q} t^p s^q for a Hodge diamond."""
    acc = {}
    for (p, q), h in hodge.items():
        e = FRAME_TS.exps({"t": p, "s": q})
        acc[e] = acc.get(e, 0) + (-1) ** ((p + q) % 2) * h
    return Series(FRAME_TS, acc)


def chi_vir(hodge, dim):
    """chi of the weight-shifted class: (-1)^dim (ts)^(-dim/2) chi_{t,s}.

    The sign is (-(ts)^(1/2))^(-dim), the Hodge realization of the canonical
    square root of the Lefschetz motive.
    """
    shifted = virtual_shift(hodge_chi(hodge), dim)
    return -shifted if dim % 2 else shifted


def _hodge_entry(name):
    data = hodge_inputs()[name]
    return parse_hodge(data["hodge"]), data["dim"]


def betti_realization(ts_series):
    """Specialize t = s = u; accepts any frame containing t and s.

    A frame without u is first extended by it (denominator 2, weight 0), so
    its other variables, q and p included, carry over to the result.
    """
    f = ts_series.frame
    if "u" not in f.index:
        ts_series = ts_series.embed(Frame((*f.names, "u"), (*f.denoms, 2), (*f.weights, 0)))
    return ts_series.specialize({"t": {"u": 1}, "s": {"u": 1}})


def elliptic_curve_chi_vir():
    """-(ts)^(-1/2) (1-t)(1-s)."""
    return chi_vir(*_hodge_entry("elliptic_curve"))


def enriques_cy3_chi_vir():
    return chi_vir(*_hodge_entry("enriques_cy3"))


def rational_elliptic_surface_vir():
    """(ts)^(-1) + 10 + ts."""
    return chi_vir(*_hodge_entry("rational_elliptic_surface"))


# -- the degree-d stable-pair series (n = 0) ---------------------------------

_Q1, _Q2 = {"q": 1}, {"q": 2}


def pt_fiber_series(q_order):
    """prod_m (1-q^{2m})^6 / ((1-(ts)^{-1} q^{2m}) (1-q^m)^8 (1-ts q^{2m}))."""
    factors = [
        (_Q1, -8, _Q1),
        (_Q2, 6, _Q2),
        ({"q": 2, "t": -1, "s": -1}, -1, _Q2),
        ({"q": 2, "t": 1, "s": 1}, -1, _Q2),
    ]
    return product_expand(FRAME_QTS, factors, q_order)


def pt_fiber_series_euler(q_order):
    """Euler limit of the fiber series: prod (1-q^{2m})^4 / (1-q^m)^8."""
    return product_expand(FRAME_QP, [(_Q1, -8, _Q1), (_Q2, 4, _Q2)], q_order)


def equivariant_hilb_vir_series(fixed_points, resolution_vir, q_order):
    """Goettsche-type series for invariant Hilbert schemes of an involution surface.

    prod_i ((1-q^{2i})^2/(1-q^i))^fixed_points * Exp(sum_i q^{2i} R) where R is
    the weight-shifted class of the resolved quotient surface.  The Exp is the
    family prod_i (1 - m q^{2i})^{-c} of each term c*m of R.
    """
    q2 = FRAME_QTS.exps(_Q2)
    res = resolution_vir.embed(FRAME_QTS).items_sorted()
    factors = [(_Q1, -fixed_points, _Q1), (_Q2, 2 * fixed_points, _Q2)]
    factors += [(tuple(map(add, e, q2)), -c, _Q2) for e, c in res]
    return product_expand(FRAME_QTS, factors, q_order)


# -- DT / Omega values -------------------------------------------------------

class DTValue:
    """A refined invariant stored as numerator/denominator of (t,s)-Laurent polynomials.

    Denominators are products of quantum integers; the Euler limit t = s = 1
    is always a rational number.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Series):
            num = Series.const(FRAME_TS, num)
        self.num = num
        self.den = den if den is not None else Series.one(num.frame)

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return DTValue(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def specialize(self, mapping):
        return DTValue(self.num.specialize(mapping), self.den.specialize(mapping))

    def euler(self):
        num = self.num.specialize({"t": 1, "s": 1}).coeff({})
        den = self.den.specialize({"t": 1, "s": 1}).coeff({})
        return qdiv(num, den)

    def same_as(self, other):
        return self.num * other.den == other.num * self.den

    def cleared(self, factor):
        """(factor * num) / den as a Series; the division must be exact."""
        return divide_exact(factor * self.num, self.den)

    def __repr__(self):
        return f"DTValue({self.num!r} / {self.den!r})"


def dt_fiber(r, d):
    """DT(r, d*f, 0): 8/(r [r]) for odd r | d, the two-term combination for even
    r | d, zero otherwise."""
    r = int(r)
    if r < 1:
        raise ValueError("rank must be >= 1")
    if d % r:
        return DTValue(Series.zero(FRAME_TS))
    if r % 2:
        return DTValue(Series.const(FRAME_TS, qdiv(8, r)), quantum_integer(r))
    half = Fraction(r, 2)
    num = (
        Series.monomial(FRAME_TS, {"t": -half, "s": -half})
        - 2
        + Series.monomial(FRAME_TS, {"t": half, "s": half})
    ) * qdiv(-2, r)
    return DTValue(num, quantum_integer(r))


def omega_fiber(r, d):
    """Omega(r, d*f, 0): 8 for r=1; -[2] for r=2 with d even; zero otherwise."""
    r = int(r)
    if r < 1:
        raise ValueError("rank must be >= 1")
    if r == 1:
        return DTValue(Series.const(FRAME_TS, 8))
    if r == 2 and d % 2 == 0:
        return DTValue(-quantum_integer(2))
    return DTValue(Series.zero(FRAME_TS))


def _divisors(n):
    out = [k for k in range(1, n + 1) if n % k == 0]
    return out


def bps_to_dt(omega_table, key):
    """DT(v) = sum_{k | gcd(r, d, n)} Omega(v/k)|_{adams k} / (k [k]) for v = (r, d, n)."""
    r, d, n = key
    g = gcd(r, d, n)
    if not g:
        raise ValueError("zero Chern character")
    acc = DTValue(Series.zero(FRAME_TS))
    for k in _divisors(g):
        sub = (r // k, d // k, n // k)
        if sub not in omega_table:
            raise MissingDivisor(f"no Omega value for {sub}")
        om = omega_table[sub]
        term = DTValue(om.num.adams(k), om.den.adams(k) * quantum_integer(k) * k)
        acc = acc + term
    return acc


def dt_fiber_table(q_order):
    """All nonzero DT(r, d, 0) with 1 <= d < q_order, keyed by (r, d, n=0)."""
    q_order = _as_order(q_order)
    table = {}
    d = 1
    while d < q_order:
        for r in _divisors(d):
            val = dt_fiber(r, d)
            if not val.is_zero():
                table[(r, d, 0)] = val
        d += 1
    return table


def _fiber_frame(euler):
    """The fiber-class frame: (q, p, t, s), or (q, p, u) in Euler mode (t = s = 1)."""
    return FRAME_QPU if euler else FRAME_QPUTS


def assemble_pt_from_dt(dt_table, q_order, window=None, euler=False):
    """Wallcrossing assembly: exp(sum (-1)^{r-1} [n+r] DT(r,d,n) q^d p^{+-n}).

    Keys (r, d, n) contribute p^n always and p^{-n} additionally when both
    r > 0 and n > 0.  In Euler mode the table must hold Euler-specialized
    values, the wallcrossing factor degenerates to the integer n + r and the
    result lives in (q, p, u).
    Under a p-window (top ``hi``, scaled units) a term p^m with 2m > hi is
    dropped, and a kept one with m != 0 floors the argument at min(0, 2m).
    """
    q_order = _as_order(q_order)
    frame = _fiber_frame(euler)
    terms, floors = {}, []
    for (r, d, n), val in sorted(dt_table.items()):
        if val.is_zero():
            continue
        if d < 1:
            raise ValueError("assembly needs positive fiber degree")
        if Fraction(d) >= q_order:
            continue
        if n == 0 and r == 0:
            raise ValueError("the (r, n) = (0, 0) factor is empty")
        if euler:
            factor = val.cleared(Series.const(val.num.frame, n + r))
        else:
            factor = val.cleared(quantum_integer(n + r))
        factor = factor * (-1) ** ((r - 1) % 2)
        factor = factor.embed(frame)
        exps = [n] if (n == 0 or r == 0) else [n, -n]
        for pexp in exps:
            if pexp and window is not None:
                if 2 * pexp > window.hi:
                    continue
                floors.append(2 * pexp)
            _add_shifted(terms, factor, {"q": d, "p": pexp})
    w = Window(min(0, *floors), window.hi, True) if floors else None
    return exp_series(Series(frame, terms, q_order, w))


# -- the all-n completion in fiber classes ------------------------------------

def quantum_sum_prefactor(q_order, window, euler=False):
    """-p/((1-(ts)^{1/2}p)(1-(ts)^{-1/2}p)) = -sum_{m>=1} [m]_{ts} p^m.

    Expanded ascending in p by :func:`enrq.qfunc.inv_zero_mode`, so the
    result is p-windowed with support floor p^1.  In Euler mode the
    coefficient of p^m degenerates to -m.
    """
    y = {} if euler else {"t": Fraction(1, 2), "s": Fraction(1, 2)}
    return -inv_zero_mode({"p": 1}, y, q_order, _fiber_frame(euler), window)


def rank0_dt(d, n):
    """DT(0, d*f, n) for n >= 1 via refined chi-independence:

    DT(0, beta, n) = sum_{k | gcd(beta, n)} DT(0, beta/k, 1)|_{adams k} / (k [k])
    with DT(0, d'f, 1) equal to 8 chi([E]^vir) for odd d' and chi([Q]^vir) for
    even d': the multiple-cover sum of :func:`bps_to_dt` over those values.
    """
    if d < 1 or n < 1:
        raise ValueError("rank-0 values need d, n >= 1")
    e_vir = elliptic_curve_chi_vir()
    q_vir = enriques_cy3_chi_vir()
    omega = {
        (0, d // k, n // k): DTValue(e_vir * 8 if (d // k) % 2 else q_vir)
        for k in _divisors(gcd(d, n))
    }
    return bps_to_dt(omega, (0, d, n))


def rank0_exp_argument(q_order, window, euler=False):
    """The plethystic-exponential argument of the all-n completion:

    -p/((1-(ts)^{1/2}p)(1-(ts)^{-1/2}p)) [ sum_{d odd} 8 chi([E]^vir) q^d
                                          + sum_{d even} chi([Q]^vir) q^d ].
    """
    q_order = _as_order(q_order)
    frame = _fiber_frame(euler)
    pref = quantum_sum_prefactor(q_order, window, euler)
    if euler:
        e_vir = Series.const(
            frame, elliptic_curve_chi_vir().specialize({"t": 1, "s": 1}).coeff({})
        )
        q_vir = Series.const(
            frame, enriques_cy3_chi_vir().specialize({"t": 1, "s": 1}).coeff({})
        )
    else:
        e_vir = elliptic_curve_chi_vir().embed(frame)
        q_vir = enriques_cy3_chi_vir().embed(frame)
    terms = {}
    for d in range(1, ceil(q_order)):
        _add_shifted(terms, e_vir * 8 if d % 2 else q_vir, {"q": d})
    return pref * Series(frame, terms, q_order)


def rank0_ordinary_log_from_dt(q_order, window):
    """-sum [n] DT(0,d,n) q^d p^n: the ordinary logarithm of the rank-0 factor.

    Its ordinary exponential must agree with the plethystic exponential of
    :func:`rank0_exp_argument`; that equality is exactly the refined
    chi-independence wiring of the rank-0 column.
    """
    q_order = _as_order(q_order)
    terms = {}
    for d in range(1, ceil(q_order)):
        for n in range(1, window.hi // 2 + 1):
            term = rank0_dt(d, n).cleared(quantum_integer(n)).embed(FRAME_QPUTS)
            _add_shifted(terms, -term, {"q": d, "p": n})
    return Series(FRAME_QPUTS, terms, q_order, Window(0, window.hi, True))


def pt_fiber_full(q_order, window, euler=False):
    """Conjectural full fiber-class stable-pair series in (q, p, t, s), or its
    Euler limit in (q, p, u)."""
    q_order = _as_order(q_order)
    base = pt_fiber_series_euler(q_order) if euler else pt_fiber_series(q_order)
    arg = rank0_exp_argument(q_order, window, euler)
    return base.embed(arg.frame) * plethystic_exp(arg)


# -- Gopakumar-Vafa extraction -------------------------------------------------

class GVPolynomial:
    """Finite Laurent polynomial in p and u (invariances checked, not assumed)."""

    __slots__ = ("poly",)

    def __init__(self, poly):
        if poly.frame != FRAME_PU0:
            poly = poly.embed(FRAME_PU0)
        self.poly = Series(FRAME_PU0, dict(poly.terms))

    def __eq__(self, other):
        if isinstance(other, GVPolynomial):
            return self.poly == other.poly
        return NotImplemented

    def is_zero(self):
        return self.poly.is_zero()

    def symmetric_p(self):
        return not flip_mismatches(self.poly.terms, -1, 1)

    def symmetric_u(self):
        return not flip_mismatches(self.poly.terms, 1, -1)

    def __repr__(self):
        return f"GVPolynomial({self.poly!r})"


# known zero p-columns that each extracted GV slice keeps below the window top
_TAIL_GUARD = 5


def gv_refined_extract(Z, q_order):
    """Per-degree Gopakumar-Vafa polynomials of a Betti-realized series in (q,p,u).

    Takes Log, multiplies by the inverse normalization (1-up)(1-u^{-1}p)/(-p)
    = -1/p + u + 1/u - p, and collects each q^d coefficient.  On windowed
    input each extracted slice must come with at least ``_TAIL_GUARD`` (5) known
    zero p-columns at the window edge, otherwise the window is declared
    unstable (widening it could still change the answer).
    """
    q_order = _as_order(q_order)
    G = plethystic_log(Z) * _main_prefactor(Z.frame)
    out = {}
    d = 0
    while d < q_order:
        sl = G.coefficient({"q": d})
        if G.window is not None:
            ps = sl.p_support()
            if ps is not None and ps[1] > G.window.hi - 2 * _TAIL_GUARD:
                raise UnstableWindow(
                    f"degree {d}: support reaches within {_TAIL_GUARD} columns of the window edge"
                )
        out[d] = GVPolynomial(sl)
        d += 1
    return out


def gv_fiber_closed(d):
    """Closed form of the degree-d fiber Gopakumar-Vafa polynomial.

    8(-1/p + 2 - p) for odd d; for even d the nine-term polynomial
    -u^2 p - u^2/p - 8u - 2p + 24 - 2/p - 8/u - p/u^2 - 1/(p u^2).
    """
    if d % 2:
        terms = {(-2, 0): -8, (0, 0): 16, (2, 0): -8}
    else:
        terms = {
            (2, 4): -1,
            (-2, 4): -1,
            (0, 2): -8,
            (2, 0): -2,
            (0, 0): 24,
            (-2, 0): -2,
            (0, -2): -8,
            (2, -4): -1,
            (-2, -4): -1,
        }
    return GVPolynomial(Series(FRAME_PU0, terms))


def gv_to_ph_grid(gv):
    """Perverse-Hodge grid from a GV polynomial via the sign rule (-1)^{i+j}."""
    return signed_cells(gv.poly)


def fiber_ph_grid(parity):
    """The two fiber-class perverse-Hodge grids ('odd' or 'even' degree)."""
    return gv_to_ph_grid(gv_fiber_closed(1 if parity == "odd" else 2))


def _gv_basis(g):
    """(-p)^{-g} (1-p)^{2g} as a Series in p alone."""
    terms = {}
    for j in range(2 * g + 1):
        terms[(2 * (j - g),)] = (-1) ** ((g + j) % 2) * comb(2 * g, j)
    return Series(FRAME_P0, terms)


def ng_from_gv(poly, basis="standard"):
    """Genus decomposition of a symmetric Laurent polynomial in p.

    ``standard`` expands in (-p)^{-g}(1-p)^{2g} (g >= 0); ``logz`` expands in
    (-p)^{1-g}(1-p)^{2g-2} (g >= 1), the shape taken by Log-of-partition-
    function coefficients.
    """
    if poly.frame != FRAME_P0:
        poly = poly.embed(FRAME_P0)
    if flip_mismatches({(e, 0): c for (e,), c in poly.terms.items()}, -1, 1):
        raise NotInBasisSpan("input is not invariant under p -> 1/p")
    rem = dict(poly.terms)
    coeffs = {}
    gmax = max((abs(e[0]) // 2 for e in rem), default=0)
    for g in range(gmax, 0, -1):
        c = rem.get((-2 * g,), 0) * (-1) ** (g % 2)
        if c:
            coeffs[g] = c
            for e, bc in _gv_basis(g).terms.items():
                v = rem.get(e, 0) - c * bc
                if v:
                    rem[e] = v
                else:
                    rem.pop(e, None)
    if set(rem) - {(0,)}:
        raise NotInBasisSpan("nonconstant remainder after extracting every genus")
    c0 = rem.get((0,), 0)
    if basis == "standard":
        if c0:
            coeffs[0] = c0
        return coeffs
    if basis == "logz":
        shifted = {g + 1: c for g, c in coeffs.items()}
        if c0:
            shifted[1] = shifted.get(1, 0) + c0
        return {g: c for g, c in shifted.items() if c}
    raise ValueError(f"unknown basis {basis!r}")


# -- the local Enriques surface ------------------------------------------------

def local_enriques_log_pt(q_order):
    """2 prod_{m odd} (1-q^m/p)^{-2} (1-q^m)^{-4} (1-p q^m)^{-2} prod_m (1-q^m)^{-8}."""
    factors = [
        (_Q1, -8, _Q1),
        ({"q": 1, "p": -1}, -2, _Q2),
        (_Q1, -4, _Q2),
        ({"q": 1, "p": 1}, -2, _Q2),
    ]
    return product_expand(FRAME_QP, factors, q_order) * 2


def local_enriques_gv(log_pt, beta_sq_half, divisible):
    """a(beta^2/2), minus a((beta/2)^2/2)/2 when beta is 2-divisible.

    The subtracted term is taken literally.  Half-integral indices
    contribute zero.
    """

    def a(x):
        x = Fraction(x)
        if x.denominator != 1 or x < 0:
            return Series.zero(FRAME_P0)
        return log_pt.coefficient({"q": x})

    total = a(beta_sq_half)
    if divisible:
        half = a(Fraction(beta_sq_half) / 4)
        total = total - half * rat(1, 2)
    return total


# -- smooth isolated curves ------------------------------------------------------

def smooth_curve_pt_series(g, order):
    """Stable-pair contribution of a smooth isolated genus-g curve, from scratch.

    Built out of the Betti numbers of the symmetric products C^(n), read off
    the generating function sum_n x^n b(C^(n); u) = (1+xu)^{2g}/((1-x)(1-xu^2)),
    signed and weight-shifted term by term.
    """
    order = int(order)
    frame = FRAME_PU
    q_order = Fraction(1 - g + order)
    sign = (-1) ** ((1 - g) % 2)
    terms = {}
    for n in range(order):
        bet = [0] * (2 * n + 1)
        for j in range(min(2 * g, n) + 1):
            cj = comb(2 * g, j)
            for b in range((n - j) + 1):
                bet[j + 2 * b] += cj  # a = n - j - b fills the (1-x)^{-1} slot
        for k, bk in enumerate(bet):
            if not bk:
                continue
            coeff = sign * (-1) ** (k % 2) * bk
            e = frame.exps({"p": 1 - g + n, "u": k - n})
            terms[e] = terms.get(e, 0) + coeff
    return Series(frame, {e: c for e, c in terms.items() if c}, q_order)


def smooth_curve_pt_closed(g, order):
    """(-p)^{1-g} (1-p)^{2g} / ((1-p/u)(1-up)), expanded in powers of p."""
    order = int(order)
    frame = FRAME_PU
    q_order = Fraction(1 - g + order)
    inner = product_expand(
        frame,
        [({"p": 1}, 2 * g), ({"p": 1, "u": -1}, -1), ({"p": 1, "u": 1}, -1)],
        _as_order(order) + 1,
    )
    mono = Series.monomial(frame, {"p": 1 - g}, (-1) ** ((1 - g) % 2))
    return (inner * mono).with_q_order(q_order)


# -- reference values -------------------------------------------------------------

def dt_reference_values():
    """Rank-0 primitives and the rank-2 value at (2, 2f, 0), with specializations."""
    dt22 = dt_fiber(2, 2)
    return {
        "dt_rank0_odd_n1": DTValue(elliptic_curve_chi_vir() * 8),
        "dt_rank0_even_n1": DTValue(enriques_cy3_chi_vir()),
        "dt_2_2f_0": dt22,
        "dt_2_2f_0_chi_t": dt22.specialize({"s": 1}),
    }
