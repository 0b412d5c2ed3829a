"""Perverse Hodge numbers of degree-d sheaf moduli on the Enriques surface.

The central identity expresses the generating function of perverse Hodge
numbers, signed by (-1)^{i+j} p^i u^j q^d, as an explicit infinite product
minus a Betti-dependent correction:

    main_term(q, p, u) - betti_sum(u; q) * correction_product(q, p, u).

A grid cell (i, j) is (-1)^{i+j} times the coefficient of p^i u^j q^d: every
grid (tables, support reports, stabilization, fiber grids) is read by
:func:`enrq.series.signed_cells`, fed the q^d slice of main - second by
:func:`identity_cells`, at the truncation order d + 1 unless one is given.
What those cells say about the degree-d grid is listed once, by
:func:`grid_rows`; the support and extremal reports filter its rows, and
every grid symmetry (table duality, the p and u inversions of a GV
polynomial) is the one rule :func:`flip_mismatches`.
Known Betti numbers make table entries Determined; missing ones enter as
formal symbols and surface as "?" cells.  The module also carries the
odd-class primitive stable-pair identity chain (the same data written as a
quantum-integer double sum and as two theta/eta expressions) and the large-d
asymptotics of the shifted table entries.
"""

from fractions import Fraction
from math import ceil

from .config import betti_defaults
from .qfunc import eta, inv_theta_pair, inv_zero_mode, quantum_integer, theta, theta_pair, theta_product
from .ring import LinExpr, betti_symbol, coeff_to_json, exact, qdiv
from .series import (
    FRAME_QPU,
    FRAME_QPUTS,
    FRAME_X,
    FRAME_XY,
    Series,
    Window,
    _add_shifted,
    _as_order,
    divide_exact,
    product_expand,
    signed_cells,
)

__all__ = [
    "MissingBettiData",
    "BettiTable",
    "PerverseTable",
    "ph_main_term",
    "ph_main_term_jacobi",
    "ph_betti_term",
    "signed_cells",
    "identity_cells",
    "grid_rows",
    "flip_mismatches",
    "grid_box",
    "perverse_table",
    "support_report",
    "omega_half_integral_series",
    "omega_integral_series",
    "primitive_pt_forms",
    "primitive_betti_display",
    "check_primitive_chain",
    "asymptotic_ph_gf",
    "asymptotic_betti_gf",
    "stabilization_check",
    "extremal_report",
    "grid_to_markdown",
    "grid_to_csv",
]


class MissingBettiData(KeyError):
    """A Betti table holds no data for a degree d that a computation needs."""


def _degree(d):
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"Betti degree d must be an integer, got {d!r}")
    return d


def _betti_number(b):
    """``exact(b)``; a ``bool`` is refused, though Python counts it an ``int``."""
    if isinstance(b, bool):
        raise TypeError(f"a Betti number must be an exact rational, got {b!r}")
    return exact(b)


class BettiTable:
    """Betti numbers b_i of the degree-d moduli spaces (dimension 2d+1).

    Complete vectors are used as given; incomplete ones supply a known prefix,
    are reflected by Poincare duality, and fill the middle with symbols
    b(d, i).  A prefix keyed by ``None`` applies to every d without own data.
    """

    def __init__(self, complete=None, prefixes=None):
        self.complete = {_degree(d): [_betti_number(b) for b in v] for d, v in (complete or {}).items()}
        self.prefixes = {
            (None if d is None else _degree(d)): [_betti_number(b) for b in v]
            for d, v in (prefixes or {}).items()
        }
        for d, vec in self.complete.items():
            if len(vec) != 4 * d + 3:
                raise ValueError(f"d={d}: expected {4*d+3} Betti numbers, got {len(vec)}")
            if any(vec[i] != vec[4 * d + 2 - i] for i in range(len(vec))):
                raise ValueError(f"d={d}: Betti vector violates Poincare duality")

    @classmethod
    def from_records(cls, records):
        complete, prefixes = {}, {}
        for rec in records:
            if rec.get("complete"):
                if rec["d"] is None:
                    raise ValueError("a complete Betti vector needs its degree d")
                complete[rec["d"]] = rec["betti"]
            else:
                prefixes[rec["d"]] = rec["betti"]
        return cls(complete, prefixes)

    @classmethod
    def default(cls):
        return cls.from_records(betti_defaults())

    def entry(self, d, i):
        """b_i of the degree-d space: a rational or a symbol (duality applied)."""
        if i < 0 or i > 4 * d + 2:
            return 0
        ii = min(i, 4 * d + 2 - i)
        if d in self.complete:
            return self.complete[d][i]
        prefix = self.prefixes.get(d, self.prefixes.get(None))
        if prefix is None:
            raise MissingBettiData(f"no Betti data for d={d}")
        if ii < len(prefix):
            return prefix[ii]
        return betti_symbol(d, ii)

    def vector(self, d):
        return [self.entry(d, i) for i in range(4 * d + 3)]

    def signed_sum(self, d, frame):
        """q^d u^{-(2d+1)} sum_i b_{i,d} (-u)^i as a Series in the given frame."""
        return Series(frame, self._signed_terms(d, frame, {}), None, None)

    def _signed_terms(self, d, frame, terms):
        """Add the terms of :meth:`signed_sum` to the dict ``terms`` and return it."""
        iq, iu = frame.index["q"], frame.index["u"]
        for i in range(4 * d + 3):
            b = self.entry(d, i)
            if b:
                e = [0] * frame.nvars
                e[iq], e[iu] = d * frame.denoms[iq], 2 * (i - (2 * d + 1))
                terms[tuple(e)] = -b if i % 2 else b
        return terms


def _betti_q_sum(betti, q_order, frame):
    """sum_d q^d u^{-(2d+1)} sum_i b_{i,d} (-u)^i, one term dict for every degree."""
    q_order = _as_order(q_order)
    terms = {}
    for d in range(ceil(q_order)):
        betti._signed_terms(d, frame, terms)
    return Series(frame, terms, q_order)


# -- the two terms of the central identity -----------------------------------

def _main_prefactor(frame):
    """(1-p/u)(1-up)/(-p) = -1/p + u + 1/u - p."""
    return Series(
        frame,
        {
            frame.exps({"p": -1}): -1,
            frame.exps({"u": 1}): 1,
            frame.exps({"u": -1}): 1,
            frame.exps({"p": 1}): -1,
        },
    )


_Q1, _Q2 = {"q": 1}, {"q": 2}


def ph_main_term(q_order):
    """(1-p/u)(1-up)/(-p) prod_m (1-q^m)^{-8}
    prod_{m odd} [(1-u^{-2}q^m)(1-u^2 q^m)(1-upq^m)(1-up^{-1}q^m)
                  (1-u^{-1}pq^m)(1-u^{-1}p^{-1}q^m)(1-q^m)^2]^{-1}."""
    factors = [
        (_Q1, -8, _Q1),
        ({"q": 1, "u": -2}, -1, _Q2),
        ({"q": 1, "u": 2}, -1, _Q2),
        ({"q": 1, "u": 1, "p": 1}, -1, _Q2),
        ({"q": 1, "u": 1, "p": -1}, -1, _Q2),
        ({"q": 1, "u": -1, "p": 1}, -1, _Q2),
        ({"q": 1, "u": -1, "p": -1}, -1, _Q2),
        (_Q1, -2, _Q2),
    ]
    return _main_prefactor(FRAME_QPU) * product_expand(FRAME_QPU, factors, q_order)


def _theta_ratio(x, q_order, frame):
    """Theta(x, q^2) / Theta(x, q), one exact division in the variables of x."""
    return divide_exact(theta(x, 2, q_order, frame), theta(x, 1, q_order, frame))


def _jacobi_core(q_order):
    """Theta(u^2,q^2)/Theta(u^2,q) * eta(q^2)^8/eta(q)^16
    * Theta(pu,q^2)Theta(p/u,q^2) / (Theta(pu,q)Theta(p/u,q)), in (q, p, u).

    Each theta quotient is divided on its own, in two variables, and the two
    (p, u) quotients are multiplied together before the u^2 and eta
    quotients join them: dividing
    the three-variable product Theta(pu,q^2)Theta(p/u,q^2) by each theta in
    turn makes the same series from far more term pairs.  The core is still
    built from theta/eta blocks and exact division, never from the product
    of :func:`ph_main_term`, so the two routes stay independent.
    """
    frame = FRAME_QPU
    q_order = _as_order(q_order)
    # a theta divisor leads at weight 0 and costs no order; eta(q)^16 leads
    # at q^(2/3) with the prefactor, so only the eta quotient is padded (the
    # prefactors cancel, q^(8*2/24) / q^(16/24) = 1: no eta convention reaches the core)
    e2 = eta(2, q_order + 1).embed(frame)
    e1 = eta(1, q_order + 1).embed(frame)
    B = divide_exact(e2**8, e1**16).with_q_order(q_order)
    pu, p_u = (_theta_ratio({"p": 1, "u": s}, q_order, frame) for s in (1, -1))
    return (_theta_ratio({"u": 2}, q_order, frame) * B * (pu * p_u)).with_q_order(q_order)


def ph_main_term_jacobi(q_order):
    """The main term assembled from theta/eta building blocks and exact division.

    Must agree with :func:`ph_main_term` coefficientwise; a mismatch (or an
    inexact division on the way) signals a wrong theta/eta convention.
    """
    q_order = _as_order(q_order)
    core = _jacobi_core(q_order)
    return (_main_prefactor(FRAME_QPU) * core).with_q_order(q_order)


def ph_betti_term(betti, q_order):
    """(sum_d q^d u^{-(2d+1)} sum_i b_{i,d} (-u)^i)
    * prod_m (1-u^2 q^{2m})(1-u^{-2} q^{2m})(1-q^{2m})^2
             / ((1-upq^{2m})(1-u^{-1}p^{-1}q^{2m})(1-u^{-1}pq^{2m})(1-up^{-1}q^{2m}))."""
    factors = [
        ({"q": 2, "u": 2}, 1, _Q2),
        ({"q": 2, "u": -2}, 1, _Q2),
        (_Q2, 2, _Q2),
        ({"q": 2, "u": 1, "p": 1}, -1, _Q2),
        ({"q": 2, "u": -1, "p": -1}, -1, _Q2),
        ({"q": 2, "u": -1, "p": 1}, -1, _Q2),
        ({"q": 2, "u": 1, "p": -1}, -1, _Q2),
    ]
    return _betti_q_sum(betti, q_order, FRAME_QPU) * product_expand(FRAME_QPU, factors, q_order)


# -- tables -------------------------------------------------------------------

class PerverseTable:
    """Grid (i, j) -> value for one degree d; symbol-carrying cells are Unknown."""

    def __init__(self, d, entries):
        self.d = d
        self.entries = dict(entries)

    def entry(self, i, j):
        return self.entries.get((i, j), 0)

    def unknown_cells(self):
        return sorted(c for c, v in self.entries.items() if isinstance(v, LinExpr))

    def determined_cells(self):
        return sorted(c for c, v in self.entries.items() if not isinstance(v, LinExpr))

    def duality_violations(self):
        return flip_mismatches(self.entries, -1, -1)

    def negative_determined(self):
        """Determined entries that are negative (reported loudly, not fatal)."""
        return sorted(
            c
            for c, v in self.entries.items()
            if not isinstance(v, LinExpr) and v < 0
        )

    def rows(self):
        return _box(self.d)[0]

    def cols(self):
        return _box(self.d)[1]

    def to_markdown(self):
        return grid_to_markdown(self.entries, self.rows(), self.cols())

    def to_csv(self):
        return grid_to_csv(self.entries, self.rows(), self.cols())

    def to_json_dict(self):
        return {
            "d": self.d,
            "entries": [
                {"i": i, "j": j, "value": coeff_to_json(v)}
                for (i, j), v in sorted(self.entries.items())
            ],
        }


def _box(d):
    """Rows and columns of the degree-d table: the support box |i| <= d+1, |j| <= d."""
    return range(-(d + 1), d + 2), range(-d, d + 1)


def grid_box(cells):
    """Rows and columns of the bounding box of a grid's cells {(i, j): value}."""
    rows, cols = zip(*cells)
    return range(min(rows), max(rows) + 1), range(min(cols), max(cols) + 1)


def _unshift(d, i, j):
    """The table cell of degree d at shifted position (i, j) = (i + d + 1, j + d)."""
    return i - d - 1, j - d


def flip_mismatches(cells, si, sj):
    """The sorted cells (i, j) whose value differs from that at (si*i, sj*j).

    The one rule behind every grid symmetry: a table is invariant under its
    duality (i, j) -> (-i, -j), a GV polynomial in (p, u) under p -> 1/p and
    under u -> 1/u apart.  A missing cell reads as 0; a cell is any pair of
    numbers, such as the scaled exponents of a half-integral polynomial.
    """
    return sorted(c for c, v in cells.items() if cells.get((si * c[0], sj * c[1]), 0) != v)


def _cell(v):
    if isinstance(v, LinExpr):
        return "?"
    if not v:
        return ""
    return str(v)


def grid_to_markdown(entries, rows, cols):
    lines = ["| i\\j | " + " | ".join(str(j) for j in cols) + " |"]
    lines.append("| --- |" + " --- |" * len(list(cols)))
    for i in rows:
        cells = [_cell(entries.get((i, j), 0)) for j in cols]
        lines.append(f"| {i} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def grid_to_csv(entries, rows, cols):
    lines = ["i,j,value"]
    for i in rows:
        for j in cols:
            v = entries.get((i, j), 0)
            if isinstance(v, LinExpr):
                lines.append(f"{i},{j},?")
            elif v:
                lines.append(f"{i},{j},{v}")
    return "\n".join(lines) + "\n"


def _identity_terms(betti, q_order, main=None, second=None):
    """Betti table, main term and Betti term, each built only when not given."""
    betti = betti or BettiTable.default()
    if main is None:
        main = ph_main_term(q_order)
    if second is None:
        second = ph_betti_term(betti, q_order)
    return betti, main, second


def identity_cells(d, betti=None, q_order=None, main=None, second=None):
    """Signed cells of the q^d slice of main - second, each term sliced before subtracting.

    An order that does not cover degree d is a ``ValueError``.
    """
    if q_order is None:
        q_order = d + 1
    if _as_order(q_order) <= d:
        raise ValueError(f"q_order {q_order} does not cover degree {d}")
    _, main, second = _identity_terms(betti, q_order, main, second)
    return signed_cells(main.coefficient({"q": d}) - second.coefficient({"q": d}))


def grid_rows(d, betti=None, q_order=None, main=None, second=None):
    """What the degree-d identity cells say, as ``(source, (i, j), value, target)`` rows.

    ``value`` is the table-signed cell of :func:`identity_cells` (a
    ``LinExpr`` where a symbol survives), ``target`` what the source says it
    must be.  Two sources:

    - ``support``: every cell outside the box |i| <= d+1, |j| <= d has
      target 0, in the order of :func:`identity_cells`;
    - ``extremal``: every cell of the column j = -d has target 1 at even
      shifted row i + d + 1 and 0 at odd (the conjectured parity pattern),
      in the order of the shifted rows 0, ..., 2d + 2.
    """
    cells = identity_cells(d, betti, q_order, main, second)
    rows, cols = _box(d)
    out = [("support", c, v, 0) for c, v in cells.items() if c[0] not in rows or c[1] not in cols]
    for s in range(len(rows)):
        cell = _unshift(d, s, 0)
        out.append(("extremal", cell, cells.get(cell, 0), 1 - s % 2))
    return out


def perverse_table(d, betti=None, q_order=None, main=None, second=None):
    """Table of perverse Hodge numbers for degree d.

    entry(i, j) = (-1)^{i+j} [coefficient of p^i u^j q^d in main - second],
    read by :func:`identity_cells` inside the box |i| <= d+1, |j| <= d;
    cells are Determined exactly when no Betti symbol survives.
    """
    rows, cols = _box(d)
    cells = identity_cells(d, betti, q_order, main, second)
    return PerverseTable(d, {(i, j): c for (i, j), c in cells.items() if i in rows and j in cols})


def support_report(d, betti=None, q_order=None, main=None, second=None):
    """Inspect the slice outside the support box (the ``support`` rows of :func:`grid_rows`).

    Values are table-signed, (-1)^{i+j} times the coefficient, as in
    :func:`perverse_table`.  Determined leakage is a genuine violation.
    Symbol-carrying leakage is reported as an implied constraint: consistency
    of the identity forces the symbol to the value making the cell vanish.
    """
    violations, implied, conflicts = [], {}, []
    for source, (i, j), c, _ in grid_rows(d, betti, q_order, main, second):
        if source != "support":
            continue
        if isinstance(c, LinExpr):
            if len(c.terms) == 1:
                (sym, coef), = c.terms.items()
                value = qdiv(-c.const, coef)
                if sym in implied and implied[sym] != value:
                    conflicts.append((sym, implied[sym], value))
                implied[sym] = value
            else:
                violations.append(((i, j), coeff_to_json(c)))
        elif c:
            violations.append(((i, j), coeff_to_json(c)))
    return {"d": d, "violations": violations, "implied_betti": implied, "conflicts": conflicts}


# -- odd-class primitive stable pairs: the three-form chain --------------------

def omega_half_integral_series(q_order):
    """8 q^{-1/2} prod_n (1-(ts)^{-1}q^n)^{-1} (1-q^n)^{-10} (1-ts q^n)^{-1}."""
    factors = [
        ({"q": 1, "t": -1, "s": -1}, -1, _Q1),
        (_Q1, -10, _Q1),
        ({"q": 1, "t": 1, "s": 1}, -1, _Q1),
    ]
    prod = product_expand(FRAME_QPUTS, factors, _as_order(q_order) + Fraction(1, 2))
    return prod * Series.monomial(FRAME_QPUTS, {"q": Fraction(-1, 2)}, 8)


def omega_integral_series(betti, q_order, frame=FRAME_QPUTS):
    """sum_d Omega_d q^d with Omega_d = 8 (-u)^{-(2d+1)} sum_i b_{i,d} (-u)^i."""
    return _betti_q_sum(betti, q_order, frame) * -8


def _bracket(parity, q_order_ext, frame, window=None):
    """sum_{r>=1, r = parity mod 2} ([r] q^{r^2/2} + sum_{n>=1} [n+r](p^n + p^{-n}) q^{rn+r^2/2}).

    The even bracket (parity 0) adds the head sum_{n>=1} [n] p^n
    (:func:`enrq.qfunc.inv_zero_mode`), cut at the p-window, which makes it
    p-windowed with support floor p^1.
    """
    terms = {}
    r = 2 - parity
    while Fraction(r * r, 2) < q_order_ext:
        n = 0
        while Fraction(r * r, 2) + r * n < q_order_ext:
            for pe in {n, -n}:  # the n = 0 term once
                mono = {"q": Fraction(r * r, 2) + r * n, "p": pe}
                _add_shifted(terms, quantum_integer(n + r).embed(frame), mono)
            n += 1
        r += 2
    table = Series(frame, terms, q_order_ext)
    if parity:
        return table
    y = {"t": Fraction(1, 2), "s": Fraction(1, 2)}
    return inv_zero_mode({"p": 1}, y, q_order_ext, frame, window) + table


def primitive_pt_forms(betti, q_order, window, eta_prefactor=True):
    """The three equivalent expressions for sum PT^prim_{n,d} q^d (-p)^n.

    sum_form: Omega series times quantum-integer double sums.
    theta_form: the same with the brackets replaced by theta/eta quotients.
    eta_form: additionally rewrites the half-integral Omega series through
    eta and theta.  All three must agree coefficientwise.
    """
    frame = FRAME_QPUTS
    q_order = _as_order(q_order)
    pad = q_order + 1
    ext = q_order + Fraction(1, 2)

    oh = omega_half_integral_series(q_order)
    oi = omega_integral_series(betti, q_order, frame)

    form1 = oh * _bracket(1, ext, frame) - oi * _bracket(0, ext, frame, window)

    y = {"t": Fraction(1, 2), "s": Fraction(1, 2)}
    x = {"p": 1}
    th_ts = theta_product({"t": 1, "s": 1}, 2, pad, frame)
    pair2 = theta_pair(x, y, 2, pad, frame)
    e2 = eta(2, pad, prefactor=eta_prefactor).embed(frame)
    e1 = eta(1, pad, prefactor=eta_prefactor).embed(frame)
    e2_8 = e2**8
    e1_4_inv = (e1**4).invert()
    ip1 = inv_theta_pair(x, y, 1, q_order, frame, window)
    ip2 = inv_theta_pair(x, y, 2, q_order, frame, window)

    # symbol-free factors first, so the symbol-carrying Omega series (oi)
    # enters one product, not each intermediate of a left-to-right chain
    first_block = pair2 * (e2_8 * e1_4_inv) * ip1
    second_term = oi * (th_ts * ip2)
    form2 = oh * th_ts * first_block - second_term

    t3den = (e1**12) * theta_product({"t": 1, "s": 1}, 1, pad, frame)
    f3_head = divide_exact(th_ts, t3den) * 8
    form3 = f3_head * first_block - second_term

    # truncated(), not with_q_order(): with a tampered eta convention the
    # computable order drops below the request, and the coefficientwise
    # comparison should then locate the mismatch instead of erroring out
    return {
        "sum_form": form1.truncated(q_order),
        "theta_form": form2.truncated(q_order),
        "eta_form": form3.truncated(q_order),
    }


def primitive_betti_display(betti, q_order, window):
    """The Betti-realized (t = s = u) primitive series, built directly in (q,p,u):

    8 Theta(u^2,q^2)/Theta(u^2,q) eta(q^2)^8/eta(q)^16
      Theta(pu,q^2)Theta(p/u,q^2)/(Theta(pu,q)Theta(p/u,q))
    - (sum_d Omega_d|_u q^d)/(u - 1/u) Theta(u^2,q^2)/(Theta(up,q^2)Theta(p/u,q^2)).
    """
    frame = FRAME_QPU
    q_order = _as_order(q_order)
    pad = q_order + 1
    first = _jacobi_core(q_order) * 8
    th_u = theta_product({"u": 2}, 2, pad, frame)
    ip2 = inv_theta_pair({"p": 1}, {"u": 1}, 2, q_order, frame, window)
    oi = omega_integral_series(betti, q_order, frame)
    return first - oi * (th_u * ip2)


def check_primitive_chain(betti=None, q_order=6, eta_prefactor=True):
    """Coefficientwise comparison of the three primitive forms (symbols carried).

    Also checks that the Betti specialization t = s = u of the eta_form equals
    the directly built (q, p, u) display.  Returns a report dict.
    """
    from .series import agree

    betti = betti or BettiTable.default()
    window = Window(-2 * (int(q_order) + 4), 2 * (int(q_order) + 4), False)
    forms = primitive_pt_forms(betti, q_order, window, eta_prefactor)
    ok12, info12 = agree(forms["sum_form"], forms["theta_form"])
    ok13, info13 = agree(forms["sum_form"], forms["eta_form"])
    spec = forms["eta_form"].specialize({"t": {"u": 1}, "s": {"u": 1}})
    disp = primitive_betti_display(betti, q_order, window)
    okb, infob = agree(spec, disp)
    return {
        "sum_vs_theta": {"ok": ok12, "mismatch": info12},
        "sum_vs_eta": {"ok": ok13, "mismatch": info13},
        "betti_display": {"ok": okb, "mismatch": infob},
        "ok": ok12 and ok13 and okb,
    }


# -- asymptotics ----------------------------------------------------------------

def asymptotic_ph_gf(order):
    """(1-xy) prod_n (1-x^{n+1}y^{n-1})^{-1} (1-x^{n-1}y^{n+1})^{-1} (1-x^n y^n)^{-10}."""
    xy = {"x": 1, "y": 1}
    factors = [(xy, 1), (xy, -10, xy), ({"x": 2}, -1, xy), ({"y": 2}, -1, xy)]
    return product_expand(FRAME_XY, factors, order)


def asymptotic_betti_gf(order):
    """(1-x^2) prod_n (1-x^{2n})^{-12}."""
    x2 = {"x": 2}
    return product_expand(FRAME_X, [(x2, 1), (x2, -12, x2)], order)


def stabilization_check(betti=None, d_lo=5, d_hi=8, main=None, second=None):
    """Verify the large-d behaviour of shifted table entries.

    (a) shifted entries (i, j) with i < d/2, j < d/2 - 1 for d in [d_lo, d_hi]
        agree with the asymptotic generating function;
    (b) the Betti-dependent term contributes nothing at unshifted (i, j) with
        i, j < -d/2 - 1 for any d <= d_hi;
    (c) the main term's shifted coefficients stabilize in d beyond 3(i+j)/4
        and their limits again match the asymptotic series.
    """
    q_order = d_hi + 1
    _, main, second = _identity_terms(betti, q_order, main, second)
    gf = asymptotic_ph_gf(q_order)
    report = {"shifted": [], "vanishing": [], "stable": [], "ok": True}
    # each term sliced once per degree: (a) reads both from d_lo, (b) second from 1, (c) main from 2
    ms = {d: main.coefficient({"q": d}) for d in range(min(d_lo, 2), d_hi + 1)}
    ss = {d: second.coefficient({"q": d}) for d in range(min(d_lo, 1), d_hi + 1)}

    for d in range(d_lo, d_hi + 1):
        cells = signed_cells(ms[d] - ss[d])
        for i in range((d - 1) // 2 + 1):
            for j in range((d - 1) // 2):
                got = cells.get(_unshift(d, i, j), 0)
                if isinstance(got, LinExpr):
                    report["ok"] = False
                    report["shifted"].append({"d": d, "i": i, "j": j, "error": "symbolic"})
                    continue
                want = gf.coeff({"x": i, "y": j})
                ok = got == want
                report["ok"] &= ok
                report["shifted"].append(
                    {"d": d, "i": i, "j": j, "got": str(got), "want": str(want), "ok": ok}
                )

    for d in range(1, d_hi + 1):
        cells = signed_cells(ss[d])
        for i in range(-(d + 1), -((d + 2) // 2)):
            for j in range(-d, -((d + 2) // 2)):
                ok = not cells.get((i, j), 0)
                report["ok"] &= ok
                report["vanishing"].append({"d": d, "i": i, "j": j, "ok": ok})

    main_cells = {d: signed_cells(ms[d]) for d in range(2, d_hi + 1)}
    for i in range(4):
        for j in range(4):
            # onset: one degree beyond 3(i+j)/4 (the tighter bound misses by
            # one at e.g. (3,3), where d=5 still differs from the limit)
            d_start = (3 * (i + j)) // 4 + 2
            vals = [main_cells[d].get(_unshift(d, i, j), 0) for d in range(d_start, d_hi + 1)]
            stable = len(set(map(str, vals))) == 1
            match = stable and vals[0] == gf.coeff({"x": i, "y": j})
            report["ok"] &= match
            report["stable"].append(
                {"i": i, "j": j, "values": [str(v) for v in vals], "ok": match}
            )
    return report


def extremal_report(d_max, betti=None, main=None, second=None):
    """Status of the extremal column (unshifted j = -d) against the parity pattern.

    The ``extremal`` rows of :func:`grid_rows`: the conjectured pattern for
    shifted entries (i~, 0) is 1 at even i~ in [0, 2d+2] and 0 otherwise.
    Unknown cells are reported, never judged.
    """
    q_order = d_max + 1
    betti, main, second = _identity_terms(betti, q_order, main, second)
    records = []
    for d in range(d_max + 1):
        column = [r for r in grid_rows(d, betti, q_order, main, second) if r[0] == "extremal"]
        for shifted, (_, _, v, want) in enumerate(column):
            if isinstance(v, LinExpr):
                status = "unknown"
            else:
                status = "match" if v == want else "mismatch"
            records.append(
                {
                    "d": d,
                    "i_shifted": shifted,
                    "value": coeff_to_json(v),
                    "expected": str(want),
                    "status": status,
                }
            )
    return records
