"""The tuple-keyed product kernel and the Series operations built on it.

``tuple_madd`` is the sparse kernel that the packed-key ``enrq.kernel.madd``
replaced, and ``mul_oracle`` / ``divide_exact_oracle`` are ``Series.__mul__``
and ``divide_exact`` as they were written on it.  They are kept here only as
the references the equivalence tests compare against.
"""

from fractions import Fraction
from math import gcd

from enrq.ring import LinExpr, qdiv
from enrq.series import (
    InexactDivision,
    Series,
    WindowUnderflow,
    _bounds,
    _mul_order,
    _window_mul,
)


def tuple_madd(out, f, g, wnum, bn, bd, p_idx, p_lo, p_hi):
    """Accumulate all term products of ``f`` and ``g`` into ``out``.

    A product exponent ``e`` is kept only if ``dot(wnum, e) * bd < bn``
    (no truncation when ``bd == 0``) and, for ``p_idx >= 0``,
    ``p_lo <= e[p_idx] <= p_hi``.  Zero coefficients are pruned so ``out``
    never stores cancellations.
    """
    nv = len(wnum)
    rng = range(nv)
    gitems = []
    for eg, cg in g.items():
        w = 0
        for i in rng:
            w += wnum[i] * eg[i]
        gitems.append((eg, cg, w, eg[p_idx] if p_idx >= 0 else 0))
    get = out.get
    for ef, cf in f.items():
        wf = 0
        for i in rng:
            wf += wnum[i] * ef[i]
        pf = ef[p_idx] if p_idx >= 0 else 0
        for eg, cg, wg, pg in gitems:
            if bd and (wf + wg) * bd >= bn:
                continue
            if p_idx >= 0:
                pe = pf + pg
                if pe < p_lo or pe > p_hi:
                    continue
            e = tuple([ef[i] + eg[i] for i in rng])
            c = get(e)
            if c is None:
                c = cf * cg
                if c:
                    out[e] = c
            else:
                c = c + cf * cg
                if c:
                    out[e] = c
                else:
                    del out[e]
    return out


def mul_oracle(a, b):
    """``a * b`` for two series, on the tuple kernel."""
    a._check_frame(b)
    window = _window_mul(a, b)
    q_order = _mul_order(a, b)
    frame = a.frame
    if not a.terms or not b.terms:
        return Series(frame, {}, q_order, window, _clean=True)
    f, g = a.terms, b.terms
    if len(g) < len(f):
        f, g = g, f
    out = {}
    bn, bd = _bounds(frame, q_order)
    if window is not None:
        tuple_madd(out, f, g, frame.wnum, bn, bd, frame.p_index, window.lo, window.hi)
    else:
        tuple_madd(out, f, g, frame.wnum, bn, bd, -1, 0, 0)
    return Series(frame, out, q_order, window, _clean=True)


def divide_exact_oracle(num, den):
    """``divide_exact`` as a remainder loop on the tuple kernel."""
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
    bound = None if q_out is None else q_out + wd
    exact_top = None
    if bound is None:
        wmax_num = max(map(frame.weight_scaled, num.terms)) if num.terms else 0
        wmax_den = max(map(frame.weight_scaled, den.terms))
        exact_top = Fraction(wmax_num - wmax_den, frame.wden)
    bn, bd = _bounds(frame, bound)

    r = dict(num.terms)
    g = {}
    neg_den = {e: -c for e, c in den.terms.items()}
    while r:
        wrs = min(map(frame.weight_scaled, r))
        if bound is not None and Fraction(wrs, frame.wden) >= bound:
            break
        if exact_top is not None and Fraction(wrs, frame.wden) - wd > exact_top:
            raise InexactDivision("quotient of exact series does not terminate")
        rslice = {e: c for e, c in r.items() if frame.weight_scaled(e) == wrs}
        qslice = _divide_slice(rslice, d0, frame)
        g.update(qslice)
        tuple_madd(r, qslice, neg_den, frame.wnum, bn, bd, -1, 0, 0)
    return Series(frame, g, q_out, None, _clean=True)


def _divide_slice(nslice, dslice, frame):
    """Exact division of finite Laurent slices; divisor must be line-supported."""
    (e0, c0) = next(iter(dslice.items()))
    if len(dslice) == 1:
        out = {}
        for e, c in nslice.items():
            out[tuple(e[i] - e0[i] for i in range(frame.nvars))] = qdiv(c, c0)
        return out
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
    classes = {}
    for e, coef in nslice.items():
        m = e[c] // dc
        rep = tuple(e[i] - m * delta[i] for i in range(frame.nvars))
        k = (e[c] - rep[c]) // dc
        classes.setdefault(rep, {})[k] = coef
    out = {}
    kd_max, kd_min = max(duni), min(duni)
    lead = duni[kd_max]
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
            e = tuple(rep[i] - e0[i] + m * delta[i] for i in range(frame.nvars))
            out[e] = qc
    return out
