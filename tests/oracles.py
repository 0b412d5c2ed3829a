"""Replaced code paths, kept only as the references the equivalence tests compare against.

``tuple_madd`` is the sparse kernel that the packed-key ``enrq.kernel.madd``
replaced, and ``mul_oracle`` / ``divide_exact_oracle`` are ``Series.__mul__``
and ``divide_exact`` as they were written on it.  ``exp_series_oracle`` is
the power loop that the graded Euler solve replaced in ``exp_series``,
``plethystic_exp_oracle`` the Adams-sum route of ``plethystic_exp`` fed to
it, ``plethystic_log_oracle`` the Moebius sum of ``Fraction``-scaled Adams
images of ``log_series`` that ``plethystic_log`` was, and
``specialize_oracle`` is ``Series.specialize`` on ``Fraction`` exponents.
Their products run on the tuple kernel.  ``agree_oracle`` is ``agree`` as a
scan of the tuple-keyed terms, before series stored slices.

``jacobi_core_oracle``, ``ph_main_term_jacobi_oracle``,
``primitive_pt_forms_oracle`` and ``primitive_betti_display_oracle`` are the
perverse-Hodge assemblies in the order they were first written: the
three-variable theta numerator divided by each theta in turn, and the Omega
series multiplied into the large factor first.  Only the bracketing changed,
so they run on the library's own series arithmetic.

A chain of oracle steps (the power loops, the product of binomials) keeps
its intermediates as :class:`Terms`, tuple-keyed term dicts with the
truncation state of a series, and builds one ``Series`` at the end.
"""

from fractions import Fraction
from math import gcd

from enrq.perverse import _bracket, _main_prefactor, omega_half_integral_series, omega_integral_series
from enrq.qfunc import eta, inv_theta_pair, mobius, theta, theta_pair, theta_product
from enrq.ring import LinExpr, coeff_to_json, exact, qdiv, rat
from enrq.series import (
    FRAME_QPU,
    FRAME_QPUTS,
    BadConstantTerm,
    InexactDivision,
    OffLattice,
    Series,
    TruncationLoss,
    Window,
    WindowUnderflow,
    _as_order,
    _bounds,
    _min_order,
    _mul_order,
    _window_add,
    _window_mul,
    divide_exact,
    log_series,
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


class Terms:
    """A tuple-keyed series: ``{exponent tuple: coefficient}`` plus truncation state.

    The constructor cuts as the ``Series`` constructor does: zero
    coefficients and terms at or above the order or above the window top
    are dropped, and a term below the window floor raises ``ValueError``.
    It has what ``_mul_order``, ``_window_mul`` and ``_window_add`` read of
    a series, so the oracle steps below take a ``Terms`` or a ``Series``.
    """

    def __init__(self, frame, terms, q_order=None, window=None):
        self.frame, self.q_order, self.window = frame, _as_order(q_order), window
        bn, bd = _bounds(frame, self.q_order)
        pi = frame.p_index
        self.terms = {}
        for e, c in terms.items():
            if not c or (bd and frame.weight_scaled(e) * bd >= bn):
                continue
            if window is not None:
                if e[pi] < window.lo:
                    raise ValueError("term below declared window floor")
                if e[pi] > window.hi:
                    continue
            self.terms[e] = c

    def wmin(self):
        if not self.terms:
            return None
        return Fraction(min(map(self.frame.weight_scaled, self.terms)), self.frame.wden)

    def p_support(self):
        pi = self.frame.p_index
        if pi < 0 or not self.terms:
            return None
        ps = [e[pi] for e in self.terms]
        return min(ps), max(ps)

    def series(self):
        return Series(self.frame, self.terms, self.q_order, self.window)


def mul_terms(a, b):
    """``a * b`` for two series or :class:`Terms`, on the tuple kernel, as ``Terms``."""
    if a.frame != b.frame:
        raise ValueError(f"frame mismatch: {a.frame!r} vs {b.frame!r}")
    window = _window_mul(a, b)
    q_order = _mul_order(a, b)
    frame = a.frame
    f, g = a.terms, b.terms
    if len(g) < len(f):
        f, g = g, f
    out = {}
    if f:
        bn, bd = _bounds(frame, q_order)
        if window is not None:
            tuple_madd(out, f, g, frame.wnum, bn, bd, frame.p_index, window.lo, window.hi)
        else:
            tuple_madd(out, f, g, frame.wnum, bn, bd, -1, 0, 0)
    return Terms(frame, out, q_order, window)


def add_terms(a, b):
    """``a + b`` for two series or :class:`Terms`, as ``Terms``."""
    out = dict(a.terms)
    for e, c in b.terms.items():
        v = out.get(e)
        out[e] = c if v is None else v + c
    return Terms(a.frame, out, _min_order(a.q_order, b.q_order), _window_add(a, b))


def scale_terms(a, r):
    """``a * r`` for a rational or ``LinExpr`` scalar ``r``, as ``Terms``."""
    return Terms(a.frame, {e: c * r for e, c in a.terms.items()}, a.q_order, a.window)


def cut_terms(a, q_order):
    """``a.with_q_order(q_order)`` for an order no larger than ``a``'s, as ``Terms``."""
    return Terms(a.frame, a.terms, q_order, a.window)


def mul_oracle(a, b):
    """``a * b`` for two series, on the tuple kernel."""
    return mul_terms(a, b).series()


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
    return Series(frame, g, q_out, None)


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


def exp_series_oracle(f):
    """``exp_series`` as the power loop ``sum f^n / n!``, one truncated product per power."""
    if f.terms and (f.wmin() or 0) <= 0:
        raise BadConstantTerm("exp argument must have strictly positive weight")
    if f.terms and f.q_order is None:
        raise BadConstantTerm("exp of an exact series is infinite; set a truncation order")
    target = f.q_order
    acc = Terms(f.frame, {f.frame.zero_exp(): 1}, target, f.window)
    term = acc
    n = 1
    while term.terms:
        term = cut_terms(scale_terms(mul_terms(term, f), rat(1, n)), target)
        if not term.terms:
            break
        acc = add_terms(acc, term)
        n += 1
    window = f.window
    if f.terms and window is not None and window.floored and window.lo < 0:
        bn, bd = _bounds(f.frame, target)
        # at most N factors of f fit below the truncation order
        N = (bn - 1) // (min(map(f.frame.weight_scaled, f.terms)) * bd)
        window = Window((N + 1) * window.lo, window.hi + N * window.lo, True)
        return Series(f.frame, acc.terms, target, window)
    return acc.series()


def plethystic_exp_oracle(f):
    """``plethystic_exp`` of an unwindowed argument: ``exp(sum_k adams(f, k) / k)``."""
    if f.has_symbols():
        raise BadConstantTerm("plethystic exp of a symbol-carrying series")
    if f.terms and (f.wmin() or 0) <= 0:
        raise BadConstantTerm("plethystic exp needs strictly positive weights")
    if f.q_order is None:
        raise BadConstantTerm("plethystic exp needs a finite truncation order")
    if f.window is not None:
        raise WindowUnderflow("plethystic exp of a windowed series needs integer coefficients")
    acc = Series.zero(f.frame, f.q_order)
    k = 1
    wmin = f.wmin() or Fraction(1)
    while k * wmin < f.q_order:
        acc = acc + f.adams(k) * rat(1, k)
        k += 1
    return exp_series_oracle(acc)


def plethystic_log_oracle(F):
    """``plethystic_log`` as ``sum_k adams(log F, k) * mu(k)/k`` in ``Fraction``
    coefficients, made ``int`` where integral at the end."""
    L = log_series(F)
    if L.is_zero():
        return L
    if L.q_order is None:
        return L
    acc = Series.zero(L.frame, L.q_order, L.window)
    wmin = L.wmin()
    k = 1
    while k * wmin < L.q_order:
        m = mobius(k)
        if m:
            acc = acc + L.adams(k) * rat(m, k)
        k += 1
    return acc.map_coeffs(exact)


def specialize_oracle(f, mapping):
    """``f.specialize(mapping)`` with one ``Fraction`` per exponent, through ``Frame.exps``."""
    frame = f.frame
    targets = {}
    for name, target in mapping.items():
        i = frame.index.get(name)
        if i is None:
            raise KeyError(f"variable {name!r} not in {frame!r}")
        if frame.weights[i]:
            raise TruncationLoss(f"cannot substitute the truncated variable {name!r}")
        if target in (1, None):
            target = {}
        if f.window is not None and (name == "p" or "p" in target):
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
    for e, c in f.terms.items():
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
    window = f.window
    if window is not None and "p" not in new_frame.index:
        window = None
    return Series(new_frame, out, f.q_order, window)


def agree_oracle(a, b):
    """``agree`` as a scan of every exponent tuple of both series."""
    if a.frame != b.frame:
        return False, {"reason": "frame mismatch"}
    frame = a.frame
    bn, bd = _bounds(frame, _min_order(a.q_order, b.q_order))

    def valid(e):
        if bd and frame.weight_scaled(e) * bd >= bn:
            return False
        return all(w is None or e[frame.p_index] <= w.hi for w in (a.window, b.window))

    mismatches = sorted((e, a.terms.get(e, 0), b.terms.get(e, 0))
                        for e in set(a.terms) | set(b.terms) if valid(e))
    mismatches = [m for m in mismatches if m[1] != m[2]]
    if not mismatches:
        return True, None
    e, ca, cb = mismatches[0]
    mono = {n: str(Fraction(e[i], frame.denoms[i])) for i, n in enumerate(frame.names) if e[i]}
    return False, {"monomial": mono, "left": coeff_to_json(ca), "right": coeff_to_json(cb),
                   "count": len(mismatches)}


def jacobi_core_oracle(q_order):
    """``perverse._jacobi_core`` dividing Theta(pu,q^2)Theta(p/u,q^2) by each theta in turn."""
    frame = FRAME_QPU
    q_order = _as_order(q_order)
    A = divide_exact(theta({"u": 2}, 2, q_order, frame), theta({"u": 2}, 1, q_order, frame))
    e2 = eta(2, q_order + 1).embed(frame)
    e1 = eta(1, q_order + 1).embed(frame)
    B = divide_exact(e2**8, e1**16).with_q_order(q_order)
    N = theta({"p": 1, "u": 1}, 2, q_order, frame) * theta({"p": 1, "u": -1}, 2, q_order, frame)
    C = divide_exact(N, theta({"p": 1, "u": 1}, 1, q_order, frame))
    C = divide_exact(C, theta({"p": 1, "u": -1}, 1, q_order, frame))
    return (A * B * C).with_q_order(q_order)


def ph_main_term_jacobi_oracle(q_order):
    """``perverse.ph_main_term_jacobi`` on :func:`jacobi_core_oracle`."""
    q_order = _as_order(q_order)
    return (_main_prefactor(FRAME_QPU) * jacobi_core_oracle(q_order)).with_q_order(q_order)


def primitive_pt_forms_oracle(betti, q_order, window, eta_prefactor=True):
    """``perverse.primitive_pt_forms`` multiplying left to right, the Omega series first."""
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

    first_block = pair2 * e2_8 * e1_4_inv * ip1
    second_term = oi * th_ts * ip2
    form2 = oh * th_ts * first_block - second_term

    t3den = (e1**12) * theta_product({"t": 1, "s": 1}, 1, pad, frame)
    f3_head = divide_exact(th_ts, t3den) * 8
    form3 = f3_head * first_block - second_term
    return {
        "sum_form": form1.truncated(q_order),
        "theta_form": form2.truncated(q_order),
        "eta_form": form3.truncated(q_order),
    }


def primitive_betti_display_oracle(betti, q_order, window):
    """``perverse.primitive_betti_display`` multiplying the Omega series in first."""
    frame = FRAME_QPU
    q_order = _as_order(q_order)
    pad = q_order + 1
    first = jacobi_core_oracle(q_order) * 8
    th_u = theta_product({"u": 2}, 2, pad, frame)
    ip2 = inv_theta_pair({"p": 1}, {"u": 1}, 2, q_order, frame, window)
    oi = omega_integral_series(betti, q_order, frame)
    return first - oi * th_u * ip2
