"""q-series special functions and plethystic calculus.

Conventions used throughout (weight -1, index 1/2 for the theta function):

    eta(q)      = q^(1/24) prod_{m>=1} (1 - q^m)
    Theta(x, q) = (x^(1/2) - x^(-1/2)) prod_{m>=1} (1-x q^m)(1-x^{-1} q^m)/(1-q^m)^2
    [n]_x       = x^{-(n-1)/2} (1 + x + ... + x^{n-1})

Plethystic Exp/Log twist the ordinary exp/log by Adams operations acting on
the scaled exponent lattice (the k-th Adams operation multiplies every
scaled exponent by k).
"""

from fractions import Fraction

from .series import (
    FRAME_Q,
    FRAME_TS,
    BadConstantTerm,
    Series,
    WindowOverflow,
    WindowUnderflow,
    Window,
    _guard,
    log_series,
    product_expand,
)

__all__ = [
    "quantum_integer",
    "eta",
    "theta",
    "theta_product",
    "theta_pair",
    "inv_zero_mode",
    "inv_theta_pair",
    "plethystic_exp",
    "plethystic_log",
    "virtual_shift",
    "mobius",
]


def quantum_integer(n):
    """[n] = (ts)^{-(n-1)/2} (1 + ts + ... + (ts)^{n-1}), symmetric in (ts) -> 1/(ts)."""
    n = int(n)
    if n < 1:
        raise ValueError("quantum integer needs n >= 1")
    terms = {(e, e): 1 for e in range(1 - n, n, 2)}  # scaled (t, s) exponents
    return Series(FRAME_TS, terms, None, None)


def eta(scale, q_order, prefactor=True):
    """eta(q^scale) = q^(scale/24) prod (1 - q^{scale m}), to the given order.

    ``prefactor=False`` drops the q^(scale/24) factor (negative-control knob
    for convention checks only).
    """
    scale = int(scale)
    if scale < 1:
        raise ValueError("eta scale must be >= 1")
    qs = {"q": scale}
    out = product_expand(FRAME_Q, [(qs, 1, qs)], q_order)
    if prefactor:
        out = out * Series.monomial(FRAME_Q, {"q": Fraction(scale, 24)})
    return out


def _inverse(m):
    """The monomial 1/m, as a {name: exponent} mapping."""
    return {v: -e for v, e in m.items()}


def _combine(a, b):
    """The monomial product a*b, zero exponents dropped."""
    out = dict(a)
    for v, e in b.items():
        out[v] = out.get(v, Fraction(0)) + e
    return {v: e for v, e in out.items() if e}


def theta(x, scale, q_order, frame):
    """Theta(x, q^scale) = (x^(1/2) - x^(-1/2)) theta_product(x, scale) for a monomial x."""
    half = {v: Fraction(e) / 2 for v, e in dict(x).items()}
    zero_mode = Series.monomial(frame, half) - Series.monomial(frame, _inverse(half))
    return zero_mode * theta_product(x, scale, q_order, frame)


def theta_product(x, scale, q_order, frame):
    """Theta(x, q^scale) without its zero mode:
    prod_{m>=1} (1 - x q^{sm})(1 - x^{-1} q^{sm}) / (1 - q^{sm})^2, s = scale."""
    qs = {"q": int(scale)}
    factors = [(dict(x, **qs), 1, qs), (dict(_inverse(x), **qs), 1, qs), (qs, -2, qs)]
    return product_expand(frame, factors, q_order)


def theta_pair(x, y, scale, q_order, frame):
    """Theta(x*y, q^scale) * Theta(x/y, q^scale), lattice-safe for half-step y.

    The paired zero modes combine to x - y - 1/y + 1/x, so only x and y
    themselves (not their square roots) must lie on the lattice.
    """
    x = {v: Fraction(e) for v, e in dict(x).items()}
    y = {v: Fraction(e) for v, e in dict(y).items()}
    zero_mode = (
        Series.monomial(frame, x)
        - Series.monomial(frame, y)
        - Series.monomial(frame, _inverse(y))
        + Series.monomial(frame, _inverse(x))
    )
    return zero_mode * product_expand(frame, _pair_factors(x, y, scale, 1), q_order)


def _pair_factors(x, y, scale, e):
    """Factor families of the theta_pair product to the power ``e`` (+1 or -1):

    prod_m [(1 - xy q^{sm}) (1 - x/y q^{sm}) (1 - y/x q^{sm}) (1 - q^{sm}/(xy))]^e
           (1 - q^{sm})^{-4e},  s = scale.
    """
    qs = {"q": int(scale)}
    pairs = [_combine(_combine(a, b), qs) for a in (x, _inverse(x)) for b in (y, _inverse(y))]
    return [(m, e, qs) for m in pairs] + [(qs, -4 * e, qs)]


def inv_zero_mode(x, y, q_order, frame, window):
    """sum_{m>=1} [m]_{y^2} x^m = x / ((1 - xy)(1 - x/y)), cut above the window top.

    The inverse of the zero mode x - y - 1/y + 1/x of :func:`theta_pair`,
    expanded ascending in x, which must raise p.  Only the top of the
    requested ``window`` is read: the result carries the window floored at
    x^1.  With ``y = {}`` the coefficient of x^m is m.  A window top that
    puts the last term beyond a packed field raises :class:`WindowOverflow`
    before any term is built.
    """
    ex, ey = frame.exps(x), frame.exps(y)
    if window is None or frame.p_index < 0 or ex[frame.p_index] <= 0:
        raise WindowUnderflow("inv_zero_mode needs x raising p and a p-window")
    step = ex[frame.p_index]
    top = max(window.hi // step, 1)  # the last m; its terms reach m|x| + (m-1)|y|
    bounds = [top * abs(u) + (top - 1) * abs(v) for u, v in zip(ex, ey)]
    _guard(frame, bounds, "inv_zero_mode", WindowOverflow)
    terms = {}
    m = 1
    while m * step <= window.hi:
        # [m]_{y^2} x^m = sum_{a+b=m-1} y^{a-b} x^m
        for a in range(m):
            e = tuple(m * u + (2 * a - m + 1) * v for u, v in zip(ex, ey))
            terms[e] = terms.get(e, 0) + 1
        m += 1
    return Series(frame, terms, q_order, Window(step, window.hi, True))


def inv_theta_pair(x, y, scale, q_order, frame, window):
    """1 / theta_pair(x, y, scale), expanded ascending in the x direction.

    The inverted zero mode is :func:`inv_zero_mode`, so the result is
    p-windowed with a known support floor at x^1.
    """
    x = {v: Fraction(e) for v, e in dict(x).items()}
    y = {v: Fraction(e) for v, e in dict(y).items()}
    zm_inv = inv_zero_mode(x, y, q_order, frame, window)
    return zm_inv * product_expand(frame, _pair_factors(x, y, scale, -1), q_order)


def plethystic_exp(f):
    """Exp(f) = exp(sum_k adams(f, k)/k); converts sums to products.

    ``D log Exp(sum c m) = sum c w(m) sum_k m^k`` for any exact ``c``, with
    ``D`` the weighted Euler operator, so Exp(f) is the convergent product
    prod (1 - m)^(-c) over the terms c*m of f, evaluated by
    :func:`enrq.series.product_expand`: its coefficients are ints for an
    integer f.  A p-windowed argument needs a support floor >= 1.
    Symbol-carrying arguments are rejected (Exp is not affine-linear).
    """
    if f.has_symbols():
        raise BadConstantTerm("plethystic exp of a symbol-carrying series")
    if f.terms and (f.wmin() or 0) <= 0:
        raise BadConstantTerm("plethystic exp needs strictly positive weights")
    if f.q_order is None:
        raise BadConstantTerm("plethystic exp needs a finite truncation order")
    window = f.window
    if window is not None:
        if window.lo < 1:
            raise WindowUnderflow("plethystic exp of a windowed series needs a floor >= 1")
        window = Window(0, window.hi, True)
    return product_expand(f.frame, [(e, -c) for e, c in f.items_sorted()], f.q_order, window)


def plethystic_log(F):
    """Log(F): plethystic inverse of Exp, via Moebius inversion over Adams ops.

    ``Log F = sum_k mu(k)/k adams_k(log F)``, run by
    :func:`enrq.series.log_series` on the Euler derivative of ``log F``:
    the coefficients are ints for an integer F, ``Fraction`` only where not
    integral, and the rational parts of a symbol-carrying coefficient alike.
    """
    return log_series(F, mobius)


def virtual_shift(f, dim):
    """Multiply by (ts)^(-dim/2), the Hodge weight shift of a dim-dimensional space."""
    dim = int(dim)
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    if dim == 0:
        return f
    return f * Series.monomial(f.frame, {"t": Fraction(-dim, 2), "s": Fraction(-dim, 2)})


def mobius(n):
    if n == 1:
        return 1
    result = 1
    k = n
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    if k > 1:
        result = -result
    return result
