"""The sparse product kernel, over packed exponent keys.

Packed layout: an exponent tuple of a frame with ``n`` variables is one
non-negative int made of ``n + 1`` fields of ``FIELD_BITS`` bits.  The
lowest field is the symbol field (unbiased, see below).  Each variable
field above it holds its exponent plus ``BIAS``, so it stores exponents in
``[-BIAS, BIAS)``.  The window variable ``p`` sits in the most significant
field, the other variables below it in tuple order (the first one lowest,
just above the symbol field).  Hence

* sorting keys sorts terms by ``p`` first, and a p-range is a key range;
* ``key(a) + key(b) - base == key(a + b)`` while every field of ``a + b``
  stays in range, where ``base == key(0)`` is the all-bias key.

Symbol field: a coefficient ``c0 + sum_s c_s * b_s`` (``b_s`` a formal Betti
symbol, see :mod:`enrq.ring`) at exponent ``e`` is stored as the entries
``key(e) -> c0`` and ``key(e) + id(b_s) -> c_s``, with the fixed id
``id(b(d, i)) = 1 + 2 d^2 + d + i`` (:func:`enrq.ring.symbol_id`) and 0 for
the constant part.  Every stored coefficient is an ``int`` or a
``Fraction``.  A product of a symbol entry and a constant entry keeps the
symbol's id, since the constant's field is 0; a product of two symbol
entries would be quadratic in the symbols, and the callers refuse it per
slice before they multiply (see :meth:`PackedSlice.symbolic`).

Nothing here checks the field range: before a packed operation the caller
bounds every field a priori and raises (see ``enrq.series.FieldOverflow``)
when a product could leave it, so a field never wraps into its neighbour.

``madd`` multiplies one weight slice by one weight slice.  The truncation
cut is the caller's loop bound (slices are graded by weight), so the kernel
sees only the p-window, which it applies by bisecting the p-sorted ``g``.
Slices are dicts, so an unwindowed product never sorts.

``BACKEND`` names the kernel for the series cache key and benchmark records;
it is the constant ``"py"``.
"""

from bisect import bisect_left

__all__ = ["BACKEND", "BIAS", "FIELD_BITS", "FIELD_MASK", "PackedSlice", "madd"]

BACKEND = "py"

FIELD_BITS = 20
BIAS = 1 << (FIELD_BITS - 1)
FIELD_MASK = (1 << FIELD_BITS) - 1


class PackedSlice(dict):
    """One weight slice, ``{packed key: coefficient}``; never changed once stored."""

    __slots__ = ("_by_key", "_symbolic")

    def symbolic(self):
        """Whether some key has a nonzero symbol field, computed on first use."""
        if not hasattr(self, "_symbolic"):
            self._symbolic = any(map(FIELD_MASK.__and__, self))
        return self._symbolic

    def by_key(self):
        """The ``(key, coefficient)`` pairs and the keys in key order, sorted on first use."""
        if not hasattr(self, "_by_key"):
            items = sorted(self.items())
            self._by_key = items, [k for k, _ in items]
        return self._by_key


def madd(out, f, g, base, lo, hi):
    """Accumulate the term products of slices ``f`` and ``g`` into ``out``.

    ``out`` maps packed keys to coefficients.  A product key ``e`` is kept
    only if ``lo <= e < hi``; ``lo = None`` keeps every product.  Zero
    coefficients are pruned, so ``out`` never stores cancellations.
    """
    get = out.get
    if lo is None:
        span = g.items()
    else:
        gitems, gkeys = g.by_key()
    for kf, cf in f.items():
        kf -= base
        if lo is not None:
            i = bisect_left(gkeys, lo - kf)
            span = gitems[i:bisect_left(gkeys, hi - kf, i)]
        for kg, cg in span:
            e = kf + kg
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
