"""The sparse product kernel, over packed exponent keys.

Packed layout: an exponent tuple of a frame with ``n`` variables is one
non-negative int made of ``n`` fields of ``FIELD_BITS`` bits.  Each field
holds its exponent plus ``BIAS``, so it stores exponents in ``[-BIAS, BIAS)``.
The window variable ``p`` sits in the most significant field, the other
variables below it in tuple order (the first one lowest).  Hence

* sorting keys sorts terms by ``p`` first, and a p-range is a key range;
* ``key(a) + key(b) - base == key(a + b)`` while every field of ``a + b``
  stays in range, where ``base == key(0)`` is the all-bias key.

Nothing here checks the field range: before a packed operation the caller
bounds every field a priori and raises (see ``enrq.series.FieldOverflow``)
when a product could leave it, so a field never wraps into its neighbour.

``madd`` multiplies one weight slice by one weight slice.  The truncation
cut is the caller's loop bound (slices are graded by weight), so the kernel
sees only the p-window, which it applies by bisecting the p-sorted ``g``.

``BACKEND`` names the kernel for the series cache key and benchmark records;
it is the constant ``"py"``.
"""

from bisect import bisect_left

__all__ = ["BACKEND", "BIAS", "FIELD_BITS", "FIELD_MASK", "PackedSlice", "madd"]

BACKEND = "py"

FIELD_BITS = 20
BIAS = 1 << (FIELD_BITS - 1)
FIELD_MASK = (1 << FIELD_BITS) - 1


class PackedSlice:
    """Terms of one weight slice as ``(key, coefficient)`` pairs sorted by key."""

    __slots__ = ("items", "keys")

    def __init__(self, terms):
        self.items = sorted(terms.items())
        self.keys = [k for k, _ in self.items]

    def __len__(self):
        return len(self.items)


def madd(out, f, g, base, lo, hi):
    """Accumulate the term products of slices ``f`` and ``g`` into ``out``.

    ``out`` maps packed keys to coefficients.  A product key ``e`` is kept
    only if ``lo <= e < hi``; ``lo = None`` keeps every product.  Zero
    coefficients are pruned, so ``out`` never stores cancellations.
    """
    get = out.get
    gitems, gkeys = g.items, g.keys
    span = gitems
    for kf, cf in f.items:
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
