import random

from oracles import tuple_madd

from enrq.kernel import BACKEND, PackedSlice, madd
from enrq.ring import betti_symbol, rat
from enrq.series import FRAME_QPU, FRAME_QPUTS, FRAME_X, _p_keys, _pack, _unpack


def _packed(frame, terms):
    (bucket,) = _pack(frame, terms, graded=False).values()
    return PackedSlice(bucket)


def _random_terms(rng, nvars, nterms):
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-4, 4) for _ in range(nvars))
        out[e] = rat(rng.randint(-5, 5)) or rat(1)
    return out


def test_packed_products_match_the_tuple_kernel():
    rng = random.Random(7)
    for frame in (FRAME_QPU, FRAME_QPUTS):
        pi = frame.p_index
        for _ in range(60):
            f = _random_terms(rng, frame.nvars, rng.randint(1, 12))
            g = _random_terms(rng, frame.nvars, rng.randint(1, 12))
            lo = rng.randint(-9, 4)
            hi = rng.randint(lo - 1, 9)
            got = madd({}, _packed(frame, f), _packed(frame, g), frame.base, *_p_keys(frame, lo, hi))
            assert _unpack(frame, got) == tuple_madd({}, f, g, frame.wnum, 0, 0, pi, lo, hi)
            got = madd({}, _packed(frame, f), _packed(frame, g), frame.base, None, None)
            assert _unpack(frame, got) == tuple_madd({}, f, g, frame.wnum, 0, 0, -1, 0, 0)


def test_symbol_coefficients_pass_through():
    b = betti_symbol(1, 2)
    f = _packed(FRAME_X, {(1,): 2 + b})
    g = _packed(FRAME_X, {(2,): rat(3)})
    out = madd({}, f, g, FRAME_X.base, None, None)
    assert _unpack(FRAME_X, out) == {(3,): 6 + 3 * b}


def test_cancellation_pruned():
    f = _packed(FRAME_X, {(0,): rat(1), (1,): rat(-1)})
    g = _packed(FRAME_X, {(0,): rat(1), (1,): rat(1)})
    out = madd({}, f, g, FRAME_X.base, None, None)
    assert _unpack(FRAME_X, out) == {(0,): rat(1), (2,): rat(-1)}


def test_selected_backend_reported():
    assert BACKEND == "py"
