import random

import pytest

from enrq.ring import rat
from enrq.series import Series, agree


def assert_agree(a, b, msg=""):
    ok, info = agree(a, b)
    assert ok, f"{msg or 'series disagree'}: first mismatch {info}"


def assert_identical(a, b):
    """Bit-identical series: frame, terms, coefficient types, q_order and window (with types)."""
    assert a.frame == b.frame
    assert a.q_order == b.q_order and type(a.q_order) is type(b.q_order)
    assert a.window == b.window and type(a.window) is type(b.window)
    assert a.terms == b.terms
    assert {e: type(c) for e, c in a.terms.items()} == {e: type(c) for e, c in b.terms.items()}


@pytest.fixture
def rng():
    return random.Random(20260811)


def random_series(rng, frame, q_order, max_terms=6, coeff_range=4, exp_range=2, min_weight=0):
    """Small random series: integer q-exponents, lattice exponents elsewhere."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = []
        for i, name in enumerate(frame.names):
            if frame.weights[i]:
                lo = max(min_weight, 0)
                e.append(frame.denoms[i] * rng.randint(lo, int(q_order) - 1))
            else:
                e.append(rng.randint(-exp_range, exp_range))
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms[tuple(e)] = rat(c)
    return Series(frame, terms, q_order)
