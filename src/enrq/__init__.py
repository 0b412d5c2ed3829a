"""Exact q-series engine for refined curve counting on Enriques Calabi-Yau threefolds.

Truncated multivariate Laurent series over exact rationals (optionally
extended by formal Betti-number symbols), q-series special functions and
plethystic calculus, the stable-pair / sheaf-counting pipeline in fiber
classes, and perverse-Hodge-number tables with their asymptotics.
"""

from .kernel import BACKEND as KERNEL_BACKEND
from .ring import BettiSymbol, LinExpr, SymbolDegreeOverflow, betti_symbol, rat
from .series import (
    FRAME_P0,
    FRAME_PU,
    FRAME_PU0,
    FRAME_Q,
    FRAME_QP,
    FRAME_QPU,
    FRAME_QPUTS,
    FRAME_QTS,
    FRAME_TS,
    FRAME_X,
    FRAME_XY,
    BadConstantTerm,
    FieldOverflow,
    Frame,
    InexactDivision,
    NonConvergentFactor,
    NonUnitLeadingTerm,
    OffLattice,
    OutsideValidWindow,
    Series,
    SeriesError,
    TruncationLoss,
    Window,
    WindowUnderflow,
    adams,
    agree,
    divide_exact,
    exp_series,
    log_series,
    product_expand,
)
from .qfunc import (
    eta,
    inv_theta_pair,
    mobius,
    plethystic_exp,
    plethystic_log,
    quantum_integer,
    theta,
    theta_pair,
    virtual_shift,
)

__version__ = "0.1.0"
