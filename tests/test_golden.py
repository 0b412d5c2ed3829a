"""Golden outputs: sha256 of the canonical JSON of the paper's main series.

The hashes were taken before coefficients were kept as ints while integral;
a change of coefficient representation must leave every printed coefficient,
truncation order and window as it was.  The tables use shared main and Betti
terms at q_order 16; ``perverse_table(d)`` with its own defaults gave the same
hash.  The three p-windowed hashes cover the windowed geometric series
sum_m [m] p^m (``enrq.qfunc.inv_zero_mode``) in each of its uses: the
wallcrossing prefactor of ``pt_fiber_full``, the even bracket and the
inverted theta pairs of the three-form chain; they were taken when a series
could still carry a window without a floor.  ``CLI_GOLDEN`` pins the series
of every ``enrq expand`` id at ``--q-order 8`` (default window and Betti
data) and the Euler fiber series; they were taken while every product
builder still cut its own factor list.  ``SUM_GOLDEN`` pins the sum builders
(the wallcrossing assembly, refined, Euler and windowed, the rank-0 exponent
argument and ordinary log, and both brackets of the three-form chain); they
were taken while each sum added one series at a time and the assembly
multiplied one exponential per DT key.  ``GRID_GOLDEN`` pins the grid
readers (stabilization, support reports, the extremal column, the fiber
grids and the properties check); they were taken while each reader halved
exponents and applied the sign (-1)^(i+j) on its own.  The support-report
pin is the report of that code with each violation value multiplied by
(-1)^(i+j): support reports became table-signed in the same change, and
implied Betti values do not depend on the sign.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from enrq import checks, cli, enriques, perverse
from enrq.series import FRAME_QPUTS, Window

GOLDEN = {
    "ph_main_term": "022bf0841c20e22758f876beec89a8c146e3efc992f18896b3ae876e888ec236",
    "ph_main_term_jacobi": "022bf0841c20e22758f876beec89a8c146e3efc992f18896b3ae876e888ec236",
    "ph_betti_term": "122fad58e8c371b8f28dd4f724c8aab3365f474838cd81d3fbadbcba446981e0",
    "perverse_table": "ed2fe87d771cabb0d7432b405d87d6733a05d714261d5eb00672e4bee9c577c7",
    "gv_refined_extract": "52b501af33e9152c0b98f46a55012109b79f4f5dcd5f39d113b2aa284c906d52",
    "pt_fiber_full": "12b68493545d8822ae5d756190d786199b02421cd7ec39c58620a3837e4c7c03",
    "primitive_pt_forms": "96b8c23b02287e4b90b3daa28debc6cc789bde88e86fe54c3c25991c99e27d27",
    "primitive_betti_display": "0d456abafa6a7f9f740ad99a2d4310cc2b3b7aed5c0e609c50149df8f14631ef",
}
CLI_GOLDEN = {
    "pt-fiber": "30e26aa375dee32fc11605ce11679f1c4720d499c0c290df2863f110fab5061f",
    "pt-fiber-full": "b3f8196820feac26d694286e2adcb60a5fb5c33d63a4575e82a477c1ba6f2056",
    "keyeq-rhs1": "672b693236a60c28d5293bd58e7ba8261509edfbe85359a8f622c1c1da941bb7",
    "keyeq-rhs2": "d36fc6bf8a01acfde5233aca92004d2610cfcc8fdb87001fb331243556b4831d",
    "ky-logZ": "f8a7510b64603838521f76022da404e06eaacc15229d615069c4251d67870228",
    "asympt-gf": "0af0536b9b0a37680735f8640c90ec16199e97ee9f459b742acd73a5a61fbfd1",
    "betti-infty": "0c14ec3c5b22042b6a4736a723c5cda5b0625e6e0ae9d37c59b16d53032719c6",
    "omega-half-integral": "f380adf3e3b5deb271791019df0ba38481368ed8b5da62e9274e1a24b4e596ed",
}
SUM_GOLDEN = {
    "assemble": "6c34098fa1e8c56bfa7f39ffb9e99f0fe1b6c057c37b1f65294d4a749efbfdec",
    "assemble-euler": "c818814ada1bdeddc28bc9629bf2d1ac2928137901dba18b6ca07f637543f906",
    "assemble-windowed": "da6b1e035c770b8db8b998ab9323a2f981f412fd7584738c04742357d3bda23c",
    "rank0-log": "eba93acd45d313871867c16df4d9670c67421ea9e72dda1426d1f9df78548d47",
    "rank0-exp-argument": "997ce143af4ff6cd934e3ba0132308af0a7340b940b61113c7065e629c268531",
    "bracket-odd": "4b1e1dfc92129918f023aba41411987841371dc3afa717d31e60d067dd933b75",
    "bracket-even": "7be870c44a7f16c3e014b79838d7726f059fb9e6199a731f412860edf5221b97",
}
GRID_GOLDEN = {
    "stabilization": "e0acfda71870b67f68603a34d36eb26512e80d2b4caf19f93153e90e94be2a08",
    "support": "3790a390835fed7fcc2c29dc87ab1aa816a7b848685cb5dd953fc6dec7d217a0",
    "extremal": "35309d1bbe83a2575663eddda7c7e7cc6980bc74d96900eb66e16f11e2556aae",
    "fiber": "6e0812e55bd272b8354ecc2f8d64e7e69f09356d67429441eb4e47eed860ad23",
    "properties": "786bff3437b3688971c4d4c5dda78cc9a624e52c563ece6790609dc47728c5f3",
}
EULER_FIBER_9 = "e89e167fa7584decac0af2321931fc1ce0574ed2f2b32221ca2858163138b3c6"
WINDOW = Window(-20, 20, False)


def sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def identity_terms():
    betti = perverse.BettiTable.default()
    return betti, perverse.ph_main_term(16), perverse.ph_betti_term(betti, 16)


def test_main_term(identity_terms):
    _, main, _ = identity_terms
    assert sha(main.to_json_dict()) == GOLDEN["ph_main_term"]


def test_main_term_jacobi():
    assert sha(perverse.ph_main_term_jacobi(16).to_json_dict()) == GOLDEN["ph_main_term_jacobi"]


def test_betti_term(identity_terms):
    _, _, second = identity_terms
    assert sha(second.to_json_dict()) == GOLDEN["ph_betti_term"]


def test_perverse_tables(identity_terms):
    betti, main, second = identity_terms
    tables = [perverse.perverse_table(d, betti, 16, main, second) for d in range(16)]
    assert sha([t.to_json_dict() for t in tables]) == GOLDEN["perverse_table"]


def test_refined_gv_extraction():
    Z = enriques.pt_fiber_full(6, WINDOW)
    gv = enriques.gv_refined_extract(enriques.betti_realization(Z), 6)
    doc = {str(d): p.poly.to_json_dict() for d, p in sorted(gv.items())}
    assert sha(doc) == GOLDEN["gv_refined_extract"]


def test_full_fiber_series():
    assert sha(enriques.pt_fiber_full(6, WINDOW).to_json_dict()) == GOLDEN["pt_fiber_full"]


def test_primitive_chain_forms():
    betti = perverse.BettiTable.default()
    forms = perverse.primitive_pt_forms(betti, 6, WINDOW)
    assert sha({k: v.to_json_dict() for k, v in forms.items()}) == GOLDEN["primitive_pt_forms"]
    display = perverse.primitive_betti_display(betti, 6, WINDOW)
    assert sha(display.to_json_dict()) == GOLDEN["primitive_betti_display"]


def test_every_cli_series_id_is_pinned():
    assert sorted(CLI_GOLDEN) == sorted(cli.SERIES_IDS)


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_series(name):
    args = cli._parser().parse_args(["expand", name, "--q-order", "8"])
    assert sha(cli._build_series(name, args).to_json_dict()) == CLI_GOLDEN[name]


def test_euler_fiber_series():
    assert sha(enriques.pt_fiber_series_euler(9).to_json_dict()) == EULER_FIBER_9


def _windowed_assembly():
    table = enriques.dt_fiber_table(4)
    for d in range(1, 4):
        for n in range(1, 7):
            table[(0, d, n)] = enriques.rank0_dt(d, n)
    return enriques.assemble_pt_from_dt(table, 4, window=Window(-12, 12, False))


def _euler_assembly():
    table = {k: v.specialize({"t": 1, "s": 1}) for k, v in enriques.dt_fiber_table(6).items()}
    return enriques.assemble_pt_from_dt(table, 6, euler=True)


SUM_BUILDERS = {
    "assemble": lambda: enriques.assemble_pt_from_dt(enriques.dt_fiber_table(9), 9),
    "assemble-euler": _euler_assembly,
    "assemble-windowed": _windowed_assembly,
    "rank0-log": lambda: enriques.rank0_ordinary_log_from_dt(5, WINDOW),
    "rank0-exp-argument": lambda: enriques.rank0_exp_argument(6, WINDOW),
    "bracket-odd": lambda: perverse._bracket(1, Fraction(13, 2), FRAME_QPUTS),
    "bracket-even": lambda: perverse._bracket(0, Fraction(13, 2), FRAME_QPUTS, WINDOW),
}


@pytest.mark.parametrize("name", sorted(SUM_GOLDEN))
def test_sum_builders(name):
    assert sha(SUM_BUILDERS[name]().to_json_dict()) == SUM_GOLDEN[name]


def _support_doc(rep):
    return {
        "d": rep["d"],
        "violations": sorted([list(cell), v] for cell, v in rep["violations"]),
        "implied_betti": sorted([s.d, s.i, str(v)] for s, v in rep["implied_betti"].items()),
        "conflicts": [[s.d, s.i, str(a), str(b)] for s, a, b in rep["conflicts"]],
    }


def test_stabilization_report():
    rep = perverse.stabilization_check(perverse.BettiTable.default(), 5, 12)
    assert sha(rep) == GRID_GOLDEN["stabilization"]


def test_support_reports():
    betti = perverse.BettiTable.default()
    main, second = perverse.ph_main_term(8), perverse.ph_betti_term(betti, 8)
    docs = [_support_doc(perverse.support_report(d, betti, 8, main, second)) for d in range(8)]
    assert sha(docs) == GRID_GOLDEN["support"]


def test_extremal_report():
    assert sha(perverse.extremal_report(6)) == GRID_GOLDEN["extremal"]


def test_fiber_grids():
    grids = {
        parity: [[i, j, str(v)] for (i, j), v in sorted(enriques.fiber_ph_grid(parity).items())]
        for parity in ("odd", "even")
    }
    assert sha(grids) == GRID_GOLDEN["fiber"]


def test_properties_check():
    assert sha(checks.check_properties(perverse.BettiTable.default())) == GRID_GOLDEN["properties"]
