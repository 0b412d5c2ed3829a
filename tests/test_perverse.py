import random
from fractions import Fraction
from math import ceil

import pytest

from conftest import assert_agree, assert_identical
from oracles import (
    grid_reports,
    jacobi_core_oracle,
    ph_main_term_jacobi_oracle,
    ph_main_term_oracle,
    primitive_betti_display_oracle,
    primitive_pt_forms_oracle,
)
from enrq.enriques import GVPolynomial, fiber_ph_grid, gv_to_ph_grid
from enrq.perverse import (
    BettiTable,
    asymptotic_betti_gf,
    asymptotic_ph_gf,
    check_primitive_chain,
    flip_mismatches,
    grid_box,
    grid_rows,
    identity_cells,
    omega_half_integral_series,
    omega_integral_series,
    PerverseTable,
    perverse_table,
    ph_betti_term,
    ph_main_term,
    ph_main_term_jacobi,
    primitive_betti_display,
    primitive_pt_forms,
    signed_cells,
    stabilization_check,
)
from enrq import perverse
from enrq.config import betti_defaults
from enrq.qfunc import eta, theta
from enrq.ring import BettiSymbol, LinExpr, betti_symbol, coeff_to_json, rat
from enrq.series import FRAME_PU, FRAME_PU0, FRAME_QPU, FRAME_QPUTS, FRAME_XY, Series, Window, divide_exact


@pytest.fixture(scope="module")
def betti():
    return BettiTable.default()


def withheld_betti(seed, d_max=16):
    """Bundled Betti records with the last known entry withheld at two seeded
    degrees of the upper half of 0..d_max, so those entries become symbols."""
    cut = random.Random(seed).sample(range(d_max // 2 + 1, d_max + 1), 2)
    records = betti_defaults() + [{"d": d, "betti": [1, 0], "complete": False} for d in cut]
    return BettiTable.from_records(records)


BETTI_TABLES = {"bundled": BettiTable.default(), "seeded": withheld_betti(27)}
ASSEMBLY_ORDERS = [1, Fraction(5, 2), 4, 8, 9, 16]


@pytest.fixture(scope="module")
def main5():
    return ph_main_term(5)


@pytest.fixture(scope="module")
def second5(betti):
    return ph_betti_term(betti, 5)


class TestBettiTable:
    def test_default_vectors(self, betti):
        assert [betti.entry(0, i) for i in range(3)] == [1, 2, 1]
        assert [betti.entry(1, i) for i in range(7)] == [1, 0, 10, 22, 10, 0, 1]
        v2 = [betti.entry(2, i) for i in range(11)]
        assert v2[:3] == [1, 0, 11] and v2[-3:] == [11, 0, 1]
        assert v2[3] == betti_symbol(2, 3)
        assert v2[7] == betti_symbol(2, 3)  # duality pre-applied
        assert v2[5] == betti_symbol(2, 5)

    def test_duality_validation(self):
        with pytest.raises(ValueError):
            BettiTable({1: [1, 0, 10, 22, 9, 0, 1]}, {})

    def test_booleans_refused(self):
        # bool is an int to Python, but neither a degree nor a Betti number
        with pytest.raises(ValueError, match="integer"):
            BettiTable({True: [1, 0, 10, 22, 10, 0, 1]})
        with pytest.raises(ValueError, match="integer"):
            BettiTable({}, {False: [1, 2, 1]})
        with pytest.raises(TypeError, match="exact rational"):
            BettiTable({0: [1, True, 1]})
        with pytest.raises(TypeError, match="exact rational"):
            BettiTable({}, {None: [1, 0, True]})

    def test_out_of_range_is_zero(self, betti):
        assert betti.entry(1, -1) == 0 and betti.entry(1, 7) == 0

    def test_signed_sum_degree_zero(self, betti):
        s = betti.signed_sum(0, FRAME_QPU)
        assert s == Series(
            FRAME_QPU,
            {
                FRAME_QPU.exps({"u": -1}): rat(1),
                FRAME_QPU.exps({}): rat(-2),
                FRAME_QPU.exps({"u": 1}): rat(1),
            },
        )

    @pytest.mark.parametrize("name", sorted(BETTI_TABLES))
    @pytest.mark.parametrize("frame", [FRAME_QPU, FRAME_QPUTS], ids=["qpu", "qputs"])
    @pytest.mark.parametrize("q_order", [Fraction(5, 2), 8, 16])
    def test_betti_q_sum_is_the_sum_of_the_signed_sums(self, name, frame, q_order):
        betti = BETTI_TABLES[name]
        want = sum((betti.signed_sum(d, frame) for d in range(ceil(q_order))), Series.zero(frame))
        assert_identical(perverse._betti_q_sum(betti, q_order, frame), want.with_q_order(q_order))


class TestMainTerm:
    def test_q0_slice(self, main5):
        sl = main5.coefficient({"q": 0})
        assert sl.terms == {
            (-2, 0): rat(-1),
            (0, -2): rat(1),
            (0, 2): rat(1),
            (2, 0): rat(-1),
        }

    def test_q1_center_vanishes(self, main5):
        # the 22 in the degree-1 table comes entirely from the Betti term
        assert main5.coeff({"q": 1, "p": 0, "u": 0}) == 0

    def test_inversion_symmetry(self, main5):
        flipped = {(e[0], -e[1], -e[2]): c for e, c in main5.terms.items()}
        assert flipped == main5.terms

    def test_jacobi_route_agrees(self, main5):
        assert_agree(ph_main_term_jacobi(5), main5)

    def test_jacobi_leading_weight_zero(self):
        assert ph_main_term_jacobi(3).wmin() == 0

    @pytest.mark.parametrize("q_order", [8, Fraction(7, 2)])
    @pytest.mark.parametrize("eta_prefactor", [True, False])
    def test_jacobi_core_matches_the_padded_build(self, q_order, eta_prefactor):
        # the core used to build every block one order higher and cut the
        # product; only the eta quotient loses order, so only it is padded now.
        # Both prefactor builds give the one core: the eta prefactors cancel
        frame, pad = FRAME_QPU, q_order + 1
        A = divide_exact(theta({"u": 2}, 2, pad, frame), theta({"u": 2}, 1, pad, frame))
        e2 = eta(2, pad, prefactor=eta_prefactor).embed(frame)
        e1 = eta(1, pad, prefactor=eta_prefactor).embed(frame)
        B = divide_exact(e2**8, e1**16)
        N = theta({"p": 1, "u": 1}, 2, pad, frame) * theta({"p": 1, "u": -1}, 2, pad, frame)
        C = divide_exact(N, theta({"p": 1, "u": 1}, 1, pad, frame))
        C = divide_exact(C, theta({"p": 1, "u": -1}, 1, pad, frame))
        want = (A * B * C).with_q_order(q_order)
        got = perverse._jacobi_core(q_order)
        assert got.terms == want.terms
        assert (got.q_order, got.window) == (want.q_order, want.window)


class TestBettiTerm:
    def test_q0_slice(self, second5):
        sl = second5.coefficient({"q": 0})
        assert sl.terms == {(0, -2): rat(1), (0, 0): rat(-2), (0, 2): rat(1)}

    def test_symbols_stay_in_p0_at_their_own_degree(self, second5):
        # at q^d the degree-d symbols multiply the constant slice of the
        # correction product, so they sit at p^0; two degrees later they pick
        # up p-dependence, which is why higher tables go dark off row 0 too
        for d in (2, 3):
            sl = second5.coefficient({"q": d})
            for (ep, eu), c in sl.terms.items():
                if isinstance(c, LinExpr):
                    assert ep == 0

    def test_zero_betti_table_gives_zero(self):
        zero = BettiTable({d: [0] * (4 * d + 3) for d in range(4)}, {})
        assert omega_integral_series(zero, 4, FRAME_QPUTS).is_zero()
        assert ph_betti_term(zero, 4).is_zero()


EXPECTED_D1 = {
    (-2, -1): 1, (-2, 1): 1, (-1, 0): 8,
    (0, -1): 1, (0, 0): 22, (0, 1): 1,
    (1, 0): 8, (2, -1): 1, (2, 1): 1,
}


class TestTables:
    def test_degree_zero(self, betti, main5, second5):
        t = perverse_table(0, betti, 5, main5, second5)
        assert t.entries == {(-1, 0): 1, (0, 0): 2, (1, 0): 1}

    def test_degree_one_exact(self, betti, main5, second5):
        t = perverse_table(1, betti, 5, main5, second5)
        assert {k: int(v) for k, v in t.entries.items()} == EXPECTED_D1
        assert not t.unknown_cells()
        assert not t.negative_determined()

    def test_degree_two_unknown_row(self, betti, main5, second5):
        t = perverse_table(2, betti, 5, main5, second5)
        assert t.entry(-1, 0) == 47 and t.entry(-2, -1) == 9 and t.entry(-1, -1) == 2
        assert t.unknown_cells() == [(0, j) for j in range(-2, 3)]

    def test_degree_three_values(self, betti, main5, second5):
        t = perverse_table(3, betti, 5, main5, second5)
        assert t.entry(-1, 0) == 220
        assert t.entry(-2, -1) == 55
        assert t.entry(-1, -1) == 22
        assert t.entry(-3, 0) == 10
        assert t.entry(-3, -2) == 9
        assert t.unknown_cells() == [(0, j) for j in range(-3, 4)]

    def test_duality(self, betti, main5, second5):
        for d in range(4):
            t = perverse_table(d, betti, 5, main5, second5)
            assert not t.duality_violations()

    def test_insufficient_order_rejected(self, betti):
        with pytest.raises(ValueError):
            perverse_table(2, betti, q_order=2)

    def test_every_grid_reader_rejects_an_order_below_the_degree(self, betti):
        # the check lives in identity_cells, which every reader goes through,
        # so all raise it before slicing a term
        readers = (perverse_table, identity_cells)
        messages = set()
        for read in readers:
            with pytest.raises(ValueError) as exc:
                read(2, betti, q_order=2)
            messages.add(str(exc.value))
        assert messages == {"q_order 2 does not cover degree 2"}

    def test_markdown_layout(self, betti, main5, second5):
        md = perverse_table(1, betti, 5, main5, second5).to_markdown()
        lines = md.strip().splitlines()
        assert lines[0] == "| i\\j | -1 | 0 | 1 |"
        assert lines[4] == "| 0 | 1 | 22 | 1 |"

    def test_csv_unknowns(self, betti, main5, second5):
        csv = perverse_table(2, betti, 5, main5, second5).to_csv()
        assert "0,0,?" in csv.splitlines()

    def test_signed_cells_match_the_terms_view(self, betti, main5, second5):
        b = betti_symbol(1, 2)
        odd = Series(FRAME_PU, {(2, 0): 3, (-2, 4): rat(1, 2) + b, (0, -2): -b, (4, 2): 2 * b}, 3)
        series = [odd] + [main5.coefficient({"q": d}) - second5.coefficient({"q": d}) for d in range(5)]
        for f in series:
            want = {}
            for (ep, eu), c in f.terms.items():
                i, j = ep // 2, eu // 2
                want[(i, j)] = -c if (i + j) % 2 else c
            got = signed_cells(f)
            assert list(got.items()) == list(want.items())
        assert signed_cells(odd)[(-1, 2)] == -(rat(1, 2) + b)

    @pytest.mark.parametrize("exps", [(1, 0), (0, -1), (-3, 2)])
    def test_signed_cells_refuse_half_integral_exponents(self, exps):
        with pytest.raises(ValueError, match="half-integral"):
            signed_cells(Series(FRAME_PU, {exps: 1, (2, 2): betti_symbol(1, 2)}, 3))

    @pytest.mark.parametrize(
        "series", [Series.monomial(FRAME_XY, {"x": 2}), Series.monomial(FRAME_QPU, {"p": 1})], ids=["xy", "qpu"]
    )
    def test_signed_cells_refuse_a_frame_off_the_half_lattice(self, series):
        with pytest.raises(ValueError, match="1/2 lattice"):
            signed_cells(series)

    def test_tables_negate_no_expression(self, betti, main5, second5, monkeypatch):
        # the sign goes on the stored numbers before a cell is built
        def refuse(self):
            raise AssertionError("LinExpr negated while reading a grid")

        monkeypatch.setattr(LinExpr, "__neg__", refuse)
        tables = [perverse_table(d, betti, 5, main5, second5) for d in range(5)]
        assert any(t.unknown_cells() for t in tables)

    def test_json_preserves_symbols(self, betti, main5, second5):
        blob = perverse_table(2, betti, 5, main5, second5).to_json_dict()
        cell = next(e for e in blob["entries"] if e["i"] == 0 and e["j"] == 0)
        assert isinstance(cell["value"], dict) and cell["value"]["terms"]


def support_rows(d, *args):
    """The nonzero ``support`` rows of degree d as ``{(i, j): value}``; ``args``
    go to :func:`identity_cells`."""
    rows = grid_rows(d, identity_cells(d, *args))
    return {c: v for s, c, v, _ in rows if s == "support" and v}


class TestSupport:
    def test_no_leakage_below_degree_three(self, betti, main5, second5):
        for d in range(3):
            assert support_rows(d, betti, 5, main5, second5) == {}

    def test_degree_three_implies_vanishing_b3(self, betti, main5, second5):
        # every leaking cell is a multiple of b(3, 3) with constant 0, so the
        # identity forces b(3, 3) = 0
        leaks = support_rows(3, betti, 5, main5, second5)
        assert leaks
        for v in leaks.values():
            assert isinstance(v, LinExpr) and v.const == 0 and set(v.terms) == {BettiSymbol(3, 3)}

    def test_slicing_before_subtracting_changes_nothing(self, betti):
        # main - second as the main term and a zero Betti term gives the
        # old expression (main - second).coefficient({"q": d})
        main, second = ph_main_term(8), ph_betti_term(betti, 8)
        diff = main - second
        zero = Series.zero(FRAME_QPU)
        for d in range(8):
            new = perverse_table(d, betti, 8, main, second)
            old = perverse_table(d, betti, 8, diff, zero)
            assert new.to_json_dict() == old.to_json_dict()
            assert support_rows(d, betti, 8, main, second) == support_rows(d, betti, 8, diff, zero)

    def test_half_integral_exponent_raises_in_every_grid_reader(self, betti):
        # p^(1/2) u^3 q: outside the d = 1 box, so a floored p exponent would
        # report it as a violation at (0, 3)
        bad = Series(FRAME_QPU, {FRAME_QPU.exps({"q": 1, "p": Fraction(1, 2), "u": 3}): 1}, 2)
        zero = Series.zero(FRAME_QPU)
        readers = (
            lambda: perverse_table(1, betti, 2, bad, zero),
            lambda: grid_rows(1, identity_cells(1, betti, 2, bad, zero)),
            lambda: gv_to_ph_grid(GVPolynomial(bad.coefficient({"q": 1}))),
        )
        messages = set()
        for read in readers:
            with pytest.raises(ValueError) as exc:
                read()
            messages.add(str(exc.value))
        assert len(messages) == 1

    def test_violations_are_table_signed(self, betti):
        # cells outside the d = 1 box, as coefficients of p^i u^j q
        b3, b5 = betti_symbol(2, 3), betti_symbol(2, 5)
        coeffs = {(0, 3): 5, (0, -4): 7, (1, 2): b3 + b5 + 3, (-1, 2): 4 - 2 * b3}
        main = Series(
            FRAME_QPU,
            {FRAME_QPU.exps({"q": 1, "p": i, "u": j}): c for (i, j), c in coeffs.items()},
            2,
        )
        leaks = support_rows(1, betti, 2, main, Series.zero(FRAME_QPU))
        # the (-1, 2) cell 2 b(2, 3) - 4 forces b(2, 3) = 2
        assert leaks == {(0, 3): -5, (0, -4): 7, (1, 2): -(b3 + b5 + 3), (-1, 2): 2 * b3 - 4}

    def test_structural_p_bound(self, betti, main5, second5):
        diff = main5 - second5
        for d in range(5):
            sl = diff.coefficient({"q": d})
            ps = sl.p_support()
            assert ps is None or (ps[0] >= -2 * (d + 1) and ps[1] <= 2 * (d + 1))


class TestGridRows:
    @pytest.fixture(scope="class")
    def terms8(self, betti):
        return ph_main_term(8), ph_betti_term(betti, 8)

    def test_sources_at_q8(self, betti, terms8):
        main, second = terms8
        gf = asymptotic_ph_gf(8)
        for d in range(8):
            cells = identity_cells(d, betti, 8, main, second)
            rows = grid_rows(d, cells)
            support = [(c, v, t) for s, c, v, t in rows if s == "support"]
            inside = {c for c in cells if abs(c[0]) <= d + 1 and abs(c[1]) <= d}
            assert support == [(c, v, 0) for c, v in cells.items() if c not in inside]
            extremal = [(c, v, t) for s, c, v, t in rows if s == "extremal"]
            column = [(i, -d) for i in range(-(d + 1), d + 2)]
            assert extremal == [
                (c, cells.get(c, 0), 1 if (c[0] + d + 1) % 2 == 0 else 0) for c in column
            ]
            asymptotic = [(c, v, t) for s, c, v, t in rows if s == "asymptotic"]
            shifted = [(i, j) for i in range((d - 1) // 2 + 1) for j in range((d - 1) // 2)]
            assert asymptotic == [
                ((i - d - 1, j - d), cells.get((i - d - 1, j - d), 0), gf.coeff({"x": i, "y": j}))
                for i, j in shifted
            ]
            assert len(rows) == len(support) + len(extremal) + len(asymptotic)  # no other source

    def test_asymptotic_rows_through_d16_are_determined_and_hold(self, betti):
        main, second = ph_main_term(17), ph_betti_term(betti, 17)
        cells = [identity_cells(d, betti, 17, main, second) for d in range(17)]
        rows = [r for d in range(17) for r in grid_rows(d, cells[d]) if r[0] == "asymptotic"]
        assert len(rows) == 336
        assert [r for r in rows if isinstance(r[2], LinExpr) or r[2] != r[3]] == []

    def test_reports_are_filters_over_the_rows(self):
        # the derivation behind the support and extremal golden hashes
        b, c = betti_symbol(4, 3), betti_symbol(4, 5)
        rows = [
            ("support", (6, 0), 3, 0),
            ("support", (0, 5), b - 2, 0),
            ("support", (5, 0), b + c, 0),
            ("support", (0, 6), 3 * b - 3, 0),
            ("asymptotic", (-2, -1), 7, 9),
            ("extremal", (-2, -1), 1, 1),
            ("extremal", (-1, -1), 5, 0),
            ("extremal", (0, -1), b, 1),
        ]
        support, extremal = grid_reports(1, rows)
        assert support == {
            "d": 1,
            "violations": [[[5, 0], coeff_to_json(b + c)], [[6, 0], "3"]],
            "implied_betti": [[4, 3, "1"]],
            "conflicts": [[4, 3, "2", "1"]],
        }
        assert [(r["i_shifted"], r["value"], r["expected"], r["status"]) for r in extremal] == [
            (0, "1", "1", "match"),
            (1, "5", "0", "mismatch"),
            (2, coeff_to_json(b), "1", "unknown"),
        ]


def _dict_flip_violations(entries):
    return sorted((i, j) for (i, j), v in entries.items() if entries.get((-i, -j), 0) != v)


def _dict_flip_symmetric(terms, si, sj):
    return {(si * e[0], sj * e[1]): c for e, c in terms.items()} == terms


class TestFlipRule:
    """Table duality and the GV inversions are one rule; each keeps the old dict-flip answer."""

    b = betti_symbol(2, 3)
    GRIDS = {
        "symmetric": {(-1, 0): 1, (0, 0): 2, (1, 0): 1, (2, -1): 9, (-2, 1): 9},
        "asymmetric": {(-1, 0): 1, (1, 0): 2, (0, 1): 5, (3, 3): rat(1, 2)},
        "linexpr": {(0, 0): b, (1, 2): b + 1, (-1, -2): b + 1, (2, 0): 3, (-2, 0): b},
    }

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_duality(self, name):
        grid = self.GRIDS[name]
        got = PerverseTable(1, grid).duality_violations()
        assert got == _dict_flip_violations(grid) == flip_mismatches(grid, -1, -1)
        assert bool(got) == (name != "symmetric")

    @pytest.mark.parametrize(
        "poly, sym_p, sym_u",
        [
            (({"u": Fraction(1, 2)}, {"u": Fraction(-1, 2)}), True, True),
            (({"p": 1, "u": Fraction(1, 2)}, {"p": -1, "u": Fraction(1, 2)}), True, False),
            (({"p": 1}, {"u": Fraction(1, 2)}), False, False),
            (({"p": 1, "u": 1}, {"p": 1, "u": -1}), False, True),
        ],
        ids=["half-integral", "p-only", "neither", "u-only"],
    )
    def test_gv_inversions(self, poly, sym_p, sym_u):
        series = sum((Series.monomial(FRAME_PU0, m) for m in poly), Series.zero(FRAME_PU0))
        gv = GVPolynomial(series)
        terms = gv.poly.terms
        assert (gv.symmetric_p(), gv.symmetric_u()) == (sym_p, sym_u)
        assert (sym_p, sym_u) == (_dict_flip_symmetric(terms, -1, 1), _dict_flip_symmetric(terms, 1, -1))


def test_grid_box_is_the_bounding_box_of_the_cells():
    # the fiber grids' rows and columns, once written out in the CLI
    assert grid_box(fiber_ph_grid("odd")) == (range(-1, 2), range(0, 1))
    assert grid_box(fiber_ph_grid("even")) == (range(-1, 2), range(-2, 3))
    assert grid_box({(3, -1): 1, (-2, 4): 5}) == (range(-2, 4), range(-1, 5))
    assert grid_box({(0, 0): 7}) == (range(0, 1), range(0, 1))


class TestPrimitiveChain:
    def test_three_forms_agree_with_symbols(self, betti):
        rep = check_primitive_chain(betti, q_order=6)
        assert rep["ok"], rep

    def test_forms_have_symbolic_content(self, betti):
        w = Window(-16, 16, False)
        forms = primitive_pt_forms(betti, 4, w)
        assert forms["sum_form"].has_symbols()
        assert forms["theta_form"].has_symbols()

    def test_half_integral_leading_term(self):
        oh = omega_half_integral_series(4)
        assert oh.wmin() == Fraction(-1, 2)
        assert oh.coeff({"q": Fraction(-1, 2)}) == 8

    def test_betti_specialization_matches_display(self, betti):
        w = Window(-16, 16, False)
        forms = primitive_pt_forms(betti, 4, w)
        spec = forms["eta_form"].specialize({"t": {"u": 1}, "s": {"u": 1}})
        assert_agree(spec, primitive_betti_display(betti, 4, w))

    def test_tampered_eta_fails_with_located_coefficient(self, betti):
        rep = check_primitive_chain(betti, q_order=4, eta_prefactor=False)
        assert not rep["ok"]
        assert rep["sum_vs_theta"]["mismatch"]["monomial"]


class TestAssemblyOrder:
    """The cheaper bracketings give bit for bit the assemblies they replaced
    (``tests/oracles.py``): coefficients and their types, q_order and window."""

    @pytest.mark.parametrize("q_order", ASSEMBLY_ORDERS + [24])
    def test_main_term(self, q_order):
        assert_identical(ph_main_term(q_order), ph_main_term_oracle(q_order))

    @pytest.mark.parametrize("q_order", ASSEMBLY_ORDERS)
    def test_jacobi_core(self, q_order):
        assert_identical(perverse._jacobi_core(q_order), jacobi_core_oracle(q_order))

    @pytest.mark.parametrize("q_order", ASSEMBLY_ORDERS)
    def test_main_term_jacobi(self, q_order):
        assert_identical(ph_main_term_jacobi(q_order), ph_main_term_jacobi_oracle(q_order))

    @pytest.mark.parametrize("name", sorted(BETTI_TABLES))
    @pytest.mark.parametrize("q_order", ASSEMBLY_ORDERS)
    def test_primitive_forms_and_display(self, name, q_order):
        betti = BETTI_TABLES[name]
        wide = 2 * (int(q_order) + 4)
        for window in (Window(-wide, wide, False), Window(0, 3, False)):
            for eta_prefactor in (True, False):
                got = primitive_pt_forms(betti, q_order, window, eta_prefactor)
                want = primitive_pt_forms_oracle(betti, q_order, window, eta_prefactor)
                assert got.keys() == want.keys()
                for form in got:
                    assert_identical(got[form], want[form])
            assert_identical(
                primitive_betti_display(betti, q_order, window),
                primitive_betti_display_oracle(betti, q_order, window),
            )

    def test_the_seeded_table_reaches_the_chain(self):
        # the withheld entries turn into symbols the bundled table does not carry
        window = Window(-40, 40, False)
        seeded, bundled = (
            primitive_betti_display(BETTI_TABLES[name], 16, window) for name in ("seeded", "bundled")
        )
        assert seeded.terms != bundled.terms


class TestAsymptotics:
    def test_displayed_coefficients(self):
        gf = asymptotic_ph_gf(7)
        expected = {
            (0, 0): 1, (2, 0): 1, (1, 1): 9, (0, 2): 1,
            (4, 0): 1, (3, 1): 10, (2, 2): 56, (1, 3): 10, (0, 4): 1,
            (6, 0): 1, (5, 1): 10, (4, 2): 66, (3, 3): 276, (2, 4): 66, (1, 5): 10, (0, 6): 1,
        }
        got = {
            (e[0], e[1]): int(c)
            for e, c in gf.terms.items()
            if e[0] + e[1] <= 6 and c
        }
        assert got == expected

    def test_xy_symmetry(self):
        gf = asymptotic_ph_gf(8)
        flipped = {(e[1], e[0]): c for e, c in gf.terms.items()}
        assert flipped == gf.terms

    def test_betti_infinity(self):
        bi = asymptotic_betti_gf(13)
        values = [1, 11, 78, 430, 2015, 8373, 31706]
        assert [int(bi.coeff({"x": 2 * k})) for k in range(7)] == values
        assert all(not bi.coeff({"x": 2 * k + 1}) for k in range(6))


class TestStabilization:
    def test_full_report(self, betti):
        rep = stabilization_check(betti, 5, 8)
        assert rep["ok"]

    @pytest.mark.parametrize("d_lo, d_hi, calls", [(5, 8, 15), (0, 4, 10), (1, 3, 6)])
    def test_each_term_is_sliced_once_per_degree(self, betti, d_lo, d_hi, calls, monkeypatch):
        main, second = ph_main_term(d_hi + 1), ph_betti_term(betti, d_hi + 1)
        want = stabilization_check(betti, d_lo, d_hi, main, second)
        seen = []
        coefficient = Series.coefficient

        def counting(self, *args, **kwargs):
            seen.append(self is main)
            return coefficient(self, *args, **kwargs)

        monkeypatch.setattr(Series, "coefficient", counting)
        assert stabilization_check(betti, d_lo, d_hi, main, second) == want
        # main from min(d_lo, 2) and second from min(d_lo, 1), each through d_hi
        assert len(seen) == calls
        assert seen.count(True) == d_hi + 1 - min(d_lo, 2)

    def test_properties_check_slices_each_term_once_per_degree(self, betti, monkeypatch):
        # one main term and one Betti term, both at the check's order, each
        # sliced once for every degree d < q_order
        from enrq import checks

        built, seen = [], []
        main_term, betti_term = perverse.ph_main_term, perverse.ph_betti_term
        coefficient = Series.coefficient

        def build_main(q_order):
            built.append(("main", q_order, main_term(q_order)))
            return built[-1][2]

        def build_second(b, q_order):
            built.append(("second", q_order, betti_term(b, q_order)))
            return built[-1][2]

        def counting(self, *args, **kwargs):
            seen.append(next((name for name, _, t in built if t is self), None))
            return coefficient(self, *args, **kwargs)

        monkeypatch.setattr(perverse, "ph_main_term", build_main)
        monkeypatch.setattr(perverse, "ph_betti_term", build_second)
        monkeypatch.setattr(Series, "coefficient", counting)
        assert checks.check_properties(betti, q_order=8)["passed"]
        assert [(name, q) for name, q, _ in built] == [("main", 8), ("second", 8)]
        assert (seen.count("main"), seen.count("second")) == (8, 8)

    def test_properties_check_builds_no_fiber_series(self, betti, monkeypatch):
        # the GV inversion symmetries are gv-closed-forms' to assert
        from enrq import checks, enriques

        def refuse(*args, **kwargs):
            raise AssertionError("the properties check built a fiber series")

        monkeypatch.setattr(enriques, "pt_fiber_full", refuse)
        monkeypatch.setattr(enriques, "gv_refined_extract", refuse)
        assert checks.check_properties(betti)["passed"]

    def test_specific_shifted_values(self, betti):
        main = ph_main_term(9)
        second = ph_betti_term(betti, 9)
        diff = main - second
        for d in range(5, 9):
            got = -diff.coeff({"q": d, "p": 1 - d - 1, "u": 1 - d})
            assert got == 9  # the xy coefficient
            assert -diff.coeff({"q": d, "p": -d - 1, "u": -d}) == 1

    def test_second_term_vanishes_at_minus3_minus3(self, betti):
        second = ph_betti_term(betti, 4)
        assert second.coeff({"q": 3, "p": -3, "u": -3}) == 0


def extremal_rows(d, betti):
    """``(value, target)`` of each ``extremal`` row of degree d, in shifted-row order."""
    return [(v, t) for s, _, v, t in grid_rows(d, identity_cells(d, betti)) if s == "extremal"]


class TestExtremal:
    def test_degree_one_column(self, betti):
        assert extremal_rows(1, betti) == [(1, 1), (0, 0), (1, 1), (0, 0), (1, 1)]

    def test_degree_zero_center_reported_not_asserted(self, betti):
        # the table centre is 2 against the pattern's 0: a row, not a failure
        assert extremal_rows(0, betti) == [(1, 1), (2, 0), (1, 1)]

    def test_unknowns_reported(self, betti):
        rows = extremal_rows(2, betti)
        assert any(isinstance(v, LinExpr) for v, _ in rows)
        assert all(v == t for v, t in rows if not isinstance(v, LinExpr))


class TestRegressionStability:
    def test_larger_order_extends(self, betti):
        a = ph_main_term(4)
        b = ph_main_term(6)
        assert_agree(a, b)

    def test_wider_window_extends(self, betti):
        from enrq.enriques import pt_fiber_full

        a = pt_fiber_full(4, Window(-16, 16, False))
        b = pt_fiber_full(4, Window(-24, 24, False))
        assert_agree(a, b)
