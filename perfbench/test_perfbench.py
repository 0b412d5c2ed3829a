"""Tests of the benchmark itself: seeded inputs, tracer completeness, report.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for p in (str(HERE), str(HERE.parent / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import report  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from enrq import config, perverse  # noqa: E402
from enrq.ring import rat  # noqa: E402
from enrq.series import FRAME_QPU, Series  # noqa: E402


# -- seeded Betti generator ------------------------------------------------------

def _known_count(records, d_max):
    return sum(len(v) for v in workloads.known_betti_prefixes(records, d_max).values())


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_seeded_betti_records_withhold_a_fixed_count_of_bundled_entries(seed):
    d_max = 7
    bundled = config.betti_defaults()
    records = workloads.seeded_betti_records(seed, d_max)
    assert records == workloads.seeded_betti_records(seed, d_max)
    perverse.BettiTable.from_records(records)
    assert _known_count(bundled, d_max) - _known_count(records, d_max) == workloads.WITHHELD_BETTI_ENTRIES
    known = workloads.known_betti_prefixes(bundled, d_max)
    for d, prefix in workloads.known_betti_prefixes(records, d_max).items():
        assert prefix == known[d][: len(prefix)]


def test_seeds_withhold_different_entries():
    picks = {json.dumps(workloads.seeded_betti_records(s, 15), sort_keys=True) for s in range(6)}
    assert len(picks) > 1


@pytest.mark.parametrize("seed", [1, 5])
def test_determined_cells_match_the_bundled_tables(seed):
    q = 6
    seeded = perverse.BettiTable.from_records(workloads.seeded_betti_records(seed, q - 1))
    bundled = perverse.BettiTable.default()
    main = perverse.ph_main_term(q)
    s_seeded = perverse.ph_betti_term(seeded, q)
    s_bundled = perverse.ph_betti_term(bundled, q)
    more_unknown = 0
    for d in range(q):
        t = perverse.perverse_table(d, seeded, q, main, s_seeded)
        ref = perverse.perverse_table(d, bundled, q, main, s_bundled)
        assert all(t.entry(*c) == ref.entry(*c) for c in t.determined_cells())
        more_unknown += len(t.unknown_cells()) - len(ref.unknown_cells())
    assert more_unknown >= 0


# -- census --------------------------------------------------------------------

def test_census_flags_float_coefficients():
    s = Series(FRAME_QPU, {(0, 0, 0): rat(1), (24, 0, 0): 2})
    assert workloads.census([s]) == {"int": 1, "rational": 1, "linexpr": 0, "bad": 0}
    s.terms[(48, 0, 0)] = 0.5
    assert workloads.census([s])["bad"] == 1


# -- tracer completeness ---------------------------------------------------------

TINY = {
    "fiber-gv": lambda: workloads.FiberGV(q_order=3),
    "perverse-identity": lambda: workloads.PerverseIdentity(q_order=5, chain_q_order=3),
    "cli-session": lambda: workloads.CliSession(q_order=4, d_range=(0, 2)),
}

EXPECTED_SPANS = {
    "fiber-gv": {
        "kernel.madd", "qfunc.plethystic_exp", "qfunc.plethystic_log", "series.mul",
        "series.product_expand", "series.log_series", "series.specialize", "series.coefficient",
        "enriques.pt_fiber_full", "enriques.betti_realization", "enriques.gv_refined_extract",
        "enriques.pt_fiber_series", "config.load",
    },
    "perverse-identity": {
        "kernel.madd", "qfunc.theta", "qfunc.eta", "qfunc.theta_pair", "qfunc.inv_theta_pair",
        "series.mul", "series.product_expand", "series.divide_exact", "series.invert",
        "series.specialize", "series.coefficient", "perverse.ph_main_term",
        "perverse.ph_main_term_jacobi", "perverse.ph_betti_term", "perverse.perverse_table",
        "perverse.check_primitive_chain", "perverse.omega_half_integral_series",
    },
    "cli-session": {
        "kernel.madd", "series.mul", "series.product_expand", "series.exp_series",
        "series.divide_exact", "series.coefficient", "series.dumps", "series.loads",
        "enriques.pt_fiber_series", "enriques.local_enriques_log_pt", "perverse.ph_main_term",
        "perverse.ph_betti_term", "perverse.perverse_table", "perverse.asymptotic_ph_gf",
        "perverse.asymptotic_betti_gf", "perverse.omega_half_integral_series", "config.load",
        "cli.expand.cold", "cli.expand.warm", "cli.tables", "cli.check",
        *(f"checks.{c}" for c in workloads.CHEAP_CHECKS),
    },
}


def _run_tiny(name, tmp_path, tracer=None):
    wl = TINY[name]()
    tmp_path.mkdir()
    wl.setup(3, str(tmp_path))
    wl.prepare()
    if tracer is None:
        out = wl.job()
    else:
        tracer.job = "job0"
        out = wl.job(tracer)
        tracer.job = None
    assert all(not p for p in wl.verify(out).values())
    return wl.canonical(out)


def _traced_originals():
    from enrq import checks, config as cfg, enriques, kernel, qfunc, series

    fns = [kernel.madd, *(getattr(qfunc, f) for f in tracing.QFUNC),
           *(getattr(series, f) for f in tracing.SERIES_FUNCS),
           *(getattr(enriques, f) for f in tracing.ENRIQUES),
           *(getattr(perverse, f) for f in tracing.PERVERSE),
           *(getattr(cfg, f) for f in tracing.CONFIG),
           *checks.CHECKS.values(),
           *(vars(Series)[m] for m, _ in tracing.SERIES_METHODS), vars(Series)["loads"]]
    return {id(f): f for f in fns}


def _bindings(originals):
    """Every (holder, name) in enrq that binds one of ``originals``."""
    from enrq import checks

    found = set()
    holders = [*tracing._enrq_modules(), Series, checks.CHECKS]  # what Tracer._rebind scans
    for h in holders:
        items = h.items() if isinstance(h, dict) else vars(h).items()
        for attr, val in list(items):
            if id(val) in originals:
                found.add((id(h), attr))
    return found


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_outputs_are_bit_identical_and_every_boundary_is_seen(name, tmp_path):
    plain = _run_tiny(name, tmp_path / "plain")
    tr = tracing.Tracer()
    with tr.installed():
        traced = _run_tiny(name, tmp_path / "traced", tr)
    assert traced == plain
    seen = {s[0] for s in tr.spans}
    assert EXPECTED_SPANS[name] <= seen, EXPECTED_SPANS[name] - seen
    assert all(s[2] is not None and s[4] == "job0" for s in tr.spans)


def test_install_rebinds_every_alias_and_restores_them():
    originals = _traced_originals()
    before = _bindings(originals)
    # madd bound into enrq.series, product_expand imported by three modules,
    # __rmul__ aliasing __mul__: each is a binding the tracer has to replace.
    from enrq import enriques, qfunc, series

    names = {attr for _, attr in before}
    assert {"madd", "product_expand", "__mul__", "__rmul__"} <= names
    assert series.product_expand is qfunc.product_expand is perverse.product_expand
    assert series.product_expand is enriques.product_expand
    tr = tracing.Tracer()
    with tr.installed():
        assert _bindings(originals) == set()
        tr.job = "job0"
        s = Series.monomial(FRAME_QPU, {"q": 1}, q_order=3)
        _ = rat(2) * s  # Fraction * Series dispatches to Series.__rmul__
        tr.job = None
    assert [x[0] for x in tr.spans] == ["series.mul"]
    assert _bindings(originals) == before


def test_metrics_cover_the_benchmark_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [n for n, _, _ in tracing.per_layer_metrics(workloads.CHEAP_CHECKS)]
    assert [m["name"] for m in spec["per_layer"]] == names
    units = {n: (u, b) for n, u, b in tracing.per_layer_metrics(workloads.CHEAP_CHECKS)}
    assert all(units[m["name"]] == (m["unit"], m["better"]) for m in spec["per_layer"])


def test_self_time_subtracts_child_spans():
    tr = tracing.Tracer()
    tr.job = "job0"
    tr.spans = [["a", 0.0, 10.0, -1, "job0", True], ["b", 1.0, 4.0, 0, "job0", True],
                ["a", 5.0, 7.0, 0, "job0", False]]
    layers, _ = tr.job_layers()
    assert layers["job0"]["a"] == [2, 10.0, 5.0 + 2.0]
    assert layers["job0"]["b"] == [1, 3.0, 3.0]


# -- report comparison -----------------------------------------------------------

def _report(kernel, job_s):
    prov = {"kernel_backend": kernel, "rational_backend": "fractions", "python": "3.11.7", "nproc": 2}
    return {"fiber-gv": {"provenance": prov, "end_to_end": {"job_s": {"value": job_s, "unit": "s"}}}}


def test_compare_refuses_results_from_different_backends():
    bounds = {"job_s": (0.1, "lower")}
    assert report.compare(_report("py", 10.0), _report("c", 5.0), bounds) == [
        ("fiber-gv", "*", "not comparable", None)
    ]
    rows = report.compare(_report("py", 10.0), _report("py", 12.0), bounds)
    assert rows[0][:3] == ("fiber-gv", "job_s", "worse than bound")
