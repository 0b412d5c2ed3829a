"""The three benchmark workloads: inputs from a seed, one job, its verification.

Each workload drives only public functions of ``enrq.enriques``,
``enrq.perverse``, ``enrq.qfunc``, ``enrq.series`` and ``enrq.cli``.  A job is
timed by the caller.  ``prepare`` builds, before the first job and outside
any timing, the reference outputs that ``verify`` compares against, so that
they weigh the same on peak memory in every run.  ``verify`` runs outside the
timed region and returns one
list of problems per verified operation (an empty list means the operation is
correct).  ``census`` counts the coefficient types of a job's outputs, and
``canonical`` renders the outputs as canonical JSON for bit-identity tests.
"""

import contextlib
import io
import json
import os
import random
import re
import tempfile
import time
from fractions import Fraction

from enrq import cli, config, enriques, perverse
from enrq.ring import LinExpr, is_rational
from enrq.series import Series, Window, agree

WITHHELD_BETTI_ENTRIES = 2


# -- inputs -------------------------------------------------------------------

def known_betti_prefixes(records, d_max):
    """Known entries b(d, 0..k) of each degree d <= d_max in the given records.

    A complete vector contributes its first half up to the middle entry; an
    incomplete record contributes its prefix; degrees without a record use the
    generic ``d: null`` prefix.
    """
    own = {r["d"]: r for r in records if r["d"] is not None}
    generic = next(r["betti"] for r in records if r["d"] is None)
    known = {}
    for d in range(d_max + 1):
        rec = own.get(d)
        if rec is None:
            known[d] = list(generic)
        elif rec.get("complete"):
            known[d] = list(rec["betti"][: 2 * d + 2])
        else:
            known[d] = list(rec["betti"])
    return known


def seeded_betti_records(seed, d_max):
    """Betti records that withhold WITHHELD_BETTI_ENTRIES known bundled entries.

    The seed picks that many distinct degrees in the upper half of
    ``0..d_max``; each loses the last entry of its known prefix, which turns
    that entry into a symbol.  A symbol of degree d enters only the q^d and
    higher slices, so keeping the withheld degrees high keeps the symbol load,
    and with it the job's cost, about the same for every seed.  Every record
    is a prefix truncation of the bundled data, so every cell the records
    still determine keeps its bundled value.
    """
    records = config.betti_defaults()
    known = known_betti_prefixes(records, d_max)
    candidates = [d for d, pre in known.items() if d > d_max // 2 and len(pre) > 1]
    cut = sorted(random.Random(seed).sample(candidates, WITHHELD_BETTI_ENTRIES))
    out = [dict(r) for r in records if r["d"] is None or r["d"] not in cut]
    for d in cut:
        out.append({"d": d, "betti": known[d][:-1], "complete": False, "status": "withheld"})
    return out


# -- output checks shared by every workload -----------------------------------

_EXACT = re.compile(r"-?\d+(/\d+)?")


def _coefficients(obj):
    if isinstance(obj, Series):
        return obj.terms.values()
    if isinstance(obj, perverse.PerverseTable):
        return obj.entries.values()
    if isinstance(obj, enriques.GVPolynomial):
        return obj.poly.terms.values()
    raise TypeError(f"no coefficients in {type(obj).__name__}")


def census(objs):
    """Coefficient type counts over ``objs``; any float or unknown type is bad."""
    counts = {"int": 0, "rational": 0, "linexpr": 0, "bad": 0}
    for obj in objs:
        for c in _coefficients(obj):
            if isinstance(c, LinExpr):
                parts = [c.const, *c.terms.values()]
                kind = "linexpr"
            else:
                parts = [c]
                kind = "int" if type(c) is int else "rational"
            if all(is_rational(x) for x in parts):
                counts[kind] += 1
            else:
                counts["bad"] += 1
    return counts


def _census_problems(counts):
    return [f"{counts['bad']} coefficients are not exact rationals"] if counts["bad"] else []


# -- fiber-gv -------------------------------------------------------------------

class FiberGV:
    """Fiber-class PT series -> Betti realization -> refined GV polynomials."""

    name = "fiber-gv"

    def __init__(self, q_order=6, p_window=(-20, 20)):
        self.q_order = q_order
        self.p_window = p_window

    def setup(self, seed, workdir):
        # The paper's input has no free parameter; the seed changes nothing.
        self.window = Window(self.p_window[0], self.p_window[1], False)

    def prepare(self):
        pass

    def job(self, tracer=None):
        Z = enriques.pt_fiber_full(self.q_order, self.window)
        Zb = enriques.betti_realization(Z)
        gv = enriques.gv_refined_extract(Zb, self.q_order)
        return {"Z": Z, "Zb": Zb, "gv": gv}

    def census(self, out):
        return census([out["Z"], out["Zb"], *out["gv"].values()])

    def verify(self, out):
        gv = out["gv"]
        problems = []
        if sorted(gv) != list(range(self.q_order)):
            problems.append(f"degrees {sorted(gv)}")
        elif not gv[0].is_zero():
            problems.append("degree 0 is not zero")
        for d in range(1, self.q_order):
            if d not in gv:
                continue
            if gv[d] != enriques.gv_fiber_closed(d):
                problems.append(f"degree {d} differs from the closed form")
            if not (gv[d].symmetric_p() and gv[d].symmetric_u()):
                problems.append(f"degree {d} breaks the p or u symmetry")
        return {"job": problems + _census_problems(self.census(out))}

    def unknown_cells(self, out):
        return 0

    def canonical(self, out):
        return json.dumps(
            {
                "Z": out["Z"].to_json_dict(),
                "Zb": out["Zb"].to_json_dict(),
                "gv": {str(d): p.poly.to_json_dict() for d, p in sorted(out["gv"].items())},
            },
            sort_keys=True,
        )


# -- perverse-identity ----------------------------------------------------------

class PerverseIdentity:
    """Main term in both forms, Betti term, tables d < q_order, the form chain."""

    name = "perverse-identity"

    def __init__(self, q_order=16, chain_q_order=8):
        self.q_order = q_order
        self.chain_q_order = chain_q_order

    def setup(self, seed, workdir):
        self.records = seeded_betti_records(seed, self.q_order - 1)
        self.betti = perverse.BettiTable.from_records(self.records)

    def job(self, tracer=None):
        q = self.q_order
        main = perverse.ph_main_term(q)
        jac = perverse.ph_main_term_jacobi(q)
        second = perverse.ph_betti_term(self.betti, q)
        tables = [perverse.perverse_table(d, self.betti, q, main, second) for d in range(q)]
        chain = perverse.check_primitive_chain(self.betti, q_order=self.chain_q_order)
        return {"main": main, "jac": jac, "second": second, "tables": tables, "chain": chain}

    def prepare(self):
        """Tables from the bundled Betti data."""
        q = self.q_order
        bundled = perverse.BettiTable.default()
        main = perverse.ph_main_term(q)
        second = perverse.ph_betti_term(bundled, q)
        self.reference = [perverse.perverse_table(d, bundled, q, main, second) for d in range(q)]

    def census(self, out):
        return census([out["main"], out["jac"], out["second"], *out["tables"]])

    def verify(self, out):
        problems = []
        ok, info = agree(out["main"], out["jac"])
        if not ok:
            problems.append(f"Jacobi form disagrees with the product form: {info}")
        if out["chain"]["ok"] is not True:
            problems.append("three-form chain check is not ok")
        for table, ref in zip(out["tables"], self.reference):
            if table.duality_violations():
                problems.append(f"d={table.d}: duality violations")
            wrong = [c for c in table.determined_cells() if table.entry(*c) != ref.entry(*c)]
            if wrong:
                problems.append(f"d={table.d}: determined cells {wrong[:3]} differ from bundled data")
        return {"job": problems + _census_problems(self.census(out))}

    def unknown_cells(self, out):
        return sum(len(t.unknown_cells()) for t in out["tables"])

    def canonical(self, out):
        return json.dumps(
            {
                "main": out["main"].to_json_dict(),
                "jac": out["jac"].to_json_dict(),
                "second": out["second"].to_json_dict(),
                "tables": [t.to_json_dict() for t in out["tables"]],
                "chain": out["chain"],
            },
            sort_keys=True,
        )


# -- cli-session ------------------------------------------------------------------

EXPAND_IDS = (
    "pt-fiber",
    "keyeq-rhs1",
    "keyeq-rhs2",
    "ky-logZ",
    "asympt-gf",
    "betti-infty",
    "omega-half-integral",
)
# Every check that takes well under 0.1 s at q = 8; dt-special-value fails
# by design and is left out.
CHEAP_CHECKS = (
    "table1",
    "table2",
    "tables34",
    "tables56",
    "toda-vs-prop",
    "asymptotics",
    "ky-calibration",
    "smooth-curve",
)


def call_cli(argv):
    """Run ``enrq.cli.main`` in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def _json_docs(text):
    dec = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return docs
        doc, pos = dec.raw_decode(text, pos)
        docs.append(doc)


def _inexact_strings(obj):
    """Coefficient strings in a canonical JSON document that are not p/q."""
    if isinstance(obj, dict):
        out = []
        for k, v in obj.items():
            if k in ("coef", "const", "value") and isinstance(v, str):
                if not _EXACT.fullmatch(v):
                    out.append(v)
            else:
                out += _inexact_strings(v)
        return out
    if isinstance(obj, list):
        return [x for v in obj for x in _inexact_strings(v)]
    return []


class CliSession:
    """In-process ``enrq`` commands on a fresh series cache, in seeded order."""

    name = "cli-session"

    def __init__(self, q_order=8, d_range=(0, 6)):
        self.q_order = q_order
        self.d_range = d_range

    def setup(self, seed, workdir):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.records = seeded_betti_records(seed, self.q_order - 1)
        self.betti_file = os.path.join(workdir, "betti.json")
        with open(self.betti_file, "w", encoding="utf-8") as fh:
            json.dump(self.records, fh)

    def commands(self):
        """One pass: cold expands, warm expands, tables, check (each group shuffled)."""
        cold = [("expand.cold", sid) for sid in EXPAND_IDS]
        warm = [("expand.warm", sid) for sid in EXPAND_IDS]
        self.rng.shuffle(cold)
        self.rng.shuffle(warm)
        tail = [("tables", None), ("check", None)]
        self.rng.shuffle(tail)
        return cold + warm + tail

    def argv(self, kind, sid):
        q = ["--q-order", str(self.q_order)]
        if sid == "keyeq-rhs2":
            return ["expand", sid, *q, "--betti-file", self.betti_file]
        if kind.startswith("expand"):
            return ["expand", sid, *q]
        if kind == "tables":
            lo, hi = self.d_range
            return ["tables", "--d", f"{lo}:{hi}", "--format", "json", *q]
        return ["check", "--checks", ",".join(CHEAP_CHECKS), *q]

    def _run(self, commands, cache, tracer=None):
        """Run commands on the series cache ``cache``.

        Each record is (kind, id, exit code, stdout, seconds, parsed).  A cold
        expand's output is read back with ``Series.loads``, as a user of the
        output would; ``seconds`` covers the command alone.
        """
        old = os.environ.get("SERIES_CACHE_DIR")
        os.environ["SERIES_CACHE_DIR"] = cache
        records = []
        try:
            for kind, sid in commands:
                span = tracer.span("cli." + kind) if tracer else contextlib.nullcontext()
                t0 = time.perf_counter()
                with span:
                    rc, text = call_cli(self.argv(kind, sid))
                seconds = time.perf_counter() - t0
                parsed = Series.loads(text) if kind == "expand.cold" and rc == 0 else None
                records.append((kind, sid, rc, text, seconds, parsed))
        finally:
            if old is None:
                os.environ.pop("SERIES_CACHE_DIR", None)
            else:
                os.environ["SERIES_CACHE_DIR"] = old
        return records

    def job(self, tracer=None):
        """One pass of ``commands()`` on a fresh series cache."""
        with tempfile.TemporaryDirectory(prefix="cache-", dir=self.workdir) as cache:
            return {"records": self._run(self.commands(), cache, tracer)}

    def warm_latencies(self, out):
        return [r[4] for r in out["records"] if r[0] == "expand.warm"]

    # -- verification ------------------------------------------------------

    def prepare(self):
        """In-memory series and tables the commands must reproduce."""
        q = Fraction(self.q_order)
        betti = perverse.BettiTable.default()
        main = perverse.ph_main_term(q)
        second = perverse.ph_betti_term(betti, q)
        lo, hi = self.d_range
        self.reference = {
            "series": {
                "pt-fiber": enriques.pt_fiber_series(q),
                "keyeq-rhs1": main,
                "keyeq-rhs2": perverse.ph_betti_term(
                    perverse.BettiTable.from_records(self.records), q
                ),
                "ky-logZ": enriques.local_enriques_log_pt(q),
                "asympt-gf": perverse.asymptotic_ph_gf(q),
                "betti-infty": perverse.asymptotic_betti_gf(q),
                "omega-half-integral": perverse.omega_half_integral_series(q),
            },
            "tables": [
                perverse.perverse_table(d, betti, q, main, second).to_json_dict()
                for d in range(lo, hi + 1)
            ],
            "grids": [
                {f"{i},{j}": str(v) for (i, j), v in enriques.fiber_ph_grid(parity).items() if v}
                for parity in ("odd", "even")
            ],
        }

    def census(self, out):
        return census([r[5] for r in out["records"] if r[5] is not None])

    def verify(self, out):
        ref = self.reference
        cold = {r[1]: r[3] for r in out["records"] if r[0] == "expand.cold"}
        return {
            f"{kind}:{sid}" if sid else kind: self._problems(kind, sid, rc, text, parsed, cold, ref)
            for kind, sid, rc, text, _, parsed in out["records"]
        }

    def _problems(self, kind, sid, rc, text, parsed, cold, ref):
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            docs = _json_docs(text)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        bad = [s for d in docs for s in _inexact_strings(d)]
        problems = [f"inexact coefficients {bad[:3]}"] if bad else []
        if kind == "expand.cold":
            want = ref["series"][sid]
            if parsed is None or not (
                parsed == want and parsed.q_order == want.q_order and parsed.window == want.window
            ):
                problems.append("Series.loads of the output differs from the in-memory series")
        elif kind == "expand.warm":
            if cold.get(sid) != text:
                problems.append("warm output differs from the cold output")
        elif kind == "tables":
            n = len(ref["tables"])
            grids = [{f"{c['i']},{c['j']}": c["value"] for c in doc} for doc in docs[n:]]
            if docs[:n] != ref["tables"] or grids != ref["grids"]:
                problems.append("tables or fiber grids differ from the library's")
        else:
            names = [c["name"] for c in docs[0]["checks"]] if len(docs) == 1 else None
            if names != list(CHEAP_CHECKS) or docs[0]["passed"] is not True:
                problems.append(f"check report does not pass exactly {list(CHEAP_CHECKS)}")
        return problems

    def unknown_cells(self, out):
        for kind, _, rc, text, _, _ in out["records"]:
            if kind == "tables" and rc == 0:
                return sum(
                    isinstance(c["value"], dict)
                    for doc in _json_docs(text)
                    if isinstance(doc, dict)
                    for c in doc["entries"]
                )
        return 0

    def canonical(self, out):
        return json.dumps([[r[0], r[1], r[2], r[3]] for r in out["records"]], sort_keys=True)


class CacheProbe:
    """Warm ``enrq expand`` latencies for the workloads that do not use the CLI.

    Makes one cold expand of every id into a private cache of ``session``
    (verified like cli-session's), then ``run_for`` adds timed rounds of warm
    expands of all ids.  Only one round of output is held at a time.
    """

    def __init__(self, session):
        self.session = session
        session.prepare()
        self.cache = tempfile.mkdtemp(prefix="probe-", dir=session.workdir)
        cold = session._run([("expand.cold", sid) for sid in EXPAND_IDS], self.cache)
        self.problems = [p for ps in session.verify({"records": cold}).values() for p in ps]
        self.texts = {r[1]: r[3] for r in cold}
        self.latencies = []

    def run_for(self, seconds):
        end = time.perf_counter() + seconds
        warm = [("expand.warm", sid) for sid in EXPAND_IDS]
        while True:
            for _, sid, rc, text, took, _ in self.session._run(warm, self.cache):
                self.latencies.append(took)
                if rc != 0 or text != self.texts[sid]:
                    self.problems.append(f"warm {sid}: exit code {rc} or output differs from cold")
            if time.perf_counter() >= end:
                return


WORKLOADS = {w.name: w for w in (FiberGV, PerverseIdentity, CliSession)}
