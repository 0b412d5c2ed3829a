import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from enrq import cli, enriques, perverse
from enrq.checks import run_checks
from enrq.cli import SERIES_IDS, main
from enrq.ring import LinExpr, is_rational
from enrq.series import Series, json_text

BETTI_RECORDS = [
    {"d": 0, "betti": [1, 2, 1], "complete": True},
    {"d": None, "betti": [1, 0, 11], "complete": False},
    {"d": 1, "betti": [1, 0, 10, 23, 10, 0, 1], "complete": True},
]
EXPECTED_TABLE_D1 = """\
| i\\j | -1 | 0 | 1 |
| --- | --- | --- | --- |
| -2 | 1 |  | 1 |
| -1 |  | 8 |  |
| 0 | 1 | 22 | 1 |
| 1 |  | 8 |  |
| 2 | 1 |  | 1 |
"""


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def oracle_parse(argv):
    """The parse the one-pass dispatch replaces: the full parser reads every argv."""
    return cli._parser().parse_args(cli._join_signed_values(argv))


def parsed(parse, argv, capsys):
    """What one parse of ``argv`` shows a user and hands a command: the exit
    code of help or of a usage error, stdout, stderr, and the parsed options."""
    code = options = None
    try:
        options = vars(parse(argv))
        if options.get("betti_file"):  # its table is built from its bytes alone
            options["betti_file"] = options["betti_file"].data
    except cli.UsageError as exc:
        code = 2
        print(exc, file=sys.stderr)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, options


def run_both(argv, capsys):
    """``run`` through the dispatch and through the oracle parse: both results."""
    results = []
    for parse in (cli._parse, oracle_parse):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_parse", parse)
            try:
                results.append(run(argv, capsys))
            except SystemExit as exc:  # help
                results.append((exc.code, *capsys.readouterr()))
    return results


class TestExpand:
    def test_pt_fiber_q1_coefficient(self, capsys):
        code, out, _ = run(["expand", "pt-fiber", "--q-order", "8"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["vars"] == ["q", "t", "s"]
        terms = {tuple(t["exp"]): t["coef"] for t in blob["terms"]}
        assert terms[(24, 0, 0)] == "8"

    def test_asympt_contains_276(self, capsys):
        code, out, _ = run(["expand", "asympt-gf", "--q-order", "7"], capsys)
        assert code == 0 and '"276"' in out

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run(["expand", "bogus-id"], capsys)
        assert code == 2 and "unknown series id" in err

    def test_every_series_id_expands(self, capsys):
        for name in SERIES_IDS:
            code, out, _ = run(["expand", name, "--q-order", "4"], capsys)
            assert code == 0
            json.loads(out)

    def test_deterministic_output(self, capsys):
        a = run(["expand", "keyeq-rhs1", "--q-order", "5"], capsys)[1]
        b = run(["expand", "keyeq-rhs1", "--q-order", "5"], capsys)[1]
        assert a == b

    def test_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SERIES_CACHE_DIR", str(tmp_path / "cache"))
        a = run(["expand", "ky-logZ", "--q-order", "4"], capsys)[1]
        cached = list((tmp_path / "cache").glob("ky-logZ-*.json"))
        assert len(cached) == 1
        stamp = cached[0].read_text()
        b = run(["expand", "ky-logZ", "--q-order", "4"], capsys)[1]
        assert a == b == stamp

    def test_cache_follows_betti_file_content(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "betti.json"
        argv = ["expand", "keyeq-rhs2", "--q-order", "4", "--betti-file", str(path)]
        path.write_text(json.dumps(BETTI_RECORDS))
        before = run(argv, capsys)[1]
        edited = [dict(r) for r in BETTI_RECORDS]
        edited[2]["betti"] = [1, 0, 10, 25, 10, 0, 1]
        path.write_text(json.dumps(edited))
        fresh = run(argv, capsys)[1]
        assert fresh != before

        monkeypatch.setenv("SERIES_CACHE_DIR", str(tmp_path / "cache"))
        path.write_text(json.dumps(BETTI_RECORDS))
        assert run(argv, capsys)[1] == before
        path.write_text(json.dumps(edited))
        assert run(argv, capsys)[1] == fresh
        assert len(list((tmp_path / "cache").iterdir())) == 2

        # a hit serves the stored text: nothing is built, dumped or parsed
        def refuse(*args, **kwargs):
            raise AssertionError("cache hit rebuilt the series")

        monkeypatch.setattr(cli, "_build_series", refuse)
        monkeypatch.setattr(Series, "dumps", refuse)
        monkeypatch.setattr(Series, "loads", refuse)
        assert run(argv, capsys)[1] == fresh

    def test_cache_entry_removed_before_its_read_is_a_miss(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SERIES_CACHE_DIR", str(cache))
        argv = ["expand", "ky-logZ", "--q-order", "4"]
        cold = run(argv, capsys)
        cache_path, removed = cli._cache_path, []

        def removed_once_keyed(*args):
            path = cache_path(*args)
            if os.path.exists(path):  # another process clears the cache between key and read
                os.unlink(path)
                removed.append(os.path.basename(path))
            return path

        monkeypatch.setattr(cli, "_cache_path", removed_once_keyed)
        assert run(argv, capsys) == cold
        assert len(removed) == 1 and [p.name for p in cache.iterdir()] == removed

    @staticmethod
    def cache_entries(name, argvs, cache, capsys):
        """Expand ``name`` at q = 3 once per extra argv; the number of cache entries."""
        texts = {run(["expand", name, "--q-order", "3", *argv], capsys)[1] for argv in argvs}
        assert len(texts) == len(list(cache.glob(f"{name}-*.json")))
        return len(texts)

    def test_cache_key_ignores_the_window_of_a_window_free_id(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SERIES_CACHE_DIR", str(cache))
        windows = [["--p-window=-6:6"], ["--p-window=0:6"], ["--p-window=-4:4"]]
        assert self.cache_entries("pt-fiber", windows, cache, capsys) == 1

    def test_cache_key_reads_only_the_window_top(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SERIES_CACHE_DIR", str(cache))
        windows = [["--p-window=-6:6"], ["--p-window=0:6"]]
        assert self.cache_entries("pt-fiber-full", windows, cache, capsys) == 1
        windows.append(["--p-window=-6:8"])
        assert self.cache_entries("pt-fiber-full", windows, cache, capsys) == 2

    def test_cache_key_reads_the_betti_file_only_where_used(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SERIES_CACHE_DIR", str(cache))
        edited = [dict(r) for r in BETTI_RECORDS]
        edited[2]["betti"] = [1, 0, 10, 25, 10, 0, 1]
        files = []
        for i, records in enumerate((BETTI_RECORDS, edited)):
            path = tmp_path / f"betti{i}.json"
            path.write_text(json.dumps(records))
            files.append(["--betti-file", str(path)])
        assert self.cache_entries("keyeq-rhs1", [[], files[0]], cache, capsys) == 1
        assert self.cache_entries("keyeq-rhs2", files, cache, capsys) == 2

    def test_no_float_reaches_a_coefficient(self, capsys, monkeypatch):
        built = []
        build = cli._build_series

        def keep(name, args):
            built.append(build(name, args))
            return built[-1]

        monkeypatch.setattr(cli, "_build_series", keep)
        for name in SERIES_IDS:
            assert run(["expand", name, "--q-order", "3"], capsys)[0] == 0
        assert len(built) == len(SERIES_IDS)
        for series in built:
            for c in series.terms.values():
                parts = [c.const, *c.terms.values()] if isinstance(c, LinExpr) else [c]
                for x in parts:
                    assert is_rational(x), (series, c)

    def test_negative_p_window_spellings(self, capsys):
        spaced = run(["expand", "pt-fiber-full", "--q-order", "3", "--p-window", "-6:6"], capsys)
        joined = run(["expand", "pt-fiber-full", "--q-order", "3", "--p-window=-6:6"], capsys)
        assert spaced == joined and spaced[0] == 0


class TestParserReuse:
    SESSION = [
        ["expand", "pt-fiber", "--q-order", "3"],
        ["tables", "--d", "0:1", "--q-order", "3", "--format", "csv"],
        ["expand", "pt-fiber-full", "--q-order", "2", "--p-window", "-4:4"],
        ["check", "--checks", "toda-vs-prop", "--q-order", "4"],
        ["expand", "bogus-id"],
        ["tables", "--d", "-1:2"],
        ["expand", "ky-logZ", "--q-order", "1/2"],
        ["tables", "--format", "json", "--d", "1", "--q-order", "2"],
        ["check", "--checks", "nope"],
        ["expand", "pt-fiber", "--q-order", "abc"],
        ["expand", "keyeq-rhs1", "--q-order", "3"],
    ]

    def test_shared_parser_matches_fresh_parser(self, capsys):
        shared = [run(argv, capsys) for argv in self.SESSION]
        fresh = []
        for argv in self.SESSION:
            cli._parser.cache_clear()
            fresh.append(run(argv, capsys))
        assert shared == fresh
        assert {code for code, _, _ in shared} == {0, 2}


class TestOneParse:
    """A command's subparser alone reads what follows the command name; the
    full parser reads all else.  Either way a user sees what the two-level
    parse shows, and a command gets the same options."""

    CORPUS = [
        *TestParserReuse.SESSION,
        [],
        ["-h"],
        ["--help"],
        ["expand", "-h"],
        ["tables", "--help"],
        ["check", "-h", "--checks", "nope"],
        ["bogus"],
        ["expan", "pt-fiber"],
        ["--bogus"],
        ["--", "expand", "pt-fiber"],
        ["expand"],
        ["expand", "pt-fiber", "extra"],
        ["expand", "pt-fiber", "--bogus", "3"],
        ["tables", "--d", "0:1", "stray", "--q-order", "1"],
        ["check", "--eta-no-prefactor", "x"],
        ["expand", "--q-order", "3", "pt-fiber"],
        ["expand", "--p-window", "-4:4", "--q-order", "2", "pt-fiber-full"],
        ["expand", "pt-fiber", "--q-ord", "2"],
        ["expand", "pt-fiber", "--q-order"],
        ["expand", "--", "pt-fiber"],
        ["expand", "pt-fiber", "--", "extra"],
        ["tables", "--format", "xml"],
        ["tables", "--d", "2", "--d", "0:1", "--q-order", "2"],
        ["check", "--checks", "table1,,table2"],
        ["expand", "pt-fiber-full", "--q-order", "2", "--p-window", "-300000:300000"],
    ]

    @pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_parse_matches_the_full_parser(self, argv, capsys):
        assert parsed(cli._parse, argv, capsys) == parsed(oracle_parse, argv, capsys)

    @pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_main_matches_the_full_parser(self, argv, capsys):
        dispatched, oracle = run_both(argv, capsys)
        assert dispatched == oracle

    def test_every_command_parses_once(self, capsys, monkeypatch):
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            calls.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        for argv in (["expand", "pt-fiber", "--q-order", "2"], ["tables", "--d", "0", "--q-order", "1"]):
            assert run(argv, capsys)[0] == 0
        assert calls == ["enrq expand", "enrq tables"]
        calls.clear()
        assert run(["expand", "pt-fiber", "extra"], capsys)[0] == 2  # the full parser names the extras
        assert calls == ["enrq expand", "enrq", "enrq expand"]


class TestUsageErrors:
    """Malformed input: exit 2 and one line on stderr, no traceback."""

    def usage_error(self, argv, capsys):
        # the one-pass dispatch parses as the full parser does, to the byte
        assert parsed(cli._parse, argv, capsys) == parsed(oracle_parse, argv, capsys)
        (code, out, err), oracle = run_both(argv, capsys)
        assert (code, out, err) == oracle
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        return err

    def test_q_order_not_a_number(self, capsys):
        assert "not a rational number" in self.usage_error(
            ["expand", "pt-fiber", "--q-order", "abc"], capsys
        )

    def test_q_order_below_minimum(self, capsys):
        for order in ("0", "-1/2"):
            assert "must be positive" in self.usage_error(
                ["expand", "pt-fiber", "--q-order", order], capsys
            )
        self.usage_error(["tables", "--q-order", "0"], capsys)

    def test_missing_betti_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert "cannot read" in self.usage_error(
            ["expand", "keyeq-rhs2", "--betti-file", missing], capsys
        )

    def test_malformed_betti_file(self, tmp_path, capsys):
        path = tmp_path / "betti.json"
        for text in (
            "[{",
            '{"d": 1}',
            '[{"betti": [1]}]',
            '[{"d": 1, "betti": [1, 0, 11], "complete": true}]',
            '[{"d": null, "betti": [1, "x", 11]}]',
            '[{"d": null, "betti": [1, 0, 11], "complete": true}]',
            '[{"d": 1, "betti": [1, 0, 11]}]',
            '[{"d": null, "betti": [1, 0.1, 11]}]',
            '[{"d": 1.5, "betti": [1, 0, 10, 23, 10, 0, 1], "complete": true}]',
        ):
            path.write_text(text)
            self.usage_error(["expand", "keyeq-rhs2", "--betti-file", str(path)], capsys)

    def test_betti_file_booleans(self, tmp_path, capsys):
        # JSON true is an int to Python; it is neither a degree nor a Betti number
        path = tmp_path / "betti.json"
        generic = '{"d": null, "betti": [1, 0, 11]}'
        for record in (
            '{"d": true, "betti": [1, 0, 10, 22, 10, 0, 1], "complete": true}',
            '{"d": 0, "betti": [1, true, 1], "complete": true}',
            '{"d": true, "betti": [1, 0, 11]}',
        ):
            path.write_text(f"[{record}, {generic}]")
            self.usage_error(["tables", "--d", "0:1", "--betti-file", str(path)], capsys)
        path.write_text('[{"d": null, "betti": [1, false, 11]}]')
        self.usage_error(["tables", "--d", "0:1", "--betti-file", str(path)], capsys)

    def test_out_names_a_file(self, tmp_path, capsys):
        path = tmp_path / "afile"
        path.write_text("kept")
        argv = ["tables", "--d", "0", "--q-order", "1", "--out", str(path)]
        assert "--out" in self.usage_error(argv, capsys)
        assert path.read_text() == "kept"

    def test_cache_dir_names_a_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "afile"
        path.write_text("kept")
        monkeypatch.setenv("SERIES_CACHE_DIR", str(path))
        assert "SERIES_CACHE_DIR" in self.usage_error(["expand", "ky-logZ", "--q-order", "3"], capsys)
        assert path.read_text() == "kept"

    def test_q_order_too_large(self, capsys):
        # the scaled exponents of q^30000 leave a packed exponent field
        for argv in (["expand", "pt-fiber"], ["tables", "--d", "0:1"]):
            assert "--q-order" in self.usage_error([*argv, "--q-order", "30000"], capsys)

    def test_p_window_too_large(self, capsys):
        # a window top whose scaled p exponent leaves the packed field: refused
        # before the sum over p^m up to the top begins
        argv = ["expand", "pt-fiber-full", "--q-order", "2", "--p-window", "-300000:300000"]
        err = self.usage_error(argv, capsys)
        assert err.startswith("enrq: error: argument --p-window: too large (")

    def test_malformed_p_window_names_the_form(self, capsys):
        for argv in (["--p-window", "3"], ["--p-window=a:b"], ["--p-window", "1:2:3"]):
            err = self.usage_error(["expand", "pt-fiber", *argv], capsys)
            assert "argument --p-window: not a window" in err and "integers LO:HI" in err
            assert "_parse" not in err and "invalid" not in err

    def test_malformed_degree_names_the_form(self, capsys):
        for d in ("1:", "x", ":2"):
            err = self.usage_error(["tables", "--d", d], capsys)
            assert "argument --d: not a degree range" in err and "a degree D or integers LO:HI" in err
            assert "_parse" not in err and "invalid" not in err

    def test_degree_range_spellings(self, capsys):
        spaced = run(["tables", "--d", "0:1", "--q-order", "3"], capsys)
        joined = run(["tables", "--d=0:1", "--q-order", "3"], capsys)
        assert spaced == joined and spaced[0] == 0
        assert self.usage_error(["tables", "--d", "-1:2"], capsys) == self.usage_error(
            ["tables", "--d=-1:2"], capsys
        )


class TestTables:
    def test_degree_one_markdown(self, capsys):
        code, out, _ = run(["tables", "--d", "1:1", "--q-order", "4"], capsys)
        assert code == 0
        assert out.startswith(EXPECTED_TABLE_D1)

    def test_unknown_row_degree_two(self, capsys):
        code, out, _ = run(["tables", "--d", "2:2", "--q-order", "4", "--format", "csv"], capsys)
        assert code == 0
        unknown = [l for l in out.splitlines() if l.endswith(",?")]
        assert unknown and all(l.startswith("0,") for l in unknown)

    def test_insufficient_order_exit_3(self, capsys):
        code, _, err = run(["tables", "--d", "9", "--q-order", "5"], capsys)
        assert code == 3 and "q-order" in err

    def test_output_directory(self, tmp_path, capsys):
        code, out, _ = run(["tables", "--d", "0:1", "--q-order", "4", "--out", str(tmp_path)], capsys)
        assert code == 0
        written = ["table_d0.md", "table_d1.md", "table_fiber_odd.md", "table_fiber_even.md"]
        assert out.splitlines() == [os.path.join(str(tmp_path), name) for name in written]
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "table_d0.md",
            "table_d1.md",
            "table_fiber_even.md",
            "table_fiber_odd.md",
        ]
        assert (tmp_path / "table_d1.md").read_text() == EXPECTED_TABLE_D1

    def test_json_format_has_symbol_cells(self, tmp_path, capsys):
        code, _, _ = run(
            ["tables", "--d", "2:2", "--q-order", "4", "--format", "json", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        blob = json.loads((tmp_path / "table_d2.json").read_text())
        unknown = [e for e in blob["entries"] if isinstance(e["value"], dict)]
        assert unknown and all(e["i"] == 0 for e in unknown)

    def test_betti_file_override(self, tmp_path, capsys):
        path = tmp_path / "betti.json"
        path.write_text(json.dumps(BETTI_RECORDS))
        code, out, _ = run(
            ["tables", "--d", "1:1", "--q-order", "4", "--betti-file", str(path)], capsys
        )
        assert code == 0
        assert "| 0 | 1 | 23 | 1 |" in out  # center follows the middle Betti number


class TestCheck:
    def test_single_check_passes(self, capsys):
        code, out, err = run(["check", "--checks", "toda-vs-prop"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["checks"][0]["name"] == "toda-vs-prop"
        assert "pass  toda-vs-prop" in err

    def test_unknown_check_exit_2(self, capsys):
        code, _, err = run(["check", "--checks", "nope"], capsys)
        assert code == 2 and "unknown checks" in err

    def test_unknown_check_names_are_quoted(self, capsys):
        code, out, err = run(["check", "--checks", "table1,,nope,table2"], capsys)
        assert (code, out, err) == (2, "", "unknown checks: '', 'nope'\n")

    def test_negative_control_fails(self, capsys):
        code, out, _ = run(
            ["check", "--checks", "chain-three-forms", "--eta-no-prefactor", "--q-order", "4"],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        assert not report["passed"]
        assert "mismatch" in report["checks"][0]["detail"]

    def test_negative_control_reaches_only_the_three_form_chain(self, capsys):
        # the Jacobi main term's eta prefactors cancel, so jacobi-vs-product
        # still passes; dt-special-value fails with or without the control
        code, out, _ = run(["check", "--eta-no-prefactor"], capsys)
        assert code == 1
        checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
        assert checks["jacobi-vs-product"]
        assert sorted(n for n, ok in checks.items() if not ok) == [
            "chain-three-forms", "dt-special-value",
        ]


# sha256 of the stdout bytes, taken while the CLI wrote its JSON with
# json.dumps(indent=2, sort_keys=True): the text must stay the same byte for
# byte, and with it the series cache's entries
STDOUT_SHA256 = {
    ("expand", "pt-fiber"): "b53a57337cbeb03cc0437bbbfa3d395b93825196493578111a3aee3ff29be1be",
    ("expand", "pt-fiber-full"): "655f14f06de14f5e810b0469c751e3af5f1a929a802f80245433c46db50da93f",
    ("expand", "keyeq-rhs1"): "04b50f94da616650bb66f5720ce9aec2e6ff0e9c255c319929eea0beed60d20b",
    ("expand", "keyeq-rhs2"): "921c6e57693caff1b5924fe52dff306e4e34a1324a276ac6d2e286d17caf5890",
    ("expand", "ky-logZ"): "589bc44cde49be30642b9d925e0fc10ca56f55a52ff8d7f3709422719bc9e964",
    ("expand", "asympt-gf"): "c954ab3341ae38061fa13b7bf2d244f8891f59578f3469d22b01102e27bcfa78",
    ("expand", "betti-infty"): "9ed93d3ec689ed78f91bcfaabb655ae196f6bef65c9a87fd31ffa16397f9dd1b",
    ("expand", "omega-half-integral"): "54252e7419b2e01724fbacd465b6164e8be32e52e2e78009398d32ddcfd1146e",
    ("expand", "pt-fiber-full", "--p-window=-6:6"):
        "306414f0439af37267e3419d5f326af464d46aa2922bbd32ed71cf20a4a32a3e",
    ("tables", "--format", "json"): "6072d3550ef7726e00310a59d36fc00be451c83f05eb9acecb55411352107d77",
    ("tables", "--d", "0:6", "--format", "json"):
        "526aa51488dddb54f0f01262d73b5168947a6dd40318852ccb138862e5d7a38d",
    ("check",): "2b40c50cafabf0a067f75db74c2449c20f0d6e07c0542e729a68eb795ddb9fb3",
}
# expand at --q-order 6, the tables at 8; the rest at the defaults
STDOUT_ARGS = {"expand": ["--q-order", "6"], "tables": ["--q-order", "8"], "check": []}


def test_every_series_id_has_a_stdout_pin():
    assert {k[1] for k in STDOUT_SHA256 if k[0] == "expand"} == set(SERIES_IDS)


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256), ids=" ".join)
def test_stdout_bytes_are_pinned(argv, capsys):
    code, out, _ = run([*argv, *STDOUT_ARGS[argv[0]]], capsys)
    assert code == (1 if argv[0] == "check" else 0)  # check: dt-special-value fails by design
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


def test_writer_matches_json_dumps_on_tables_grids_and_reports():
    betti = perverse.BettiTable.default()
    main_term, second = perverse.ph_main_term(6), perverse.ph_betti_term(betti, 6)
    docs = [perverse.perverse_table(d, betti, 6, main_term, second).to_json_dict() for d in range(6)]
    assert any(isinstance(c["value"], dict) for c in docs[-1]["entries"])
    for parity in ("odd", "even"):
        grid = enriques.fiber_ph_grid(parity)
        docs.append([{"i": i, "j": j, "value": str(v)} for (i, j), v in sorted(grid.items()) if v])
    results = run_checks(["table1", "asymptotics", "dt-special-value"], betti=betti,
                         q_order=Fraction(6), eta_prefactor=True)
    docs.append({"passed": all(r["passed"] for r in results), "checks": results})
    for doc in docs:
        assert json_text(doc, 2) == json.dumps(doc, indent=2, sort_keys=True)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "enrq.cli", "expand", "betti-infty", "--q-order", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vars"] == ["x"]


# In a fresh interpreter without ``site`` (which may preload modules), import
# enrq.cli from the given ``src`` and run each command in-process, printing
# which of hashlib and _hashlib are loaded after the import and each command.
IMPORT_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import enrq.cli

def loaded():
    return sorted({"hashlib", "_hashlib"} & set(sys.modules))

seen = [["import", None, loaded()]]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = enrq.cli.main(argv)
    seen.append([" ".join(argv), code, loaded()])
print(json.dumps(seen))
"""


def test_no_command_loads_hashlib(tmp_path):
    # hashlib maps OpenSSL's libcrypto; the cache key uses the built-in SHA-256
    betti = tmp_path / "betti.json"
    betti.write_text(json.dumps(BETTI_RECORDS))
    commands = [
        ["check", "--checks", "table1"],
        ["tables", "--d", "0:1"],
        ["tables", "--d", "0:1", "--betti-file", str(betti)],
        ["expand", "pt-fiber", "--q-order", "2"],  # builds a key and writes the entry
        ["expand", "pt-fiber", "--q-order", "2"],  # builds it again and reads the entry
        ["expand", "keyeq-rhs2", "--q-order", "2", "--betti-file", str(betti)],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "SERIES_CACHE_DIR": str(tmp_path / "cache")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, src, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == [["import", None, []]] + [[" ".join(argv), 0, []] for argv in commands]
    assert len(list((tmp_path / "cache").glob("pt-fiber-*.json"))) == 1


def _hashlib_cache_path(cache_dir, name, args):
    """The cache entry name as ``hashlib.sha256`` derives it: the reference for the key."""
    reads = cli._SERIES[name][1]
    betti = args.betti_file if "betti_file" in reads else None
    key = hashlib.sha256(
        json.dumps(
            {
                "id": name,
                "q_order": str(args.q_order),
                "p_hi": args.p_window[1] if "p_window" in reads else None,
                "betti_sha256": betti and hashlib.sha256(betti.data).hexdigest(),
                "version": cli.__version__,
                "kernel": cli.BACKEND,
                "rational": cli.RATIONAL_BACKEND,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:24]
    return Path(cache_dir) / f"{name}-{key}.json"


@pytest.mark.parametrize("name", sorted(cli._SERIES))
def test_cache_key_equals_the_hashlib_derivation(name, tmp_path):
    betti = tmp_path / "betti.json"
    betti.write_text(json.dumps(BETTI_RECORDS))
    for extra in ([], ["--betti-file", str(betti)], ["--q-order", "7/2", "--p-window=-3:5"]):
        args = cli._parser().parse_args(["expand", name, *extra])
        got = cli._cache_path(str(tmp_path / "cache"), name, args)
        assert os.fspath(got) == os.fspath(_hashlib_cache_path(tmp_path / "cache", name, args))


def test_cache_key_falls_back_to_hashlib(tmp_path, monkeypatch):
    # an interpreter built without the lean modules keys with hashlib: the same names
    for module in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, module, None)
    cli._sha256.cache_clear()
    try:
        assert cli._sha256() is hashlib.sha256
        for name in ("pt-fiber", "pt-fiber-full"):
            args = cli._parser().parse_args(["expand", name])
            got = cli._cache_path(str(tmp_path), name, args)
            assert os.fspath(got) == os.fspath(_hashlib_cache_path(tmp_path, name, args))
    finally:
        cli._sha256.cache_clear()
