"""Command-line front end: series expansion, table emission, identity checks.

Exit codes: 0 success, 1 failed check, 2 usage error: unknown id,
malformed argument, a Betti file without data for a degree the command
needs, an ``--out`` that cannot be written, or a ``SERIES_CACHE_DIR`` that
cannot be read or written, such as one naming a file, or a ``--q-order``
or ``--p-window`` too large for a packed exponent field (a one-line message on
stderr, never a traceback), 3 insufficient truncation order for the requested
tables.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

from . import __version__, enriques, perverse
from .checks import CHECKS, run_checks
from .kernel import BACKEND
from .ring import RATIONAL_BACKEND
from .series import FieldOverflow, Window, WindowOverflow, json_text

# flags whose value may start with "-", which argparse would take for an option
SIGNED_FLAGS = ("--p-window", "--d", "--q-order")

BettiFile = namedtuple("BettiFile", "data table")


class UsageError(Exception):
    """Malformed command line; reported in one line with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


def _parse_window(text):
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a window {text!r}: need integers LO:HI") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty window {text!r}: need LO <= HI")
    return lo, hi


def _parse_range(text):
    lo, colon, hi = text.partition(":")
    try:
        lo = int(lo)
        hi = int(hi) if colon else lo
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a degree range {text!r}: need a degree D or integers LO:HI"
        ) from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"bad degree range {text!r}: need 0 <= LO <= HI")
    return lo, hi


def _parse_order(text):
    try:
        q_order = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    if q_order <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return q_order


def _read_betti_file(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    try:
        records = json.loads(data)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{path!r} is not valid JSON: {exc}") from None
    if not isinstance(records, list) or not all(
        isinstance(r, dict) and "d" in r and isinstance(r.get("betti"), list) for r in records
    ):
        raise argparse.ArgumentTypeError(
            f'{path!r}: expected a list of {{"d", "betti", "complete"}} records'
        )
    try:
        table = perverse.BettiTable.from_records(records)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{path!r}: {exc}") from None
    return BettiFile(data, table)


def _join_signed_values(argv):
    """``--p-window -6:6`` -> ``--p-window=-6:6``, so argparse sees a value."""
    out = []
    for arg in argv:
        if out and out[-1] in SIGNED_FLAGS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _betti(args):
    if getattr(args, "betti_file", None):
        return args.betti_file.table
    return perverse.BettiTable.default()


def _window(args):
    """The ``--p-window`` request in scaled units; the builders read its top."""
    lo, hi = args.p_window
    return Window(2 * lo, 2 * hi, False)


@contextlib.contextmanager
def _cache_errors(cache_dir):
    """Report an unusable ``SERIES_CACHE_DIR`` as a usage error."""
    try:
        yield
    except OSError as exc:
        msg = f"cannot use {cache_dir!r}: {exc.strerror or exc}"
        raise UsageError(f"enrq: error: SERIES_CACHE_DIR: {msg}") from None


def _emit(text, args, filename):
    if args.out:
        path = os.path.join(args.out, filename)
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            msg = f"cannot write {filename} into {args.out!r}: {exc.strerror or exc}"
            raise UsageError(f"enrq: error: argument --out: {msg}") from None
        print(path)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# every series id once: its builder, and the options besides --q-order that
# the builder reads (the cache key holds only those)
_SERIES = {
    "pt-fiber": (lambda args: enriques.pt_fiber_series(args.q_order), ()),
    "pt-fiber-full": (lambda args: enriques.pt_fiber_full(args.q_order, _window(args)), ("p_window",)),
    "keyeq-rhs1": (lambda args: perverse.ph_main_term(args.q_order), ()),
    "keyeq-rhs2": (lambda args: perverse.ph_betti_term(_betti(args), args.q_order), ("betti_file",)),
    "ky-logZ": (lambda args: enriques.local_enriques_log_pt(args.q_order), ()),
    "asympt-gf": (lambda args: perverse.asymptotic_ph_gf(args.q_order), ()),
    "betti-infty": (lambda args: perverse.asymptotic_betti_gf(args.q_order), ()),
    "omega-half-integral": (lambda args: perverse.omega_half_integral_series(args.q_order), ()),
}
SERIES_IDS = tuple(_SERIES)


def _build_series(name, args):
    return _SERIES[name][0](args)


@functools.cache
def _sha256():
    """The interpreter's built-in SHA-256 constructor: the same digest as
    ``hashlib.sha256`` without loading ``hashlib``, which maps OpenSSL's
    libcrypto into the process (CPython's ``random`` takes its SHA-512 the
    same way).  ``hashlib`` serves only an interpreter built without either
    module."""
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # CPython < 3.12
        except ImportError:
            from hashlib import sha256
    return sha256


def _cache_path(cache_dir, name, args):
    """The cache entry of ``name`` under ``cache_dir``, content-addressed by
    only what the id reads, so equal text shares one entry (of a window only
    its top, of a Betti file the sha256 of its bytes), plus the version and
    backends."""
    sha256 = _sha256()
    reads = _SERIES[name][1]
    betti = args.betti_file if "betti_file" in reads else None
    key = sha256(
        json.dumps(
            {
                "id": name,
                "q_order": str(args.q_order),
                "p_hi": args.p_window[1] if "p_window" in reads else None,
                "betti_sha256": betti and sha256(betti.data).hexdigest(),
                "version": __version__,
                "kernel": BACKEND,
                "rational": RATIONAL_BACKEND,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:24]
    return os.path.join(cache_dir, f"{name}-{key}.json")


def cmd_expand(args):
    name = args.series_id
    if name not in SERIES_IDS:
        print(f"unknown series id {name!r}; known: {', '.join(SERIES_IDS)}", file=sys.stderr)
        return 2
    cache_dir = os.environ.get("SERIES_CACHE_DIR")
    cache_path = _cache_path(cache_dir, name, args) if cache_dir else None
    text = None
    if cache_path is not None:
        with _cache_errors(cache_dir):
            try:
                with open(cache_path, encoding="utf-8") as fh:
                    text = fh.read()
            except FileNotFoundError:  # a miss, also when the entry went since it was keyed
                pass
    if text is None:
        text = _build_series(name, args).dumps(indent=2) + "\n"
        if cache_path is not None:
            with _cache_errors(cache_dir):
                _write_atomic(cache_path, text)
    _emit(text, args, f"{name}.json")
    return 0


def _write_atomic(path, text):
    """Write via a temp file in the same directory, so readers never see a partial file."""
    import tempfile  # only a cache miss writes

    parent, name = os.path.split(path)
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_tables(args):
    q_order = args.q_order
    d_lo, d_hi = args.d
    if q_order < d_hi + 1:
        print(
            f"q-order {q_order} cannot determine tables up to d={d_hi}; need at least {d_hi + 1}",
            file=sys.stderr,
        )
        return 3
    betti = _betti(args)
    main = perverse.ph_main_term(q_order)
    second = perverse.ph_betti_term(betti, q_order)
    for d in range(d_lo, d_hi + 1):
        table = perverse.perverse_table(d, betti, q_order, main, second)
        if args.format == "md":
            _emit(table.to_markdown(), args, f"table_d{d}.md")
        elif args.format == "csv":
            _emit(table.to_csv(), args, f"table_d{d}.csv")
        else:
            _emit(json_text(table.to_json_dict(), 2) + "\n", args, f"table_d{d}.json")
    for parity in ("odd", "even"):
        grid = enriques.fiber_ph_grid(parity)
        i_range, j_range = perverse.grid_box(grid)
        if args.format == "md":
            _emit(perverse.grid_to_markdown(grid, i_range, j_range), args, f"table_fiber_{parity}.md")
        elif args.format == "csv":
            _emit(perverse.grid_to_csv(grid, i_range, j_range), args, f"table_fiber_{parity}.csv")
        else:
            data = [{"i": i, "j": j, "value": str(v)} for (i, j), v in sorted(grid.items()) if v]
            _emit(json_text(data, 2) + "\n", args, f"table_fiber_{parity}.json")
    return 0


def cmd_check(args):
    names = args.checks.split(",") if args.checks else None
    if names:
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            print(f"unknown checks: {', '.join(map(repr, unknown))}", file=sys.stderr)
            return 2
    results = run_checks(
        names,
        betti=_betti(args),
        q_order=args.q_order,
        eta_prefactor=not args.eta_no_prefactor,
    )
    report = {"passed": all(r["passed"] for r in results), "checks": results}
    _emit(json_text(report, 2) + "\n", args, "check_report.json")
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        line = f"{status}  {r['name']}"
        if r["detail"] and not r["passed"]:
            line += f"  [{r['detail']}]"
        print(line, file=sys.stderr)
    return 0 if report["passed"] else 1


def _add_common(parser):
    parser.add_argument(
        "--q-order",
        type=_parse_order,
        default=Fraction(8),
        help="truncation order (positive rational, default 8)",
    )
    parser.add_argument(
        "--p-window",
        type=_parse_window,
        default=(-10, 10),
        metavar="LO:HI",
        help="validity window for p exponents (default -10:10)",
    )
    parser.add_argument(
        "--betti-file",
        type=_read_betti_file,
        default=None,
        help="JSON file with Betti input records",
    )
    parser.add_argument("--out", default=None, help="output directory (default: stdout)")


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by later calls; its
    ``commands`` maps each command name to its subparser."""
    parser = _Parser(
        prog="enrq",
        description="Exact q-series engine for refined curve counting on Enriques Calabi-Yau threefolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand a named series to canonical JSON")
    p_expand.add_argument("series_id", help=f"one of: {', '.join(SERIES_IDS)}")
    _add_common(p_expand)

    p_tables = sub.add_parser("tables", help="emit perverse-Hodge number tables")
    p_tables.add_argument("--d", type=_parse_range, default=(0, 4), help="degree or LO:HI range (default 0:4)")
    p_tables.add_argument("--format", choices=("md", "csv", "json"), default="md")
    _add_common(p_tables)

    p_check = sub.add_parser("check", help="run named identity checks")
    p_check.add_argument("--checks", default=None, help=f"comma list from: {', '.join(CHECKS)}")
    p_check.add_argument(
        "--eta-no-prefactor",
        action="store_true",
        help="negative control: drop the q^(scale/24) eta prefactor",
    )
    _add_common(p_check)
    parser.commands = {"expand": p_expand, "tables": p_tables, "check": p_check}
    return parser


def _parse(argv):
    """``_parser().parse_args`` of ``argv``, in one pass where ``argv`` starts
    with a command name: that command's subparser reads the rest, which is what
    the full parser hands it.  Any other input, and leftover arguments, go
    through the full parser, so every help, usage and error text is its own."""
    argv = _join_signed_values(argv)
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        if args.command == "expand":
            return cmd_expand(args)
        if args.command == "tables":
            return cmd_tables(args)
        return cmd_check(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
    except perverse.MissingBettiData as exc:
        print(f"enrq: error: argument --betti-file: {exc.args[0]}", file=sys.stderr)
    except WindowOverflow as exc:
        print(f"enrq: error: argument --p-window: too large ({exc})", file=sys.stderr)
    except FieldOverflow as exc:
        print(f"enrq: error: argument --q-order: too large ({exc})", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
