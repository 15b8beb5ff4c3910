"""Command-line front end: machine-readable tables and the self-check suite.

Exit codes: 0 success, 1 verification/solver failure, 2 IO or config error
or an input outside the domain (a ValueError or ArithmeticError out of the
library, reported by `main` as "error: ..." with no traceback).
Each table subcommand checks its arguments, makes one library call and hands
the table to `_write_table`, which applies the one refusal rule and renders.
The rule: a table that exits 0 holds only finite numbers, except in the rows
the library marks as allowed (the nan cells of evanescent `dispersion`
rows); otherwise the first non-finite cell is refused with exit 2 as
"<subcommand> column <C> is <V> at <key> = <value>", the key being the row's
first column (`m-universe` for `dark-energy`).  There is one CSV render path,
`_render_csv`, and it works column by column; every float prints as %.12e
(FMT), so identical configs give byte-identical CSV.  A float64 column goes
through one numpy kernel, `_float_cells`, which writes the digits itself:
e10 = floor(log10|v|), y = |v| 10^(12 - e10) with the power of ten parsed
by float() (correctly rounded), m = rint(y).  Two roundings put y within
4e-3 of its exact value, so a cell whose y is more than 0.01 from a rounding
tie, with 1e12 <= y and m < 1e13 (a log10 off by one fails this) and
1e-280 <= |v| <= 1e280, rounds exactly as FMT % v does; that cell is
certified.  +-0 and nan are fixed strings, written on the same array path
(`[-]0.000000000000e+00`, keeping the sign of -0, and `nan`).  Every other
cell (inf, subnormals, the exponent extremes, near-ties, a power of ten's
neighbours) is printed by FMT % v.
Int columns print through numpy's int-to-bytes cast, and text and object
columns cell by cell.  JSON is `tolist()` through json.dumps.
Physical constants default to Planck units (lam = c = hbar = G = 1) and can
be overridden per subcommand, or via a config file of key=value lines
(flags override the file).
Only `verify` loads scipy, imported in `cmd_verify`: `spectrum`'s eigensolve
calls LAPACK in the OpenBLAS numpy bundles (scipy only where numpy ships
none), and every scipy import sits in the function that uses it, so the
table subcommands start without scipy.  Only `spectrum` loads mpmath, for
the effective masses below x = 1e-4.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import dispersion as D
from . import effective as E
from . import geometry as G
from . import spectrum as S

FMT = "%.12e"


def _fail(msg, code):
    print("error: %s" % msg, file=sys.stderr)
    raise SystemExit(code)


def _write_output(path, text):
    try:
        if path in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        _fail("cannot write %s: %s" % (path, exc), 2)


def _csv_text(text):
    """One text cell, quoted as csv.writer quotes it (QUOTE_MINIMAL)."""
    if "," in text or '"' in text or "\n" in text:
        return '"%s"' % text.replace('"', '""')
    return text


def _words(table):
    """Rows of a uint8 table as native uint32 words, 4 bytes each."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint32)


# A float cell is six words: sign, lead digit and point; three words of four
# digits; "e" and the exponent sign; the exponent digits.  NUL bytes pad a
# cell and are dropped from the text, so each word sits at a fixed offset.
_POW10 = np.array([float("1e%d" % k) for k in range(-269, 294)])  # 10^(i-269)
_DIGITS = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
_DIGIT4 = _words(_DIGITS).ravel()                   # "0000" ... "9999"
_HEAD = _words([[s, ord("0") + d, ord("."), 0]
                for s in (0, ord("-")) for d in range(10)]).ravel()
_EPLUS, _EMINUS = _words([[ord("e"), ord("+"), 0, 0],
                          [ord("e"), ord("-"), 0, 0]]).ravel()
_EXP = _words(np.column_stack([np.where(np.arange(1000) < 100, 0,
                                        _DIGITS[:1000, 1]),
                               _DIGITS[:1000, 2:], np.zeros(1000)])).ravel()
_CELL_WORDS = 6
_NAN = np.frombuffer(b"nan".ljust(4 * _CELL_WORDS, b"\0"), np.uint32)


def _float_cells(v, words):
    """Write FMT % v of the float64 column v into words, its (rows, 6) uint32
    slots; the certified cells, +-0 and nan by array writes, the others by
    FMT %.  Returns how many cells took FMT %."""
    a = np.abs(v)
    ok = (a >= 1e-280) & (a <= 1e280)  # false for 0, nan, inf, subnormals
    zero, nan = a == 0, np.isnan(a)
    a[~ok] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.intp)
    y = a * _POW10[281 - e10]
    m = np.rint(y)
    ok &= (np.abs(y - m) < 0.49) & (y >= 1e12) & (m < 1e13)
    m[~ok] = 1e12
    m[zero] = 0.0  # with e10 = 0: [-]0.000000000000e+00
    bad = np.flatnonzero(~(ok | zero | nan))
    q = m.astype(np.int64)
    q1 = q // 10000
    q2 = q1 // 10000
    lead = q2 // 10000
    words[:, 0] = _HEAD[lead + 10 * np.signbit(v)]
    words[:, 1] = _DIGIT4[q2 - lead * 10000]
    words[:, 2] = _DIGIT4[q1 - q2 * 10000]
    words[:, 3] = _DIGIT4[q - q1 * 10000]
    words[:, 4] = np.where(e10 < 0, _EMINUS, _EPLUS)
    words[:, 5] = _EXP[np.abs(e10)]
    words[nan] = _NAN
    if bad.size:
        words[bad] = np.array([(FMT % x).encode() for x in v[bad].tolist()],
                              dtype="S24").view(np.uint32).reshape(-1, 6)
    return bad.size


def _text_cells(column):
    """The bytes of an int column through numpy, or of a text or object
    column cell by cell (floats as FMT, text quoted as csv.writer quotes
    it): a fixed-width bytes array, NUL-padded."""
    if column.dtype.kind in "iu":
        return column.astype("S")
    cells = [FMT % v if isinstance(v, float) else _csv_text(str(v))
             for v in column.tolist()]
    if any("\0" in c for c in cells):
        raise ValueError("a CSV text cell holds a NUL byte")
    return np.array([c.encode() for c in cells], dtype="S")


def _render_csv(header, columns):
    """The CSV text of a table given as columns: float64 columns (nan
    allowed) through `_float_cells`, int, text and object columns through
    `_text_cells`.  Each column fills a slot of whole words in a rows x
    bytes buffer, its last byte the separator, and the NUL padding is
    dropped from the buffer's bytes."""
    text = ",".join(map(_csv_text, header)) + "\n"
    rows = len(columns[0]) if columns else 0
    if not rows:
        return text
    blocks = [np.asarray(c, dtype=float) if c.dtype.kind == "f"
              else _text_cells(c) for c in columns]
    widths = [_CELL_WORDS if b.dtype.kind == "f" else b.itemsize // 4 + 1
              for b in blocks]
    buf = np.zeros((rows, 4 * sum(widths)), np.uint8)
    words = buf.view(np.uint32)
    start = 0
    for block, width in zip(blocks, widths):
        if block.dtype.kind == "f":
            _float_cells(block, words[:, start:start + width])
        else:
            buf[:, 4 * start:4 * start + block.itemsize] \
                = block.view(np.uint8).reshape(rows, -1)
        start += width
        buf[:, 4 * start - 1] = ord(",")
    buf[:, -1] = ord("\n")
    return text + buf.tobytes().translate(None, b"\0").decode()


def _render_json(header, rows):
    """A json array of objects, one per row; nan prints as null."""
    data = [dict(zip(header, [None if isinstance(v, float) and math.isnan(v)
                              else v for v in row])) for row in rows]
    return json.dumps(data, indent=2) + "\n"


def _finite_float(text):
    """argparse type of every float flag, config-file values included: nan
    and +-inf are refused (exit 2) instead of flowing into the tables."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("expected a finite number, got %r"
                                         % text)
    return value


def _add_common(sub, constants=True):
    sub.add_argument("--output", "-o", default="-",
                     help="output path, - for stdout (default)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if constants:
        sub.add_argument("--lam", type=_finite_float, default=1.0)
        sub.add_argument("--c", type=_finite_float, default=1.0)
        sub.add_argument("--hbar", type=_finite_float, default=1.0)
        sub.add_argument("--G", type=_finite_float, default=1.0)


def _check_constants(args):
    for name in ("lam", "c", "hbar", "G"):
        if hasattr(args, name) and getattr(args, name) <= 0:
            _fail("%s must be positive" % name, 2)


def _refuse_non_finite(command, header, cells, allowed=None):
    """The one non-finite refusal of the tables: a ValueError (exit 2) naming
    the first non-finite cell, row by row, outside the rows that `allowed`
    marks.  cells is a 2-D float array whose columns header names; a row is
    named by its first column."""
    bad = ~np.isfinite(cells)
    if allowed is not None:
        bad[allowed.astype(bool)] = False
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError("%s column %s is %r at %s = %g"
                         % (command, header[col], float(cells[row, col]),
                            header[0], cells[row, 0]))


def _write_table(args, table, header=None, allowed=None):
    """Refuse, then render and write, a library table: a record array, whose
    fields are the columns, or a 2-D float array with the columns header."""
    if table.dtype.names:
        header = table.dtype.names
        columns = [table[name] for name in header]
        cells = np.column_stack(columns)
    else:
        columns, cells = list(table.T), table
    _refuse_non_finite(args.subcommand, header, cells, allowed)
    if args.format == "json":
        text = _render_json(header, table.tolist())
    else:
        text = _render_csv(header, columns)
    _write_output(args.output, text)
    return 0


def cmd_figure1(args):
    return _write_table(args, E.figure1_data(x_max=args.xmax, n_points=args.n),
                        ["x", "mI_over_mp", "mG_over_mp", "V0_over_mpc2"])


def cmd_dispersion(args):
    if args.omega_min < 0 or args.omega_max <= args.omega_min or args.n < 2:
        _fail("need 0 <= omega-min < omega-max and n >= 2", 2)
    omegas = np.linspace(args.omega_min, args.omega_max, args.n)
    table = D.sweep(omegas, args.m, args.lam, args.c, args.hbar)
    return _write_table(args, table, allowed=table.evanescent)


def cmd_spectrum(args):
    units = E.PlanckUnits(lam=args.lam, c=args.c, hbar=args.hbar, G=args.G)
    if args.x <= 0 or args.M <= 0:
        _fail("x and M must be positive", 2)
    return _write_table(args, S.spectrum_table(args.x, args.M, units, l=args.l,
                                               n_states=args.n_states))


def cmd_mu_nu(args):
    if (args.n is None) == (args.gamma is None):
        _fail("pass exactly one of --n (power law) or --gamma (weak field)", 2)
    if args.gamma is not None and args.gamma <= 0:
        _fail("gamma must be positive", 2)
    if args.rmin <= 0 or args.rmax <= args.rmin or args.nodes < 2:
        _fail("need 0 < rmin < rmax and nodes >= 2", 2)
    with np.errstate(all="ignore"):  # a non-finite cell is refused
        table = G.mu_nu_table(args.rmin, args.rmax, args.nodes, n=args.n,
                              gamma=args.gamma, c=args.c)
    return _write_table(args, table)


def cmd_dark_energy(args):
    units = E.PlanckUnits(lam=args.lam, c=args.c, hbar=args.hbar, G=args.G)
    rep = E.dark_energy_estimate(args.m_universe, args.r_universe, units)
    numbers = {k: v for k, v in rep.items() if isinstance(v, float)}
    _refuse_non_finite("dark-energy", ["m-universe", *numbers],
                       np.array([[args.m_universe, *numbers.values()]]))
    if args.format == "json":
        text = json.dumps(rep, indent=2) + "\n"
    else:
        text = _render_csv(["key", "value"],
                           [np.array(list(rep)),
                            np.array(list(rep.values()), dtype=object)])
    _write_output(args.output, text)
    return 0


def cmd_verify(args):
    from . import verify as V  # here, so that no table subcommand loads scipy
    level = "full" if args.full else "fast"
    rep = V.run(level)
    for c in rep["checks"]:
        print("%s %-42s %s" % ("PASS" if c["ok"] else "FAIL",
                               c["name"], c["measured"]))
    print("%d checks, %d failed (%s level, %.1f s)"
          % (rep["n_checks"], rep["n_failed"], level, rep["seconds"]))
    if args.report:
        _write_output(args.report, json.dumps(rep, indent=2) + "\n")
    return 0 if rep["n_failed"] == 0 else 1


def _add_top_options(p):
    """The options before the subcommand; `main` parses them again to find
    the subcommand token."""
    p.add_argument("--config", help="file of key=value lines; flags override")


def build_parser():
    p = argparse.ArgumentParser(
        prog="ncgrav",
        description="Quantum-spacetime wave operators: tables and self-checks")
    _add_top_options(p)
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("figure1",
                       help="effective mass / potential table vs x")
    s.add_argument("--xmax", type=_finite_float, default=10.0)
    s.add_argument("--n", type=int, default=500)
    _add_common(s, constants=False)
    s.set_defaults(func=cmd_figure1)

    s = sub.add_parser("dispersion", help="deformed mass-shell sweep")
    s.add_argument("--omega-min", type=_finite_float, default=0.0)
    s.add_argument("--omega-max", type=_finite_float, default=2.0)
    s.add_argument("--n", type=int, default=100)
    s.add_argument("--m", type=_finite_float, default=0.0)
    _add_common(s)
    s.set_defaults(func=cmd_dispersion)

    s = sub.add_parser("spectrum",
                       help="bound states, numeric vs closed-form oracle")
    s.add_argument("--x", type=_finite_float, required=True,
                   help="particle mass over the Planck mass")
    s.add_argument("--M", type=_finite_float, default=1.0, help="central mass")
    s.add_argument("--l", type=int, default=0)
    s.add_argument("--n-states", type=int, default=3)
    _add_common(s)
    s.set_defaults(func=cmd_spectrum)

    s = sub.add_parser("mu-nu", help="metric coefficient profiles + residuals")
    s.add_argument("--n", type=_finite_float, help="beta = 1/r^n power law")
    s.add_argument("--gamma", type=_finite_float,
                   help="weak-field length 2GM/c^2")
    s.add_argument("--rmin", type=_finite_float, default=0.5)
    s.add_argument("--rmax", type=_finite_float, default=50.0)
    s.add_argument("--nodes", type=int, default=200)
    _add_common(s)
    s.set_defaults(func=cmd_mu_nu)

    s = sub.add_parser("dark-energy", help="constant-term density estimate")
    s.add_argument("--m-universe", type=_finite_float, default=1e53)
    s.add_argument("--r-universe", type=_finite_float, default=1e26)
    _add_common(s)
    s.set_defaults(func=cmd_dark_energy)

    s = sub.add_parser("verify", help="run the named invariant registry")
    s.add_argument("--full", action="store_true",
                   help="large sample sizes (default: fast)")
    s.add_argument("--report", help="also write the JSON report here")
    s.set_defaults(func=cmd_verify)
    return p


def _load_config(path):
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    _fail("%s:%d: expected key=value" % (path, lineno), 2)
                key, val = (s.strip() for s in line.split("=", 1))
                out[key.replace("-", "_")] = val
    except OSError as exc:
        _fail("cannot read config: %s" % exc, 2)
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # splice config entries in as flags right after the subcommand token,
        # the first token the top-level options leave (a config file may
        # share the subcommand's name); explicit flags come later in argv so
        # they win (argparse last-wins)
        front = argparse.ArgumentParser(add_help=False)
        _add_top_options(front)
        front.add_argument("rest", nargs=argparse.REMAINDER)
        pos = len(argv) - len(front.parse_args(argv).rest) + 1
        extra = []
        for key, val in _load_config(args.config).items():
            flag = "--" + key.replace("_", "-")
            if val.lower() in ("true", "false"):
                if val.lower() == "true":
                    extra.append(flag)
            else:
                extra.extend([flag, val])
        args = parser.parse_args(argv[:pos] + extra + argv[pos:])
    _check_constants(args)
    try:
        return args.func(args)
    except S.GridConvergenceError as exc:
        _fail(str(exc), 1)
    except (ValueError, ArithmeticError) as exc:
        _fail(str(exc) or type(exc).__name__, 2)


if __name__ == "__main__":
    sys.exit(main())
