"""cli-tables workload: the table subcommands run in-process through `cli.main`.

One item is one `ncgrav` invocation writing CSV to a file: `figure1`,
`dispersion` (massless and `--m 0.5`), `mu-nu --n 3`, `mu-nu --gamma 1e-3`,
`spectrum` and `dark-energy`, at enlarged `--n` / `--nodes`.  These use the
numeric layers row by row (`cmd_dispersion` solves each omega on its own,
`cmd_mu_nu` calls each profile once per row) and render every float with
`%.12e`.

The seed picks one of four variants of every invocation and the order in
which they run.  The variants differ in parameter values, not in table sizes.
The check compares each output file with the SHA-256 digest that
`record_digests.py` recorded from the seed commit, so any byte of drift is a
failure.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from ncgrav import cli

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_digests.json"
OUT_DIR = HERE.parent / ".bench_out" / "cli"

SIZES = {
    "full": {"figure1": "20000", "dispersion": "4000", "mu_nu": "4000"},
    "tiny": {"figure1": "50", "dispersion": "20", "mu_nu": "20"},
}


def variants(size):
    """{slot: [argv, ...]}: four variants of each invocation, output flag
    excluded."""
    n = SIZES[size]
    return {
        "figure1": [["figure1", "--xmax", x, "--n", n["figure1"]]
                    for x in ("9.5", "10", "10.5", "11")],
        "dispersion": [["dispersion", "--omega-min", lo, "--omega-max", hi,
                        "--n", n["dispersion"]]
                       for lo, hi in (("0", "2"), ("0.01", "2.01"),
                                      ("0.02", "2.02"), ("0.03", "2.03"))],
        "dispersion-m": [["dispersion", "--omega-min", lo, "--omega-max", hi,
                          "--n", n["dispersion"], "--m", "0.5"]
                         for lo, hi in (("0", "2"), ("0.01", "2.01"),
                                        ("0.02", "2.02"), ("0.03", "2.03"))],
        "mu-nu-n": [["mu-nu", "--n", "3", "--rmax", r, "--nodes", n["mu_nu"]]
                    for r in ("40", "50", "60", "70")],
        "mu-nu-gamma": [["mu-nu", "--gamma", "1e-3", "--rmax", r,
                         "--nodes", n["mu_nu"]]
                        for r in ("40", "50", "60", "70")],
        "spectrum": [["spectrum", "--x", x, "--n-states", "3"]
                     for x in ("1e-8", "2e-8", "5e-8", "1e-7")],
        "dark-energy": [["dark-energy", "--m-universe", m]
                        for m in ("1e53", "2e53", "5e53", "1e54")],
    }


def key(argv):
    return " ".join(argv)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _item(argv, path, recorded):
    want = recorded.get(key(argv))

    def run():
        return cli.main(argv + ["--output", str(path)]), path

    def check(out):
        code, path_out = out
        if code != 0:
            return "%s exited %r" % (key(argv), code)
        if want is None:
            return "no recorded digest for %s" % key(argv)
        if digest(path_out) != want:
            return "%s output differs from the seed commit" % key(argv)
        return None

    return "cli:" + argv[0], run, check, 1


def build(seed, size="full"):
    """Items (label, run, check, units) for one pass."""
    recorded = json.loads(DIGESTS.read_text())["digests"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    slots = sorted(variants(size).items())
    rng.shuffle(slots)
    return [_item(rng.choice(argvs), OUT_DIR / (slot + ".csv"), recorded)
            for slot, argvs in slots]


def layer_counts(outputs):
    """Bytes written in one pass, from its (label, output) pairs."""
    return {"cli.bytes_out": sum(Path(out[1]).stat().st_size
                                 for _label, out in outputs if out is not None)}
