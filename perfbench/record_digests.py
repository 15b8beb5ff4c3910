"""Record the SHA-256 digest of every cli-tables invocation's CSV output.

    python3 perfbench/record_digests.py COMMIT

Runs every variant of cli_tables.py at both sizes against the checkout's
src/ and writes perfbench/cli_digests.json.  The cli-tables check compares
against these digests, so run this only on the commit whose output is the
reference, and name that commit in the argument.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    run._use_checkout_source()
    import cli_tables
    from ncgrav import cli

    cli_tables.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = cli_tables.OUT_DIR / "record.csv"
    digests = {}
    for size in ("full", "tiny"):
        for argvs in cli_tables.variants(size).values():
            for args in argvs:
                if cli.main(args + ["--output", str(path)]) != 0:
                    sys.exit("error: %s failed" % cli_tables.key(args))
                digests[cli_tables.key(args)] = cli_tables.digest(path)
    cli_tables.DIGESTS.write_text(json.dumps(
        {"commit": argv[0], "digests": digests}, indent=1, sort_keys=True)
        + "\n")
    print("%d digests written to %s" % (len(digests), cli_tables.DIGESTS))


if __name__ == "__main__":
    main(sys.argv[1:])
