#!/usr/bin/env python3
"""Compare the output contract of this checkout with another checkout's.

    python3 tools/contract.py --parent DIR

For each checkout (DIR and this one) the script runs the four ``scripts/``
sweeps and ``cobosons verify``, each checkout in its own temporary
directory with its own ``src`` first on PYTHONPATH, and compares the six
CSVs and the verify stdout byte for byte.  It prints one JSON line, with
the outputs that are identical, that differ and that either side did not
write, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("two_pair_crossover", "assembly_crossover", "correlations", "chi_table")
CSVS = ("two_pair_crossover.csv", "assembly_crossover_n3.csv", "assembly_crossover_n4.csv",
        "purity.csv", "g2.csv", "chi_table.csv")
VERIFY = "verify stdout"


def outputs(checkout: Path) -> dict:
    """Name -> bytes of each contract output of ``checkout``, None when it
    was not written."""
    src = str(checkout / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        for script in SCRIPTS:
            subprocess.run([sys.executable, str(checkout / "scripts" / f"{script}.py")], cwd=tmp, env=env)
        verify = subprocess.run([sys.executable, "-m", "cobosons.cli", "verify"], cwd=tmp, env=env,
                                stdout=subprocess.PIPE)
        found = {name: Path(tmp, name).read_bytes() if Path(tmp, name).is_file() else None for name in CSVS}
    return {**found, VERIFY: verify.stdout or None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare with")
    args = parser.parse_args(argv)
    parent, change = outputs(args.parent.resolve()), outputs(ROOT)
    names = (*CSVS, VERIFY)
    missing = [name for name in names if parent[name] is None or change[name] is None]
    differ = [name for name in names if name not in missing and parent[name] != change[name]]
    identical = [name for name in names if name not in missing and name not in differ]
    print(json.dumps({"parent": str(args.parent), "identical": identical, "differ": differ, "missing": missing}))
    return 1 if differ or missing else 0


if __name__ == "__main__":
    sys.exit(main())
