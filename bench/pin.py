"""Pin the outputs that the benchmark checks, from the code checked out now.

    python3 bench/pin.py

Writes ``bench/golden/{verify,symbolic-ladder,count-table}.json``.  Run it
only on code whose answers are known to be right (the files in the
repository were pinned from the seed code); a change that claims the same
answers must reproduce these files, not regenerate them.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import GOLDEN, ROOT, Runner


def main() -> int:
    workdir = ROOT / ".bench_out" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, time.monotonic() + 600)
        _, verify = runner.child("verify-cold", 1, "--cache", str(workdir / "c.json"))
        _, ladder = runner.child("symbolic-ladder", 1)
        _, table = runner.child("count-table", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN.mkdir(exist_ok=True)
    for name, outputs in (("verify", verify["outputs"]),
                          ("symbolic-ladder", ladder["outputs"]),
                          ("count-table", table["outputs"])):
        text = json.dumps(dict(sorted(outputs.items())), indent=0)
        (GOLDEN / f"{name}.json").write_text(text + "\n")
        print(f"{name}: {len(outputs)} pinned outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
