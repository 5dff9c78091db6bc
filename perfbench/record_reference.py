"""Record each workload's reference frame digest into ``reference.json``.

Usage, from the repository root::

    python3 perfbench/record_reference.py

Runs every workload once through ``child.py`` on the default plan path,
with no result store, so evaluate-resweep's reference rows are computed
rather than read back.  The scheduler that produced each digest is
stored next to it.  Re-record only on purpose: a plan change that alters
any row is a correctness change, not a speed change.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads
from run import HERE, ROOT, child_env


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", "0"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        reference[name] = {
            "digest": out["digest"],
            "cells": out["cells"],
            "scheduler": out["env"]["scheduler"],
            "executor_effective": out["env"]["executor_effective"],
        }
        print(name, reference[name])
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
