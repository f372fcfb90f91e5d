"""Regenerate the stored reference values in ``perfbench/reference/``.

    PYTHONPATH=src python3 perfbench/make_reference.py

Only a change that deliberately alters what the model simulates (cycle
counts, lookup steps, table memory, RIPng convergence) may rewrite them;
a change meant only to run faster must leave them untouched.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from workloads import (EXACT_REFERENCE, OUT_DIR, REFERENCE_DIR,
                       TABLE1_REFERENCE, WORKLOADS)


def main() -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        exact = {}
        for name, cls in WORKLOADS.items():
            workload = cls(0, 0, workdir)
            workload.imports()
            exact[name] = workload.reference()
    finally:
        shutil.rmtree(workdir)
    with open(TABLE1_REFERENCE, "w", encoding="utf-8") as handle:
        handle.write(exact["table1-paper"].pop("table1"))
    with open(EXACT_REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(exact, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
