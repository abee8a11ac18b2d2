"""Write the benchmark's reference outputs from the current program.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are the
reference (the committed files come from the seed code, before any
optimisation). It writes ``perfbench/reference/``:

- ``<workload>.json.gz``: the stripped output of every operation any seed
  can ask for;
- ``index.json``: the operation keys of the registry report, and the cost
  of each two-variable record at order 100, used to draw cost-balanced
  deep2v samples (minimum of three timings at reference speed, see
  ``calibrate.py``).
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
COST_REPEATS = 3


def write_ops(workload: str, ops: dict[str, object]) -> None:
    path = workloads.reference_path(workload)
    text = json.dumps({"ops": ops}, sort_keys=True, indent=1)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode())


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qhecke.suite import Variables, registry_catalog

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    _, registry = workloads.call_program(("report", "--format", "json"))
    write_ops("registry", registry)

    deep: dict[str, object] = {}
    cost_ms: dict[str, float] = {}
    ids = [r.id for r in registry_catalog() if r.variables is Variables.Z_AND_Q]
    for _ in range(COST_REPEATS):  # rounds over all records, so drift hits each alike
        for rid in ids:
            argv = ("verify", "--id", rid, "--order", str(workloads.DEEP_ORDER), "--format", "json")
            seconds, ops = workloads.call_program(argv)
            ms = round(seconds * calibrate.scale_after(max(seconds, 1.0)) * 1000.0, 1)
            cost_ms[rid] = min(cost_ms.get(rid, ms), ms)
            deep.update(ops)
    write_ops("deep2v", deep)

    tables: dict[str, object] = {}
    for argv, _ in workloads.make_calls("tables", 0, {}):
        tables.update(workloads.call_program(argv)[1])
    write_ops("tables", tables)

    index = {"registry_keys": sorted(registry), "deep2v_cost_ms": cost_ms}
    workloads.INDEX_PATH.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
