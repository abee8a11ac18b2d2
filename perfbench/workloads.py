"""Workload inputs, output stripping and the reference check.

Every workload is a list of ``qhecke`` command lines driven in-process
through ``qhecke.cli.main``. Each call's JSON report is stripped of run
facts (``config``, ``elapsed_ms``) and split into operations: one record,
one sequence or one congruence rule. An operation is correct when its
canonical JSON matches the reference made from the seed code.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
INDEX_PATH = REFERENCE_DIR / "index.json"

WORKLOADS = {
    "registry": (
        "qhecke report --format json, the regression run users do: 126 records at"
        " default orders plus small tables and congruences; many small dict and zf_mul"
        " series"
    ),
    "deep2v": (
        "qhecke verify --order 100 on gR plus a seeded cost-balanced sample of z,q"
        " records: wide-z-span series where qs_invert and qs_mul dominate"
    ),
    "tables": (
        "qhecke seq for six sequences to n = 2000 and all seven congruences at default"
        " bounds: only the dense zf_* kernels run, so a qs_mul change must not move it"
    ),
}

SEQUENCES = ("spt", "sptBar", "m2spt", "a", "alpha", "beta")
CONGRUENCES = (
    "congs35",
    "heckecong-l17",
    "heckecong-l5",
    "heckecong-l7",
    "m2heckecong-l11",
    "m2heckecong-l3",
    "m2heckecong-l5",
)
TABLE_N_MAX = 2000

DEEP_ORDER = 100
DEEP_ALWAYS = "gR"  # the only record that runs qs_invert
DEEP_POOL_MIN_MS = 30.0  # cheaper records at order 100 are short finite polynomials
DEEP_SAMPLE = 4
DEEP_TARGET_MS = 1500.0
DEEP_TOLERANCE = 0.03

# A call is (argv, operation keys its report must contain).
Call = tuple[tuple[str, ...], tuple[str, ...]]


def load_index() -> dict:
    with open(INDEX_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def deep2v_ids(seed: int, cost_ms: dict[str, float]) -> list[str]:
    """gR plus DEEP_SAMPLE other records whose reference costs at order 100
    sum to DEEP_TARGET_MS within DEEP_TOLERANCE, in seeded order.

    Balancing the sample on cost keeps the pass time nearly the same for
    every seed while the records themselves change.
    """
    pool = sorted(
        rid for rid, ms in cost_ms.items() if rid != DEEP_ALWAYS and ms >= DEEP_POOL_MIN_MS
    )
    rng = random.Random(seed)
    for _ in range(100_000):
        pick = rng.sample(pool, DEEP_SAMPLE)
        total = sum(cost_ms[rid] for rid in pick)
        if abs(total - DEEP_TARGET_MS) <= DEEP_TOLERANCE * DEEP_TARGET_MS:
            ids = [DEEP_ALWAYS] + pick
            rng.shuffle(ids)
            return ids
    raise RuntimeError("no cost-balanced deep2v sample found")


def make_calls(workload: str, seed: int, index: dict) -> list[Call]:
    """The calls of one pass of a workload; the same seed gives the same calls."""
    if workload == "registry":
        # The registry is a fixed input: the seed changes nothing here.
        return [(("report", "--format", "json"), tuple(index["registry_keys"]))]
    if workload == "deep2v":
        return [
            (
                ("verify", "--id", rid, "--order", str(DEEP_ORDER), "--format", "json"),
                (f"record:{rid}",),
            )
            for rid in deep2v_ids(seed, index["deep2v_cost_ms"])
        ]
    if workload == "tables":
        calls: list[Call] = [
            (
                ("seq", name, "--n-max", str(TABLE_N_MAX), "--format", "json"),
                (f"sequence:{name}",),
            )
            for name in SEQUENCES
        ]
        calls += [
            (("congruence", "--id", rule, "--format", "json"), (f"congruence:{rule}",))
            for rule in CONGRUENCES
        ]
        random.Random(seed).shuffle(calls)
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def strip(obj: object) -> object:
    """Drop timing keys recursively, as ``qhecke.cli._comparable`` does."""
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip(v) for v in obj]
    return obj


_SECTIONS = (("results", "record", "id"), ("sequences", "sequence", "name"), ("congruences", "congruence", "id"))


def split_report(rc: int, report: dict) -> dict[str, object]:
    """One comparable value per operation of a stripped JSON report."""
    report = strip({k: v for k, v in report.items() if k != "config"})
    ops: dict[str, object] = {}
    for section, prefix, field in _SECTIONS:
        for entry in report.get(section, ()):
            ops[f"{prefix}:{entry[field]}"] = {
                "rc": rc,
                "version": report.get("version"),
                "entry": entry,
            }
    return ops


def call_program(argv: tuple[str, ...]) -> tuple[float, dict[str, object]]:
    """Run one command line through ``qhecke.cli.main``.

    Returns the seconds spent in ``main`` and the operations of its report.
    """
    import qhecke.cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = qhecke.cli.main(list(argv))
        seconds = time.perf_counter() - t0
    return seconds, split_report(rc, json.loads(buf.getvalue()))


def canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: object) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict[str, object]:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def count_failures(
    passes: list[dict[str, str | None]], reference: dict[str, object]
) -> tuple[int, int, list[str]]:
    """Compare every pass's operation digests with the reference.

    A digest of None marks an operation that raised or was missing from
    its report. Returns (attempted, failed, keys that failed).
    """
    want = {key: digest(value) for key, value in reference.items()}
    attempted = failed = 0
    bad: list[str] = []
    for ops in passes:
        for key, got in ops.items():
            attempted += 1
            if got is None or got != want.get(key):
                failed += 1
                if key not in bad:
                    bad.append(key)
    return attempted, failed, bad
