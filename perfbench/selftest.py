"""Self-test of the benchmark's reference check.

    python3 perfbench/selftest.py

Runs a few real operations and shows that a reference with one altered
sequence value or coefficient, an operation that raises and an operation
missing from its report are each counted as failures.
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPT = (("seq", "spt", "--n-max", str(workloads.TABLE_N_MAX), "--format", "json"), ("sequence:spt",))
MORTID3 = (
    ("verify", "--id", "MORTID3-printed", "--order", str(workloads.DEEP_ORDER), "--format", "json"),
    ("record:MORTID3-printed",),
)


def failures(calls, reference) -> int:
    _, _, ops = run.run_pass(calls)
    return workloads.count_failures([ops], reference)[1]


class ReferenceCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.tables = workloads.load_reference("tables")
        cls.deep = workloads.load_reference("deep2v")

    def test_unaltered_reference_passes(self) -> None:
        self.assertEqual(failures([SPT], self.tables), 0)
        self.assertEqual(failures([MORTID3], self.deep), 0)

    def test_altered_sequence_value_is_a_failure(self) -> None:
        reference = copy.deepcopy(self.tables)
        reference["sequence:spt"]["entry"]["values"][1234] += 1
        self.assertEqual(failures([SPT], reference), 1)

    def test_altered_coefficient_is_a_failure(self) -> None:
        # The expected failure counts as correct only with its exact mismatch.
        reference = copy.deepcopy(self.deep)
        entry = reference["record:MORTID3-printed"]["entry"]
        self.assertFalse(entry["ok"])
        entry["first_mismatch"]["lhs"] += 1
        self.assertEqual(failures([MORTID3], reference), 1)

    def test_raising_operation_is_a_failure(self) -> None:
        calls = [(("seq", "no-such-sequence", "--n", "3"), ("sequence:no-such-sequence",))]
        self.assertEqual(failures(calls, self.tables), 1)

    def test_operation_missing_from_report_is_a_failure(self) -> None:
        calls = [(SPT[0], ("sequence:spt", "sequence:sptBar"))]
        self.assertEqual(failures(calls, self.tables), 1)


if __name__ == "__main__":
    unittest.main()
