"""The benchmark's metrics, and the writer of ``BENCHMARK.json``.

    python3 perfbench/metrics.py      # rewrites BENCHMARK.json

END_TO_END metrics come from untraced runs and carry the bound by which a
change may worsen them (a share of the parent's median). PER_LAYER
metrics come from a traced pass; each names the workload whose ``wall_s``
it should move, which is the prediction a change to that layer is held to.
Counts marked "computed" are derived from call arguments and results
(see ``tracer.py``) and repeat exactly for a given seed.

``error_rate`` is not a metric here: it is ``failed / attempted`` of the
result line, where an operation fails when it raised or its stripped
output differs from the reference.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads
from tracer import LAYERS

RUN_SECONDS = 40

# (name, unit, better, bound)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

_KERNEL_COUNTS = {
    "qs_invert": ("term_products", "deep2v; no change on tables"),
    "qs_mul": ("term_products", "deep2v, registry"),
    "mul_factor": ("terms_in", "registry, deep2v"),
    "div_factor": ("terms_in", "registry, deep2v"),
    "zf_mul_factor": ("coeff_ops", "tables"),
    "zf_div_factor": ("coeff_ops", "tables"),
    "zf_add_into": ("coeff_ops", "tables"),
    "zf_pochhammer_inf": ("coeff_ops", "tables"),
    "zf_mul": ("coeff_ops", "registry (q-only records)"),
}

# (name, unit, the workload whose wall_s it should move)
PER_LAYER: list[tuple[str, str, str]] = []
for _fn, (_count, _target) in _KERNEL_COUNTS.items():
    PER_LAYER += [
        (f"qseries.{_fn}.calls", "count", _target),
        (f"qseries.{_fn}.self_s", "s", _target),
        (f"qseries.{_fn}.{_count}", "count", _target + " (computed)"),
    ]
PER_LAYER += [
    ("qseries.qs_add.self_s", "s", "registry"),
    ("qseries.pochhammer.self_s", "s", "registry"),
    ("qseries.qs_first_mismatch.self_s", "s", "registry"),
]
for _fn in ("lp_add", "lp_mul", "lp_scale"):
    PER_LAYER += [
        (f"polyring.{_fn}.calls", "count", "deep2v, registry"),
        (f"polyring.{_fn}.self_s", "s", "deep2v, registry"),
    ]
PER_LAYER += [
    ("specfun.build.calls", "count", "registry"),
    ("specfun.build.self_s", "s", "registry"),
    ("specfun.build_g_cleared.total_s", "s", "deep2v (gR)"),
    ("hecke.eval_template.calls", "count", "registry, deep2v"),
    ("hecke.eval_template.self_s", "s", "registry, deep2v"),
    ("hecke.eval_template.total_s", "s", "registry, deep2v"),
    ("bailey.self_s", "s", "registry (A1 family), deep2v"),
    ("bailey.total_s", "s", "registry (A1 family), deep2v"),
    ("suite.verify_identity.calls", "count", "registry, deep2v"),
    ("suite.verify_identity.p50_ms", "ms", "registry, deep2v"),
    ("suite.verify_identity.p90_ms", "ms", "registry, deep2v"),
    ("suite.lhs_s", "s", "registry, deep2v"),
    ("suite.rhs_s", "s", "registry, deep2v"),
    ("suite.compare_s", "s", "registry, deep2v"),
]
PER_LAYER += [(f"suite.sequence_values.{n}.s", "s", "tables") for n in workloads.SEQUENCES]
PER_LAYER += [
    ("suite.check_congruence.s", "s", "tables"),
    ("cli.main.self_s", "s", "registry"),
    ("size.max_terms", "terms", "none; explains the qs_mul cost on deep2v"),
    ("size.max_zspan", "exponents", "none; explains the qs_mul cost on deep2v"),
    ("size.max_coeff_bits", "bits", "none; bounds a Kronecker slot width"),
]
PER_LAYER += [
    (f"layer.{layer}.self_s", "s", "the workloads of its functions above")
    for layer in LAYERS
]
PER_LAYER += [
    ("trace.wall_s", "s", "none; the traced pass time"),
    ("trace.spans", "count", "none; checks the trace itself"),
    ("trace.overhead_s", "s", "none; traced minus untraced pass time"),
    ("trace.unattributed_s", "s", "none; traced pass time no layer accounts for"),
]


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in workloads.WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u, _ in PER_LAYER],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
