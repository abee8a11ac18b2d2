"""Span tracer for the benchmark's traced passes.

``Tracer.install`` replaces public functions of the qhecke modules with
wrappers, in every module that binds the name, and rebuilds the record
registry so builders bound at import time are wrapped too. Each call
records one span: name, start, end and parent. Spans live in flat arrays
while the pass runs; ``metrics`` reduces them to the per-layer numbers
and ``write`` saves them.

A span's self time is its duration minus the time its child spans cover,
including the tracer's own bookkeeping for those children. That
bookkeeping is attributed to no layer, so it shows in
``trace.unattributed_s``.

The op counts (``term_products``, ``terms_in``, ``coeff_ops``) are
computed from each call's arguments and result, outside the timed span;
they are counts of the work the schoolbook kernels do, not measurements.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from array import array
from dataclasses import replace
from time import perf_counter

from workloads import SEQUENCES


def _terms(f) -> list[int]:
    return [len(c.terms) for c in f.coeffs]


def _prefix(sizes: list[int]) -> list[int]:
    out, run = [], 0
    for s in sizes:
        run += s
        out.append(run)
    return out


def _qs_mul_products(args, kwargs, result) -> int:
    """sum over i + j <= n of |f_i| |g_j|: the schoolbook term products."""
    f, g = args
    n = result.order
    g_pre = _prefix(_terms(g)[: n + 1])
    return sum(s * g_pre[n - i] for i, s in enumerate(_terms(f)[: n + 1]))


def _qs_invert_products(args, kwargs, result) -> int:
    """sum over 1 <= j <= m <= n of |f_j| |g_{m-j}|, g the inverse."""
    (f,) = args
    n = result.order
    g_pre = _prefix(_terms(result))
    return sum(s * g_pre[n - j] for j, s in enumerate(_terms(f)[1 : n + 1], start=1))


def _factor_terms(source_is_result: bool):
    """Nonzero terms read as the shifted source row: the input for
    mul_factor, the output (the recurrence) for div_factor."""

    def count(args, kwargs, result) -> int:
        f, c, _z_exp, q_exp = args
        n = f.order
        if c == 0 or q_exp > n:
            return 0
        rows = result if source_is_result else f
        return sum(len(rows.coeffs[k].terms) for k in range(n - q_exp + 1))

    return count


def _zf_factor_slots(args, kwargs, result) -> int:
    f, _c, e = args
    return max(len(f) - e, 0)


def _zf_add_slots(args, kwargs, result) -> int:
    dst = args[0]
    shift = args[3] if len(args) > 3 else kwargs.get("shift", 0)
    return max(len(dst) - shift, 0)


def _zf_mul_slots(args, kwargs, result) -> int:
    f, g = args
    n = min(len(f), len(g))
    return sum(n - i for i, v in enumerate(f[:n]) if v)


def _zf_pochhammer_slots(args, kwargs, result) -> int:
    e0, step, _sign, f = args
    return sum(len(f) - e for e in range(e0, len(f), step) if e >= 1)


# (module, function, counter key, counter); spans are named "module.function"
_QS = "qhecke.qseries"
SPECS = [
    ("qhecke.cli", "main", None, None),
    ("qhecke.suite", "verify_identity", None, None),
    ("qhecke.suite", "check_congruence", None, None),
    ("qhecke.suite", "sequence_values", None, None),
    ("qhecke.bailey", "a1_lhs", None, None),
    ("qhecke.bailey", "a1_rhs", None, None),
    ("qhecke.bailey", "slater_lhs", None, None),
    ("qhecke.bailey", "slater_rhs", None, None),
    ("qhecke.bailey", "niceid_lhs", None, None),
    ("qhecke.bailey", "niceid_rhs", None, None),
    ("qhecke.hecke", "eval_template", None, None),
    ("qhecke.hecke", "eval_fabc", None, None),
    ("qhecke.hecke", "template_catalog", None, None),
    (_QS, "qs_mul", "term_products", _qs_mul_products),
    (_QS, "qs_invert", "term_products", _qs_invert_products),
    (_QS, "mul_factor", "terms_in", _factor_terms(False)),
    (_QS, "div_factor", "terms_in", _factor_terms(True)),
    (_QS, "qs_add", None, None),
    (_QS, "qs_sub", None, None),
    (_QS, "qs_neg", None, None),
    (_QS, "qs_mul_monomial", None, None),
    (_QS, "qs_scale_poly", None, None),
    (_QS, "pochhammer", None, None),
    (_QS, "gauss_binomial", None, None),
    (_QS, "qs_first_mismatch", None, None),
    (_QS, "qs_substitute_neg_q", None, None),
    (_QS, "qs_truncate_z", None, None),
    (_QS, "qs_collapse_z", None, None),
    (_QS, "zf_mul_factor", "coeff_ops", _zf_factor_slots),
    (_QS, "zf_div_factor", "coeff_ops", _zf_factor_slots),
    (_QS, "zf_add_into", "coeff_ops", _zf_add_slots),
    (_QS, "zf_mul", "coeff_ops", _zf_mul_slots),
    (_QS, "zf_pochhammer_inf", "coeff_ops", _zf_pochhammer_slots),
    (_QS, "zf_shift", None, None),
    (_QS, "zf_to_qseries", None, None),
    ("qhecke.polyring", "lp_add", None, None),
    ("qhecke.polyring", "lp_neg", None, None),
    ("qhecke.polyring", "lp_scale", None, None),
    ("qhecke.polyring", "lp_mul", None, None),
]
# Every builder in specfun is traced; they share the "specfun.build" metrics.
_SPECFUN_BUILDERS = (
    "build_R", "build_H", "build_K", "build_N2_rank", "build_g_cleared",
    "build_f_mock3", "build_mu_mock2", "build_S_def", "build_S_formula",
    "build_SBar_def", "build_S2_def", "build_crank_style", "build_partial_theta",
    "build_false_theta_sides", "build_series",
)
SPECS += [("qhecke.specfun", name, None, None) for name in _SPECFUN_BUILDERS]

LAYERS = ("cli", "suite", "specfun", "hecke", "bailey", "qseries", "qseries.zf", "polyring")


def layer_of(span_name: str) -> str:
    module, _, function = span_name.partition(".")
    if module == "qseries" and function.startswith("zf_"):
        return "qseries.zf"
    return module


def _series_size(f) -> tuple[int, int, int]:
    """(nonzero terms, max z-span, max coefficient bit length) of a series."""
    terms = bits = 0
    for c in f.coeffs:
        terms += len(c.terms)
        for v in c.terms.values():
            b = abs(v).bit_length()
            if b > bits:
                bits = b
    return terms, f.max_span(), bits


class Tracer:
    """Records spans for calls into the qhecke modules while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.covered = array("d")  # child spans plus their bookkeeping
        self.counts: dict[str, int] = {}
        self.size = {"max_terms": 0, "max_zspan": 0, "max_coeff_bits": 0}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn, name, counter_key=None, counter=None, on_result=None):
        """fn wrapped to record a span; name may be a function of the args."""
        fixed = None if callable(name) else self._name_id(name)
        name_id = self._name_id
        stack, span_name, parent = self._stack, self.span_name, self.parent
        start, end, covered, counts = self.start, self.end, self.covered, self.counts
        if counter_key is not None:
            counts.setdefault(counter_key, 0)

        def traced(*args, **kwargs):
            t_in = perf_counter()
            i = len(start)
            span_name.append(fixed if fixed is not None else name_id(name(args)))
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            covered.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if counter is not None:
                counts[counter_key] += counter(args, kwargs, result)
            if on_result is not None:
                on_result(result)
            if stack:
                covered[stack[-1]] += perf_counter() - t_in
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, namespace: object, attr: str, value: object) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("qhecke.")]
        for module_name, fn_name, key, counter in SPECS:
            original = getattr(sys.modules[module_name], fn_name)
            span = f"{module_name.split('.')[-1]}.{fn_name}"
            if fn_name == "sequence_values":
                span = lambda args: f"suite.sequence_values.{args[0]}"  # noqa: E731
            counter_key = f"{span}.{key}" if key else None
            wrapper = self.wrap(original, span, counter_key, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        # Builders bound by reference at import time only see the wrappers
        # once the registry is built again; the record sides are wrapped too.
        suite = sys.modules["qhecke.suite"]
        registry = {
            rid: replace(
                record,
                lhs_builder=self.wrap(record.lhs_builder, "suite.lhs", on_result=self._record_size),
                rhs_builder=self.wrap(record.rhs_builder, "suite.rhs", on_result=self._record_size),
            )
            for rid, record in suite._build_registry().items()
        }
        self._patch(suite, "_REGISTRY", registry)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, value = self._patches.pop()
            setattr(namespace, attr, value)

    def _record_size(self, series) -> None:
        terms, zspan, bits = _series_size(series)
        size = self.size
        size["max_terms"] = max(size["max_terms"], terms)
        size["max_zspan"] = max(size["max_zspan"], zspan)
        size["max_coeff_bits"] = max(size["max_coeff_bits"], bits)

    # -- reduction ---------------------------------------------------------

    def _outermost_total(self, spans_of: list[list[int]], member) -> float:
        """Summed duration of spans matching member that have no matching
        ancestor, so nested calls are not counted twice."""
        span_name, parent = self.span_name, self.parent
        hit = [member(n) for n in self.names]
        total = 0.0
        for k, indices in enumerate(spans_of):
            if not hit[k]:
                continue
            for i in indices:
                p = parent[i]
                while p >= 0 and not hit[span_name[p]]:
                    p = parent[p]
                if p < 0:
                    total += self.end[i] - self.start[i]
        return total

    def metrics(self, traced_wall_s: float, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded in one traced pass.

        traced_wall_s is the measured time of the traced pass; overhead_s
        is what tracing added, at reference CPU speed.
        """
        names, span_name, parent = self.names, self.span_name, self.parent
        start, end, covered = self.start, self.end, self.covered
        spans_of: list[list[int]] = [[] for _ in names]
        self_s = [0.0] * len(names)
        for i in range(len(span_name)):
            k = span_name[i]
            spans_of[k].append(i)
            self_s[k] += end[i] - start[i] - covered[i]
        by_name = {n: (len(spans_of[k]), self_s[k]) for k, n in enumerate(names)}

        def total(member) -> float:
            return self._outermost_total(spans_of, member)

        def calls_of(name):
            return by_name.get(name, (0, 0.0))[0]

        def self_of(name):
            return by_name.get(name, (0, 0.0))[1]

        out: dict[str, float] = {}
        for n in ("qs_invert", "qs_mul", "mul_factor", "div_factor", "zf_mul_factor",
                  "zf_div_factor", "zf_add_into", "zf_pochhammer_inf", "zf_mul"):
            out[f"qseries.{n}.calls"] = calls_of(f"qseries.{n}")
            out[f"qseries.{n}.self_s"] = self_of(f"qseries.{n}")
        out.update(self.counts)
        for n in ("qs_add", "pochhammer", "qs_first_mismatch"):
            out[f"qseries.{n}.self_s"] = self_of(f"qseries.{n}")
        for n in ("lp_add", "lp_mul", "lp_scale"):
            out[f"polyring.{n}.calls"] = calls_of(f"polyring.{n}")
            out[f"polyring.{n}.self_s"] = self_of(f"polyring.{n}")

        builders = [n for n in names if n.startswith("specfun.build")]
        out["specfun.build.calls"] = sum(calls_of(n) for n in builders)
        out["specfun.build.self_s"] = sum(self_of(n) for n in builders)
        out["specfun.build_g_cleared.total_s"] = total(
            lambda n: n == "specfun.build_g_cleared"
        )
        out["hecke.eval_template.calls"] = calls_of("hecke.eval_template")
        out["hecke.eval_template.self_s"] = self_of("hecke.eval_template")
        out["hecke.eval_template.total_s"] = total(
            lambda n: n == "hecke.eval_template"
        )
        out["bailey.self_s"] = sum(s for n, (_, s) in by_name.items() if layer_of(n) == "bailey")
        out["bailey.total_s"] = total(lambda n: layer_of(n) == "bailey")

        verify_id = self._name_ids.get("suite.verify_identity", -1)
        verify_spans = spans_of[verify_id] if verify_id >= 0 else []
        verify_ms = sorted((end[i] - start[i]) * 1000.0 for i in verify_spans)
        out["suite.verify_identity.calls"] = len(verify_ms)
        out["suite.verify_identity.p50_ms"] = _percentile(verify_ms, 50)
        out["suite.verify_identity.p90_ms"] = _percentile(verify_ms, 90)
        out["suite.lhs_s"] = total(lambda n: n == "suite.lhs")
        out["suite.rhs_s"] = total(lambda n: n == "suite.rhs")
        mismatch_id = self._name_ids.get("qseries.qs_first_mismatch", -1)
        out["suite.compare_s"] = sum(
            end[i] - start[i]
            for i in (spans_of[mismatch_id] if mismatch_id >= 0 else ())
            if parent[i] >= 0 and span_name[parent[i]] == verify_id
        )
        for seq in SEQUENCES:
            out[f"suite.sequence_values.{seq}.s"] = total(
                lambda n, seq=seq: n == f"suite.sequence_values.{seq}"
            )
        out["suite.check_congruence.s"] = total(
            lambda n: n == "suite.check_congruence"
        )
        out["cli.main.self_s"] = self_of("cli.main")
        for key, value in self.size.items():
            out[f"size.{key}"] = value

        layer_self = {layer: 0.0 for layer in LAYERS}
        for n, (_, s) in by_name.items():
            layer_self[layer_of(n)] += s
        for layer, s in layer_self.items():
            out[f"layer.{layer}.self_s"] = s
        out["trace.wall_s"] = traced_wall_s
        out["trace.spans"] = len(span_name)
        out["trace.overhead_s"] = overhead_s
        out["trace.unattributed_s"] = traced_wall_s - sum(layer_self.values())
        return out

    def write(self, path) -> None:
        """Save every span as columns: name, parent, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )


def _percentile(sorted_values: list[float], pct: int) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    if pct == 50:
        return statistics.median(sorted_values)
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[pct - 1]
