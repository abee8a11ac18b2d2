"""Command-line front end: run the suite, query coefficients and sequences,
check congruences, and emit machine-readable reports.

Exit codes: 0 when every requested check passes, 1 when a verification or
baseline comparison fails, 2 for usage errors (including unknown ids), and
3 when an internal construction assertion or engine self-check fires or
any other exception escapes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from .errors import (
    HalfIntegerExponent,
    InexactDivision,
    NonTerminating,
    NonUnitConstantTerm,
    SupportOverflow,
    UnknownIdentity,
    UnknownSeriesId,
    UsageError,
    VerificationFailed,
)
from .polyring import lp_format
from .specfun import build_series
from .suite import (
    CONGRUENCE_RULES,
    _SEQUENCES,
    _expand_patterns,
    check_congruence,
    group_verdicts,
    overall_ok,
    registry_catalog,
    sequence_values,
    verify_all,
)
from . import __version__

_INTERNAL_ERRORS = (
    HalfIntegerExponent,
    SupportOverflow,
    InexactDivision,
    NonTerminating,
    NonUnitConstantTerm,
    VerificationFailed,
)

_USAGE_ERRORS = (UnknownIdentity, UnknownSeriesId, UsageError)

_SEQUENCE_NAMES = tuple(_SEQUENCES)

_REPORT_SEQ_N_MAX = 30
_REPORT_CONG_N_MAX = {"congs35": 59}
_REPORT_CONG_DEFAULT_N_MAX = 30


@dataclass(frozen=True)
class RunConfig:
    """One run's knobs, echoed into every JSON report."""

    order: int | None = None
    id_filter: tuple[str, ...] | None = None
    format: str = "text"

    def __post_init__(self) -> None:
        if self.order is not None and self.order < 0:
            raise UsageError("order must be >= 0")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    ids = getattr(args, "id", None)
    return RunConfig(
        order=getattr(args, "order", None),
        id_filter=tuple(ids) if ids else None,
        format=getattr(args, "format", "text"),
    )


_JSON_STRING = json.encoder.encode_basestring_ascii
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_dump(obj: object) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    The stdlib's indented encoder runs in Python, item by item; here a list
    whose items are all plain ints (never bool) is one str.join. Every
    other value is written as the stdlib writes it: strings by its own
    encoder, numbers by their repr, dict items sorted. A value it would
    not write so (a key that is no string, an unknown type) raises
    TypeError, and then json.dumps writes the whole object, or raises.
    """
    out: list[str] = []
    try:
        _json_write(obj, out, "\n")
    except TypeError:
        return json.dumps(obj, indent=2, sort_keys=True)
    return "".join(out)


def _json_write(obj: object, out: list[str], newline: str) -> None:
    """Append the text of obj to out, its inner lines indented two spaces
    past newline (a line break and the current indent)."""
    if isinstance(obj, str):
        out.append(_JSON_STRING(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_JSON_FLOATS.get(text, text))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, obj)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]")
            return
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _json_write(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError("a key that is no string")
            out.append(sep + _JSON_STRING(key) + ": ")
            _json_write(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"no JSON text for {type(obj).__name__}")


def _report_skeleton(config: RunConfig) -> dict:
    return {"version": __version__, "config": asdict(config)}


def _result_for_json(result: dict) -> dict:
    out = dict(result)
    if out.get("first_mismatch") is None:
        out.pop("first_mismatch", None)
    return out


def _strip_elapsed(obj: object) -> object:
    """Recursively drop timing keys so reports can be diffed across runs."""
    if isinstance(obj, dict):
        return {
            k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"
        }
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def _comparable(report: dict) -> object:
    """Reduce a report to the outcome content used for regression diffs.

    Timings vary run to run and the config block records presentation
    knobs (such as the format) that must not affect the comparison, so
    both are dropped. Effective orders stay visible through each result's
    own "order" field.
    """
    trimmed = {k: v for k, v in report.items() if k != "config"}
    return _strip_elapsed(trimmed)


# A report section whose entries are named by a field (_drift).
_ENTRY_KEYS = {"results": "id", "sequences": "name", "congruences": "id"}
_ABSENT = object()


def _brief(value: object) -> str:
    """value as compact JSON cut to 80 characters, or absent."""
    if value is _ABSENT:
        return "absent"
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return text if len(text) <= 80 else text[:77] + "..."


def _named_entries(report: dict) -> dict:
    """The entries of a comparable report by name: each record, sequence
    and congruence as "<section> <id or name>", and a section that is not
    a list of objects with distinct names, or any other top-level key, as
    a whole."""
    out = {}
    for section, value in report.items():
        key = _ENTRY_KEYS.get(section)
        names = [isinstance(e, dict) and e.get(key) for e in value] if key and isinstance(value, list) else []
        if names and all(isinstance(n, str) for n in names) and len(set(names)) == len(names):
            out.update((f"{section} {n}", e) for n, e in zip(names, value))
        else:
            out[section] = value
    return out


def _change(old: object, new: object) -> str:
    """old -> new; for two objects each field that changed, a list by its
    first item that differs."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return f"{_brief(old)} -> {_brief(new)}"
    parts = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, _ABSENT), new.get(name, _ABSENT)
        if a != b and isinstance(a, list) and isinstance(b, list):
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            name, a, b = f"{name}[{i}]", a[i] if i < len(a) else _ABSENT, b[i] if i < len(b) else _ABSENT
        if a != b:
            parts.append(f"{name} {_change(a, b)}")
    return ", ".join(parts)


def _drift(old: dict, new: dict) -> list[str]:
    """One line per named entry of two comparable reports that changed."""
    a, b = _named_entries(old), _named_entries(new)
    changed = (n for n in sorted(a.keys() | b.keys()) if a.get(n, _ABSENT) != b.get(n, _ABSENT))
    return [f"{n}: {_change(a.get(n, _ABSENT), b.get(n, _ABSENT))}" for n in changed]


def _format_mismatch(hit: dict) -> str:
    return (
        f"first mismatch at q^{hit['q_power']} z^{hit['z_power']}: "
        f"lhs={hit['lhs']} rhs={hit['rhs']}"
    )


def _print_verify_text(results: list[dict]) -> None:
    for r in results:
        if r["ok"]:
            print(f"ok   {r['id']}  order={r['order']}  ({r['elapsed_ms']:.1f} ms)")
        else:
            print(
                f"FAIL {r['id']}  order={r['order']}  "
                f"{_format_mismatch(r['first_mismatch'])}"
            )
    groups = group_verdicts(results)
    for name, verdict in groups.items():
        if verdict["ok"]:
            passing = [m for m, ok in verdict["members"].items() if ok]
            print(f"group {name}: settled by {', '.join(passing)}")
        else:
            print(f"group {name}: UNRESOLVED, no variant verifies")
    passed = sum(1 for r in results if r["ok"])
    print(f"{passed}/{len(results)} records verified")


def _save_or_compare(report: dict, save: str | None, load: str | None) -> int:
    if save is not None:
        with open(save, "w", encoding="utf-8") as fh:
            fh.write(_json_dump(report) + "\n")
    if load is None:
        return 0
    with open(load, "r", encoding="utf-8") as fh:
        try:
            baseline = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise UsageError(f"baseline {load} is not JSON: {exc}") from None
    if not isinstance(baseline, dict):
        raise UsageError(f"baseline {load} is not a JSON object")
    old, new = _comparable(baseline), _comparable(report)
    if old == new:
        print(f"report matches baseline {load}")
        return 0
    print(f"report DIFFERS from baseline {load}", file=sys.stderr)
    for line in _drift(old, new):
        print(f"  {line}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_list(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    records = registry_catalog()
    if config.id_filter is not None:
        wanted = set(_expand_patterns(config.id_filter))
        records = [r for r in records if r.id in wanted]
    if config.format == "json":
        report = _report_skeleton(config)
        report["catalog"] = [
            {
                "id": r.id,
                "variables": r.variables.value,
                "default_order": r.default_order,
                **({"group": r.group} if r.group else {}),
                **({"cleared_note": r.cleared_note} if r.cleared_note else {}),
            }
            for r in records
        ]
        print(_json_dump(report))
        return 0
    for r in records:
        flags = []
        if r.group:
            flags.append(f"group={r.group}")
        if r.cleared_note:
            flags.append("cleared")
        suffix = ("  [" + ", ".join(flags) + "]") if flags else ""
        print(f"{r.id:<22} {r.variables.value:<4} order={r.default_order}{suffix}")
    print(f"{len(records)} records")
    return 0


def cmd_verify(args: argparse.Namespace, full: bool = False) -> int:
    """verify; with full set, report: the same records, then the sequence
    and congruence sections."""
    config = _config_from_args(args)
    results = verify_all(config.id_filter, config.order)
    report = _report_skeleton(config)
    report["results"] = [_result_for_json(r) for r in results]
    congruences = []
    if full:
        report["sequences"] = [
            {
                "name": name,
                "n_max": _REPORT_SEQ_N_MAX,
                "values": sequence_values(name, _REPORT_SEQ_N_MAX),
            }
            for name in _SEQUENCE_NAMES
        ]
        report["congruences"] = congruences = [
            check_congruence(
                rule_id,
                _REPORT_CONG_N_MAX.get(rule_id, _REPORT_CONG_DEFAULT_N_MAX),
            )
            for rule_id in sorted(CONGRUENCE_RULES)
        ]
    ok = overall_ok(results) and all(c["ok"] for c in congruences)
    if config.format == "json":
        print(_json_dump(report))
    else:
        _print_verify_text(results)
        for c in congruences:
            state = "ok  " if c["ok"] else "FAIL"
            print(f"{state} {c['id']}  n_max={c['n_max']}")
    rc = _save_or_compare(report, args.save, args.load)
    if not ok:
        return 1
    return rc


def cmd_coeff(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    order = args.order if args.order is not None else args.n
    if order < args.n:
        raise UsageError("--order must be at least --n")
    series = build_series(args.series, order)
    poly = series.coeff(args.n)
    if config.format == "json":
        report = _report_skeleton(config)
        entry: dict = {"series": args.series, "n": args.n, "text": lp_format(poly)}
        if args.m is not None:
            entry["m"] = args.m
            entry["value"] = poly.terms.get(args.m, 0)
        else:
            entry["terms"] = {str(e): c for e, c in sorted(poly.terms.items())}
        report["coefficient"] = entry
        print(_json_dump(report))
        return 0
    if args.m is not None:
        print(poly.terms.get(args.m, 0))
    else:
        print(lp_format(poly))
    return 0


def cmd_seq(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.n is None and args.n_max is None:
        raise UsageError("seq needs --n or --n-max")
    if args.n is not None and args.n_max is not None:
        raise UsageError("seq takes only one of --n and --n-max")
    if args.n is not None:
        values = sequence_values(args.name, args.n)
        if config.format == "json":
            report = _report_skeleton(config)
            report["sequences"] = [
                {"name": args.name, "n": args.n, "value": values[args.n]}
            ]
            print(_json_dump(report))
        else:
            print(values[args.n])
        return 0
    values = sequence_values(args.name, args.n_max)
    if config.format == "json":
        report = _report_skeleton(config)
        report["sequences"] = [
            {"name": args.name, "n_max": args.n_max, "values": values}
        ]
        print(_json_dump(report))
    else:
        for n, v in enumerate(values):
            print(f"{n} {v}")
    return 0


def cmd_congruence(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    ids = list(args.id) if args.id else sorted(CONGRUENCE_RULES)
    reports = [check_congruence(rule_id, args.n_max) for rule_id in ids]
    ok = all(r["ok"] for r in reports)
    if config.format == "json":
        report = _report_skeleton(config)
        report["congruences"] = reports
        print(_json_dump(report))
    else:
        for r in reports:
            if r["ok"]:
                print(
                    f"ok   {r['id']}  sequence={r['sequence']}  "
                    f"n_max={r['n_max']}  ({r['elapsed_ms']:.1f} ms)"
                )
            else:
                first = r["violations"][0]
                print(
                    f"FAIL {r['id']}  n_max={r['n_max']}  "
                    f"{len(r['violations'])} violations, first at n={first['n']} "
                    f"residual={first['residual']}"
                )
    return 0 if ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    return cmd_verify(args, full=True)


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--id",
        action="append",
        metavar="GLOB",
        help="identity id or glob pattern; repeatable",
    )
    parser.add_argument("--order", type=int, help="override the comparison order")
    parser.add_argument("--save", metavar="PATH", help="write the JSON report here")
    parser.add_argument(
        "--load",
        metavar="PATH",
        help="compare against a saved JSON report, ignoring timings",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhecke",
        description="verify q-series identities and query exact coefficients",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the identity catalog")
    p_list.add_argument("--id", action="append", metavar="GLOB")
    _add_common(p_list)
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", help="verify identities")
    _add_run_flags(p_verify)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_coeff = sub.add_parser("coeff", help="print one series coefficient")
    p_coeff.add_argument("--series", required=True, help="series name, e.g. R")
    p_coeff.add_argument("--n", type=int, required=True, help="power of q")
    p_coeff.add_argument("--m", type=int, help="extract one power of z")
    p_coeff.add_argument("--order", type=int, help="build order (default --n)")
    _add_common(p_coeff)
    p_coeff.set_defaults(func=cmd_coeff)

    p_seq = sub.add_parser("seq", help="print sequence values")
    p_seq.add_argument("name", choices=_SEQUENCE_NAMES)
    p_seq.add_argument("--n", type=int, help="print the single value at n")
    p_seq.add_argument(
        "--n-max", type=int, dest="n_max", help="print all values 0..n_max"
    )
    _add_common(p_seq)
    p_seq.set_defaults(func=cmd_seq)

    p_cong = sub.add_parser("congruence", help="check congruence rules")
    p_cong.add_argument(
        "--id", action="append", metavar="RULE", help="rule id; repeatable"
    )
    p_cong.add_argument(
        "--n-max", type=int, dest="n_max", help="check indices 0..n_max"
    )
    _add_common(p_cong)
    p_cong.set_defaults(func=cmd_congruence)

    p_report = sub.add_parser(
        "report", help="full suite report: identities, sequences, congruences"
    )
    _add_run_flags(p_report)
    _add_common(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except _INTERNAL_ERRORS as exc:
        print(
            f"internal assertion failed: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means a false identity, so a crash must not end with it
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
