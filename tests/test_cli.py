from __future__ import annotations

import dataclasses
import json

import pytest

import qhecke.cli as cli
import qhecke.qseries as qseries
import qhecke.suite as suite
from qhecke.errors import InexactDivision, SupportOverflow, VerificationFailed


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_list(capsys):
    rc, out, _ = run(capsys, "list")
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[-1] == "126 records"
    assert len(lines) == 127
    assert any(line.startswith("HR1 ") for line in lines)
    assert any("[cleared]" in line for line in lines)


def test_verify_single_ok(capsys):
    rc, out, _ = run(capsys, "verify", "--id", "HR1", "--order", "40")
    assert rc == 0
    assert out.splitlines()[0].startswith("ok   HR1  order=40")
    assert out.strip().endswith("1/1 records verified")


def test_verify_reports_first_mismatch(capsys):
    rc, out, _ = run(capsys, "verify", "--id", "MORTID1B-printed", "--order", "20")
    assert rc == 1
    assert "FAIL MORTID1B-printed" in out
    assert "first mismatch at q^3 z^0: lhs=-3 rhs=3" in out


def test_verify_group_forgiveness(capsys):
    rc, out, _ = run(capsys, "verify", "--id", "MORTID1B-*", "--order", "20")
    assert rc == 0
    assert "group MORTID1B: settled by MORTID1B-corrected" in out
    assert "1/2 records verified" in out


def test_verify_glob_and_repeat(capsys):
    rc, out, _ = run(capsys, "verify", "--id", "HR?", "--id", "cor1",
                     "--order", "30")
    assert rc == 0
    ids = [line.split()[1] for line in out.splitlines() if line.startswith("ok")]
    assert ids == ["HR1", "HR2", "HR3", "HR4", "HRf", "cor1"]


def test_verify_unknown_id(capsys):
    rc, _, err = run(capsys, "verify", "--id", "nope-*")
    assert rc == 2
    assert "no identity registered under 'nope-*'" in err


def test_verify_json_schema(capsys):
    rc, out, _ = run(capsys, "verify", "--id", "HR1", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert sorted(doc) == ["config", "results", "version"]
    (res,) = doc["results"]
    assert res["id"] == "HR1"
    assert res["ok"] is True
    assert "first_mismatch" not in res


def test_verify_json_mismatch_included(capsys):
    rc, out, _ = run(capsys, "verify", "--id", "MORTID3-printed",
                     "--order", "12", "--format", "json")
    assert rc == 1
    (res,) = json.loads(out)["results"]
    assert res["first_mismatch"] == {
        "q_power": 0, "z_power": -1, "lhs": 0, "rhs": 1,
    }


def test_save_then_load_matches(tmp_path, capsys):
    base = tmp_path / "base.json"
    rc, _, _ = run(capsys, "verify", "--id", "HR1", "--order", "30",
                   "--save", str(base))
    assert rc == 0
    saved = json.loads(base.read_text())
    assert sorted(saved) == ["config", "results", "version"]
    rc, out, _ = run(capsys, "verify", "--id", "HR1", "--order", "30",
                     "--load", str(base))
    assert rc == 0
    assert f"report matches baseline {base}" in out


def test_load_detects_divergence(tmp_path, capsys):
    base = tmp_path / "base.json"
    run(capsys, "verify", "--id", "HR1", "--order", "30", "--save", str(base))
    rc, _, err = run(capsys, "verify", "--id", "HR2", "--order", "30",
                     "--load", str(base))
    assert rc == 1
    assert f"report DIFFERS from baseline {base}" in err


def test_load_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, "verify", "--id", "HR1", "--order", "20",
                     "--load", str(tmp_path / "absent.json"))
    assert rc == 2
    assert "error:" in err


def test_coeff_full_row(capsys):
    rc, out, _ = run(capsys, "coeff", "--series", "R", "--n", "4")
    assert rc == 0
    assert out.strip() == "z^-3 + z^-1 + 1 + z + z^3"


def test_coeff_single_power(capsys):
    rc, out, _ = run(capsys, "coeff", "--series", "R", "--n", "4", "--m", "-3")
    assert rc == 0
    assert out.strip() == "1"
    rc, out, _ = run(capsys, "coeff", "--series", "R", "--n", "4", "--m", "2")
    assert rc == 0
    assert out.strip() == "0"


def test_coeff_order_must_cover_n(capsys):
    rc, _, err = run(capsys, "coeff", "--series", "R", "--n", "10",
                     "--order", "5")
    assert rc == 2
    assert "error:" in err


def test_coeff_order_zero(capsys):
    rc, out, _ = run(capsys, "coeff", "--series", "R", "--n", "0", "--order", "0")
    assert rc == 0
    assert out.strip() == "1"


def test_negative_order_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "coeff", "--series", "R", "--n", "0", "--order", "-1")
    assert rc == 2
    assert "order must be >= 0" in err
    rc, _, err = run(capsys, "verify", "--id", "HR1", "--order", "-1")
    assert rc == 2
    assert "order must be >= 0" in err


def test_coeff_unknown_series(capsys):
    rc, _, err = run(capsys, "coeff", "--series", "NOPE", "--n", "2")
    assert rc == 2
    assert "error:" in err


def test_seq_single_value(capsys):
    rc, out, _ = run(capsys, "seq", "spt", "--n", "1000")
    assert rc == 0
    assert out.strip() == "600656570957882248155746472836274"


def test_seq_table(capsys):
    rc, out, _ = run(capsys, "seq", "spt", "--n-max", "5")
    assert rc == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows == [["0", "0"], ["1", "1"], ["2", "3"],
                    ["3", "5"], ["4", "10"], ["5", "14"]]


def test_seq_requires_exactly_one_selector(capsys):
    rc, _, err = run(capsys, "seq", "spt")
    assert rc == 2
    assert "seq needs --n or --n-max" in err
    rc, _, err = run(capsys, "seq", "spt", "--n", "3", "--n-max", "5")
    assert rc == 2
    assert "only one of --n and --n-max" in err


def test_congruence(capsys):
    rc, out, _ = run(capsys, "congruence", "--id", "congs35", "--n-max", "20")
    assert rc == 0
    assert out.splitlines()[0].startswith("ok   congs35  sequence=a  n_max=20")
    rc, _, err = run(capsys, "congruence", "--id", "congs36")
    assert rc == 2
    assert "congs36" in err


def test_report_json_schema(capsys):
    rc, out, _ = run(capsys, "report", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert sorted(doc) == ["config", "congruences", "results", "sequences", "version"]
    assert len(doc["results"]) == 126
    names = sorted(s["name"] for s in doc["sequences"])
    assert names == ["a", "alpha", "beta", "m2spt", "spt", "sptBar"]
    assert all(len(s["values"]) == s["n_max"] + 1 for s in doc["sequences"])
    assert len(doc["congruences"]) == 7
    assert all(c["ok"] for c in doc["congruences"])


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise InexactDivision("coefficient 3 not divisible by 2 at q^4")

    monkeypatch.setattr(suite, "verify_identity", boom)
    rc, _, err = run(capsys, "verify", "--id", "HR1")
    assert rc == 3
    assert "internal assertion failed:" in err
    assert "coefficient 3 not divisible by 2 at q^4" in err


def test_internal_error_names_the_record(monkeypatch, capsys):
    def overflow(N):
        raise SupportOverflow("series product span 99 exceeds cap 20")

    record = suite.lookup("HR2")
    registry = dict(suite._REGISTRY, HR2=dataclasses.replace(record, rhs_builder=overflow))
    monkeypatch.setattr(suite, "_REGISTRY", registry)
    rc, out, err = run(capsys, "verify", "--id", "HR*")
    assert rc == 3
    assert out == ""
    assert err.strip() == (
        "internal assertion failed: SupportOverflow:"
        " record HR2: series product span 99 exceeds cap 20"
    )
    # the exception keeps its type and, for a failed self-check, its location
    def drift(N):
        raise VerificationFailed("routes disagree", q_exp=4)

    registry["HR2"] = dataclasses.replace(record, lhs_builder=drift)
    with pytest.raises(VerificationFailed) as exc:
        suite.verify_identity("HR2")
    assert str(exc.value) == "record HR2: routes disagree"
    assert exc.value.where == {"q_exp": 4}


def test_spt_route_drift_exit_code(monkeypatch, capsys):
    # the check route is cached per size: run it unpatched first, so the
    # drifted quotient below meets the cached list
    rc, _, _ = run(capsys, "seq", "spt", "--n-max", "12")
    assert rc == 0
    hits = suite._spt_series_direct.cache_info().hits
    fast = suite._spt_series

    def drifted(n_max):
        vals = fast(n_max)
        vals[-1] += 1
        return vals

    monkeypatch.setattr(suite, "_spt_series", drifted)
    rc, out, err = run(capsys, "seq", "spt", "--n-max", "12")
    assert rc == 3
    assert out == ""
    assert "internal assertion failed: VerificationFailed:" in err
    assert "smallest-part count routes disagree" in err
    assert "Traceback" not in err
    assert suite._spt_series_direct.cache_info().hits > hits


def test_unexpected_exception_exit_code(monkeypatch, capsys):
    # exit 1 means a false identity; a crash must not be reported as one
    def boom(*args, **kwargs):
        raise KeyError("missing side")

    monkeypatch.setattr(suite, "verify_identity", boom)
    rc, out, err = run(capsys, "verify", "--id", "HR1")
    assert rc == 3
    assert out == ""
    assert err.strip() == "internal error: KeyError: 'missing side'"
    assert "Traceback" not in err


def test_engine_value_error_is_internal(monkeypatch, capsys):
    # only a bad command-line argument exits 2; a kernel's ValueError is an
    # engine fault
    def refuse(*args, **kwargs):
        raise ValueError("zf_div_factor needs a positive q-exponent")

    monkeypatch.setattr(qseries, "zf_div_factor", refuse)
    rc, out, err = run(capsys, "coeff", "--series", "F_MOCK3", "--n", "3")
    assert rc == 3
    assert out == ""
    assert err.strip() == "internal error: ValueError: zf_div_factor needs a positive q-exponent"
    assert "Traceback" not in err


def test_out_of_range_arguments_are_usage_errors(capsys):
    for argv in (
        ("verify", "--id", "HR1", "--order", "-1"),
        ("seq", "spt", "--n", "-1"),
        ("congruence", "--id", "congs35", "--n-max", "-1"),
    ):
        rc, _, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err.startswith("error: "), argv


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "--version")
    assert exc.value.code == 0


def test_json_dump_matches_the_stdlib_on_every_subcommand(monkeypatch, capsys, tmp_path):
    dump, dumped = cli._json_dump, []

    def checked(obj):
        text = dump(obj)
        assert text == json.dumps(obj, indent=2, sort_keys=True)
        dumped.append(obj)
        return text

    monkeypatch.setattr(cli, "_json_dump", checked)
    runs = (
        ["list"], ["list", "--id", "HR*"],
        ["verify", "--id", "HR*", "--id", "MORTID1B-*", "--order", "20"],
        ["coeff", "--series", "R", "--n", "6"], ["coeff", "--series", "R", "--n", "6", "--m", "1"],
        ["seq", "spt", "--n-max", "2000"], ["seq", "a", "--n", "7"],
        ["congruence"], ["congruence", "--id", "congs35"],
        ["report", "--save", str(tmp_path / "report.json")],
    )
    for argv in runs:
        cli.main(argv + ["--format", "json"])
    capsys.readouterr()
    # report prints its JSON and saves it
    assert len(dumped) == len(runs) + 1


class Color(int):
    pass


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": {}, "b": []}, 0, -7, 2**90, "plain", None, True, False, 0.5,
    [1, 2, -3, 2**70], [1, True, 2], [True, False], [1, 2.0, 3], [1, None], [1, "2"],
    [0.1, -0.0, 1e300, float("inf"), -float("inf"), float("nan")],
    [[1, 2], [3, [4, 5]], [], [[6]]], (1, (2, 3)), {"t": (4, 5)},
    {"é": "ünïcöde ☃ \U0001f600", "q": "a\"b\\c\n\t\x00"},
    {"b": 1, "a": [2, {"d": None, "c": [True]}], "A": -1},
    [Color(3), 4], {"n": Color(5)},
    {1: "one", 2: [1, 2]}, {True: 1, False: 2}, {2.5: "y", 1.5: "x"},
])
def test_json_dump_matches_the_stdlib_on_edge_cases(obj):
    assert cli._json_dump(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_dump_raises_where_the_stdlib_does():
    for obj in ({"a": object()}, [1, {2, 3}], {1: "a", "b": 2}, {None: 1, "x": 2.5}):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._json_dump(obj)
