import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import treeasym
import treeasym.cli
import treeasym.counts
import treeasym.expansions
import treeasym.oeis
from treeasym.cli import MAX_COUNT_REACH, MAX_DIGITS, main

from reference_values import (
    CLI_STDOUT_SHA256,
    ORDER_100_CSV_SHA256,
    RHO_50,
    TRUNCATION_WARNING_LINE,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCounts:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "counts", "polya", "--n", "9", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[-1] == "9,286"

    def test_hierarchy_small_value(self, capsys):
        code, out, _ = run(capsys, "counts", "hierarchy", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["variety"] == "hierarchy"
        assert payload["values"][4] == "5"

    def test_zero_terms(self, capsys):
        code, out, _ = run(capsys, "counts", "polya", "--n", "0", "--format", "csv")
        assert code == 0
        data_rows = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert data_rows == ["0,0"]

    def test_big_values_are_strings(self, capsys):
        code, out, _ = run(capsys, "counts", "polya", "--n", "120")
        payload = json.loads(out)
        assert int(payload["values"][120]) > 2**64  # no 64-bit truncation

    def test_negative_n_rejected(self, capsys):
        code, _, err = run(capsys, "counts", "polya", "--n", "-1")
        assert code == 2 and "error" in err


class TestExpand:
    def test_json_payload_and_roundtrip(self, capsys):
        code, out, _ = run(capsys, "expand", "polya", "--order", "1", "--digits", "40",
                           "--terms", "120")
        assert code == 0
        payload = json.loads(out)
        assert payload["rho"].startswith(RHO_50["polya"][:20])
        assert len(payload["t"]) == 4 and len(payload["tau"]) == 2
        # round-trip: reported digits are stable under parse/format
        from treeasym.hp import context
        ctx = context(60)
        for text, cert in zip(payload["t"], payload["t_certified_digits"]):
            reparsed = ctx.nstr(ctx.mpf(text), cert + 2)
            assert reparsed == text

    def test_sanity_identity_between_columns(self, capsys):
        code, out, _ = run(capsys, "expand", "hierarchy", "--order", "1",
                           "--digits", "40", "--terms", "120")
        payload = json.loads(out)
        from treeasym.hp import context
        ctx = context(40)
        tau0 = ctx.mpf(payload["tau"][0])
        t1 = ctx.mpf(payload["t"][1])
        assert abs(tau0 + t1 / 2) < ctx.mpf(10) ** -18

    def test_table_rows(self, capsys):
        code, out, _ = run(capsys, "expand", "polya", "--order", "1", "--digits", "40",
                           "--terms", "120", "--table1", "--table2")
        assert code == 0
        assert "\nt_0 1.0" in out
        assert "\ntau_0 0.77974" in out

    def test_table_rows_print_no_more_digits_than_certified(self, capsys, monkeypatch):
        # each plain row carries min(19, certified + 2) significant digits,
        # as its data line carries certified + 2.  Every value certifies 27
        # digits or more here, so a second run caps every other count at 12
        # to print short rows as well
        argv = ("expand", "identity", "--order", "18", "--digits", "60", "--terms", "120",
                "--format", "csv", "--table1", "--table2")

        def rows_and_plain():
            code, out, _ = run(capsys, *argv)
            assert code == 0
            data, tables = out.split("\n\n", 1)
            rows = {}
            for line in data.splitlines()[1:]:
                name, index, value, certified = line.split(",")
                rows[f"{name}_{index}"] = (value, int(certified))
            plain = dict(line.split(" ") for line in tables.split("\n") if line)
            assert set(plain) == set(rows) - {"rho_"}
            short = 0
            for key, text in plain.items():
                value, certified = rows[key]
                if certified + 2 <= 19:
                    assert text == value, key
                    short += 1
                else:
                    # zeros at either end are not significant: 2.2e19 prints 20 digits
                    mantissa = text.split("e")[0].lstrip("-").replace(".", "").strip("0")
                    assert len(mantissa) <= 19, key
            return rows, plain, short

        rows, plain, short = rows_and_plain()
        assert plain["t_37"] == "58.46407648339459791" and rows["t_37"][1] == 51
        assert short == 0
        calls, read_certified = [0], treeasym.hp.read_certified

        def every_other_capped(*args):
            calls[0] += 1
            value, digits = read_certified(*args)
            return value, min(digits, 12 if calls[0] % 2 else 60)

        monkeypatch.setattr(treeasym.hp, "read_certified", every_other_capped)
        rows, plain, short = rows_and_plain()
        assert 0 < short < len(plain)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "expand", "polya", "--order", "0", "--digits", "40",
                           "--terms", "120", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0].startswith("# expand")
        assert lines[1].startswith("rho,,0.338321856899207695")
        assert lines[2].startswith("t,0,")

    def test_config_validation(self, capsys):
        code, _, err = run(capsys, "expand", "polya", "--digits", "10")
        assert code == 2 and "digits" in err
        code, _, err = run(capsys, "expand", "polya", "--order", "8", "--terms", "30")
        assert code == 2

    @pytest.mark.parametrize("flags, N", [(["--order", "13"], 54),
                                          (["--puiseux-terms", "40"], 80)])
    def test_series_order_rises_to_twice_the_singular_terms(self, capsys, flags, N):
        # as in estimate and error-table, N = max(--terms, 2K) with K the
        # larger of 2L+1 and --puiseux-terms
        code, out, err = run(capsys, "expand", "polya", *flags, "--terms", "50",
                             "--digits", "30", "--format", "csv")
        assert code == 0, err
        assert out.splitlines()[0] == f"# expand variety=polya N={N} D=30"

    @pytest.mark.parametrize("flags", [["--order", "600"], ["--puiseux-terms", "1200"]])
    def test_reach_error_names_the_flag_that_raised_n(self, capsys, no_work, flags):
        code, out, err = run(capsys, "expand", "polya", *flags)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {' '.join(flags)} reaches counts to n=")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags, setter, N", [
        (["--terms", "10"], "--order 4", 18),
        (["--terms", "30", "--order", "1"], "--terms 30", 30),
        (["--terms", "10", "--puiseux-terms", "20"], "--puiseux-terms 20", 40),
    ], ids=["default-order", "terms", "puiseux-terms"])
    def test_small_count_reach_names_the_flag_that_set_n(self, capsys, no_work, flags,
                                                         setter, N):
        code, out, err = run(capsys, "expand", "polya", *flags)
        assert (code, out) == (2, "")
        assert err == (f"error: {setter} sets count reach N={N}, below the minimum 50; "
                       f"pass --terms 50 or more\n")

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "expand", "identity", "--order", "1", "--digits", "40",
                          "--terms", "120")
        _, second, _ = run(capsys, "expand", "identity", "--order", "1", "--digits", "40",
                           "--terms", "120")
        assert first == second


class TestEstimate:
    def test_against_exact(self, capsys):
        code, out, _ = run(capsys, "estimate", "hierarchy", "--size", "100", "--order", "1",
                           "--digits", "40", "--terms", "120")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] and payload["relative_error"]
        assert float(payload["relative_error"]) == pytest.approx(1.027e-4, rel=0.05)

    def test_size_cap(self, capsys):
        code, _, err = run(capsys, "estimate", "polya", "--size", "5000", "--order", "1")
        assert code == 2
        assert err == (f"error: size 5000 reaches counts to n=5000, "
                       f"beyond the limit {MAX_COUNT_REACH}\n")


class TestErrorTable:
    def test_grid_and_ratio_file(self, capsys, tmp_path):
        ratio_path = tmp_path / "ratio.csv"
        code, out, _ = run(capsys, "error-table", "hierarchy",
                           "--sizes", "10,50", "--orders", "1,4",
                           "--digits", "40", "--terms", "120",
                           "--ratio-out", str(ratio_path))
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "size,order,relative_error"
        assert len(lines) == 5  # header + 4 cells
        ratio_lines = ratio_path.read_text().strip().splitlines()
        assert ratio_lines[0] == "size,order,ratio"
        assert len(ratio_lines) == 5

    def test_unwritable_ratio_file_exits_2(self, capsys, tmp_path):
        parent = tmp_path / "not-a-directory"
        parent.write_text("")
        code, out, err = run(capsys, "error-table", "polya", "--sizes", "10", "--orders", "1",
                             "--ratio-out", str(parent / "ratio.csv"))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write --ratio-out {parent / 'ratio.csv'}: ")
        assert err.count("\n") == 1

    def test_order_40_at_the_default_count_reach_warns_nothing(self, capsys):
        # N = max(200, 2K) = 200 for K = 81 holds the order-40 expansion to
        # the default 60 digits
        code, out, err = run(capsys, "error-table", "polya", "--sizes", "10", "--orders", "40")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("10,40,")

    def test_reach_guard(self, capsys):
        code, _, err = run(capsys, "error-table", "hierarchy", "--sizes", "9999",
                           "--orders", "1")
        assert code == 2
        assert err == (f"error: size 9999 reaches counts to n=9999, "
                       f"beyond the limit {MAX_COUNT_REACH}\n")

    def test_malformed_sizes(self, capsys):
        code, _, err = run(capsys, "error-table", "hierarchy", "--sizes", "a,b",
                           "--orders", "1")
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--orders", "-1", "--sizes", "10"],
        ["--orders", "1", "--sizes", "0"],
    ])
    def test_bad_grid_rejected_before_any_work(self, capsys, monkeypatch, flags):
        def no_series(*args, **kwargs):
            raise AssertionError("zeta computed for a rejected grid")

        monkeypatch.setattr("treeasym.varieties.zeta_exponent", no_series)
        monkeypatch.setattr("treeasym.varieties.series_exp", no_series)
        code, _, err = run(capsys, "error-table", "hierarchy", *flags)
        assert code == 2
        assert "must be" in err


def _fetched(monkeypatch, text):
    """Make ``--fetch`` read ``text``, or raise it if it is an exception."""
    def fetch(sequence_id):
        if isinstance(text, Exception):
            raise text
        return text

    monkeypatch.setattr(treeasym.oeis, "fetch_b_file_text", fetch)


class TestVerifyOeis:
    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_fixture_verification(self, capsys, variety):
        code, out, _ = run(capsys, "verify-oeis", variety, "--n", "200")
        assert code == 0
        assert "OK" in out

    def test_counts_stop_where_the_reference_ends(self, capsys, monkeypatch):
        reaches, counts_for = [], treeasym.cli.counts_for

        def recorded(variety, n_max):
            reaches.append(n_max)
            return counts_for(variety, n_max)

        monkeypatch.setattr(treeasym.cli, "counts_for", recorded)
        code, out, err = run(capsys, "verify-oeis", "polya", "--n", "1200")
        assert (code, err, reaches) == (0, "", [500])
        assert out == ("polya vs A000081: OK, 501 terms match exactly; "
                       "the reference ends at n=500, before --n 1200 (fixture)\n")

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        _fetched(monkeypatch, "0 0\n1 1\n2 999\n")
        code, out, _ = run(capsys, "verify-oeis", "polya", "--n", "10", "--fetch")
        assert code == 1
        assert "mismatch" in out and out.splitlines()[0].endswith("(online)")

    @pytest.mark.parametrize("index", ["-9", "900"])
    def test_nothing_compared_exits_2(self, capsys, monkeypatch, index):
        # a fetched b-file whose only index lies outside 0..5 overlaps nothing
        _fetched(monkeypatch, f"{index} 1\n")
        code, out, err = run(capsys, "verify-oeis", "polya", "--n", "5", "--fetch")
        assert code == 2
        assert "nothing to verify" in err and out == ""

    def test_empty_range_exits_2(self, capsys):
        # A000669 starts at n=1, so n <= 0 compares nothing
        code, out, err = run(capsys, "verify-oeis", "hierarchy", "--n", "0")
        assert code == 2
        assert "nothing to verify" in err and out == ""

    def test_stale_b_files_on_disk_are_ignored(self, capsys, monkeypatch, tmp_path):
        # b-files left where an on-disk cache used to live change nothing
        for cache in (tmp_path / "home" / ".cache" / "treeasym", tmp_path / "env"):
            cache.mkdir(parents=True)
            (cache / "b000081.txt").write_text("0 0\n1 1\n2 5\n")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("TREEASYM_CACHE_DIR", str(tmp_path / "env"))
        code, out, err = run(capsys, "verify-oeis", "polya", "--n", "3")
        assert (code, err) == (0, "")
        assert out == "polya vs A000081: OK, 4 terms match exactly (fixture)\n"

    def test_fetch_compares_with_the_download_and_writes_nothing(self, capsys, monkeypatch,
                                                                 tmp_path):
        dirs = [tmp_path / name for name in ("home", "env", "cwd")]
        for d in dirs:
            d.mkdir()
        monkeypatch.setenv("HOME", str(dirs[0]))
        monkeypatch.setenv("TREEASYM_CACHE_DIR", str(dirs[1]))
        monkeypatch.chdir(dirs[2])
        _fetched(monkeypatch, "# A004111\n0 0\n1 1\n2 1\n3 1\n")
        code, out, err = run(capsys, "verify-oeis", "identity", "--n", "9", "--fetch")
        assert (code, err) == (0, "")
        assert out == ("identity vs A004111: OK, 4 terms match exactly; "
                       "the reference ends at n=3, before --n 9 (online)\n")
        assert [list(d.iterdir()) for d in dirs] == [[], [], []]

    @pytest.mark.parametrize("fetched", [OSError("network unreachable"), "0 0\n1\n"],
                             ids=["failed", "malformed"])
    def test_fetch_falls_back_to_the_fixture_with_one_warning(self, capsys, monkeypatch,
                                                              fetched):
        _fetched(monkeypatch, fetched)
        code, out, err = run(capsys, "verify-oeis", "hierarchy", "--n", "30", "--fetch")
        assert code == 0
        assert out == "hierarchy vs A000669: OK, 30 terms match exactly (fixture)\n"
        assert err.count("\n") == 1 and err.startswith("warning: fetching A000669 failed")
        assert "cache" not in err


def test_solver_failure_exit_code(capsys, monkeypatch):
    from treeasym.solver import StalledError

    def stalled(*args, **kwargs):
        raise StalledError("synthetic: Newton not contracting")

    # the CLI looks expand_variety up in expansions when the command runs
    monkeypatch.setattr(treeasym.expansions, "expand_variety", stalled)
    code, _, err = run(capsys, "expand", "polya", "--order", "1", "--terms", "120")
    assert code == 3
    assert "solver failure" in err


def test_exact_arithmetic_failure_exit_code(capsys, monkeypatch):
    def inexact(n_max):
        raise ArithmeticError("synthetic: inexact division at n=7")

    monkeypatch.setitem(treeasym.counts._RECURRENCES, "polya", inexact)
    code, out, err = run(capsys, "counts", "polya")
    assert code == 3 and out == ""
    assert err == "exact-arithmetic failure: synthetic: inexact division at n=7\n"


@pytest.fixture
def no_work(monkeypatch):
    """Make each entry point of real work fail, at the lookup the CLI makes."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a rejected count reach")

    monkeypatch.setattr(treeasym.cli, "counts_for", no_work)
    monkeypatch.setattr(treeasym.expansions, "expand_variety", no_work)
    monkeypatch.setattr(treeasym.oeis, "get_sequence", no_work)


@pytest.mark.parametrize("argv", [
    ["counts", "polya", "--n", "1000000000"],
    ["expand", "polya", "--terms", "100000000000000000000"],
    ["estimate", "hierarchy", "--size", "10", "--terms", "2001"],
    ["estimate", "hierarchy", "--size", "10", "--order", "500"],
    ["estimate", "hierarchy", "--size", "1000000000"],
    ["error-table", "polya", "--terms", "1000000000"],
    ["verify-oeis", "identity", "--n", "2001"],
], ids=["counts", "expand", "estimate", "estimate-order", "estimate-size", "error-table",
        "verify-oeis"])
def test_count_reach_beyond_the_limit_exits_2_before_any_work(capsys, no_work, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f", beyond the limit {MAX_COUNT_REACH}\n")


@pytest.mark.parametrize("command", ["expand", "estimate", "error-table"])
def test_digits_beyond_the_limit_exits_2_before_any_work(capsys, no_work, command):
    # its working precision would take minutes or exhaust memory
    extra = ["--size", "10"] if command == "estimate" else []
    code, out, err = run(capsys, command, "polya", *extra, "--digits", "1000000000")
    assert code == 2 and out == ""
    assert err == f"error: --digits 1000000000 is beyond the limit {MAX_DIGITS}\n"


@pytest.mark.parametrize("argv", [
    ["counts", "polya", "--n", "5"],
    ["expand", "polya", "--order", "1", "--terms", "120"],
    ["estimate", "hierarchy", "--size", "10"],
    ["error-table", "polya", "--sizes", "10", "--orders", "1"],
    ["verify-oeis", "identity", "--n", "5"],
], ids=["counts", "expand", "estimate", "error-table", "verify-oeis"])
def test_count_reach_within_the_limit_reaches_the_patched_work(capsys, no_work, argv):
    # control for the test above: its patches sit on the path of every subcommand
    with pytest.raises(AssertionError, match="work started"):
        run(capsys, *argv)


def test_truncation_warning_is_one_plain_line(capsys):
    code, out, err = run(capsys, "expand", "polya", "--digits", "100", "--terms", "60")
    assert code == 0
    assert err.count("\n") == 1
    assert err.startswith("warning: count reach 60 proves ")
    assert err.endswith("; truncation order 60 is small for 100 digits\n")
    quiet_code, quiet_out, quiet_err = run(capsys, "expand", "polya", "--digits", "100",
                                           "--terms", "200")
    assert quiet_code == 0 and quiet_err == ""
    loud, quiet = json.loads(out), json.loads(quiet_out)
    assert list(loud) == list(quiet)
    assert [len(loud[k]) for k in ("t", "tau")] == [len(quiet[k]) for k in ("t", "tau")]
    assert out.count("\n") == quiet_out.count("\n")


def loaded_after(probe: str) -> list[str]:
    """Modules that a fresh interpreter holds after running ``probe``."""
    src = Path(treeasym.__file__).resolve().parents[1]
    probe += "\nimport sys; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return proc.stdout.splitlines()[-1].split()


def cli_run_loads(*argv) -> list[str]:
    probe = ("import contextlib, io\nfrom treeasym.cli import main\n"
             f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({list(argv)}) == 0")
    return loaded_after(probe)


PIPELINE = ["mpmath"] + [f"treeasym.{m}" for m in
                         ("hp", "series", "solver", "varieties", "kernels", "expansions")]


def test_cli_import_leaves_the_network_stack_unloaded():
    loaded = loaded_after("import treeasym.cli")
    assert [m for m in ("urllib.request", "http.client") if m in loaded] == []


@pytest.mark.parametrize("argv", [
    ["counts", "polya", "--n", "30"],
    ["verify-oeis", "identity", "--n", "30"],
], ids=["counts", "verify-oeis"])
def test_count_commands_leave_mpmath_and_the_pipeline_unloaded(argv):
    loaded = cli_run_loads(*argv)
    assert "treeasym.counts" in loaded
    assert [m for m in PIPELINE if m in loaded] == []


def test_expand_leaves_oeis_unloaded():
    loaded = cli_run_loads("expand", "polya", "--order", "1", "--terms", "120",
                           "--format", "csv")
    assert "treeasym.expansions" in loaded and "treeasym.oeis" not in loaded


def test_bare_package_import_loads_no_submodule():
    loaded = loaded_after("import treeasym")
    assert "treeasym" in loaded
    assert [m for m in loaded if m.startswith("treeasym.")] == []


@pytest.mark.parametrize("n", ["800", "10"], ids=["in-a-write", "at-the-last-flush"])
def test_closed_stdout_ends_quietly_with_the_command_exit_code(n):
    # the reader is gone before the command starts; with stdout buffered, the
    # 152 KB of rows at n=800 fail in a write, the 11 rows at n=10 only when
    # the output is flushed after the command
    src = Path(treeasym.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "treeasym.cli", "counts", "polya",
                               "--n", n, "--format", "csv"], stdout=write_end,
                              stderr=subprocess.PIPE, timeout=120,
                              env={**env, "PYTHONPATH": str(src)})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excnfo:
        main(["frobnicate", "polya"])
    assert excnfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["error-table", "hierarchy", "--format", "json"],
    ["expand", "polya", "--fetch"],
    ["expand", "polya", "--cache-dir", "cache"],
    ["counts", "polya", "--digits", "40"],
    ["verify-oeis", "polya", "--cache-dir", "x"],
])
def test_flag_outside_its_subcommand_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_variety_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["counts", "bonsai"])
    assert excinfo.value.code == 2


def _flag(name, values):
    """Absent, or ``--name=value`` for a drawn value (so negatives stay values)."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


def _int_list(lo, hi):
    """Comma-separated integers, possibly none, or a malformed entry."""
    ints = st.lists(st.integers(lo, hi), max_size=3).map(lambda xs: ",".join(map(str, xs)))
    return st.one_of(ints, st.just("a,1"))


_PRECISION = [_flag("digits", st.integers(25, 45)), _flag("terms", st.integers(-1, 110))]
_FORMAT = _flag("format", st.sampled_from(["json", "csv"]))
_SUBCOMMAND_FLAGS = {
    "counts": [_FORMAT, _flag("n", st.integers(-2, 60))],
    "expand": [
        *_PRECISION,
        _FORMAT,
        _flag("order", st.integers(-1, 3)),
        _flag("puiseux-terms", st.integers(-1, 12)),
        st.sampled_from([[], ["--table1"], ["--table2"]]),
    ],
    "estimate": [
        *_PRECISION,
        _FORMAT,
        st.integers(-1, 120).map(lambda n: [f"--size={n}"]),
        _flag("order", st.integers(-1, 4)),
    ],
    "error-table": [
        *_PRECISION,
        _flag("sizes", _int_list(-1, 60)),
        _flag("orders", _int_list(-1, 4)),
    ],
    "verify-oeis": [_flag("n", st.integers(-2, 80))],
}


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    argv = [command, draw(st.sampled_from(["polya", "identity", "hierarchy"]))]
    for flag in _SUBCOMMAND_FLAGS[command]:
        argv += draw(flag)
    return argv


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_cli_calls())
def test_every_small_flag_combination_ends_in_a_documented_exit_code(argv):
    # small flag ranges on every subcommand, in process: an exit code of
    # 0/1/2/3; an exception escaping main fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenOutput:
    """Byte-identical stdout against digests pinned before a numeric refactor."""

    @pytest.mark.parametrize("command", sorted(CLI_STDOUT_SHA256))
    def test_stdout_matches_the_pinned_digest(self, capsys, command):
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, "")
        assert _sha256(out) == CLI_STDOUT_SHA256[command]

    def test_order_100_csv_matches_the_pinned_digest(self, capsys):
        code, out, err = run(capsys, "expand", "polya", "--order", "100", "--digits", "60",
                             "--format", "csv")
        assert (code, err) == (0, "")
        assert _sha256(out) == ORDER_100_CSV_SHA256

    def test_truncation_warning_line_is_unchanged(self, capsys):
        code, _, err = run(capsys, "expand", "polya", "--digits", "100", "--terms", "60")
        assert code == 0
        assert err == TRUNCATION_WARNING_LINE + "\n"
