import json

import pytest

from treeasym.cli import main

from reference_values import RHO_50


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
        assert code == 2 and "max-size" in err


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

    def test_reach_guard(self, capsys):
        code, _, err = run(capsys, "error-table", "hierarchy", "--sizes", "9999",
                           "--orders", "1")
        assert code == 2 and "max-size" in err

    def test_malformed_sizes(self, capsys):
        code, _, err = run(capsys, "error-table", "hierarchy", "--sizes", "a,b",
                           "--orders", "1")
        assert code == 2


class TestVerifyOeis:
    @pytest.mark.parametrize("variety", ["polya", "identity", "hierarchy"])
    def test_fixture_verification(self, capsys, tmp_path, variety):
        code, out, _ = run(capsys, "verify-oeis", variety, "--n", "200",
                           "--offline", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "OK" in out

    def test_mismatch_exit_code(self, capsys, tmp_path):
        (tmp_path / "b000081.txt").write_text("0 0\n1 1\n2 999\n")
        code, out, _ = run(capsys, "verify-oeis", "polya", "--n", "10",
                           "--cache-dir", str(tmp_path))
        assert code == 1
        assert "mismatch" in out

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TREEASYM_CACHE_DIR", str(tmp_path))
        (tmp_path / "b000081.txt").write_text("0 0\n1 1\n")
        code, out, _ = run(capsys, "verify-oeis", "polya", "--n", "1")
        assert code == 0 and "cache" in out


def test_solver_failure_exit_code(capsys, monkeypatch):
    import treeasym.cli as cli_mod
    from treeasym.solver import StalledError

    def stalled(*args, **kwargs):
        raise StalledError("synthetic: Newton not contracting")

    monkeypatch.setattr(cli_mod, "expand_variety", stalled)
    code, _, err = run(capsys, "expand", "polya", "--order", "1", "--terms", "120")
    assert code == 3
    assert "solver failure" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excnfo:
        main(["frobnicate", "polya"])
    assert excnfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["error-table", "hierarchy", "--format", "json"],
    ["expand", "polya", "--offline"],
    ["expand", "polya", "--cache-dir", "cache"],
    ["counts", "polya", "--digits", "40"],
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
