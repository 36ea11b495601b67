import csv
import io
import json
import math
import os
import platform
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import sievenorm as sn
import sievenorm.cli as cli
import sievenorm.experiments as experiments
import sievenorm.quadrature as quadrature
from sievenorm import LargeSieveResult
from sievenorm.errors import InvariantError


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = [l for l in text.splitlines() if l.startswith("#")]
    body = [l for l in text.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return comments, rows[0], rows[1:]


def field_map(cell):
    out = {}
    for part in cell.split("|"):
        k, _, v = part.partition("=")
        out[k] = v
    return out


class TestNormCommand:
    def test_csv_output(self, capsys):
        code, out, err = run_cli(capsys, ["norm", "--kind", "ones", "--n", "16"])
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert comments[0] == "# schema_version=1"
        assert any(c.startswith("# tool=sievenorm") for c in comments)
        assert not any("timestamp" in c for c in comments)
        assert list(header) == list(cli.CSV_FIELDS)
        assert len(rows) == 1
        assert rows[0][0] == "norm"
        assert rows[0][5] == "true"
        measured = field_map(rows[0][2])
        assert float(measured["l2_sq"]) == 16.0
        assert "grids" in measured and ":" in measured["grids"]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, ["norm", "--kind", "mobius", "--n", "64", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert "timestamp" in doc["metadata"]
        (row,) = doc["rows"]
        assert row["experiment"] == "norm"
        assert row["measured"]["invariant_ok"] is True
        assert row["passed"] is True

    def test_csv_and_json_agree(self, capsys):
        code, out_csv, _ = run_cli(capsys, ["norm", "--kind", "theta", "--n", "128"])
        assert code == 0
        code, out_json, _ = run_cli(
            capsys, ["norm", "--kind", "theta", "--n", "128", "--json"]
        )
        assert code == 0
        _, _, rows = parse_csv(out_csv)
        measured_csv = field_map(rows[0][2])
        measured_json = json.loads(out_json)["rows"][0]["measured"]
        # CSV floats carry 12 significant digits
        assert float(measured_csv["l1"]) == pytest.approx(measured_json["l1"], rel=1e-10)
        assert measured_csv["converged"] == "true"

    @staticmethod
    def check_growth_ladder(capsys, lo, hi, kind="mobius"):
        ns = [1 << k for k in range(lo, hi + 1)]
        code, out, _ = run_cli(capsys, ["norm", "--kind", kind, "--n", *map(str, ns), "--json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["params"]["n"] for row in rows] == ns
        tables = sn.build_tables(max(4096, ns[-1]))
        for row in rows:
            n, l1, ratios = row["params"]["n"], row["measured"]["l1"], row["ratios"]
            seq = sn.coefficient_sequence(tables, kind, n)
            assert l1 == pytest.approx(sn.l1_norm(seq).value, rel=1e-4)
            expected = experiments.GROWTH_RATIOS[kind](n, l1, sn.l2_norm_sq(seq))
            assert ratios["growth_ratio"] == pytest.approx(expected, rel=1e-12)
            assert ratios["l1_over_sqrt_n"] == pytest.approx(l1 / math.sqrt(n), rel=1e-12)

    def test_growth_ladder_smoke(self, capsys):
        self.check_growth_ladder(capsys, 6, 7)

    def test_growth_ladder_random_primes(self, capsys):
        # the prime_l1 row's random variant, a sequence kind of its own
        self.check_growth_ladder(capsys, 6, 7, kind="random_primes")

    def test_growth_ladder_above_2_16(self, capsys):
        # one rung past the suite's ladder: rows of 2^17 points, four to an ifft batch
        self.check_growth_ladder(capsys, 17, 17)

    @pytest.mark.parametrize(
        "kind, defined",
        [("ones", {"l1_over_l2", "l1_over_sqrt_n"}), ("prime_indicator", {"l1_over_sqrt_n"})],
    )
    def test_undefined_ratios_are_absent_at_n1(self, capsys, kind, defined):
        # log 1 = 0, and the prime indicator has l2 = 0 at N = 1
        code, out, _ = run_cli(capsys, ["norm", "--kind", kind, "--n", "1", "--json"])
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert set(row["ratios"]) == defined

    def test_non_convergence_is_warning_not_error(self, capsys):
        code, out, err = run_cli(
            capsys, ["norm", "--kind", "ones", "--n", "16", "--tol", "1e-15"]
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0][5] == "false"
        assert "warning" in err
        assert "did not pass" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "norm.csv"
        code, out, _ = run_cli(
            capsys, ["norm", "--kind", "ones", "--n", "16", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# schema_version=1")

    def test_unwritable_out_file(self, capsys, tmp_path):
        target = tmp_path / "missing" / "norm.csv"
        code, out, err = run_cli(
            capsys, ["norm", "--kind", "ones", "--n", "16", "--out", str(target)]
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"sievenorm: error: cannot write {target}: ")
        assert "Traceback" not in err


class TestOtherCommands:
    def test_kernel_gap(self, capsys):
        code, out, err = run_cli(capsys, ["kernel-gap", "--n", "256"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0][0] == "kernel_gap"
        assert field_map(rows[0][1])["kind"] == "gstar"

    def test_ladder_flags_take_lists(self, capsys):
        code, out, _ = run_cli(capsys, ["kernel-gap", "--kind", "h", "gstar", "--n", "64", "128"])
        assert code == 0
        _, _, rows = parse_csv(out)
        got = [(field_map(r[1])["kind"], field_map(r[1])["n"]) for r in rows]
        assert got == [("h", "64"), ("h", "128"), ("gstar", "64"), ("gstar", "128")]
        code, out, err = run_cli(capsys, ["norm", "--kind", "ones", "--n", "16", "0"])
        assert (code, out) == (1, "")
        assert "argument --n: must be >= 1" in err

    def test_sieve_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sieve-check", "--set-kind", "reduced_farey", "--param", "22", "--n", "128"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        ratios = field_map(rows[0][4])
        assert float(ratios["lhs_over_rhs"]) <= 1.0 + 1e-9

    def test_vaughan_two_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["vaughan", "--n", "64"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["lambda_kernel_integral", "lambda_l1"]

    def test_suite_with_config(self, capsys, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(
            "seed = 3\n"
            "experiment = kernel_gap\n"
            "n = 64\n"
            "kind = gstar\n"
            "experiment = mangoldt_weighted_sum\n"
            "n = 64, 128\n"
        )
        code, out, _ = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert code == 0
        comments, _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [
            "kernel_gap",
            "mangoldt_weighted_sum",
            "mangoldt_weighted_sum",
        ]
        assert any(c == f"# config={cfg}" for c in comments)

    def test_suite_without_config_runs_the_default_suite(self, capsys, monkeypatch):
        small = experiments.SuiteConfig(experiments=(("mangoldt_weighted_sum", {"n": 64}),))
        monkeypatch.setattr(cli, "default_suite_config", lambda: small)
        code, out, _ = run_cli(capsys, ["suite"])
        assert code == 0
        comments, _, rows = parse_csv(out)
        assert "# config=default" in comments
        assert [r[0] for r in rows] == ["mangoldt_weighted_sum"]

    def test_empirical_miss_names_its_check(self, capsys, tmp_path):
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("floor = 1e9\nexperiment = prime_l1\nn = 64\n")
        code, _, err = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert code == 0
        assert err.count("warning: prime_l1") == 3
        assert err.count("did not pass: growth ratio below floor") == 3
        assert "empirical check failed" not in err

    def test_suite_json_metadata_records_environment(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("experiment = mangoldt_weighted_sum\nn = 64\n")
        code, out, _ = run_cli(capsys, ["suite", "--config", str(cfg), "--json"])
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert meta["python_version"] == platform.python_version()
        assert meta["numpy_version"] == np.__version__
        assert meta["cpu_count"] == os.cpu_count()
        assert meta["git_sha"] == cli._git_sha(Path(cli.__file__).resolve().parents[2])


SHA = "0123456789abcdef0123456789abcdef01234567"


@pytest.mark.parametrize(
    "files, expected",
    [
        ({"HEAD": SHA + "\n"}, SHA),
        ({"HEAD": "ref: refs/heads/main\n", "refs/heads/main": SHA + "\n"}, SHA),
        (
            {
                "HEAD": "ref: refs/heads/main\n",
                "packed-refs": f"# pack-refs with: peeled\n{'f' * 40} refs/heads/old\n"
                f"{SHA} refs/heads/main\n^{'e' * 40}\n",
            },
            SHA,
        ),
        ({"HEAD": "ref: refs/heads/gone\n"}, None),
        ({}, None),
    ],
    ids=["detached", "loose-ref", "packed-ref", "missing-ref", "no-git"],
)
def test_git_sha_reads_head(tmp_path, files, expected):
    for name, text in files.items():
        (tmp_path / ".git" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / ".git" / name).write_text(text)
    assert cli._git_sha(tmp_path) == expected


def strip_runtime(text):
    comments, header, rows = parse_csv(text)
    idx = header.index("runtime_s")
    return comments, header, [r[:idx] + r[idx + 1 :] for r in rows]


def strict_json(text):
    """``json.loads`` that refuses ``Infinity``, ``-Infinity`` and ``NaN``, as strict parsers do."""

    def refuse(name):
        raise ValueError(f"non-finite float {name} in JSON output")

    return json.loads(text, parse_constant=refuse)


class TestFiniteJson:
    """Every float in a row is finite: an undefined ratio or field is absent."""

    def test_vaughan_at_n2_omits_the_analytic_ratio(self, capsys):
        # v_spectral = 0 at N = 2, so the analytic lower bound is 0
        code, out, _ = run_cli(capsys, ["vaughan", "--n", "2", "--json"])
        assert code == 0
        rows = strict_json(out)["rows"]
        assert [r["experiment"] for r in rows] == ["lambda_kernel_integral", "lambda_l1"]
        assert rows[1]["reference"]["analytic_lower"] == 0.0
        assert list(rows[1]["ratios"]) == ["l1_over_sqrt_n", "l1_over_sqrt_nlogn"]

    def test_norm_with_one_grid_omits_last_delta(self, capsys, monkeypatch):
        # the coarsest grid for N = 64 has 8 * 64 samples; no second grid fits
        monkeypatch.setattr(quadrature, "SAMPLE_BUDGET", 8 * 64)
        code, out, _ = run_cli(capsys, ["norm", "--kind", "ones", "--n", "64", "--json"])
        assert code == 0
        (row,) = strict_json(out)["rows"]
        assert row["measured"]["grids"] == [[512, row["measured"]["l1"]]]
        assert "last_delta" not in row["measured"]
        assert row["measured"]["converged"] is False and row["passed"] is False


class TestDeterminism:
    def test_suite_byte_identical_modulo_runtime(self, capsys, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(
            "experiment = kernel_gap\nn = 64 128\nkind = h\n"
            "experiment = large_sieve\ntrials = 5\nmax_param = 22\n"
        )
        code, first, _ = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert code == 0
        code, second, _ = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert code == 0
        assert strip_runtime(first) == strip_runtime(second)

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, ["norm", "--kind", "mobius", "--n", "32", "--json"])
        assert code == 0
        record = cli.record_from_json(out)
        assert cli.render_json(record) == out


class TestExitCodes:
    def test_bad_choice(self, capsys):
        code, _, err = run_cli(capsys, ["norm", "--kind", "nope", "--n", "16"])
        assert code == 1
        assert "invalid choice" in err

    def test_missing_required(self, capsys):
        code, _, err = run_cli(capsys, ["norm", "--kind", "ones"])
        assert code == 1

    def test_nonpositive_n(self, capsys):
        code, _, err = run_cli(capsys, ["norm", "--kind", "ones", "--n", "0"])
        assert code == 1
        assert "--n" in err

    @pytest.mark.parametrize(
        "argv",
        [["vaughan", "--n", "1"], ["kernel-gap", "--n", "1"], ["suite", "--workers", "0"]],
        ids=["vaughan_n1", "kernel_gap_n1", "suite_workers0"],
    )
    def test_out_of_range_flag_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert "must be >= " in err

    def test_kernel_gap_grid_over_budget_gives_one_error_row_per_kind_and_n(self, capsys):
        # the ladder is one job, yet each (kind, N) still fails on its own row
        code, out, err = run_cli(capsys, ["kernel-gap", "--n", "64", "128", "--m", "67108865"])
        assert code == 1
        _, _, rows = parse_csv(out)
        assert [r[1] for r in rows] == [
            f"n={n}|p=None|kind={kind}|m=67108865"
            for kind in ("gstar", "h", "h_truncated")
            for n in (64, 128)
        ]
        for row in rows:
            assert row[2] == "invariant_ok=true|error=CapacityError"
            assert row[5] == "false"
            assert row[7] == "CapacityError: grid size 67108865 exceeds budget 67108864"
        assert err.count("sievenorm: error: kernel_gap(") == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["sieve-check", "--set-kind", "reduced_farey", "--param", "22", "--kind", "mobius",
             "--n", "512", "--shift", "nan"],
            ["sieve-check", "--set-kind", "reduced_farey", "--param", "22", "--kind", "mobius",
             "--n", "512", "--shift", "inf"],
            ["suite", "--floor", "nan"],
        ],
        ids=["shift_nan", "shift_inf", "suite_floor_nan"],
    )
    def test_non_finite_float_exits_1(self, capsys, argv):
        # a bad parameter, not an invariant violation (exit 2) nor a suite run
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    def test_table_budget_exits_1(self, capsys):
        # build_tables refuses the size before it allocates anything
        code, out, err = run_cli(capsys, ["norm", "--kind", "mobius", "--n", "70000000"])
        assert code == 1
        assert out == ""
        assert err == "sievenorm: error: n_max 70000000 exceeds table budget 67108864\n"

    def test_wrong_type_in_config_is_error_row(self, capsys, tmp_path):
        cfg = tmp_path / "abc.cfg"
        cfg.write_text("experiment = mangoldt_weighted_sum\nn = abc\n")
        code, out, _ = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert code == 1
        _, _, rows = parse_csv(out)
        assert len(rows) == 1
        assert field_map(rows[0][2])["error"] == "ValueError"
        assert rows[0][7] == "ValueError: mangoldt_weighted_sum: n must be int, got 'abc'"

    def test_no_command_prints_help(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 1
        assert "COMMAND" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["suite", "--config", str(tmp_path / "none.cfg")])
        assert code == 1
        assert "cannot read config" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment kernel_gap\n")
        code, _, err = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert code == 1
        assert "line 1" in err

    def test_unknown_experiment_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = bogus\n")
        code, _, err = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert code == 1
        assert "unknown experiment" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_invariant_violation_in_row_exits_2(self, capsys, monkeypatch):
        def fake_check(seqs, point_set, shifts):
            return [LargeSieveResult(lhs=2.0, rhs=1.0, ratio=2.0) for _ in seqs]

        monkeypatch.setattr(experiments, "large_sieve_check", fake_check)
        code, out, err = run_cli(
            capsys,
            ["sieve-check", "--set-kind", "prime_farey", "--param", "5", "--n", "32"],
        )
        assert code == 2
        assert "invariant violation" in err
        # the offending row is still rendered before the failure exit
        _, _, rows = parse_csv(out)
        assert field_map(rows[0][2])["invariant_ok"] == "false"

    @pytest.mark.parametrize(
        "block",
        ["experiment = squarefree_l1\nn = 1023\n", "experiment = kernel_gap\nkind = fejer\n"],
        ids=["odd_n", "fejer_gap"],
    )
    def test_job_value_error_exits_1(self, capsys, tmp_path, block):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(block)
        code, out, err = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert code == 1
        assert "sievenorm: error:" in err
        _, _, rows = parse_csv(out)
        assert rows and all(field_map(r[2])["error"] == "ValueError" for r in rows)

    def test_job_crash_exits_3(self, capsys, tmp_path, monkeypatch):
        def crash(tables, n):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(experiments, "mangoldt_weighted_sum_row", crash)
        cfg = tmp_path / "crash.cfg"
        cfg.write_text(
            "experiment = mangoldt_weighted_sum\nn = 64\n"
            "experiment = squarefree_l1\nn = 1023\n"
        )
        code, out, err = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert code == 3
        _, _, rows = parse_csv(out)
        assert [field_map(r[2])["error"] for r in rows] == ["RuntimeError", "ValueError"]
        assert "RuntimeError: unexpected" in err

    def test_kernel_gap_row_crash_exits_3(self, capsys, monkeypatch):
        # a row transform that fails after kernel_gap's checks fails its whole job
        def no_room(tables, spec, M, B, s):
            raise MemoryError("no room")

        monkeypatch.setattr(experiments, "kernel_row", no_room)
        code, out, err = run_cli(capsys, ["kernel-gap", "--kind", "h", "--n", "64", "128"])
        assert code == 3
        _, _, rows = parse_csv(out)
        assert [field_map(r[2])["error"] for r in rows] == ["MemoryError"]
        assert "MemoryError: no room" in err

    def test_command_crash_exits_3(self, capsys, monkeypatch):
        def crashing_check(seqs, point_set, shifts):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(experiments, "large_sieve_check", crashing_check)
        code, out, err = run_cli(
            capsys,
            ["sieve-check", "--set-kind", "prime_farey", "--param", "5", "--n", "32"],
        )
        assert code == 3
        # the failed job's row is still rendered
        _, _, rows = parse_csv(out)
        assert [field_map(r[2])["error"] for r in rows] == ["RuntimeError"]
        assert "RuntimeError: unexpected" in err

    def test_config_knob_out_of_range_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("workers = 0\nexperiment = mangoldt_weighted_sum\nn = 64\n")
        code, out, err = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert "config: workers must be >= 1, got 0" in err

    @pytest.mark.parametrize(
        "block, message",
        [
            ("experiment = norm\nn = 64\n", "norm: kind is required"),
            ("experiment = norm\nkind = ones\nn = 64\nseed = 1, 2\n", "norm: seed takes one value"),
        ],
        ids=["required", "one_value"],
    )
    def test_block_rejected_by_expand_exits_1(self, capsys, tmp_path, block, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(block)
        code, out, err = run_cli(capsys, ["suite", "--config", str(cfg)])
        assert code == 1
        _, _, rows = parse_csv(out)
        assert [field_map(r[2])["error"] for r in rows] == ["ValueError"]
        assert rows[0][7].startswith(f"ValueError: {message}")
        assert message in err

    def test_crash_outside_any_job_exits_3(self, capsys, monkeypatch):
        def crash(cfg):
            raise RuntimeError("suite set-up failed")

        monkeypatch.setattr(cli, "run_suite", crash)
        code, out, err = run_cli(capsys, ["norm", "--kind", "ones", "--n", "16"])
        assert (code, out) == (3, "")
        assert "RuntimeError: suite set-up failed" in err

    def test_invariant_error_raised_exits_2(self, capsys, monkeypatch):
        def raising_check(seqs, point_set, shifts):
            raise InvariantError("ratio exceeded 1")

        monkeypatch.setattr(experiments, "large_sieve_check", raising_check)
        code, out, err = run_cli(
            capsys,
            ["sieve-check", "--set-kind", "prime_farey", "--param", "5", "--n", "32"],
        )
        assert code == 2
        assert "invariant violation" in err
        _, _, rows = parse_csv(out)
        measured = field_map(rows[0][2])
        assert (measured["error"], measured["invariant_ok"]) == ("InvariantError", "false")


class TestParseConfig:
    def test_globals_and_blocks(self):
        cfg = cli.parse_config(
            "# full example\n"
            "seed = 3\n"
            "rel_tol = 1e-3\n"
            "\n"
            "experiment = kernel_gap\n"
            "n = 64, 128\n"
            "kind = gstar\n"
            "experiment = large_sieve\n"
            "trials = 5\n"
        )
        assert cfg.seed == 3
        assert cfg.rel_tol == pytest.approx(1e-3)
        assert cfg.workers == 1
        assert cfg.experiments == (
            ("kernel_gap", {"n": [64, 128], "kind": "gstar"}),
            ("large_sieve", {"trials": 5}),
        )

    def test_space_separated_lists(self):
        cfg = cli.parse_config("experiment = mangoldt_weighted_sum\nn = 64 128 256\n")
        assert cfg.experiments[0][1]["n"] == [64, 128, 256]

    def test_trailing_comment(self):
        cfg = cli.parse_config("seed = 7 # lucky\n")
        assert cfg.seed == 7

    def test_unknown_global_key(self):
        with pytest.raises(cli.UsageError, match="unknown global key"):
            cli.parse_config("zeta = 1\n")

    def test_empty_value(self):
        with pytest.raises(cli.UsageError, match="empty key or value"):
            cli.parse_config("n =\n")

    def test_empty_list_value(self):
        with pytest.raises(cli.UsageError, match="config line 2: empty value"):
            cli.parse_config("experiment = norm\nn = ,\n")

    @pytest.mark.parametrize(
        "text, lineno, key",
        [
            ("seed = 1\nseed = 2\n", 2, "seed"),
            ("experiment = mangoldt_weighted_sum\nn = 16\nn = 32\n", 3, "n"),
        ],
        ids=["global", "block"],
    )
    def test_repeated_key(self, text, lineno, key):
        with pytest.raises(cli.UsageError, match=f"config line {lineno}: repeated key '{key}'"):
            cli.parse_config(text)

    def test_key_once_per_scope(self):
        cfg = cli.parse_config(
            "seed = 1\n"
            "experiment = norm\nseed = 2\n"
            "experiment = norm\nseed = 3\n"
        )
        assert cfg.seed == 1
        assert cfg.experiments == (("norm", {"seed": 2}), ("norm", {"seed": 3}))

    def test_missing_equals(self):
        with pytest.raises(cli.UsageError, match="expected 'key = value'"):
            cli.parse_config("just words\n")


class TestRendering:
    def test_nested_list_separators(self):
        assert cli._fmt_value([[1, 2], [3, 4]]) == "1:2;3:4"
        assert cli._fmt_value(True) == "true"
        assert cli._fmt_value(0.25) == "0.25"

    def test_float_precision(self):
        assert cli._fmt_float(1 / 3) == "0.333333333333"


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_parse():
    # every documented command line is one the parser accepts; none is run
    readme = README.read_text()
    lines = [
        line
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("sievenorm ")
    ]
    assert len(lines) >= 8
    parser = cli._build_parser()
    for line in lines:
        ns = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert ns.command in cli.COMMANDS


def readme_parameter_table():
    """[(experiment, [(key, marked list, marked required), ...])] from README's table."""
    section = README.read_text().split("Experiments and their parameters", 1)[1]
    table = []
    for name, cell in re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M):
        entries, depth, current = [], 0, ""
        for ch in cell + ";":  # split on the semicolons outside parentheses
            depth += (ch == "(") - (ch == ")")
            if ch == ";" and depth == 0:
                entries.append(current.strip())
                current = ""
            else:
                current += ch
        keys = [(re.match(r"`(\w+)`", e)[1], "*list*" in e, "(required" in e) for e in entries]
        table.append((name, keys))
    return table


def test_readme_parameter_table_matches_registry():
    table = readme_parameter_table()
    assert sorted(name for name, _ in table) == list(experiments.EXPERIMENT_NAMES)
    for name, keys in table:
        spec = experiments.EXPERIMENTS[name]
        assert [key for key, _, _ in keys] == list(spec.params), name
        assert [key for key, is_list, _ in keys if is_list] == [
            key for key in spec.params if key in spec.ladder
        ], name
        assert [key for key, _, required in keys if required] == [
            key for key, param in spec.params.items() if param.required
        ], name


EQUIVALENT_RUNS = [
    (
        ["norm", "--kind", "mobius", "--n", "64", "128", "--tol", "1e-3", "--seed", "2"],
        "experiment = norm\nkind = mobius\nn = 64, 128\nrel_tol = 1e-3\nseed = 2\n",
    ),
    (
        ["kernel-gap", "--kind", "h", "--n", "64", "--p", "5", "--m", "512"],
        "experiment = kernel_gap\nkind = h\nn = 64\np = 5\nm = 512\n",
    ),
    (
        ["sieve-check", "--set-kind", "prime_farey", "--param", "7", "--n", "32",
         "--kind", "mobius", "--shift", "0.25", "--seed", "1"],
        "experiment = sieve_check\nset_kind = prime_farey\nparam = 7\nn = 32\n"
        "kind = mobius\nshift = 0.25\nseed = 1\n",
    ),
    (
        ["vaughan", "--n", "64", "--q", "5", "--tol", "1e-3"],
        "experiment = lambda_kernel_integral\nn = 64\nq = 5\nrel_tol = 1e-3\n"
        "experiment = lambda_l1\nn = 64\nq = 5\nrel_tol = 1e-3\n",
    ),
]


@pytest.mark.parametrize("argv, config", EQUIVALENT_RUNS, ids=[a[0] for a, _ in EQUIVALENT_RUNS])
def test_command_gives_the_rows_of_its_config_block(capsys, tmp_path, argv, config):
    path = tmp_path / "same.cfg"
    path.write_text(config)
    code, by_flags, _ = run_cli(capsys, argv)
    assert code == 0
    code, by_config, _ = run_cli(capsys, ["suite", "--config", str(path)])
    assert code == 0
    _, header, rows = strip_runtime(by_flags)
    assert rows and (header, rows) == strip_runtime(by_config)[1:]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_names_one_flag_per_key(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    names = cli.COMMANDS[command][1]
    keys = experiments.EXPERIMENTS[names[0]].params if names else cli._KNOBS
    flags = {"--tol" if key == "rel_tol" else "--" + key.replace("_", "-") for key in keys}
    flags |= {"--help", "--json", "--out"} | ({"--config"} if command == "suite" else set())
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == flags
