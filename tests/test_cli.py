"""Tests for the command-line interface: subcommands, files, exit codes."""

import argparse
import concurrent.futures.process
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from fcir import GridSpec, HurstParameter, __version__, cli, experiments, sample_fbm_circulant
from fcir.cli import main
from fcir.experiments import SamplerCheck
from fcir.io import write_fbm_path


def run_cli(tmp_path, *argv):
    out = tmp_path / "runs"
    code = main([*argv, "--out", str(out)])
    run_dirs = sorted(out.iterdir()) if out.exists() else []
    return code, run_dirs


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_manifest(run_dir):
    lines = (run_dir / "manifest.txt").read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def manifest_flags(argv):
    """The flag keys a manifest records for argv, in parser order."""
    args = vars(cli.build_parser().parse_args(argv))
    return [dest for dest in args if dest not in ("command", "out", "handler")]


def rerun_argv(command, manifest, flags):
    """argv that re-runs command with the flags recorded in a manifest."""
    argv = [command]
    for dest in flags:
        argv += [f"--{dest.replace('_', '-')}", manifest[dest]]
    return argv


class TestSimulate:
    def test_emits_positive_rates(self, tmp_path):
        code, runs = run_cli(
            tmp_path, "simulate", "--hurst", "0.7", "--horizon", "10",
            "--steps-exp", "12", "--seed", "1",
        )
        assert code == 0
        header, rows = read_rows(runs[0] / "data.csv")
        assert header == ["t", "X", "r"]
        assert len(rows) == 2**12 + 1
        rates = np.array([float(row[2]) for row in rows])
        assert np.all(rates > 0.0)
        assert rates[0] == 1.0
        manifest = (runs[0] / "manifest.txt").read_text()
        assert "data_files = data.csv" in manifest
        assert "command = simulate" in manifest
        assert "status = ok" in manifest

    def test_tiny_levels_record_no_warnings(self, tmp_path):
        code, runs = run_cli(
            tmp_path, "simulate", "--r0", "1e-300", "--theta", "1e-300", "--steps-exp", "6",
            "--workers", "1",
        )
        assert code == 0
        assert read_manifest(runs[0])["warnings"] == "(none)"

    def test_manifest_records_peak_memory(self, tmp_path):
        code, runs = run_cli(tmp_path, "simulate", "--steps-exp", "6", "--workers", "1")
        assert code == 0
        manifest = read_manifest(runs[0])
        keys = list(manifest)
        assert keys.index("peak_rss_mb") == keys.index("duration_seconds") + 1
        peak = float(manifest["peak_rss_mb"])
        assert math.isfinite(peak) and peak > 0.0

    def test_full_precision_round_trip(self, tmp_path):
        # 17 significant digits reproduce the doubles exactly
        grid = GridSpec(1.0, 16)
        (path,) = sample_fbm_circulant(grid, HurstParameter(0.7), [5])
        target = tmp_path / "path.csv"
        write_fbm_path(target, grid, path)
        header, rows = read_rows(target)
        assert header == ["t", "B"]
        parsed = np.array([float(row[1]) for row in rows])
        assert np.array_equal(parsed, path)


class TestConvergeSubcommands:
    def test_repeat_runs_byte_identical(self, tmp_path):
        args = (
            "converge-grid", "--ref-exp", "8", "--coarse-exps", "4,5",
            "--samples", "5", "--seed", "7", "--workers", "1",
        )
        code, runs = run_cli(tmp_path / "a", *args)
        assert code == 0
        code, reruns = run_cli(tmp_path / "b", *args)
        assert code == 0
        first = (runs[0] / "data.csv").read_bytes()
        second = (reruns[0] / "data.csv").read_bytes()
        assert first == second

    def test_csv_schema_and_manifest(self, tmp_path):
        code, runs = run_cli(
            tmp_path, "converge-uniform", "--ref-exp", "8", "--coarse-exps", "4,5,6",
            "--samples", "5", "--seed", "7", "--workers", "1",
        )
        assert code == 0
        header, rows = read_rows(runs[0] / "data.csv")
        assert header == [
            "h", "rms_sup_error_grid", "rms_sup_error_uniform", "samples",
            "rms_rate_sup_error_grid", "rms_rate_sup_error_uniform",
        ]
        assert len(rows) == 3
        assert [row[3] for row in rows] == ["5", "5", "5"]
        manifest = read_manifest(runs[0])
        assert "condition_multiplier_3" in manifest
        assert "condition_multiplier_7" in manifest
        for family in ("level_grid", "level_uniform", "rate_grid", "rate_uniform"):
            for key in ("slope", "intercept"):
                assert math.isfinite(float(manifest[f"{key}_{family}"])), (key, family)
        assert not {"fitted_on", "slope", "intercept"} & manifest.keys()

    def test_both_names_run_one_study(self, tmp_path):
        args = (
            "--ref-exp", "7", "--coarse-exps", "3,4,5", "--samples", "4", "--seed", "7",
            "--workers", "1",
        )
        (grid_run,) = run_cli(tmp_path / "grid", "converge-grid", *args)[1]
        (uniform_run,) = run_cli(tmp_path / "uniform", "converge-uniform", *args)[1]
        assert uniform_run.name.startswith("converge-uniform-")
        data = [(run / "data.csv").read_bytes() for run in (grid_run, uniform_run)]
        assert data[0] == data[1]
        grid, uniform = read_manifest(grid_run), read_manifest(uniform_run)
        assert (grid["command"], uniform["command"]) == ("converge-grid", "converge-uniform")
        assert grid.keys() == uniform.keys()
        differing = {key for key in grid if grid[key] != uniform[key]}
        assert differing <= {"command", "duration_seconds", "peak_rss_mb"}

    NEGATIVE_KAPPA = ("--kappa=-2", "--theta=-0.5", "--ref-exp", "6", "--samples", "4",
                      "--workers", "1")

    def test_negative_kappa_runs_below_the_step_bound(self, tmp_path):
        # kappa = -2 admits every step h < 1, so h = 2^-1 runs
        code, (run,) = run_cli(
            tmp_path, "converge-grid", *self.NEGATIVE_KAPPA, "--coarse-exps", "1,2,3"
        )
        assert code == 0
        _, rows = read_rows(run / "data.csv")
        assert len(rows) == 3
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_step_at_the_bound_exits_3_before_any_draw(self, tmp_path, monkeypatch, capsys):
        def no_draw(*args):
            raise AssertionError("sampled before the step bound was checked")

        monkeypatch.setattr(experiments, "sample_fbm_circulant", no_draw)
        code, (run,) = run_cli(
            tmp_path, "converge-grid", *self.NEGATIVE_KAPPA, "--coarse-exps", "0,1"
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error: step 1.0 violates h*max(0, -kappa/2) < 1 for kappa=-2.0\n"
        )
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]


class TestInverseMoments:
    def test_initial_node(self, tmp_path):
        code, runs = run_cli(
            tmp_path, "inverse-moments", "--steps-exp", "6", "--samples", "10",
            "--horizon", "10", "--workers", "1",
        )
        assert code == 0
        header, rows = read_rows(runs[0] / "data.csv")
        assert header == ["t", "inv_moment"]
        assert float(rows[0][1]) == 1.0
        assert len(rows) == 2**6 + 1


class TestMalliavinCheck:
    def test_gap_csv(self, tmp_path):
        code, runs = run_cli(
            tmp_path, "malliavin-check", "--ref-exp", "7", "--coarse-exps", "6,7",
            "--samples", "10", "--workers", "1",
        )
        assert code == 0
        header, rows = read_rows(runs[0] / "data.csv")
        assert header == ["h", "mean_abs_gap", "ratio_vs_prev"]
        assert rows[0][2] == "nan"
        assert float(rows[1][2]) == pytest.approx(2.0, abs=0.5)


class TestCheckConditions:
    def test_benchmark_p6_holds(self, tmp_path):
        code, runs = run_cli(tmp_path, "check-conditions", "--p", "6", "--horizon", "1")
        assert code == 0
        header, rows = read_rows(runs[0] / "data.csv")
        assert header == ["holds", "worst_margin", "worst_s", "multiplier", "method"]
        by_multiplier = {row[3]: row for row in rows}
        assert by_multiplier["7"][0] == "true"
        assert by_multiplier["7"][4] == "exact"
        assert all(float(row[2]) == 1.0 for row in rows)
        manifest = (runs[0] / "manifest.txt").read_text()
        assert "sufficient_closed_form = " in manifest

    def test_large_kappa_long_horizon_is_finite(self, tmp_path):
        code, runs = run_cli(tmp_path, "check-conditions", "--kappa", "50", "--horizon", "30")
        assert code == 0
        _, rows = read_rows(runs[0] / "data.csv")
        assert [row[3] for row in rows] == ["7", "19"]
        for holds, margin, worst_s, _, method in rows:
            assert holds == "true"
            assert math.isfinite(float(margin)) and float(margin) > 0.0
            assert float(worst_s) == 30.0
            assert method == "exact"

    def test_tiny_sigma_is_sufficient(self, tmp_path):
        # sigma^2 underflows to 0: the closed-form test is a product, with no
        # quotient by it to divide by zero
        code, (run,) = run_cli(tmp_path, "check-conditions", "--sigma", "1e-170")
        assert code == 0
        assert read_manifest(run)["sufficient_closed_form"] == "true"
        _, rows = read_rows(run / "data.csv")
        assert [row[0] for row in rows] == ["true", "true"]

    def test_overflowing_margin_exits_3(self, tmp_path, capsys):
        code, runs = run_cli(
            tmp_path, "check-conditions", "--kappa", "-50", "--theta", "-0.5", "--horizon", "30"
        )
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "overflows" in err
        assert [f.name for f in runs[0].iterdir()] == ["manifest.txt"]
        manifest = read_manifest(runs[0])
        assert manifest["status"] == "error"
        assert manifest["error"] == err.strip()[len("error: "):]


class TestFbmCheck:
    def test_all_checks_pass(self, tmp_path):
        code, runs = run_cli(
            tmp_path, "fbm-check", "--steps-exp", "5", "--samples", "400", "--seed", "3",
        )
        assert code == 0
        header, rows = read_rows(runs[0] / "data.csv")
        assert header == ["check", "statistic", "threshold", "passed"]
        assert all(row[3] == "true" for row in rows), rows
        assert (runs[0] / "sample_path.csv").exists()
        manifest = (runs[0] / "manifest.txt").read_text()
        assert "all_checks_passed = true" in manifest
        assert "data_files = data.csv,sample_path.csv" in manifest

    @pytest.mark.parametrize("hurst", ["0.05", "0.1"])
    def test_hurst_at_most_holder_epsilon_exits_3(self, tmp_path, capsys, hurst):
        # the Hoelder check needs H > 0.1; the README states fbm-check takes H in (0.1, 1)
        code, (run,) = run_cli(tmp_path, "fbm-check", "--hurst", hurst, "--steps-exp", "4")
        assert code == 3
        err = capsys.readouterr().err
        assert err == (
            f"error: the Hoelder statistic needs H > 0.1, got H = {hurst}: it measures "
            "(H - 0.1)-Hoelder quotients\n"
        )
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]
        assert read_manifest(run)["error"] == err.strip()[len("error: "):]


# A small run of every subcommand, each with some flags away from their defaults.
SMALL_RUNS = {
    "simulate": "--steps-exp 6 --sigma 0.3",
    "fbm-check": "--steps-exp 4 --samples 50",
    "converge-grid": "--ref-exp 7 --coarse-exps 3,4,5 --samples 4 --theta 0.4",
    "converge-uniform": "--ref-exp 7 --coarse-exps 3,4,5 --samples 4 --p 3",
    "inverse-moments": "--steps-exp 6 --samples 4 --horizon 0.3",
    "malliavin-check": "--ref-exp 7 --coarse-exps 5,6 --samples 4",
    "check-conditions": "--p 3 --hurst 0.65",
}


def test_manifest_flags_reproduce_the_data_files(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["converge-uniform", "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fcir converge-uniform ")

    for command in cli.SUBCOMMANDS:
        argv = [command, *SMALL_RUNS[command].split(), "--seed", "5", "--workers", "1"]
        flags = manifest_flags(argv)
        (run,) = run_cli(tmp_path / command / "first", *argv)[1]
        manifest = read_manifest(run)
        (rerun,) = run_cli(tmp_path / command / "rerun", *rerun_argv(command, manifest, flags))[1]
        assert [key for key in read_manifest(rerun) if key in flags] == flags
        for name in manifest["data_files"].split(","):
            assert (rerun / name).read_bytes() == (run / name).read_bytes(), (command, name)


class TestParser:
    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    def test_flags_only_on_the_named_subcommand(self, command):
        full, lazy = cli.build_parser(), cli.build_parser(command)
        defaults = vars(full.parse_args([command]))
        # every flag off its default: floats and ints one up, a list and a path changed
        argv = [command]
        for dest, value in defaults.items():
            if dest not in ("command", "handler"):
                text = {tuple: "3,4", str: "elsewhere"}.get(type(value)) or str(value + 1)
                argv += [f"--{dest.replace('_', '-')}", text]
        for words in ([command], argv):
            assert vars(lazy.parse_args(words)) == vars(full.parse_args(words))
        assert vars(full.parse_args(argv)) != defaults
        (sub,) = (a for a in lazy._actions if isinstance(a, argparse._SubParsersAction))
        for name, parser in sub.choices.items():
            flags = [a.option_strings for a in parser._actions]
            assert (flags == [["-h", "--help"]]) == (name != command), name

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], ["simulate", "--bogus", "1"],
        ["-x", "simulate", "--steps-exp", "4"], ["converge-grid", "--samples", "x"],
        ["fbm-check", "--kappa", "1"], *([command, "--help"] for command in cli.SUBCOMMANDS),
    ])
    def test_help_and_errors_are_those_of_the_full_parser(self, argv, capsys):
        # `main` parses with flags on one subcommand only; an unknown flag before
        # the subcommand does not hide which one argparse dispatches to
        with pytest.raises(SystemExit) as full:
            cli.build_parser().parse_args(argv)
        expected = (full.value.code, capsys.readouterr())
        assert expected[0] in (0, 2)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert (excinfo.value.code, capsys.readouterr()) == expected


class TestWarnings:
    """Every note of a run and every caught Python warning go under one `warnings` key."""

    # the benchmark model with sigma = 2 fails both inverse-moment conditions
    FAILING_CONDITIONS = (
        "converge-grid", "--sigma", "2", "--ref-exp", "8", "--coarse-exps", "4,5,6",
        "--samples", "20", "--workers", "1",
    )

    # no small run has a caveat, so each reads (none)
    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    def test_one_warnings_key_per_manifest(self, tmp_path, command):
        code, (run,) = run_cli(tmp_path, command, *SMALL_RUNS[command].split(), "--workers", "1")
        assert code == 0
        lines = (run / "manifest.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("warnings = ")] == ["warnings = (none)"]
        assert not [line for line in lines if line.startswith("report_warning")]

    def test_report_notes_in_report_order(self, tmp_path):
        code, (run,) = run_cli(tmp_path, *self.FAILING_CONDITIONS)
        assert code == 0
        args = cli.build_parser().parse_args(list(self.FAILING_CONDITIONS))
        notes = experiments.run_convergence(cli._experiment_config(args)).warnings
        assert [note.split(" fails")[0] for note in notes] == [
            "inverse-moment condition with multiplier 3",
            "inverse-moment condition with multiplier 7",
        ]
        assert read_manifest(run)["warnings"] == " | ".join(notes)

    def test_caught_warnings_follow_the_report_notes(self, tmp_path, monkeypatch):
        def warning_study(config, workers):
            warnings.warn("raised inside the handler")
            return experiments.run_convergence(config, workers=workers)

        monkeypatch.setattr(cli, "run_convergence", warning_study)
        code, (run,) = run_cli(tmp_path, *self.FAILING_CONDITIONS)
        assert code == 0
        notes = read_manifest(run)["warnings"].split(" | ")
        assert len(notes) == 3
        assert notes[0].startswith("inverse-moment condition with multiplier 3 fails")
        assert notes[1].startswith("inverse-moment condition with multiplier 7 fails")
        assert notes[2] == "raised inside the handler"

    def test_inverse_moments_notes_its_failing_conditions(self, tmp_path):
        # the conditions that fail the convergence study fail the inverse-moment
        # curve too, and its note names the bound that is no longer covered
        code, (run,) = run_cli(tmp_path, "inverse-moments", "--sigma", "2", "--steps-exp", "6",
                               "--samples", "4", "--workers", "1")
        assert code == 0
        manifest = read_manifest(run)
        assert manifest["condition_multiplier_3"].startswith("false,")
        assert manifest["condition_multiplier_7"].startswith("false,")
        notes = manifest["warnings"].split(" | ")
        assert [note.split(" fails")[0] for note in notes] == [
            "inverse-moment condition with multiplier 3",
            "inverse-moment condition with multiplier 7",
        ]
        for note in notes:
            assert note.endswith("but the inverse-moment bound is not covered")


class TestStudyRecord:
    """Each study's manifest records its block split and its step margin."""

    STUDIES = ("simulate", "converge-grid", "converge-uniform", "inverse-moments",
               "malliavin-check")

    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    def test_block_keys_are_the_blocks_run(self, tmp_path, monkeypatch, command):
        # a budget of 2 paths of 2^7 + 1 nodes splits every 4-path study in two
        # (3 paths of 2^6 + 1 fit, so 2 + 2 and not 3 + 1); simulate solves one
        monkeypatch.setattr(experiments, "_BLOCK_NODES", 2 * (2**7 + 1))
        sampled = []

        def recording(block_fn, config, start, rows):
            sampled.append(rows)
            return sample_block(block_fn, config, start, rows)

        sample_block = experiments._sample_block
        monkeypatch.setattr(experiments, "_sample_block", recording)
        code, (run,) = run_cli(tmp_path, command, *SMALL_RUNS[command].split(), "--workers", "1")
        assert code == 0
        manifest = read_manifest(run)
        if command not in self.STUDIES:
            assert not {"block_paths", "blocks", "step_margin"} & manifest.keys()
            return
        assert sampled == ([1] if command == "simulate" else [2, 2])
        assert (manifest["block_paths"], manifest["blocks"]) == (
            str(max(sampled)), str(len(sampled))
        )
        keys = list(manifest)
        assert keys.index("step_margin") == keys.index("data_files") - 1
        assert manifest["step_margin"] == "1"  # kappa > 0 leaves every step its full margin

    # processes at --workers 2: a study's 4 paths go in 2 blocks, one path in 1
    PROCESSES = {
        **{f"{command} {SMALL_RUNS[command]}": 1
           for command in ("simulate", "fbm-check", "check-conditions")},
        **{f"{command} {SMALL_RUNS[command]}": 2 for command in STUDIES[1:]},
        "inverse-moments --steps-exp 6 --samples 1": 1,
    }

    @pytest.mark.parametrize("argv", PROCESSES)
    def test_workers_records_the_processes_that_ran(self, tmp_path, monkeypatch, argv):
        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)

            def shutdown(self, cancel_futures):
                pass

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        pools = []
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InProcessPool)
        code, (run,) = run_cli(tmp_path, *argv.split(), "--workers", "2")
        assert code == 0
        manifest = read_manifest(run)
        processes = self.PROCESSES[argv]
        assert pools == ([processes] if processes > 1 else [])
        assert manifest["workers"] == str(processes)
        if "blocks" in manifest:
            assert manifest["workers"] == str(min(2, int(manifest["blocks"])))
        # the flag keeps its place among the flags
        flags = manifest_flags([*argv.split(), "--workers", "2"])
        assert [key for key in manifest if key in flags] == flags

    # h = 1/2 at kappa = -3.9 leaves xi = 0.025, and at kappa = -2 xi = 1/2; a
    # convergence study's margin is that of its coarsest grid, 2^4 steps over 8
    NARROW = "--kappa=-3.9 --theta=-0.5 --horizon 8"
    MARGINS = {
        f"simulate {NARROW} --steps-exp 4": "0.025000000000000022",
        f"converge-grid {NARROW} --ref-exp 6 --coarse-exps 5,4 --samples 2":
            "0.025000000000000022",
        "simulate --kappa=-2 --theta=-0.5 --horizon 8 --steps-exp 4": "0.5",
        "simulate --steps-exp 4": "1",
    }

    @pytest.mark.parametrize("argv", MARGINS)
    def test_step_margin_below_one_half_adds_a_note(self, tmp_path, argv):
        code, (run,) = run_cli(tmp_path, *argv.split(), "--workers", "1")
        assert code == 0
        manifest = read_manifest(run)
        assert manifest["step_margin"] == self.MARGINS[argv]
        if float(manifest["step_margin"]) < 0.5:
            # after the study's own notes (here the failing inverse-moment conditions)
            assert manifest["warnings"].split(" | ")[-1] == (
                "step margin 0.025 at h=0.5 is below 1/2: each implicit step may amplify its "
                "input by up to 40, so the run's error constant is large; use a smaller step"
            )
        else:
            assert manifest["warnings"] == "(none)"


class TestExitCodes:
    def test_invalid_flag_value_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--steps-exp", "abc", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_fbm_check_takes_no_cir_flag(self, tmp_path):
        # fbm-check samples noise only; every other subcommand starts with all six model flags
        model = ["kappa", "theta", "sigma", "r0", "hurst", "horizon"]
        for command in cli.SUBCOMMANDS.keys() - {"fbm-check"}:
            assert manifest_flags([command])[: len(model)] == model, command
        assert manifest_flags(["fbm-check"]) == [
            "hurst", "horizon", "steps_exp", "samples", "seed", "workers"
        ]
        for flag in ("--kappa", "--theta", "--sigma", "--r0"):
            with pytest.raises(SystemExit) as excinfo:
                main(["fbm-check", flag, "nan", "--steps-exp", "4", "--samples", "8",
                      "--out", str(tmp_path / "runs")])
            assert excinfo.value.code == 2
        assert not (tmp_path / "runs").exists()

    def test_domain_error_exits_3(self, tmp_path):
        code = main(
            ["simulate", "--hurst", "0.4", "--steps-exp", "4", "--out", str(tmp_path)]
        )
        assert code == 3
        (run_dir,) = tmp_path.iterdir()
        assert [f.name for f in run_dir.iterdir()] == ["manifest.txt"]
        manifest = (run_dir / "manifest.txt").read_text().splitlines()
        assert manifest[:3] == ["command = simulate", f"version = {__version__}", "status = error"]
        assert manifest[3].startswith("error = ")
        assert "H > 1/2" in manifest[3]

    @pytest.mark.parametrize(
        "command",
        ["simulate", "converge-grid", "converge-uniform", "inverse-moments", "malliavin-check",
         "check-conditions"],
    )
    def test_rough_noise_exits_3_with_one_message(self, tmp_path, capsys, command):
        # HurstParameter.require_long_memory states the H > 1/2 rule once
        code, (run,) = run_cli(tmp_path, command, "--hurst", "0.4")
        assert code == 3
        assert capsys.readouterr().err == (
            "error: the solver requires driving noise with H > 1/2, got H=0.4\n"
        )
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]

    def test_error_manifest_flags_reproduce_the_error(self, tmp_path, capsys):
        argv = ["check-conditions", "--sigma", "2e155"]
        flags = manifest_flags(argv)
        code, (run,) = run_cli(tmp_path / "first", *argv)
        assert code == 3
        lines = (run / "manifest.txt").read_text().splitlines()
        assert lines[:3] == [
            "command = check-conditions", f"version = {__version__}", "status = error"
        ]
        assert lines[3].startswith("error = ")
        manifest = read_manifest(run)
        assert list(manifest)[4:] == flags
        capsys.readouterr()
        code, (rerun,) = run_cli(tmp_path / "rerun", *rerun_argv(argv[0], manifest, flags))
        assert code == 3
        assert capsys.readouterr().err == f"error: {manifest['error']}\n"
        assert read_manifest(rerun) == manifest

    def test_non_finite_data_cell_exits_3(self, tmp_path, monkeypatch, capsys):
        # the checks are written after the sample path, which is then removed
        def nan_check(grid, hurst, samples, seed):
            return [SamplerCheck("variance", math.nan, 0.1, False)]

        monkeypatch.setattr(cli, "check_fbm_samplers", nan_check)
        code, (run,) = run_cli(tmp_path, "fbm-check", "--steps-exp", "4", "--samples", "8")
        assert code == 3
        err = capsys.readouterr().err
        assert err == (
            "error: data.csv would hold statistic = nan in data row 1; "
            "data files hold finite values only\n"
        )
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]
        manifest = read_manifest(run)
        assert manifest["status"] == "error"
        assert manifest["error"] == err.strip()[len("error: "):]

    def test_escaped_arithmetic_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def overflow(config, workers):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "simulate_paths", overflow)
        code, runs = run_cli(tmp_path, "simulate", "--steps-exp", "4")
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: OverflowError: math range error\n"
        manifest = read_manifest(runs[0])
        assert manifest["status"] == "error"
        assert manifest["error"] == "OverflowError: math range error"

    def test_write_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # the disk fills while data.csv is written: the partial file is removed
        write_lines = cli.io._write_lines

        def full_disk(target, lines):
            if target.name != "data.csv":
                return write_lines(target, lines)
            target.write_text("t,X,r\n")
            raise OSError(28, "No space left on device", str(target))

        monkeypatch.setattr(cli.io, "_write_lines", full_disk)
        code, (run,) = run_cli(tmp_path, "simulate", "--steps-exp", "4")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: OSError: [Errno 28] No space left on device: ")
        assert err.count("\n") == 1
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]
        manifest = read_manifest(run)
        assert manifest["status"] == "error"
        assert manifest["error"] == err.strip()[len("error: "):]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a pool worker sees the patched sampler only when it is forked",
    )
    def test_lost_pool_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        # a worker ends as the OOM killer would end it, mid-block
        parent, sample = os.getpid(), experiments.sample_fbm_circulant

        def killed_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return sample(*args, **kwargs)

        monkeypatch.setattr(experiments, "sample_fbm_circulant", killed_in_a_worker)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, (run,) = run_cli(
            tmp_path, "converge-grid", "--ref-exp", "6", "--coarse-exps", "2,3,4",
            "--samples", "4", "--workers", "2",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: a worker of the 2-process pool ended abruptly")
        assert "--workers" in err and "memory" in err and err.count("\n") == 1
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]
        manifest = read_manifest(run)
        assert manifest["status"] == "error"
        assert manifest["error"] == err.strip()[len("error: "):]

    def test_lost_pool_worker_ends_a_busy_one(self, tmp_path, monkeypatch, capfd):
        # one worker ends mid-block while the other sleeps in its block and a
        # third block waits in the queue: the pool sends the sleeper SIGTERM,
        # which must end it there, not run the queued block or print a traceback
        parent, sample = os.getpid(), experiments.sample_fbm_circulant

        def lost_while_the_other_sleeps(grid, hurst, seeds):
            if os.getpid() != parent:
                if seeds[0] == 1:  # the first block; the default seed is 1
                    time.sleep(0.5)
                    os._exit(1)
                time.sleep(60)
            return sample(grid, hurst, seeds)

        monkeypatch.setattr(experiments, "sample_fbm_circulant", lost_while_the_other_sleeps)
        monkeypatch.setattr(experiments, "_BLOCK_NODES", 2 * 65)  # 2 paths of 2^6 + 1 nodes
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        started = time.monotonic()
        code, (run,) = run_cli(
            tmp_path, "converge-grid", "--ref-exp", "6", "--coarse-exps", "2,3,4",
            "--samples", "6", "--workers", "2",
        )
        assert time.monotonic() - started < 30
        assert code == 3
        err = capfd.readouterr().err  # the workers' stderr too
        assert err.startswith("error: a worker of the 2-process pool ended abruptly")
        assert err.count("\n") == 1
        manifest = read_manifest(run)
        assert manifest["status"] == "error"

    # Run in its own session: 3 blocks of 2 paths on 2 workers, where the
    # first and third blocks end at once and the second runs until the test
    # releases it, so one worker waits for work and the other is busy when
    # Ctrl-C reaches the group.
    POOL_INTERRUPT = """
import os, sys, time
from pathlib import Path
from fcir import cli, experiments

parent, sample, marks = os.getpid(), experiments.sample_fbm_circulant, Path(sys.argv[1])

def marked(grid, hurst, seeds):
    if os.getpid() != parent:
        if seeds[0] == 3:  # the second block: the default seed is 1
            (marks / "busy").touch()
            while not (marks / "release").exists():
                time.sleep(0.01)
        elif seeds[0] == 5:
            (marks / "idle").touch()
    return sample(grid, hurst, seeds)

experiments.sample_fbm_circulant = marked
experiments._BLOCK_NODES = 2 * 65  # 2 paths of 2^6 + 1 nodes
cli.os.cpu_count = lambda: 2
sys.exit(cli.main(["converge-grid", "--ref-exp", "6", "--coarse-exps", "2,3,4",
                   "--samples", "6", "--workers", "2", "--out", str(marks / "runs")]))
"""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a pool worker sees the patched sampler only when it is forked",
    )
    @pytest.mark.parametrize(
        "signum, exit_code, word",
        [
            pytest.param(signal.SIGINT, 130, "interrupted", id="SIGINT"),
            pytest.param(signal.SIGTERM, 143, "terminated", id="SIGTERM"),
        ],
    )
    def test_pool_interrupt_exits_130_with_an_interrupted_manifest(
        self, tmp_path, signum, exit_code, word
    ):
        # Ctrl-C (or SIGTERM) reaches every process of the group: the idle
        # worker must not print a traceback, and the run ends once the busy
        # block has finished (it is released 0.3 s after the signal) or died
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-c", self.POOL_INTERRUPT, str(tmp_path)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not ((tmp_path / "busy").exists() and (tmp_path / "idle").exists()):
                assert proc.poll() is None and time.monotonic() < deadline, proc.poll()
                time.sleep(0.05)
            time.sleep(0.3)  # the idle worker is back waiting for work
            os.killpg(proc.pid, signum)
            time.sleep(0.3)
            (tmp_path / "release").touch()
            _, err = proc.communicate(timeout=30)
            with pytest.raises(ProcessLookupError):  # no process of the group is left
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        assert proc.returncode == exit_code
        assert err == f"error: {word}\n"
        (run,) = (tmp_path / "runs").iterdir()
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]
        manifest = read_manifest(run)
        assert (manifest["status"], manifest["error"]) == ("interrupted", word)

    def test_manifest_write_error_exits_3(self, tmp_path, monkeypatch, capsys):
        # no manifest can be written either: the error line is the only record
        def full_disk(target, values):
            raise OSError(28, "No space left on device", str(target))

        monkeypatch.setattr(cli.io, "write_key_values", full_disk)
        code, (run,) = run_cli(tmp_path, "simulate", "--steps-exp", "4")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: OSError: [Errno 28] No space left on device: ")
        assert err.endswith("manifest.txt'\n") and err.count("\n") == 1
        assert list(run.iterdir()) == []

    def test_interrupt_exits_130_with_an_interrupted_manifest(self, tmp_path, monkeypatch, capsys):
        # Ctrl-C arrives once data.csv is written: the file is removed, and the
        # manifest records the interrupt and the flags
        write_lines = cli.io._write_lines

        def interrupted_after_data(target, lines):
            write_lines(target, lines)
            if target.name == "data.csv":
                raise KeyboardInterrupt

        monkeypatch.setattr(cli.io, "_write_lines", interrupted_after_data)
        argv = ["simulate", "--steps-exp", "4"]
        try:
            code, (run,) = run_cli(tmp_path, *argv)
        except KeyboardInterrupt:  # caught here, or it would end the test session
            pytest.fail("the interrupt escaped main")
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]
        manifest = read_manifest(run)
        assert list(manifest.items())[:4] == [
            ("command", "simulate"), ("version", __version__), ("status", "interrupted"),
            ("error", "interrupted"),
        ]
        assert list(manifest)[4:] == manifest_flags(argv)
        assert manifest["steps_exp"] == "4"

    def test_sigterm_exits_143_with_a_terminated_manifest(self, tmp_path, monkeypatch, capsys):
        # SIGTERM arrives once data.csv is written: the file is removed, the
        # manifest records the termination and the flags, and the handlers in
        # place before the run are back in place after it
        write_lines = cli.io._write_lines

        def terminated_after_data(target, lines):
            write_lines(target, lines)
            if target.name == "data.csv":
                os.kill(os.getpid(), signal.SIGTERM)

        def escaped(signum, frame):
            raise AssertionError("SIGTERM reached the handler in place before the run")

        monkeypatch.setattr(cli.io, "_write_lines", terminated_after_data)
        previous = signal.signal(signal.SIGTERM, escaped)  # or SIGTERM ends the test session
        interrupt = signal.getsignal(signal.SIGINT)
        argv = ["simulate", "--steps-exp", "4"]
        try:
            code, (run,) = run_cli(tmp_path, *argv)
            assert signal.getsignal(signal.SIGTERM) is escaped
            assert signal.getsignal(signal.SIGINT) is interrupt
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert code == 143
        assert capsys.readouterr().err == "error: terminated\n"
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]
        manifest = read_manifest(run)
        assert list(manifest.items())[:4] == [
            ("command", "simulate"), ("version", __version__), ("status", "interrupted"),
            ("error", "terminated"),
        ]
        assert list(manifest)[4:] == manifest_flags(argv)

    def test_second_interrupt_cannot_cut_the_manifest_short(self, tmp_path, monkeypatch, capsys):
        # Ctrl-C twice: the first arrives once data.csv is written, the second
        # as the interrupted manifest is about to be written
        write_lines, write_key_values = cli.io._write_lines, cli.io.write_key_values

        def interrupted_after_data(target, lines):
            write_lines(target, lines)
            if target.name == "data.csv":
                raise KeyboardInterrupt

        def interrupted_again(target, values):
            os.kill(os.getpid(), signal.SIGINT)
            write_key_values(target, values)

        monkeypatch.setattr(cli.io, "_write_lines", interrupted_after_data)
        monkeypatch.setattr(cli.io, "write_key_values", interrupted_again)
        try:
            code, (run,) = run_cli(tmp_path, "simulate", "--steps-exp", "4")
        except KeyboardInterrupt:  # caught here, or it would end the test session
            pytest.fail("the second interrupt escaped main")
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]
        manifest = read_manifest(run)
        assert (manifest["status"], manifest["error"]) == ("interrupted", "interrupted")

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_signal_after_the_ok_manifest_is_ignored(self, tmp_path, monkeypatch, capsys, signum):
        # the run is done once its ok manifest is written: a stop signal then
        # changes nothing, and the caller's handlers are back after the run
        write_key_values = cli.io.write_key_values
        reached = []

        def signalled_after_writing(target, values):
            write_key_values(target, values)
            os.kill(os.getpid(), signum)

        def caller(signum, frame):  # in place of the caller's own, which could end the session
            reached.append(signum)

        monkeypatch.setattr(cli.io, "write_key_values", signalled_after_writing)
        previous = {stop: signal.signal(stop, caller) for stop in (signal.SIGINT, signal.SIGTERM)}
        try:
            code, (run,) = run_cli(tmp_path, "simulate", "--steps-exp", "4")
            handlers = [signal.getsignal(stop) for stop in previous]
        finally:
            for stop, handler in previous.items():
                signal.signal(stop, handler)
        assert code == 0
        assert capsys.readouterr().err == ""
        assert read_manifest(run)["status"] == "ok"
        assert sorted(f.name for f in run.iterdir()) == ["data.csv", "manifest.txt"]
        assert handlers == [caller, caller]
        assert reached == []

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_signal_the_caller_ignores_stays_ignored(self, tmp_path, monkeypatch, signum):
        # a caller that ignores a stop signal, as a shell does SIGINT for a
        # background job, keeps it ignored through the run
        write_lines = cli.io._write_lines

        def signalled_after_data(target, lines):
            write_lines(target, lines)
            if target.name == "data.csv":
                os.kill(os.getpid(), signum)

        monkeypatch.setattr(cli.io, "_write_lines", signalled_after_data)
        previous = signal.signal(signum, signal.SIG_IGN)
        try:
            code, (run,) = run_cli(tmp_path, "simulate", "--steps-exp", "4")
            handler = signal.getsignal(signum)
        finally:
            signal.signal(signum, previous)
        assert code == 0
        assert handler == signal.SIG_IGN
        assert read_manifest(run)["status"] == "ok"

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    @pytest.mark.parametrize("trial", [1, 2])
    def test_signal_after_the_manifest_exits_0(self, tmp_path, signum, trial):
        # `python -m fcir` in its own session gets the signal as soon as its ok
        # manifest exists, while it may be printing or shutting down
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "fcir", "simulate", "--steps-exp", "12", "--workers", "1",
             "--out", str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not any(tmp_path.glob("*/manifest.txt")):
                assert proc.poll() is None and time.monotonic() < deadline, proc.poll()
                time.sleep(0.001)
            os.killpg(proc.pid, signum)
            _, err = proc.communicate(timeout=30)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        assert proc.returncode == 0
        assert err == ""
        (run,) = tmp_path.iterdir()
        assert read_manifest(run)["status"] == "ok"

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--steps-exp", "60"),
            ("simulate", "--steps-exp", "62"),
            ("simulate", "--steps-exp", "64"),
            ("converge-grid", "--ref-exp", "62"),
            # 2^20000 has more digits than int-to-str conversion allows
            ("simulate", "--steps-exp", "20000"),
            ("converge-grid", "--ref-exp", "20000"),
        ],
    )
    def test_oversized_grid_exits_3(self, tmp_path, capsys, argv):
        code, runs = run_cli(tmp_path, *argv)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"2^{argv[2]} steps are too many" in err
        assert [f.name for f in runs[0].iterdir()] == ["manifest.txt"]
        assert read_manifest(runs[0])["status"] == "error"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # c = kappa*h*theta*(2 + kappa*h) overflows to inf or underflows to 0
            ("converge-uniform --kappa 1e300 --ref-exp 6 --coarse-exps 2,3 --samples 2 "
             "--workers 1", "= inf for kappa"),
            # the same error raised in a pool of two processes, one block each
            ("converge-uniform --kappa 1e300 --ref-exp 6 --coarse-exps 2,3 --samples 2 "
             "--workers 2", "= inf for kappa"),
            ("inverse-moments --kappa 1e300 --steps-exp 4 --samples 2 --workers 1",
             "= inf for kappa"),
            ("simulate --kappa 1e-160 --theta 1e-163 --steps-exp 4 --horizon 1 --workers 1",
             "= 0.0 for kappa"),
            ("simulate --kappa 1e300 --steps-exp 6 --workers 1", "= inf for kappa"),
            # a*a overflows in the first step
            ("simulate --sigma 1e160 --steps-exp 4 --workers 1", "level inf at step 1"),
            ("converge-grid --coarse-exps 4,4 --ref-exp 8 --samples 4 --workers 1", "distinct"),
            # e^400 underflows for every error
            ("converge-grid --p 400 --ref-exp 8 --coarse-exps 4,5 --samples 4 --workers 1",
             "under- or overflows; use a smaller p"),
            # the condition margin overflows; no data file is written before it
            ("inverse-moments --sigma 1e153 --horizon 1 --steps-exp 6 --samples 4 --p 1000 "
             "--workers 1", "margin overflows"),
            # sigma^2 overflows a double
            ("check-conditions --sigma 2e155", "margin overflows"),
            # kappa < 0: the kernel integral is about e^(1e60) and e^(5e299),
            # refused from its logarithm without forming e^z
            ("check-conditions --kappa=-2 --theta=-0.5 --horizon=1e60", "margin overflows"),
            ("check-conditions --kappa=-1e+300 --theta=-1e+300", "margin overflows"),
            # -inf as its own word is the flag's value, not an option (exit 2)
            ("check-conditions --theta -inf", "theta must be finite"),
            # the smallest circulant embedding eigenvalue is -4.28e-8 times the largest
            ("simulate --steps-exp 19 --hurst 0.999 --workers 1", "not nonnegative definite"),
            # every level is finite and positive, but x^(-2) overflows below ~1e-154
            ("inverse-moments --r0 1e-300 --theta 1e-300 --steps-exp 6 --samples 4 "
             "--workers 1", "E[x^(-2)]^(1/2) reads inf at node 1"),
            # every level is positive, but x^(-3) underflows to 0 above ~1e150
            ("inverse-moments --r0 1e300 --p 3 --steps-exp 4 --samples 3 --workers 1",
             "E[x^(-3)]^(1/3) reads 0.0 at node 0 (t=0): x^(-3) or its sum over paths "
             "under- or overflows"),
            # a negative grid exponent is named by its exponent, not by 2^e
            ("simulate --steps-exp -1", "2^-1 steps: a grid exponent must be at least 0"),
            ("fbm-check --steps-exp -3", "2^-3 steps: a grid exponent must be at least 0"),
            ("inverse-moments --steps-exp -1", "2^-1 steps: a grid exponent must be at least 0"),
            ("converge-grid --ref-exp -1", "2^-1 steps: a grid exponent must be at least 0"),
            # sigma/2 underflows, so every gap is 0 and every ratio would be nan
            ("malliavin-check --sigma 5e-324 --ref-exp 7 --coarse-exps 1,7 --samples 7 "
             "--workers 1", "gap reads 0.0 at h=0.5"),
            # the levels overflow, so every gap is nan
            ("malliavin-check --theta 7.43e-182 --sigma 1.44e137 --ref-exp 3 --coarse-exps 0,2 "
             "--samples 2 --workers 1", "gap reads nan at h=1.0"),
            # the squared covariances underflow to 0 beside a nonzero difference
            ("fbm-check --horizon 1e-160 --steps-exp 4 --samples 24",
             "covariance z-scores are not finite"),
            # the squared covariances overflow, so every z-score would read 0
            ("fbm-check --horizon 1e200 --steps-exp 4 --samples 24 --workers 1",
             "covariance z-score scale reads inf at horizon 1e+200"),
            # the same over 5 row blocks of z-scores
            ("fbm-check --horizon 1e200 --steps-exp 9 --samples 24",
             "covariance z-score scale reads inf at horizon 1e+200"),
            # step^(2H) underflows, so the fGn covariance is all zeros
            ("fbm-check --horizon 1e-300 --steps-exp 3 --samples 5",
             "fGn variance step^(2H) underflows to 0 at step 1.25e-301 (horizon / steps) and "
             "H = 0.7: use a larger horizon"),
            # horizon^(2H) overflows a double, though step^(2H) does not
            ("fbm-check --horizon 1e222 --steps-exp 4 --samples 24",
             "horizon^(2H) overflows double precision at horizon 1e+222 and H = 0.7"),
            # c = kappa*h*theta*(2 + kappa*h) overflows at h = 6.25e+298, as in
            # converge-grid, and is refused before any draw
            ("simulate --horizon 1e300 --steps-exp 4",
             "= inf for kappa=2.0, theta=0.5, h=6.25e+298"),
            # with c finite, step^(2H) overflows a double in the fGn autocovariance
            ("simulate --horizon 1e300 --steps-exp 4 --kappa 1e-100 --theta 1e-100",
             "step^(2H) overflows double precision at step 6.25e+298 (horizon / steps) "
             "and H = 0.7"),
        ],
    )
    def test_invalid_state_exits_3(self, tmp_path, capsys, argv, message):
        code, runs = run_cli(tmp_path, *argv.split())
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert [f.name for f in runs[0].iterdir()] == ["manifest.txt"]
        assert read_manifest(runs[0])["status"] == "error"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("simulate --kappa 1e300", "kappa*h*theta*(2 + kappa*h) = inf for kappa=1e+300"),
            ("simulate --kappa=-2 --theta=-0.5 --steps-exp 0",
             "step 10.0 violates h*max(0, -kappa/2) < 1 for kappa=-2.0"),
            ("simulate --hurst 0.4", "the solver requires driving noise with H > 1/2, got H=0.4"),
        ],
    )
    def test_simulate_refused_before_any_draw(self, tmp_path, monkeypatch, capsys, argv, message):
        # simulate checks its one path as a study config before sampling it;
        # the sampler is replaced wherever an fcir module binds it
        def no_draw(*args):
            raise AssertionError("sampled before the config was checked")

        for name, module in list(sys.modules.items()):
            if name.startswith("fcir") and vars(module).get("sample_fbm_circulant") is not None:
                monkeypatch.setattr(module, "sample_fbm_circulant", no_draw)
        code, (run,) = run_cli(tmp_path, *argv.split())
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_one_exits_2(self, tmp_path, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--workers", value, "--out", str(tmp_path / "runs")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "runs").exists()

    def test_workers_clamped_to_cpu_count(self, tmp_path, monkeypatch):
        # one CPU reported: the run stays in process whatever --workers says
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        code, runs = run_cli(
            tmp_path, "converge-grid", "--ref-exp", "6", "--coarse-exps", "3,4",
            "--samples", "2", "--workers", "64",
        )
        assert code == 0
        assert read_manifest(runs[0])["workers"] == "1"

    def test_out_at_a_file_exits_2(self, tmp_path, capsys):
        # no run directory can be made, so there is no manifest either
        target = tmp_path / "file"
        target.write_text("kept\n")
        assert main(["check-conditions", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert target.read_text() == "kept\n"

    def test_runs_started_at_once_take_their_own_directories(self, tmp_path, monkeypatch):
        # a run started in the same second makes this run's directory between
        # the name's choice and its mkdir: this run takes the next suffix
        monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20261020-210000")
        mkdir = Path.mkdir

        def raced(path, *args, **kwargs):
            if path.name == "check-conditions-20261020-210000":
                os.mkdir(path)  # the other run's
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", raced)
        code, (taken, run) = run_cli(tmp_path, "check-conditions")
        assert code == 0
        assert (taken.name, run.name) == (
            "check-conditions-20261020-210000", "check-conditions-20261020-210000-2"
        )
        assert list(taken.iterdir()) == []
        assert read_manifest(run)["status"] == "ok"

    def test_negative_float_as_its_own_word_is_a_value(self, tmp_path):
        code, (spaced,) = run_cli(
            tmp_path / "spaced", "check-conditions", "--kappa", "-1e-3", "--theta", "-0.5"
        )
        assert code == 0
        code, (joined,) = run_cli(
            tmp_path / "joined", "check-conditions", "--kappa=-1e-3", "--theta=-0.5"
        )
        assert code == 0
        assert (spaced / "data.csv").read_bytes() == (joined / "data.csv").read_bytes()
        assert read_manifest(spaced)["kappa"] == "-0.001"

    def test_bad_parameters_exit_3(self, tmp_path):
        code = main(
            ["simulate", "--sigma", "-1", "--steps-exp", "4", "--out", str(tmp_path)]
        )
        assert code == 3


SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(code, cwd, package="scipy"):
    """The modules of package loaded after `code` runs in a fresh interpreter on src."""
    probe = (
        f"{code}\nimport sys\n"
        f"print(*(m for m in sys.modules if (m + '.').startswith({package!r} + '.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


class TestStartup:
    # scipy would take most of the start-up time; no fcir code imports it
    def test_import_loads_no_scipy(self, tmp_path):
        assert modules_after("import fcir, fcir.cli", tmp_path) == set()

    # numpy.random adds 10-13 ms; only the samplers import it
    def test_import_loads_no_numpy_random(self, tmp_path):
        assert modules_after("import fcir, fcir.cli", tmp_path, "numpy.random") == set()

    # the process pool loads multiprocessing; only a run with --workers 2 or
    # more imports it
    def test_import_loads_no_multiprocessing(self, tmp_path):
        assert modules_after("import fcir, fcir.cli", tmp_path, "multiprocessing") == set()

    # the sampler checks compute their KS p-value in numpy, and the
    # inverse-moment condition sums its kernel integral with the math module
    @pytest.mark.parametrize("command", cli.SUBCOMMANDS)
    def test_subcommand_loads_no_scipy(self, tmp_path, command):
        argv = [command, *SMALL_RUNS[command].split(), "--workers", "1", "--out", "runs"]
        code = f"from fcir.cli import main\nassert main({argv!r}) == 0"
        assert modules_after(code, tmp_path) == set()


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["closed-pipe", "dev-full"])
class TestUnwritableStreams:
    # a run's record is its files and its exit code: its manifest is written
    # before its one terminal line, so a stdout or stderr that cannot take the
    # line changes neither

    def run_fcir(self, argv, stream, target, buffering):
        """`python -m fcir argv` with `stream` on an unwritable target; its other stream is read."""
        if target == "closed-pipe":
            reader, descriptor = os.pipe()
            os.close(reader)
        elif os.path.exists("/dev/full"):
            descriptor = os.open("/dev/full", os.O_WRONLY)
        else:
            pytest.skip("no /dev/full")
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: descriptor}
        try:
            return subprocess.run([sys.executable, "-m", "fcir", *argv], env=env, timeout=60,
                                  **streams)
        finally:
            os.close(descriptor)

    def test_unwritable_stdout_leaves_exit_0(self, tmp_path, target, buffering):
        done = self.run_fcir(["check-conditions", "--out", str(tmp_path)], "stdout", target,
                             buffering)
        assert (done.returncode, done.stderr) == (0, b"")
        (run,) = tmp_path.iterdir()
        assert read_manifest(run)["status"] == "ok"

    def test_unwritable_stderr_leaves_exit_3_and_the_error_manifest(
        self, tmp_path, target, buffering
    ):
        argv = ["converge-grid", "--sigma", "inf", "--samples", "2", "--ref-exp", "6",
                "--coarse-exps", "3,4", "--out", str(tmp_path)]
        done = self.run_fcir(argv, "stderr", target, buffering)
        assert (done.returncode, done.stdout) == (3, b"")
        (run,) = tmp_path.iterdir()
        assert [f.name for f in run.iterdir()] == ["manifest.txt"]
        assert read_manifest(run)["status"] == "error"

    def test_unwritable_stderr_leaves_exit_2(self, tmp_path, target, buffering):
        out = tmp_path / "file"
        out.write_text("kept\n")
        done = self.run_fcir(["check-conditions", "--out", str(out)], "stderr", target, buffering)
        assert (done.returncode, done.stdout) == (2, b"")
        assert [f.name for f in tmp_path.iterdir()] == ["file"]
