import json
import math
import os
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import buffon.cli as cli
import buffon.estimators as estimators
from buffon.cli import build_parser, main
from buffon.estimators import run_batch
from buffon.sampling import RngConfig

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
TEST_PID = os.getpid()


def _die_in_worker(unit):
    """Stand-in work unit: kills the pool worker that runs it."""
    if os.getpid() == TEST_PID:
        raise AssertionError("the unit ran in the test process, not in a pool worker")
    os._exit(1)


class TestEstimateCommand:
    def test_triangle_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["estimate", "--trials", "200000", "--seed", "42", "--json", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed = 42" in out
        assert "count_x =" in out and "count_y =" in out
        assert "pi estimate = " in out
        report = json.loads(report_path.read_text())
        assert set(report) == {"method", "trials", "seed", "count_x", "count_y", "pi_estimate", "standard_error"}
        assert report["method"] == "triangle"
        assert report["trials"] == 200000
        assert report["seed"] == 42
        assert 3.0 < report["pi_estimate"] < 3.3
        assert report["pi_estimate"] == 12.0 * 200000 / (report["count_x"] + report["count_y"])

    def test_readme_example_output(self, capsys):
        # The README shows this command's full stdout; it also pins the kernel's counts.
        text = README.read_text(encoding="utf-8")
        intro = "`estimate` prints the per-family crossing rates and the pi estimate:\n\n```\n"
        shown = text.split(intro, 1)[1].split("```", 1)[0]
        assert main(["estimate", "--trials", "1000000", "--seed", "42"]) == 0
        assert capsys.readouterr().out == shown

    def test_estimate_in_five_sigma_band(self, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["estimate", "--trials", "1000000", "--seed", "42", "--json", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert 3.10 < report["pi_estimate"] < 3.18

    def test_needle_report(self, tmp_path):
        report_path = tmp_path / "needle.json"
        rc = main([
            "estimate", "--method", "needle", "--ratio", "0.5",
            "--trials", "100000", "--seed", "1", "--json", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"method", "trials", "seed", "hits", "ratio", "pi_estimate", "standard_error"}
        assert abs(report["hits"] / report["trials"] - 1 / math.pi) < 0.01

    def test_generated_seed_is_printed(self, capsys):
        rc = main(["estimate", "--trials", "1000"])
        assert rc == 0
        assert "(generated)" in capsys.readouterr().out

    def test_identical_flags_identical_report(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["estimate", "--trials", "50000", "--seed", "3", "--json", str(a)]) == 0
        assert main(["estimate", "--trials", "50000", "--seed", "3", "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_trials_is_usage_error(self):
        assert main(["estimate", "--trials", "0", "--seed", "1"]) == 1

    def test_ratio_with_triangle_is_usage_error(self):
        assert main(["estimate", "--ratio", "0.5", "--seed", "1"]) == 1

    def test_unknown_method_is_usage_error(self):
        assert main(["estimate", "--method", "square", "--seed", "1"]) == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_usage_error(self, capsys, workers):
        assert main(["estimate", "--trials", "100", "--seed", "1", "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the seed line, so before any work
        assert "--workers must be >= 1" in captured.err

    @pytest.mark.parametrize("command", [["estimate", "--trials", "10"], ["batch", "--runs", "2", "--trials", "10"]])
    @pytest.mark.parametrize("ratio", ["0", "-0.5", "1.5", "nan"])
    def test_needle_ratio_outside_the_unit_interval_is_usage_error(self, capsys, command, ratio):
        assert main([*command, "--seed", "1", "--method", "needle", "--ratio", ratio]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the seed line, so before any work
        assert "--ratio must lie in (0, 1]" in captured.err

    @pytest.mark.parametrize("method", [["--method", "triangle"], ["--method", "needle", "--ratio", "0.5"]])
    def test_worker_count_keeps_bytes_identical(self, monkeypatch, tmp_path, capsys, method):
        # Pool units of one block: this process draws the first block, and the
        # pool two more and a tail of 5 casts, so there are more units than workers.
        monkeypatch.setattr(estimators, "_TASK_CASTS", estimators._BLOCK)
        outputs = {}
        for workers in ("1", "2", "3"):
            report = tmp_path / f"w{workers}.json"
            rc = main([
                "estimate", *method, "--trials", str(3 * 65536 + 5), "--seed", "21",
                "--workers", workers, "--json", str(report),
            ])
            assert rc == 0
            outputs[workers] = (capsys.readouterr().out, report.read_bytes())
        assert outputs["1"] == outputs["2"] == outputs["3"]


class TestBatchCommand:
    def test_csv_matches_library_estimates(self, tmp_path):
        csv_path = tmp_path / "runs.csv"
        rc = main(["batch", "--runs", "4", "--trials", "2000", "--seed", "7", "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "run,pi_estimate"
        assert len(lines) == 5
        expected = run_batch(4, 2000, RngConfig(7, 0))
        for k, line in enumerate(lines[1:]):
            run, estimate = line.split(",")
            assert int(run) == k
            assert float(estimate) == expected.estimates[k]

    def test_worker_count_keeps_bytes_identical(self, tmp_path):
        outputs = {}
        for workers in ("1", "2"):
            csv_path = tmp_path / f"w{workers}.csv"
            svg_path = tmp_path / f"w{workers}.svg"
            rc = main([
                "batch", "--runs", "6", "--trials", "1000", "--seed", "9",
                "--workers", workers, "--csv", str(csv_path), "--svg", str(svg_path),
            ])
            assert rc == 0
            outputs[workers] = (csv_path.read_bytes(), svg_path.read_bytes())
        assert outputs["1"] == outputs["2"]

    def test_summary_line(self, capsys):
        rc = main(["batch", "--runs", "3", "--trials", "1000", "--seed", "11"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean = " in out and "stddev = " in out and "95% CI = [" in out

    def test_histogram_svg_parses(self, tmp_path):
        svg_path = tmp_path / "hist.svg"
        rc = main(["batch", "--runs", "8", "--trials", "1000", "--seed", "13", "--svg", str(svg_path), "--bins", "5"])
        assert rc == 0
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        bars = [el for el in root if el.tag.endswith("rect") and el.get("fill") == "black"]
        assert len(bars) == 5

    def test_zero_runs_is_usage_error(self):
        assert main(["batch", "--runs", "0", "--seed", "1"]) == 1

    @pytest.mark.parametrize("bins", ["0", "-2"])
    def test_nonpositive_bins_is_usage_error(self, capsys, bins):
        assert main(["batch", "--runs", "2", "--trials", "100", "--seed", "1", "--bins", bins]) == 1
        captured = capsys.readouterr()
        assert "--bins must be >= 1" in captured.err
        assert "seed" not in captured.out

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_usage_error(self, capsys, workers):
        assert main(["batch", "--runs", "2", "--trials", "100", "--seed", "1", "--workers", workers]) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err


class TestRenderCommand:
    def test_writes_named_files_and_tallies(self, tmp_path, capsys):
        out_dir = tmp_path / "imgs"
        rc = main(["render", "--images", "3", "--seed", "5", "--out", str(out_dir)])
        assert rc == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["plot00.svg", "plot01.svg", "plot02.svg"]
        out = capsys.readouterr().out
        assert "plot00.svg: count_x = " in out
        for name in names:
            ET.fromstring((out_dir / name).read_text())

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["render", "--images", "2", "--seed", "6", "--out", str(first)]) == 0
        assert main(["render", "--images", "2", "--seed", "6", "--out", str(second)]) == 0
        for name in ("plot00.svg", "plot01.svg"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_zero_images(self, tmp_path):
        out_dir = tmp_path / "empty"
        assert main(["render", "--images", "0", "--seed", "1", "--out", str(out_dir)]) == 0
        assert list(out_dir.iterdir()) == []

    def test_negative_images_is_usage_error(self):
        assert main(["render", "--images", "-1", "--seed", "1"]) == 1

    def test_unwritable_output_fails(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        assert main(["render", "--images", "1", "--seed", "1", "--out", str(blocker)]) == 2


class TestValidateCommand:
    def test_default_resolution_passes(self, capsys):
        rc = main(["validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "quadrature (360x200x200) = " in out
        assert "closed form 12/pi = 3.819719" in out
        assert "PASS" in out

    def test_coarse_lattice_value_close_but_fails_tolerance(self, capsys):
        rc = main(["validate", "--resolution", "8"])
        assert rc == 2
        out = capsys.readouterr().out
        value = float(out.split("quadrature (8x8x8) = ")[1].splitlines()[0])
        assert abs(value - 12 / math.pi) < 0.1
        assert "FAIL" in out

    def test_coarse_lattice_passes_loose_tolerance(self):
        assert main(["validate", "--resolution", "8", "--tolerance", "0.1"]) == 0

    def test_tight_tolerance_fails(self):
        assert main(["validate", "--resolution", "16", "--tolerance", "1e-6"]) == 2

    @pytest.mark.parametrize("trials, why", [
        ("1", "undefined for one trial"),
        ("2", "0, as every cast crossed as many lines"),
    ])
    def test_monte_carlo_leg_without_a_standard_error_says_why_it_fails(self, capsys, trials, why):
        # At seed 1 the one cast, and both of two casts, cross four lines.
        assert main(["validate", "--resolution", "8", "--tolerance", "0.1", "--mc-trials", trials, "--seed", "1"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[-3:] == [
            f"monte carlo mean ({trials} trials) = 4.000000",
            f"monte carlo standard error is {why}, so the 3-sigma test cannot run",
            "FAIL (tolerance 0.1)",
        ]

    def test_monte_carlo_leg(self, capsys):
        rc = main(["validate", "--mc-trials", "200000", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "monte carlo mean (200000 trials) = " in out
        assert "standard errors" in out
        assert "PASS" in out

    @pytest.mark.parametrize("tolerance", ["0", "-0.001", "nan", "inf"])
    def test_tolerance_that_always_fails_is_usage_error(self, capsys, tolerance):
        assert main(["validate", "--mc-trials", "1000", "--seed", "1", "--tolerance", tolerance]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the quadrature
        assert "--tolerance must be a positive finite number" in captured.err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_mc_trials_is_usage_error(self, capsys, trials):
        assert main(["validate", "--resolution", "8", "--mc-trials", trials, "--seed", "1"]) == 1
        assert "--mc-trials must be >= 1" in capsys.readouterr().err

    def test_oversized_lattice_is_runtime_error(self, capsys):
        # 2e6 x 2e7 lattice points ask numpy for 291 TiB, refused at allocation.
        assert main(["validate", "--resolution", "2000000x20000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err

    def test_bad_resolution_strings(self):
        assert main(["validate", "--resolution", "abc"]) == 1
        assert main(["validate", "--resolution", "360x200x100"]) == 1


class TestWorkers:
    def test_default_is_the_usable_cpus(self):
        parser = build_parser()
        usable = len(os.sched_getaffinity(0))
        assert parser.parse_args(["estimate"]).workers == usable
        assert parser.parse_args(["batch"]).workers == usable

    def test_default_without_affinity_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert build_parser().parse_args(["estimate"]).workers == (os.cpu_count() or 1)

    def test_dead_worker_is_runtime_error(self, monkeypatch, capfd):
        # Fork workers inherit the patched unit and exit without a result.
        monkeypatch.setattr(estimators, "tally_casts", _die_in_worker)
        rc = main(["estimate", "--trials", str(2 * 65536), "--seed", "1", "--workers", "2"])
        assert rc == 2
        err = capfd.readouterr().err
        assert err.startswith("error: a worker process died")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_interrupt_is_runtime_error(self, monkeypatch, capsys):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_batch", interrupt)
        assert main(["batch", "--runs", "2", "--trials", "100", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: interrupted\n"

    @staticmethod
    def _interrupt(argv, delay):
        """Run ``argv`` with ``src`` on the path, and send SIGINT to its process
        group, as a terminal's Ctrl-C does, ``delay`` s after its seed line.  It
        must stop within 10 s, well under one of the longest units."""
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            assert proc.stdout.readline() == "seed = 1\n"
            time.sleep(delay)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        return proc.returncode, out, err

    @pytest.mark.parametrize("trials", ["1000000000", "10000000000", "1000000000000"])
    def test_ctrl_c_stops_a_long_run_without_a_traceback(self, trials):
        # Minutes to days of work on two workers, so the queued units must be
        # dropped and the running one stopped.  Half a second in, this process is
        # drawing its half of the casts and the pool holds the other half: 1908
        # units at 1e9 casts, 4016 larger ones at 1e10 and 4096 of 1.2e8 casts
        # (a minute each) at 1e12.
        argv = ["-m", "buffon.cli", "estimate", "--trials", trials, "--seed", "1", "--workers", "2"]
        assert self._interrupt(argv, 0.5) == (2, "", "error: interrupted\n")

    def test_ctrl_c_stops_a_long_batch_without_a_traceback(self):
        # Four runs of 1e10 casts: 4072 queued tasks of about 1e7 casts each.
        argv = ["-m", "buffon.cli", "batch", "--runs", "4", "--trials", "10000000000", "--seed", "1", "--workers", "2"]
        assert self._interrupt(argv, 0.5) == (2, "", "error: interrupted\n")

    @pytest.mark.parametrize("cpus, argv", [
        (3, ["estimate", "--trials", "200000", "--workers", "1"]),
        (3, ["estimate", "--trials", "65536", "--workers", "3"]),
        (3, ["batch", "--runs", "3", "--trials", "100000", "--workers", "1"]),
        (3, ["batch", "--runs", "1", "--trials", "65536", "--workers", "3"]),
        (1, ["validate", "--mc-trials", "200000"]),
        (3, ["validate", "--mc-trials", "65536"]),
    ], ids=["estimate-1-worker", "estimate-1-block", "batch-1-worker", "batch-1-block",
            "validate-1-cpu", "validate-1-block"])
    def test_one_worker_or_one_block_starts_no_pool(self, monkeypatch, cpus, argv):
        # validate's Monte Carlo leg runs on every usable CPU.
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(estimators, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert main([*argv, "--seed", "1"]) == 0

    def test_ctrl_c_with_an_idle_worker_prints_no_traceback(self):
        # This process is busy with its share of the casts; the one pool worker
        # has finished its unit and waits for work when the signal comes.
        script = """
import sys, time
import buffon.cli as cli, buffon.estimators as estimators
def head(n, rng):
    time.sleep(2)
estimators.tally_casts = lambda task: [(0, 1, 1)] * len(task[1])
cli.run_triangle_trials = head
sys.exit(cli.main(["estimate", "--trials", "131072", "--seed", "1", "--workers", "2"]))
"""
        assert self._interrupt(["-c", script], 0.5) == (2, "", "error: interrupted\n")


class TestTopLevel:
    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    @pytest.mark.parametrize("command", [
        ["estimate", "--trials", "10"],
        ["batch", "--runs", "2", "--trials", "10"],
        ["render", "--images", "1"],
        ["validate", "--mc-trials", "10"],
    ])
    def test_seed_outside_64_bits_is_usage_error(self, monkeypatch, tmp_path, capsys, command, seed):
        # Rejected before any output or work: no seed line, no quadrature, no file.
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the seed was checked")

        monkeypatch.setattr(cli, "expected_crossings_quadrature", no_work)
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed must lie in [0, 2**64), got {seed}\n"
        assert list(tmp_path.iterdir()) == []

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
