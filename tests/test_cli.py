import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import buffon.cli as cli
import buffon.estimators as estimators
import buffon.oracle as oracle
from buffon.cli import build_parser, main
from buffon.estimators import (
    estimate_pi_needle,
    estimate_pi_triangle,
    run_batch,
    run_needle_trials,
    run_triangle_trials,
)
from buffon.geometry import GridSpec, TriangleSpec, crossings_per_cast
from buffon.render import HistogramScene, render_cast, render_histogram, scene_for_cast
from buffon.sampling import RngConfig, sample_cast

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
TEST_PID = os.getpid()


def _die_in_worker(task):
    """Stand-in ``tally_casts``: kills the child process that runs it."""
    if os.getpid() == TEST_PID:
        raise AssertionError("the task ran in the test process, not in a child")
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

    def test_generated_seed_is_eight_little_endian_bytes_of_os_urandom(self, monkeypatch, capsys):
        # The printed seed is the one the run used: the same flags with it given give the same counts.
        monkeypatch.setattr(os, "urandom", lambda n: bytes(range(1, n + 1)))
        assert main(["estimate", "--trials", "1000"]) == 0
        seed_line, *rest = capsys.readouterr().out.splitlines()
        assert seed_line == "seed = 578437695752307201 (generated)"  # 0x0807060504030201
        assert main(["estimate", "--trials", "1000", "--seed", "578437695752307201"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == rest

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
        # On three usable CPUs: at 2 workers this process draws two blocks and
        # one child a block and a tail of 5 casts; at 3 workers this process
        # draws two blocks, and two children one block and the tail.
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 3)
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

    def test_seed_without_mc_trials_is_usage_error(self, capsys):
        # Without the Monte Carlo leg nothing is drawn, so the seed would do nothing.
        assert main(["validate", "--resolution", "8", "--seed", "5"]) == 1
        assert capsys.readouterr() == ("", "error: --seed only applies with --mc-trials\n")

    def test_oversized_lattice_is_runtime_error(self, capsys):
        # 2e6 x 2e7 lattice points ask numpy for 291 TiB, refused at allocation.
        assert main(["validate", "--resolution", "2000000x20000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert "Traceback" not in err

    def test_bad_resolution_strings(self):
        assert main(["validate", "--resolution", "abc"]) == 1
        assert main(["validate", "--resolution", "360x200x100"]) == 1

    @pytest.mark.parametrize("text, sizes", [
        ("8", (8, 8)),
        ("16x8", (16, 8)),
        ("360x200x200", (360, 200)),
        ("8,,8", (8, 8)),
        ("+5x 6", (5, 6)),
        ("8xx8x8", (8, 8)),
    ])
    def test_resolution_strings(self, text, sizes):
        # Commas act as x and empty fields are skipped.
        assert cli._parse_resolution(text) == sizes

    @pytest.mark.parametrize("text", ["1x2x3x4", "x", "", "abc", "8x1e3"])
    def test_resolution_without_one_to_three_integers_is_rejected(self, text):
        with pytest.raises(ValueError) as info:
            cli._parse_resolution(text)
        assert str(info.value) == f"bad --resolution {text!r}; use THETA, THETAxOFFSET or THETAxOFFSETxOFFSET"

    def test_resolution_with_unequal_offset_sizes_is_rejected(self):
        with pytest.raises(ValueError, match="^the two offset lattice sizes must be equal$"):
            cli._parse_resolution("360x200x100")


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
        # The forked child inherits the patched task and exits without a result.
        monkeypatch.setattr(estimators, "tally_casts", _die_in_worker)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
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
    def _env():
        """This environment with ``src`` on the path and unbuffered output."""
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1")

    @classmethod
    def _interrupt(cls, argv, delay, sigint=signal.SIG_DFL):
        """Run ``argv`` with ``src`` on the path and SIGINT set to ``sigint``,
        whatever this process's own, and send SIGINT to its process group, as a
        terminal's Ctrl-C does, ``delay`` s after its seed line.  It must end
        within 10 s, well under a child's share of the casts."""
        with subprocess.Popen(
            [sys.executable, *argv], env=cls._env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True, preexec_fn=lambda: signal.signal(signal.SIGINT, sigint),
        ) as proc:
            try:
                assert proc.stdout.readline() == "seed = 1\n"
                time.sleep(delay)
                os.killpg(proc.pid, signal.SIGINT)
                out, err = proc.communicate(timeout=10)
            finally:
                # Leaving the block closes the pipes and reaps the process.
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        return proc.returncode, out, err

    @pytest.mark.parametrize("trials", ["1000000000", "10000000000", "1000000000000"])
    def test_ctrl_c_stops_a_long_run_without_a_traceback(self, trials):
        # Minutes to days of work on two workers, so the running child must be
        # stopped.  Half a second in, this process is drawing its half of the
        # casts and one child is tallying the other half as one task.
        argv = ["-m", "buffon.cli", "estimate", "--trials", trials, "--seed", "1", "--workers", "2"]
        assert self._interrupt(argv, 0.5) == (2, "", "error: interrupted\n")

    def test_ctrl_c_stops_a_long_batch_without_a_traceback(self):
        # Four runs of 1e10 casts: each of two children tallies two runs as one task.
        argv = ["-m", "buffon.cli", "batch", "--runs", "4", "--trials", "10000000000", "--seed", "1", "--workers", "2"]
        assert self._interrupt(argv, 0.5) == (2, "", "error: interrupted\n")

    @pytest.mark.parametrize("argv", [
        ["estimate", "--trials", "20000000", "--workers", "2"],
        ["batch", "--runs", "4", "--trials", "5000000", "--workers", "2"],
    ], ids=["estimate", "batch"])
    def test_a_command_started_ignoring_ctrl_c_runs_to_its_end(self, argv):
        # As ``buffon ... &`` from a non-interactive shell does: each of two
        # casting processes casts for about half a second, and the command and
        # the children it forks keep ignoring the signal, so the run ends as an
        # uninterrupted one does.
        argv = ["-m", "buffon.cli", *argv, "--seed", "1"]
        code, out, err = self._interrupt(argv, 0.1, signal.SIG_IGN)
        assert (code, err) == (0, "")
        plain = subprocess.run([sys.executable, *argv], env=self._env(), capture_output=True, text=True, timeout=60)
        assert (plain.returncode, plain.stderr) == (0, "")
        assert "seed = 1\n" + out == plain.stdout

    @pytest.mark.parametrize("cpus, argv", [
        (3, ["estimate", "--trials", "200000", "--workers", "1"]),
        (3, ["estimate", "--trials", str(estimators._BLOCK), "--workers", "3"]),
        (3, ["batch", "--runs", "3", "--trials", "100000", "--workers", "1"]),
        (3, ["batch", "--runs", "1", "--trials", str(estimators._BLOCK), "--workers", "3"]),
        (1, ["validate", "--mc-trials", "200000"]),
        (3, ["validate", "--mc-trials", str(estimators._BLOCK)]),
    ], ids=["estimate-1-worker", "estimate-1-block", "batch-1-worker", "batch-1-block",
            "validate-1-cpu", "validate-1-block"])
    def test_one_worker_or_one_block_starts_no_pool(self, monkeypatch, cpus, argv):
        # validate's Monte Carlo leg runs on every usable CPU.
        def no_fork():
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert main([*argv, "--seed", "1"]) == 0

    @pytest.mark.parametrize("argv, children, own_loops", [
        (["estimate", "--trials", str(10 * 65536)], 1, 1),
        (["batch", "--runs", "100", "--trials", "1000"], 2, 0),
    ], ids=["estimate", "batch"])
    def test_processes_are_capped_at_the_usable_cpus(self, monkeypatch, capsys, argv, children, own_loops):
        # 100000 workers on two usable CPUs make two casting processes, with
        # the same output as one worker: estimate's caller draws the head and
        # forks one child, and batch's caller forks two and casts nothing.
        # The recorder refuses a fork past those, so this test never starts more.
        forks, fork, loops, trial_loop = [], os.fork, [], estimators._tally_runs

        def recording_fork():
            if len(forks) == children:
                raise AssertionError("one more worker process was forked")
            forks.append(len(forks))
            return fork()

        def recording_loop(*args, **kwargs):
            if os.getpid() == TEST_PID:
                loops.append(args[1])
            return trial_loop(*args, **kwargs)

        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(estimators, "_tally_runs", recording_loop)
        monkeypatch.setattr(os, "fork", recording_fork)
        assert main([*argv, "--seed", "1", "--workers", "100000"]) == 0
        capped = capsys.readouterr()
        assert (len(forks), len(loops)) == (children, own_loops)
        assert main([*argv, "--seed", "1", "--workers", "1"]) == 0
        assert capsys.readouterr() == capped

    @pytest.mark.parametrize("argv, processes, own", [
        (["batch", "--runs", "50", "--trials", "1000", "--workers", "2"], 2, 0),
        (["batch", "--runs", "50", "--trials", "1000", "--workers", "3"], 3, 0),
        (["batch", "--runs", "1", "--trials", str(4 * 65536), "--method", "needle", "--workers", "3"], 3, 0),
        (["batch", "--runs", "3", "--trials", "100000", "--workers", "3"], 3, 0),
        (["batch", "--runs", "50", "--trials", "1000", "--workers", "1"], 1, 1),
        (["estimate", "--trials", str(4 * 65536), "--workers", "2"], 2, 1),
        (["estimate", "--trials", str(4 * 65536), "--workers", "1"], 1, 1),
        (["estimate", "--trials", str(4 * 65536), "--method", "needle", "--workers", "2"], 2, 1),
        (["validate", "--mc-trials", str(4 * 65536)], 3, 1),
    ], ids=["batch-2", "batch-3", "batch-one-run-3", "batch-long-runs-3", "batch-1", "estimate-2", "estimate-1",
            "estimate-needle-2", "validate-3"])
    def test_a_batch_caller_casts_nothing(self, monkeypatch, tmp_path, capsys, argv, processes, own):
        # Every process appends its pid to the log each time it enters the
        # trial loop, which ``tally_casts`` and the head's kernel both run.  No
        # process enters it twice: a batch's caller never does when it forks,
        # and each child does once; the caller of a single share, and
        # ``estimate``'s and ``validate``'s, which draw the head, do once.
        log, trial_loop = tmp_path / "pids", estimators._tally_runs

        def logged_loop(*args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return trial_loop(*args, **kwargs)

        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)  # validate's workers
        monkeypatch.setattr(estimators, "_tally_runs", logged_loop)
        assert main([*argv, "--seed", "4"]) == 0
        capsys.readouterr()
        pids = [int(pid) for pid in log.read_text().split()]
        assert pids.count(TEST_PID) == own
        children = [pid for pid in pids if pid != TEST_PID]
        assert len(set(children)) == len(children) == processes - own

    @pytest.mark.parametrize("workers, loaded", [("2", False), ("1", True)])
    def test_a_forking_batch_caller_imports_no_numpy_random(self, workers, loaded):
        # Only a process that draws imports numpy.random, so a batch's caller
        # that forks every share never maps it.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        script = f"""
import sys
import buffon.cli as cli, buffon.estimators as estimators
estimators._usable_cpus = lambda: 2
code = cli.main(["batch", "--runs", "20", "--trials", "1000", "--seed", "1", "--workers", "{workers}"])
print(code, "numpy.random" in sys.modules)
"""
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert done.stdout.splitlines()[-1] == f"0 {loaded}"

    @pytest.mark.parametrize("fault, message", [
        ("none", ""),
        ("MemoryError in the head", "error: out of memory"),
        ("Ctrl-C in the head", "error: interrupted\n"),
        ("MemoryError in a child", "error: a worker process died: pid "),
        ("child killed mid-run", "error: a worker process died: pid "),
    ])
    def test_no_process_is_left_behind(self, monkeypatch, capfd, fault, message):
        # A run of four blocks at two workers: this process draws two, and one
        # child the other two.  Every path ends with the child reaped, and
        # every error path in exit 2 with one line on stderr.
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)

        def head(n, rng):
            raise KeyboardInterrupt if fault.startswith("Ctrl-C") else MemoryError

        def child(task):
            if fault == "child killed mid-run":
                os.kill(os.getpid(), signal.SIGKILL)
            raise MemoryError

        if fault.endswith("head"):
            monkeypatch.setattr(cli, "run_triangle_trials", head)
        elif fault != "none":
            monkeypatch.setattr(estimators, "tally_casts", child)
        rc = main(["estimate", "--trials", str(4 * 65536), "--seed", "1", "--workers", "2"])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        err = capfd.readouterr().err
        assert (rc, err.count("\n")) == ((0, 0) if fault == "none" else (2, 1))
        assert err.startswith(message)
        if fault == "child killed mid-run":
            assert f" was killed by signal {int(signal.SIGKILL)}, " in err

    def test_ctrl_c_with_an_idle_worker_prints_no_traceback(self):
        # This process is busy with its share of the casts; the one child has
        # written its row and exited when the signal comes.
        script = """
import sys, time
import buffon.cli as cli, buffon.estimators as estimators
def head(n, rng):
    time.sleep(2)
estimators.tally_casts = lambda task: [(0, 1, 1)]
cli.run_triangle_trials = head
sys.exit(cli.main(["estimate", "--trials", "131072", "--seed", "1", "--workers", "2"]))
"""
        assert self._interrupt(["-c", script], 0.5) == (2, "", "error: interrupted\n")

    def test_ctrl_c_leaves_no_process_behind(self):
        # The command returns only once every child it forked is reaped.
        script = """
import os, sys
import buffon.cli as cli
code = cli.main(["estimate", "--trials", "1000000000", "--seed", "1", "--workers", "2"])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("a child process was left")
"""
        assert self._interrupt(["-c", script], 0.5) == (2, "", "error: interrupted\n")


class TestBenchmarkContract:
    """The calls ``bench/layers.py`` makes into the package, so that a change that breaks them fails here too."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_the_kernel_call_is_made_through_the_cli(self, monkeypatch, capsys, workers):
        # The bench traces the functions ``cli`` imports and the streams its
        # RngConfig makes with ``stream()``; the kernel span must nest there.
        assert cli.run_triangle_trials.__module__ == "buffon.estimators"
        kernel, calls, streams = cli.run_triangle_trials, [], []

        def recorded_kernel(n, rng):
            calls.append(rng)
            return kernel(n, rng)

        class RecordedRngConfig(RngConfig):
            def stream(self):  # no arguments, as the bench's stand-in takes none
                streams.append(super().stream())
                return streams[-1]

        monkeypatch.setattr(cli, "run_triangle_trials", recorded_kernel)
        monkeypatch.setattr(cli, "RngConfig", RecordedRngConfig)
        assert main(["estimate", "--trials", "200000", "--seed", "5", "--workers", workers]) == 0
        assert "pi estimate = " in capsys.readouterr().out
        assert len(calls) == 1 and calls[0] is streams[0]

    def test_the_call_shapes_the_bench_uses(self):
        rng = RngConfig(7, 0).stream()
        cast = sample_cast(rng, 1.0)
        tri = TriangleSpec((0.0, 0.0), 1.0, cast.rotation)
        svg = render_cast(scene_for_cast(tri, GridSpec(1.0, cast.offset_x, cast.offset_y)))
        assert svg.startswith("<svg") and ET.fromstring(svg) is not None
        result = run_batch(4, 100, RngConfig(7, 0))
        svg = render_histogram(HistogramScene(bins=result.histogram, mean=result.mean))
        assert svg.startswith("<svg") and ET.fromstring(svg) is not None

    def test_the_kernels_draw_through_random_size_alone(self):
        # The bench hands each kernel a stand-in with only ``random(size)``:
        # 1 << 20 triangle casts untraced, then both kernels traced.  Their
        # summaries must carry ``pi_estimate`` and ``standard_error``.
        class OnlyRandom:
            def __init__(self, rng):
                self._rng = rng

            def random(self, size):
                return self._rng.random(size)

        tri = run_triangle_trials(1 << 20, OnlyRandom(RngConfig(7, 0).stream()))
        needle = run_needle_trials(300_000, OnlyRandom(RngConfig(7, 0).stream()), 0.5)
        assert tri == run_triangle_trials(1 << 20, RngConfig(7, 0).stream())
        assert needle == run_needle_trials(300_000, RngConfig(7, 0).stream(), 0.5)
        for summary in (estimate_pi_triangle(tri), estimate_pi_needle(needle)):
            assert abs(summary.pi_estimate - math.pi) < 5 * summary.standard_error

    def test_the_oracle_counts_through_its_module_global_counter(self, monkeypatch):
        # The bench patches ``oracle.crossings_per_cast`` with a counting
        # wrapper and divides the counter's time by the number of calls.
        value, calls = oracle.expected_crossings_quadrature(90, 50), []

        def counted(*args, **kwargs):
            calls.append(args)
            return crossings_per_cast(*args, **kwargs)

        monkeypatch.setattr(oracle, "crossings_per_cast", counted)
        assert oracle.expected_crossings_quadrature(90, 50) == value
        assert len(calls) > 0

    def test_the_batch_call_is_made_through_the_cli(self, monkeypatch, tmp_path, capsys):
        # The bench looks for an ``estimators.run_batch`` span under ``cli.main``.
        assert (cli.run_batch.__module__, cli.run_batch.__name__) == ("buffon.estimators", "run_batch")
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args)
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(cli, "run_batch", recorded)
        csv, svg = tmp_path / "runs.csv", tmp_path / "histogram.svg"
        args = ["batch", "--runs", "4", "--trials", "100", "--seed", "3", "--csv", str(csv), "--svg", str(svg)]
        assert main(args) == 0
        assert len(calls) == 1 and csv.exists() and svg.exists()
        capsys.readouterr()


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

    def test_importing_the_cli_loads_no_executor(self):
        # The process layer forks its workers, so no command pays for these at start-up.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        code = "import sys, buffon.cli; print(*sys.modules)"
        modules = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        ).stdout.split()
        unwanted = {"concurrent", "multiprocessing", "secrets", "hashlib", "_hashlib", "hmac", "logging", "socket", "queue"}
        assert [m for m in modules if m.split(".")[0] in unwanted] == []

    def test_importing_the_package_loads_nothing_else(self):
        # Names are imported from their own modules, so the package needs no
        # submodule and no numpy; its version is the project's, which the
        # benchmark's host record reports.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        code = "import sys, buffon; print(buffon.__file__, buffon.__version__, *sys.modules)"
        where, version, *modules = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert Path(where).parent == SRC / "buffon"
        assert [m for m in modules if m.startswith("buffon.") or m.split(".")[0] == "numpy"] == []
        # The [project] table runs to the next table header; no tomllib on Python 3.10.
        table = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8").split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        assert version == re.search(r'^version\s*=\s*"([^"]+)"', table, re.M).group(1)


class TestEntryPoint:
    """``app()``, behind ``python -m buffon.cli`` and the ``buffon`` script,
    flushes stdout and stderr and ends the process with ``os._exit``."""

    @staticmethod
    def _run(argv, cwd, **streams):
        """Run ``python -m buffon.cli argv`` in a fresh interpreter with ``src``
        first on the path.  PYTHONUNBUFFERED is dropped: it would hide output
        left in a buffer when the process ends."""
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("PYTHONUNBUFFERED", None)
        return subprocess.run(argv, cwd=cwd, env=env, timeout=120, **streams)

    @staticmethod
    def _files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    @pytest.mark.parametrize("argv, code", [
        (["estimate", "--trials", "200000", "--seed", "3", "--json", "report.json"], 0),
        (["estimate", "--method", "needle", "--ratio", "0.5", "--trials", "200000", "--seed", "3",
          "--json", "report.json"], 0),
        (["batch", "--runs", "20", "--trials", "10000", "--seed", "3", "--workers", "2",
          "--csv", "runs.csv", "--svg", "histogram.svg"], 0),
        (["validate"], 0),
        (["render", "--images", "2", "--seed", "3"], 0),
        (["estimate", "--method", "square"], 1),
        (["estimate", "--trials", "1000", "--seed", "3", "--json", "missing/report.json"], 2),
    ], ids=["estimate", "needle", "batch", "validate", "render", "usage-error", "missing-directory"])
    def test_a_fresh_interpreter_matches_main(self, monkeypatch, tmp_path, capsys, argv, code):
        # Same stdout, stderr, exit code and files as main() in this process.
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        fresh.mkdir()
        here.mkdir()
        with open(tmp_path / "stdout", "wb") as out, open(tmp_path / "stderr", "wb") as err:
            done = self._run([sys.executable, "-m", "buffon.cli", *argv], fresh, stdout=out, stderr=err)
        monkeypatch.chdir(here)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert done.returncode == code
        assert (tmp_path / "stdout").read_text(encoding="utf-8") == captured.out
        assert (tmp_path / "stderr").read_text(encoding="utf-8") == captured.err
        assert self._files(fresh) == self._files(here)

    def test_a_broken_stdout_pipe_is_one_error_line_and_exit_2(self, tmp_path):
        # The reader is gone before the command writes; its output waits in
        # stdout's buffer until the final flush fails.
        read, write = os.pipe()
        os.close(read)
        try:
            done = self._run(
                [sys.executable, "-m", "buffon.cli", "estimate", "--trials", "1000", "--seed", "1"],
                tmp_path, stdout=write, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")

    def test_a_closed_stdout_still_writes_the_report_and_exits_0(self, tmp_path):
        # Started with stdout closed (``>&-``), the interpreter has sys.stdout = None.
        argv = [sys.executable, "-m", "buffon.cli", "estimate", "--trials", "1000", "--seed", "1", "--json", "r.json"]
        done = self._run(["sh", "-c", 'exec "$0" "$@" >&-', *argv], tmp_path, stderr=subprocess.PIPE)
        assert (done.returncode, done.stderr) == (0, b"")
        assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["trials"] == 1000

    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
    @pytest.mark.parametrize("argv, code", [
        (["estimate", "--trials", "0", "--seed", "1"], 1),
        (["estimate", "--bogus"], 1),
        (["estimate", "--trials", "1000", "--seed", "1", "--json", "missing/report.json"], 2),
    ], ids=["zero-trials", "unknown-flag", "missing-directory"])
    def test_an_unwritable_stderr_keeps_errors_off_stdout(self, tmp_path, redirect, argv, code):
        # Closed, stderr is None; opened read-only, each write to it fails.
        # Either way no diagnostic moves to stdout and the exit code holds.
        argv = [sys.executable, "-m", "buffon.cli", *argv]
        done = self._run(["sh", "-c", f'exec "$0" "$@" {redirect}', *argv], tmp_path, stdout=subprocess.PIPE)
        lines = done.stdout.decode().splitlines()
        assert [line for line in lines if line.startswith(("error:", "usage:"))] == []
        assert done.returncode == code

    @pytest.mark.parametrize("returned, flush_error, code, err", [
        (0, None, 0, ""),
        (1, None, 1, ""),
        (2, None, 2, ""),
        (0, BrokenPipeError(32, "Broken pipe"), 2, "error: [Errno 32] Broken pipe\n"),
        (2, BrokenPipeError(32, "Broken pipe"), 2, ""),
    ], ids=["success", "usage-error", "failure", "broken-pipe", "failure-then-broken-pipe"])
    def test_app_flushes_both_streams_then_ends_the_process(self, monkeypatch, returned, flush_error, code, err):
        # A failed command has already printed its one error line, so a stdout
        # that then fails to flush adds none.
        events = []

        class Stream:
            def __init__(self, name, error=None):
                self.name, self.error, self.text = name, error, ""

            def write(self, text):
                self.text += text

            def flush(self):
                events.append(f"flush {self.name}")
                if self.error:
                    raise self.error

        class Ended(Exception):
            pass

        def end(status):
            events.append(("exit", status))
            raise Ended

        stderr = Stream("stderr")
        # app() blocks _hashlib for the rest of the process: undo that after the test.
        monkeypatch.setitem(sys.modules, "_hashlib", sys.modules.get("_hashlib"))
        monkeypatch.setattr(sys, "stdout", Stream("stdout", flush_error))
        monkeypatch.setattr(sys, "stderr", stderr)
        monkeypatch.setattr(os, "_exit", end)
        monkeypatch.setattr(cli, "main", lambda: returned)
        with pytest.raises(Ended):
            cli.app()
        assert events == ["flush stdout", "flush stderr", ("exit", code)]
        assert stderr.text == err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_no_command_process_maps_libcrypto(self, tmp_path):
        # numpy.random imports secrets, hmac and hashlib; through app() they
        # must load no OpenSSL, in this process or in the child it forks, and
        # still give the right digests.
        script = """
import os, sys
import buffon.cli as cli, buffon.estimators as estimators

def report(who):
    with open("/proc/self/maps") as maps:
        print(who, "libcrypto" in maps.read(), file=sys.stderr, flush=True)

def child_task(task, tally=estimators.tally_casts):
    rows = tally(task)
    report("child" if os.getpid() != parent else "this")
    return rows

def main(run=cli.main):
    code = run()
    report("parent")
    import hashlib, hmac
    print(hashlib.sha256(b"").hexdigest(), file=sys.stderr)
    print(hmac.new(b"key", b"The quick brown fox jumps over the lazy dog", "sha256").hexdigest(), file=sys.stderr)
    return code

parent = os.getpid()
estimators._usable_cpus = lambda: 2
estimators.tally_casts, cli.main = child_task, main
sys.argv = ["buffon", "estimate", "--trials", "300000", "--seed", "1", "--workers", "2"]
cli.app()
"""
        done = self._run([sys.executable, "-c", script], tmp_path, capture_output=True, text=True)
        assert (done.returncode, done.stderr.splitlines()) == (0, [
            "child False",
            "parent False",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8",
        ])
        assert "pi estimate = " in done.stdout

    def test_main_from_python_leaves_hashlib_as_it_found_it(self, tmp_path):
        # Only app() blocks OpenSSL's hashlib; a library caller of main() keeps it.
        script = """
import sys
import buffon.cli as cli
before = sys.modules.get("_hashlib", "absent")
code = cli.main(["estimate", "--trials", "300000", "--seed", "1", "--workers", "2"])
print(code, before, type(sys.modules.get("_hashlib")).__name__)
"""
        done = self._run([sys.executable, "-c", script], tmp_path, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "0 absent module"

    def test_main_returns_without_ending_the_process(self, monkeypatch, capsys):
        # One worker, so no child process (which ends with os._exit) is forked.
        def end(status):
            raise AssertionError(f"main() ended the process with {status}")

        monkeypatch.setattr(os, "_exit", end)
        assert main(["estimate", "--trials", "1000", "--seed", "1", "--workers", "1"]) == 0
        assert main(["estimate", "--trials", "0", "--seed", "1"]) == 1
        assert main(["--help"]) == 0
        assert "pi estimate = " in capsys.readouterr().out
