"""Golden bytes of the determinism contract.

Each command's stdout, stderr, exit code and written files are pinned by
their sha256, so any change to an output byte, at any worker count, fails
here.  The digests were taken with Python 3.11 and numpy 2.4; a change that
moves them on purpose must say so in CHANGES.md.

Run as a script, this file prints the digest table of the tree it imports
``buffon`` from, in the form of ``GOLDEN`` below, and writes nothing else::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import pytest

import buffon.estimators as estimators
from buffon.cli import main


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


ESTIMATE = ["estimate", "--trials", str(3 * 65536 + 5), "--seed", "21", "--json", "report.json"]
NEEDLE = [*ESTIMATE[:1], "--method", "needle", "--ratio", "0.5", *ESTIMATE[1:]]
BATCH = ["batch", "--runs", "40", "--trials", "7000", "--seed", "4", "--csv", "runs.csv", "--svg", "histogram.svg"]

CASES = {
    "estimate-w1": ESTIMATE + ["--workers", "1"],
    "estimate-w2": ESTIMATE + ["--workers", "2"],
    "needle-w1": NEEDLE + ["--workers", "1"],
    "needle-w2": NEEDLE + ["--workers", "2"],
    "batch-w1": BATCH + ["--workers", "1"],
    "batch-w2": BATCH + ["--workers", "2"],
    "batch-w3": BATCH + ["--workers", "3"],
    "batch-needle": BATCH + ["--method", "needle", "--ratio", "0.5", "--workers", "2"],
    "render": ["render", "--images", "3", "--seed", "3", "--out", "casts"],
    "validate": ["validate"],
    "validate-mc": ["validate", "--mc-trials", "200000", "--seed", "5"],
    "validate-seed": ["validate", "--seed", "5"],
    "zero-trials": ["estimate", "--trials", "0", "--seed", "1"],
    "unknown-method": ["estimate", "--method", "square"],
    "render-none": ["render", "--images", "0", "--seed", "3", "--out", "casts"],
    "validate-90": ["validate", "--resolution", "90"],
    "validate-90x50": ["validate", "--resolution", "90x50"],
    "validate-90x50x50": ["validate", "--resolution", "90x50x50"],
    "validate-bad-resolution": ["validate", "--resolution", "90xy"],
    "validate-unequal-offsets": ["validate", "--resolution", "90x50x40"],
    "validate-tight": ["validate", "--tolerance", "1e-5"],
    "validate-one-mc-trial": ["validate", "--mc-trials", "1", "--seed", "5"],
    "triangle-ratio": ["estimate", "--ratio", "0.5", "--seed", "1"],
    "zero-workers": ["estimate", "--trials", "10", "--seed", "1", "--workers", "0"],
    "seed-2-64": ["estimate", "--trials", "10", "--seed", str(1 << 64)],
    "zero-bins": ["batch", "--runs", "2", "--trials", "10", "--seed", "1", "--bins", "0"],
    "batch-zero-trials": ["batch", "--runs", "2", "--trials", "0", "--seed", "1"],
}

# Commands pinned by one digest at --workers 1, 2 and 3: runs that start,
# straddle or end at a boundary of 32768- and of 65536-cast blocks, and
# batches whose shares cut inside a run, so that the bytes cannot depend on
# the block size either.
SPLIT = {
    **{
        f"estimate-{method}-{trials}": [
            "estimate", "--method", method, "--trials", str(trials), "--seed", "22", "--json", "report.json",
        ]
        for trials in (7, 32768, 65536, 70003, 196613)
        for method in ("triangle", "needle")
    },
    **{
        f"batch-{runs}x{trials}": [
            "batch", "--runs", str(runs), "--trials", str(trials), "--seed", "23",
            "--csv", "runs.csv", "--svg", "histogram.svg",
        ]
        for runs, trials in ((3, 300001), (20, 70003), (400, 7), (1, 200000))
    },
}

GOLDEN = {
    "estimate-w1": {
        "code": 0,
        "stdout": "0fdb9c7e8dd4aae8e0ff2cd4251d47b3f49d9b3924d8fed3cb19e746e37408ed",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "11d999d6ec2dc4ac15bf9246e68fcae01cc0d88e23dcc0219cac0de6dc79d20d",
        },
    },
    "estimate-w2": {
        "code": 0,
        "stdout": "0fdb9c7e8dd4aae8e0ff2cd4251d47b3f49d9b3924d8fed3cb19e746e37408ed",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "11d999d6ec2dc4ac15bf9246e68fcae01cc0d88e23dcc0219cac0de6dc79d20d",
        },
    },
    "needle-w1": {
        "code": 0,
        "stdout": "88ff32aa1fbd99f05c43ce571d8ceb0423c1e110dbf64d11e0a5129fc5f4ab1f",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "2dd61f1c6b81d9b9f647b573b4b4bd5e088a81b24fb331edca29324ccdc0a948",
        },
    },
    "needle-w2": {
        "code": 0,
        "stdout": "88ff32aa1fbd99f05c43ce571d8ceb0423c1e110dbf64d11e0a5129fc5f4ab1f",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "2dd61f1c6b81d9b9f647b573b4b4bd5e088a81b24fb331edca29324ccdc0a948",
        },
    },
    "batch-w1": {
        "code": 0,
        "stdout": "70c60d90f680ae579ed96d58b1a618ee94137192472893a68474c593fb6b4fa8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "histogram.svg": "685d677efa66ef7d8f68e685af53e8c4c54b0fb8900838aa0ef776cc76e60df7",
            "runs.csv": "06cfeb3eb8da8160af80d253ba0e383cbc1a422072dce0448d678bbeb8665777",
        },
    },
    "batch-w2": {
        "code": 0,
        "stdout": "70c60d90f680ae579ed96d58b1a618ee94137192472893a68474c593fb6b4fa8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "histogram.svg": "685d677efa66ef7d8f68e685af53e8c4c54b0fb8900838aa0ef776cc76e60df7",
            "runs.csv": "06cfeb3eb8da8160af80d253ba0e383cbc1a422072dce0448d678bbeb8665777",
        },
    },
    "batch-w3": {
        "code": 0,
        "stdout": "70c60d90f680ae579ed96d58b1a618ee94137192472893a68474c593fb6b4fa8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "histogram.svg": "685d677efa66ef7d8f68e685af53e8c4c54b0fb8900838aa0ef776cc76e60df7",
            "runs.csv": "06cfeb3eb8da8160af80d253ba0e383cbc1a422072dce0448d678bbeb8665777",
        },
    },
    "batch-needle": {
        "code": 0,
        "stdout": "1890de1ed28c79b5690e0404d7c20eb1fb03309c165b5a319fb51f54ad3f5408",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "histogram.svg": "4409325e6f296da46ca2154851fa02009e0c7e1e43b44c5dc3d33ed320fda9f0",
            "runs.csv": "751d0e9e22da996dadb517f2afdbeb29c74f92af2d1405bc71325c63f97768c6",
        },
    },
    "render": {
        "code": 0,
        "stdout": "d132ba65890107781dbfd78b9f38c09d40cf977aea4ae0f9631dddd2bf7eba05",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "casts/plot00.svg": "e086867e1c6598deff4baf07df97a4cbe5e5512ca5ec94b06d698f3b6191ca55",
            "casts/plot01.svg": "d6f580597bfcf10cd79991a80ec86899fa4d4a1c4f643f344845a9dbd571a453",
            "casts/plot02.svg": "2de8438b6c8badd92384ddf8bacb86db5eb316a5fabe0af2545097c36785ca4a",
        },
    },
    "validate": {
        "code": 0,
        "stdout": "8fa64812ff92d6700288cf5e131e375e41f9ece3131ecb143f0003f98487828e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "validate-mc": {
        "code": 0,
        "stdout": "bea3fc447e00cafea1f80873e9fe600e3428374e8b19fc4153c053eb4c76272e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "validate-seed": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "9e1f937bf58223242abf743beee60d88aa080ca9bca4c1524af2f09157a82596",
        "files": {},
    },
    "zero-trials": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "99b27cf3c55459d15e03c7580a5a7643772d97c6ad71c7b55fa371317e243a95",
        "files": {},
    },
    "unknown-method": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "c31182579500718cb74b2eaa71c005be8152bb73ed6f429b9e8813a4607f274e",
        "files": {},
    },
    "render-none": {
        "code": 0,
        "stdout": "baf5bacda1e9e058b0a40afe53a1785c7a7d2fe92aac53b01ecd311ab3e830d2",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "validate-90": {
        "code": 2,
        "stdout": "36dcfa71c237e757d5bd278166d5fc36dc3eac87144c638f34447df05be24010",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "validate-90x50": {
        "code": 2,
        "stdout": "d050a6804337447f1930d68ed35be052d22df5d963f1a647f3ccd07140ae85f2",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "validate-90x50x50": {
        "code": 2,
        "stdout": "d050a6804337447f1930d68ed35be052d22df5d963f1a647f3ccd07140ae85f2",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "validate-bad-resolution": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "068153ea42d60eabae32bf8f7b26a1278a4621248801d4c9ceed9ab6ae07aad5",
        "files": {},
    },
    "validate-unequal-offsets": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "7b9cc444634acc04f3a3c372f5b32dd5210e1420c59e100254ae2b049d3060c4",
        "files": {},
    },
    "validate-tight": {
        "code": 2,
        "stdout": "1efb4adc36e9c3f58e07ac36346bc93b076c6caae6a7fd9b5ad0a3b22b573e4c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "validate-one-mc-trial": {
        "code": 2,
        "stdout": "e0c97cc58f0b9ab63f1597b35ed3a18ac6e25ef93bc7d2cc459c426bb7e2f923",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "triangle-ratio": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "3da0add21d75e548816afc036e10e7abc704e532dd1105d7ce24796a8aaad1b1",
        "files": {},
    },
    "zero-workers": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "53071d61622b77d9ad803ad12ba6c0fd097ecf5736d72674d2af61e268fb0343",
        "files": {},
    },
    "seed-2-64": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "fb4fd1e43e6dbf40c8005d771b823a183e9fa1d052f87f4aa1f84b38eee9eaf4",
        "files": {},
    },
    "zero-bins": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "8bb643765e1a634e8c67b4565cd51069a8df6fb7a2526094f67e36379774ccdc",
        "files": {},
    },
    "batch-zero-trials": {
        "code": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "2bc6beabedc1ae1d90817d6e54333378ed551255bf35aa3cc617f14e04fc2f3a",
        "files": {},
    },
    "estimate-triangle-7": {
        "code": 0,
        "stdout": "e07549332ec37fee75c87276f37fb8ffd25120508c02e12175f3373d958a2ba1",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "324d7cc056c853af5cac2f37dee4505f3a3faa59006044e2015aa12aab14d433",
        },
    },
    "estimate-needle-7": {
        "code": 0,
        "stdout": "e34c37b4ce24f9adb3f4a03515ca286eec1ed626a8310af2cdd7e2e83eb1585a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "58bcf4897add60594bffe1763306f16ddf050f2f36064982d409b309899fc0cd",
        },
    },
    "estimate-triangle-32768": {
        "code": 0,
        "stdout": "b330ba8e1a8bb3b6b9f37f69c5b32bbaca09000b6df64e7fe2643082668a920a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "1dda3ad3d0f46af5e19eaaeebe1493a8def854a5e34ce0dc0bab63e7a9011c86",
        },
    },
    "estimate-needle-32768": {
        "code": 0,
        "stdout": "a3027baed794cc4e343a21f64458811f925ed0d8603628b542404d2956e54a87",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "483b28baa930d54298bf02d77804e6dcd69b5f51e935b427b6d215264167cf94",
        },
    },
    "estimate-triangle-65536": {
        "code": 0,
        "stdout": "f9ee70cfcef56f42c2ecc693723d22cc16a00992121324afcfeb5330bce487ac",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "aa5f1b753805427245710fd96eb5bd66a77cef7943c947cb4921c07b23dbe20e",
        },
    },
    "estimate-needle-65536": {
        "code": 0,
        "stdout": "2e90688a06cb2482b6cd96ce671f8d3e624b22914f1075ae92dc8f81ede9bc47",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "3b5f83804a442ae2c24b42127cc7f199d70e31d875ee5139aa4bc996bccd8a22",
        },
    },
    "estimate-triangle-70003": {
        "code": 0,
        "stdout": "638c8cd5a5888191b8f60d99eac5f0055cd42c987863e59af47e21a0ad1ba7dc",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "123f06322007f0ff50d78683e48306abbaf3c3333e4afc085b7e58405a9be220",
        },
    },
    "estimate-needle-70003": {
        "code": 0,
        "stdout": "0fbffe36356a325f19059f223c3e838228c5fdebffe7987a2fc7c9bacaca2254",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "f18684d54171f4745727eee3442379c0d105ffb14d3e8cfe87780f7135456046",
        },
    },
    "estimate-triangle-196613": {
        "code": 0,
        "stdout": "68ab6390eda25c4802c2261b8eabe3b49b944e1b24261246a2fa0a6ebe9942e3",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "c7e66b54cb99bfc55aea6248f3ce815a73e8b331ef0a38f975e3715ccbc8911d",
        },
    },
    "estimate-needle-196613": {
        "code": 0,
        "stdout": "212c12135d74ddf84d79649a9a6f780596a98502592e162e0edd315a0d0c26f3",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "report.json": "a2b2588f7134093a8b741597f9cae00f2dae15075f8ce001b60a01395388b6ee",
        },
    },
    "batch-3x300001": {
        "code": 0,
        "stdout": "76d9f24c07d39491854fc752ae9b62225b5a2376861f3e2817c39cf6a9e2dd0a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "histogram.svg": "9781f31c2e2bbbdcb4d5989799d886093b63ccdb6212db84ceb5ee6ca0c0451e",
            "runs.csv": "7cee40da12ea77ceaa26b754979c8ef6174dbc6d962478296154737cfbdc3441",
        },
    },
    "batch-20x70003": {
        "code": 0,
        "stdout": "6040a514b40b39ba36d6eb870dd8c28df2e19f9c343185de6a150da8e4bf19b7",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "histogram.svg": "4a3d8ed9404cfee7ba7ed85ecba531b1ff696b43be8493dbad87a6df8821f5bd",
            "runs.csv": "23f9d8f32a0e2515de4bfaf1eb6ad564df40071874b6747e9731220c0a155baa",
        },
    },
    "batch-400x7": {
        "code": 0,
        "stdout": "385e8100539cd7a2649b031e1d48bc43324561397b53eb7d070fbc3f00d13248",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "histogram.svg": "93b12892d682b49636db012d399d44e6789bc5102040317342fd1a738e5b203e",
            "runs.csv": "d1275bf302583b3c970eeb5e6a67eb32f6ff4d6f53b39d143a126d5c00a52559",
        },
    },
    "batch-1x200000": {
        "code": 0,
        "stdout": "05881bb643cbc40aece6d6070e0bf0438fd969f68f88022930646c6888f4e726",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {
            "histogram.svg": "1de17dec9bfdac82fdc7e22483a31bfda0b70410e1ba96d0987ec6efc2bbc65b",
            "runs.csv": "6dd5b1e2ca12ac1569dde4bdfd8caf735f201440ae5d338713b462ebde4d1b1d",
        },
    },
}


def record(argv) -> dict:
    """``main(argv)``'s exit code and the sha256 of its stdout, stderr and each file it wrote in the cwd."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    cwd = Path.cwd()
    files = {str(p.relative_to(cwd)): _sha(p.read_bytes()) for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {
        "code": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": files,
    }


@pytest.fixture
def pinned_host(monkeypatch, tmp_path):
    # Three usable CPUs, so --workers 3 forks three children on any host, and
    # argparse wraps its usage line at the default 80 columns.
    monkeypatch.setattr(estimators, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", CASES)
def test_output_bytes_are_pinned(pinned_host, name):
    assert record(CASES[name]) == GOLDEN[name]


@pytest.mark.parametrize("workers", [1, 2, 3], ids=["w1", "w2", "w3"])
@pytest.mark.parametrize("name", SPLIT)
def test_split_output_bytes_are_pinned_at_every_worker_count(pinned_host, name, workers):
    assert record(SPLIT[name] + ["--workers", str(workers)]) == GOLDEN[name]


def _print_golden() -> None:
    """Print ``GOLDEN`` as this tree computes it, on the pinned host of the tests (``SPLIT`` at one worker)."""
    estimators._usable_cpus = lambda: 3
    os.environ["COLUMNS"] = "80"
    print("GOLDEN = {")
    for name, argv in {**CASES, **{k: v + ["--workers", "1"] for k, v in SPLIT.items()}}.items():
        with tempfile.TemporaryDirectory() as cwd:
            os.chdir(cwd)
            digests = record(argv)
            os.chdir("/")
        files = "".join(f'            "{f}": "{h}",\n' for f, h in digests["files"].items())
        print(f'    "{name}": {{')
        print(f'        "code": {digests["code"]},')
        print(f'        "stdout": "{digests["stdout"]}",')
        print(f'        "stderr": "{digests["stderr"]}",')
        print(f'        "files": {{\n{files}        }},' if files else '        "files": {},')
        print("    },")
    print("}")


if __name__ == "__main__":
    _print_golden()
