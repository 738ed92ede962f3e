"""Golden bytes of the determinism contract.

Each command's stdout, stderr, exit code and written files are pinned by
their sha256, so any change to an output byte, at any worker count, fails
here.  The digests were taken with Python 3.11 and numpy 2.4; a change that
moves them on purpose must say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

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
    "zero-trials": ["estimate", "--trials", "0", "--seed", "1"],
    "unknown-method": ["estimate", "--method", "square"],
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
}


def record(argv, cwd, capsys) -> dict:
    """The sha256 of ``main(argv)``'s stdout, stderr and each file it wrote under ``cwd``, and its exit code."""
    code = main(argv)
    captured = capsys.readouterr()
    files = {str(p.relative_to(cwd)): _sha(p.read_bytes()) for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {
        "code": code,
        "stdout": _sha(captured.out.encode()),
        "stderr": _sha(captured.err.encode()),
        "files": files,
    }


@pytest.mark.parametrize("name", CASES)
def test_output_bytes_are_pinned(monkeypatch, tmp_path, capsys, name):
    # Three usable CPUs, so --workers 3 forks two children on any host, and
    # argparse wraps its usage line at the default 80 columns.
    monkeypatch.setattr(estimators, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert record(CASES[name], tmp_path, capsys) == GOLDEN[name]
