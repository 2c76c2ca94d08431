"""Byte-identity of pinned-seed CLI outputs.

The sha256 values below were recorded from the command outputs before the
evaluation core was rewritten to work on basis indices, the sampled
``layout-2`` ones before a solve ran its cables on threads.  A change that
alters any draw, float or formatting shows up here.  Do not regenerate these
hashes to make a change pass: a mismatch means the outputs changed.
"""

import hashlib

import pytest

from qcroute.cli import main


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_small_sweep_csv_and_stdout(tmp_path, capsys):
    out = tmp_path / "results.csv"
    args = ["sweep", "layout-1", "--kappas", "0.25,1,4", "--seeds", "3", "--maxiter", "30", "--seed", "5"]
    assert main(args + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert _sha256(out.read_bytes()) == "c154a3326973e0dc61fbd35e2ab3d0ce9319ee721fe055aed3127351a0dc4d54"
    assert _sha256(stdout.encode()) == "1fad1b8a0f795daa1e12e705613b3dc8565d8b4e3814b36af812809258a6b1af"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_small_layout2_sweep_csv_stdout_and_stderr(jobs, tmp_path, capsys):
    out = tmp_path / "results.csv"
    args = ["sweep", "layout-2", "--kappas", "2", "--seeds", "2", "--maxiter", "3", "--seed", "4"]
    assert main(args + ["--jobs", jobs, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert _sha256(out.read_bytes()) == "ace4d1dddcf9d160cd3e48dbf2db91c77b067c495551092b50deba383c55b047"
    assert _sha256(captured.out.encode()) == "eca562966192f7d496f280a70505aca5599c9bad575ae4b18eab853c9c6521a3"
    assert _sha256(captured.err.encode()) == "6b369688aa3a10a3446a489f4cb203aa005a54bdb094af795049c83f27e1b6fe"


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["solve", "layout-2", "--shots", "0", "--maxiter", "6", "--seed", "2"],
            "f2b5f94d9fdfa8f2db5cc0eaae5f8a1982491ceccf7fb0c615606028ece99a37",
        ),
        (
            ["solve", "layout-2", "--maxiter", "3", "--seed", "3"],
            "629ce2f672a94ca56c1bd04c3b60e21320b15975e63413ded5c5e07e5710d6e8",
        ),
        (
            ["solve", "layout-1", "--seed", "3"],
            "818c5c43b5fb0be8e2573e792510113c53c9750c93eb5c71253a8d6a15cfcd0b",
        ),
    ],
    ids=["layout-2-exact", "layout-2-sampled", "layout-1-sampled"],
)
def test_solve_stdout(args, digest, capsys):
    assert main(args) == 0
    assert _sha256(capsys.readouterr().out.encode()) == digest
