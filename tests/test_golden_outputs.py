"""Byte identity: every golden case writes the recorded bytes at --workers 1 and 2.

The hashes live in golden_outputs.json; see golden_outputs.py for the cases
and for how a stream-layout change rewrites them."""

import json

import pytest

from golden_outputs import CASES, GOLDEN, WORKERS, environment, moves, run_case

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_recorded_for_this_numpy_and_bit_generator():
    for key, running in environment().items():
        assert RECORDED[key] == running, (f"golden hashes were recorded with {key} {RECORDED[key]}, "
                                          f"this run has {key} {running}")


def test_every_case_is_recorded():
    assert sorted(RECORDED["cases"]) == sorted(CASES)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", list(CASES))
def test_case_writes_the_recorded_bytes(tmp_path, name, workers):
    code, hashes = run_case(name, workers, tmp_path)
    recorded = RECORDED["cases"][name]
    assert code == recorded["exit_code"]
    moved = sorted(f for f in set(hashes) | set(recorded["files"]) if hashes.get(f) != recorded["files"].get(f))
    assert not moved, f"case {name!r} at --workers {workers}: files moved: {moved}"


def test_moves_names_new_cases_and_moved_files():
    recorded = {"a": {"exit_code": 0, "files": {"x.csv": "1", "m.json": "2"}}}
    cases = {"a": {"exit_code": 5, "files": {"x.csv": "3", "m.json": "2"}},
             "b": {"exit_code": 0, "files": {"x.csv": "1"}}}
    assert moves(recorded, cases) == ["moved: a exit code 0 -> 5", "moved: a x.csv", "new: b"]
    assert moves(recorded, recorded) == []
