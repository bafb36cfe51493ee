"""Byte identity: every golden case writes the bytes recorded for numpy's
dispatch level at --workers 1 and 2.

The hashes live in golden_outputs.json, one set per dispatch level; see
golden_outputs.py for the cases and levels and for how a stream-layout change
rewrites them."""

import json

import pytest

from golden_outputs import (CASES, GOLDEN, LEVELS, WORKERS, disabled_above, dispatch_level, environment, moves,
                            run_case)

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def recorded_cases() -> dict:
    """The cases recorded at the level this process runs numpy at; a level with no record fails, naming it."""
    level = dispatch_level()
    if level not in RECORDED["levels"]:
        pytest.fail(f"golden hashes were recorded at numpy dispatch levels {', '.join(sorted(RECORDED['levels']))}; "
                    f"this run has dispatch level {level}, which has no record")
    return RECORDED["levels"][level]


def test_recorded_for_this_numpy_and_bit_generator():
    for key, running in environment().items():
        if key != "dispatch_level":
            assert RECORDED[key] == running, (f"golden hashes were recorded with {key} {RECORDED[key]}, "
                                              f"this run has {key} {running}")


def test_recorded_for_this_dispatch_level():
    recorded_cases()


def test_every_case_is_recorded():
    assert set(RECORDED["levels"]) <= set(LEVELS)
    for cases in RECORDED["levels"].values():
        assert sorted(cases) == sorted(CASES)


def test_recorded_levels_agree_on_every_exit_code():
    levels = list(RECORDED["levels"].values())
    for name in CASES:
        assert {cases[name]["exit_code"] for cases in levels} == {levels[0][name]["exit_code"]}, name


@pytest.mark.parametrize("level", LEVELS)
def test_a_level_disables_the_levels_above_it_and_none_below(level):
    disabled = disabled_above(level).split()
    assert [other in disabled for other in LEVELS] == [LEVELS.index(other) < LEVELS.index(level) for other in LEVELS]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", list(CASES))
def test_case_writes_the_recorded_bytes(tmp_path, name, workers):
    recorded = recorded_cases()[name]
    code, hashes = run_case(name, workers, tmp_path)
    assert code == recorded["exit_code"]
    moved = sorted(f for f in set(hashes) | set(recorded["files"]) if hashes.get(f) != recorded["files"].get(f))
    assert not moved, f"case {name!r} at --workers {workers}: files moved: {moved}"


def test_moves_names_new_cases_and_moved_files():
    recorded = {"a": {"exit_code": 0, "files": {"x.csv": "1", "m.json": "2"}}}
    cases = {"a": {"exit_code": 5, "files": {"x.csv": "3", "m.json": "2"}},
             "b": {"exit_code": 0, "files": {"x.csv": "1"}}}
    assert moves(recorded, cases) == ["moved: a exit code 0 -> 5", "moved: a x.csv", "new: b"]
    assert moves(recorded, recorded) == []
