"""CLI contracts: exit codes, byte-identical outputs, worker independence."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import filterlab
from filterlab import verify
from filterlab.cli import (
    EXIT_BLOWUP,
    EXIT_CHECK_FAILED,
    EXIT_COLLAPSE,
    EXIT_CONFIG,
    EXIT_OK,
    main,
)


def write_cfg(tmp_path: Path, name: str, cfg: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def child_env() -> dict[str, str]:
    """Environment whose PYTHONPATH leads the child to this process's filterlab.

    The package's own directory goes first as an absolute path, so the child
    imports it whatever its cwd and whether or not filterlab is installed.
    """
    src = str(Path(filterlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "filterlab.cli", *args],
        capture_output=True, text=True, env=child_env(),
    )


SIM_CFG = {"model": {"name": "jump_ou"}, "grid": {"horizon": 0.3, "dt": 0.005}, "seed": 7}


class TestSimulateCommand:
    def test_deterministic_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
        a = (tmp_path / "a" / "paths.csv").read_bytes()
        b = (tmp_path / "b" / "paths.csv").read_bytes()
        assert a == b

    def test_jump_sidecar_written(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        assert (tmp_path / "a" / "jumps.csv").exists()
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["grid"]["dt"] == 0.005
        assert "config_sha256" in manifest

    def test_invalid_dt_exits_2_naming_field(self, tmp_path):
        bad = dict(SIM_CFG, grid={"horizon": 0.3, "dt": 0})
        cfg = write_cfg(tmp_path, "bad.json", bad)
        proc = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "dt" in proc.stderr

    def test_jump_ou_override_exits_2_naming_key(self, tmp_path):
        bad = dict(SIM_CFG, model={"name": "jump_ou", "a_x": 5})
        cfg = write_cfg(tmp_path, "bad.json", bad)
        proc = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "a_x" in proc.stderr

    def test_missing_seed_exits_2(self, tmp_path):
        bad = {k: v for k, v in SIM_CFG.items() if k != "seed"}
        cfg = write_cfg(tmp_path, "noseed.json", bad)
        proc = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "seed" in proc.stderr

    def test_blow_up_exits_3(self, tmp_path):
        bad = {
            "model": {"name": "linear", "a_x": 400.0, "sigma_v": 0.0, "x0_mean": 1.0, "x0_var": 0.0},
            "grid": {"horizon": 5.0, "dt": 0.01},
            "seed": 1,
        }
        cfg = write_cfg(tmp_path, "explode.json", bad)
        proc = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert proc.returncode == EXIT_BLOWUP, proc.stderr

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--seed", "8", "--out", str(tmp_path / "c")])
        assert (tmp_path / "a" / "paths.csv").read_bytes() != (tmp_path / "c" / "paths.csv").read_bytes()


RESID = {"model": "jump_ou", "n_runs": 3, "n_particles": 32, "dt": 0.02, "horizon": 0.2, "phis": ["1", "x"]}


def residual_cfg(tmp_path: Path, name: str, checks: list[str], zakai: dict, ks: dict) -> str:
    """Config of a tiny `verify` of the given residual checks."""
    cfg = {"diagnostics": {"checks": checks, "params": {"zakai_residual": zakai, "ks_residual": ks}}, "seed": 5}
    return write_cfg(tmp_path, f"{name}.json", cfg)


FILTER_CFG = {
    "model": {"name": "change_detection"},
    "grid": {"horizon": 0.3, "dt": 0.005},
    "filter": {"n_particles": 300, "resample_threshold": 0.5},
    "seed": 3,
}


class TestFilterCommand:
    def test_reproducible_and_has_prob_change(self, tmp_path):
        cfg = write_cfg(tmp_path, "flt.json", FILTER_CFG)
        assert main(["filter", "--config", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["filter", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
        a = (tmp_path / "a" / "filter.csv").read_bytes()
        assert a == (tmp_path / "b" / "filter.csv").read_bytes()
        with open(tmp_path / "a" / "filter.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert "pi:prob_change" in rows[0]
        assert all(0.0 <= float(r["pi:prob_change"]) <= 1.0 + 1e-9 for r in rows)

    def test_constant_phi_column_is_exactly_one(self, tmp_path):
        cfg = write_cfg(tmp_path, "flt2.json", dict(FILTER_CFG, model={"name": "linear_gaussian"}))
        main(["filter", "--config", cfg, "--out", str(tmp_path / "a")])
        with open(tmp_path / "a" / "filter.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["pi:1"] == "1" for r in rows)

    def test_collapse_exits_4(self, tmp_path):
        # two static particles, steep sensor: weights degenerate to one point
        cfg = write_cfg(
            tmp_path,
            "collapse.json",
            {
                "model": {"name": "linear", "a_x": 0.0, "sigma_v": 0.0, "h_scale": 30.0,
                          "x0_mean": 0.0, "x0_var": 1.0},
                "grid": {"horizon": 4.0, "dt": 0.01},
                "filter": {"n_particles": 2, "resample_threshold": 0.0},
                "seed": 12,
            },
        )
        proc = run_cli(["filter", "--config", cfg, "--out", str(tmp_path / "x")])
        assert proc.returncode == EXIT_COLLAPSE, proc.stderr


VERIFY_CFG = {
    "diagnostics": {
        "checks": ["revuz_yor_energy", "zlogz_identity"],
        "params": {
            "revuz_yor_energy": {"n_paths": 2000},
            "zlogz_identity": {"n_paths": 2000},
        },
    },
    "seed": 5,
}


class TestVerifyCommand:
    def test_passes_and_writes_verdicts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "ver.json", VERIFY_CFG)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "passed 2/2" in out
        with open(tmp_path / "v" / "verdicts.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["check"] for r in rows} == {"revuz_yor_energy", "zlogz_identity"}
        assert all(r["passed"] == "1" for r in rows)

    def test_unknown_check_exits_2(self, tmp_path):
        bad = {"diagnostics": {"checks": ["nope"]}, "seed": 5}
        cfg = write_cfg(tmp_path, "bad.json", bad)
        proc = run_cli(["verify", "--config", cfg, "--out", str(tmp_path / "x")])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "nope" in proc.stderr

    def test_expected_fail_negative_control_exits_5(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "neg.json",
            {
                "diagnostics": {
                    "checks": ["kalman_ablation"],
                    "params": {"kalman_ablation": {"n_seeds": 2, "n_particles": 1500, "dt": 0.005}},
                },
                "seed": 5,
            },
        )
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILED
        assert "expected-fail" in out
        with open(tmp_path / "v" / "verdicts.csv") as fh:
            rows = list(csv.DictReader(fh))
        var_row = [r for r in rows if r["scenario"].endswith("var")][0]
        assert var_row["expect_fail"] == "1" and var_row["passed"] == "0"

    def test_trajectory_artifacts_written(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "gron.json",
            {
                "diagnostics": {
                    "checks": ["gronwall"],
                    "params": {"gronwall": {"n_paths": 300, "dt": 0.01}},
                },
                "seed": 4,
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "g")]) == EXIT_OK
        traj_files = list((tmp_path / "g").glob("trajectory_*.csv"))
        assert traj_files, "gronwall check should export its trajectory"
        header = traj_files[0].read_text().splitlines()[0]
        assert header.split(",")[0] == "t" and "bound" in header

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "wrk.json",
            {
                "diagnostics": {
                    "checks": ["zakai_residual"],
                    "params": {"zakai_residual": {"n_runs": 8, "n_particles": 64, "dt": 0.01,
                                                   "phis": ["1", "x"]}},
                },
                "seed": 9,
            },
        )
        for workers, tag in ((1, "w1"), (4, "w4")):
            proc = run_cli(["verify", "--config", cfg, "--out", str(tmp_path / tag),
                            "--workers", str(workers)])
            assert proc.returncode == EXIT_OK, proc.stderr
        a = (tmp_path / "w1" / "verdicts.csv").read_bytes()
        assert a == (tmp_path / "w4" / "verdicts.csv").read_bytes()

    def test_residual_single_run_exits_2(self, tmp_path):
        cfg = residual_cfg(tmp_path, "single", ["ks_residual"], RESID, dict(RESID, n_runs=1))
        proc = run_cli(["verify", "--config", cfg, "--out", str(tmp_path / "x")])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "n_runs" in proc.stderr

    def test_equal_residual_params_share_runs(self, tmp_path, monkeypatch):
        calls = []
        real = verify.residual_run
        monkeypatch.setattr(verify, "residual_run", lambda *a, **kw: calls.append(a[5]) or real(*a, **kw))
        # residual_run's run indices, in call order: once per run, or twice with unequal params
        cases = [("same", RESID, [0, 1, 2]), ("other", dict(RESID, phis=["x^2"]), [0, 1, 2] * 2)]
        for tag, ks_params, expected in cases:
            cfg = residual_cfg(tmp_path, tag, ["zakai_residual", "ks_residual"], RESID, ks_params)
            code = main(["verify", "--config", cfg, "--out", str(tmp_path / tag), "--workers", "1"])
            assert code in (EXIT_OK, EXIT_CHECK_FAILED)
            assert calls == expected, tag
            calls.clear()

    def test_shared_residual_runs_leave_bytes_unchanged(self, tmp_path):
        both = residual_cfg(tmp_path, "both", ["zakai_residual", "ks_residual"], RESID, RESID)
        runs = {"w1": (both, "1"), "w2": (both, "2"),
                "zakai": (residual_cfg(tmp_path, "zakai", ["zakai_residual"], RESID, RESID), "1"),
                "ks": (residual_cfg(tmp_path, "ks", ["ks_residual"], RESID, RESID), "1")}
        for tag, (cfg, workers) in runs.items():
            proc = run_cli(["verify", "--config", cfg, "--out", str(tmp_path / tag), "--workers", workers])
            assert proc.returncode in (EXIT_OK, EXIT_CHECK_FAILED), proc.stderr
        files = {tag: {p.name: p.read_bytes() for p in (tmp_path / tag).iterdir()} for tag in runs}
        assert files["w1"] == files["w2"]
        single = dict(files["zakai"], **files["ks"])
        single["verdicts.csv"] = files["zakai"]["verdicts.csv"] + files["ks"]["verdicts.csv"].split(b"\n", 1)[1]
        del single["manifest.json"], files["w1"]["manifest.json"]
        assert len(single) > 2 and files["w1"] == single


class TestCounterexampleCommand:
    def test_revuz_yor_summary(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "ce.json",
            {"counterexample": {"kind": "revuz_yor", "n_paths": 500, "t": 0.5, "dt": 0.005}, "seed": 2},
        )
        assert main(["counterexample", "--config", cfg, "--out", str(tmp_path / "ce")]) == EXIT_OK
        text = (tmp_path / "ce" / "counterexample.csv").read_text()
        assert "transformed_energy" in text and "closed_form" in text

    def test_hitting_summary(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "hit.json",
            {"counterexample": {"kind": "hitting", "barriers": [1], "n_paths": 400, "dt": 0.001},
             "seed": 2},
        )
        assert main(["counterexample", "--config", cfg, "--out", str(tmp_path / "ce")]) == EXIT_OK
        text = (tmp_path / "ce" / "counterexample.csv").read_text()
        assert "hitting_probability" in text and "partial_sum" in text

    def test_unknown_kind_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "ce.json", {"counterexample": {"kind": "weird"}, "seed": 2})
        proc = run_cli(["counterexample", "--config", cfg, "--out", str(tmp_path / "x")])
        assert proc.returncode == EXIT_CONFIG, proc.stderr


def test_missing_config_file_exits_2(tmp_path):
    proc = run_cli(["simulate", "--config", str(tmp_path / "absent.json")])
    assert proc.returncode == EXIT_CONFIG, proc.stderr
