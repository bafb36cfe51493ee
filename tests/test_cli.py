"""CLI contracts: exit codes, byte-identical outputs, worker independence."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import filterlab
from filterlab import cli, filters, girsanov, simulate, verify
from filterlab.filters import FilterConfig, run_filter
from filterlab.models import Battery, make_model
from filterlab.parallel import run_plans
from filterlab.rng import TAG_PATH, substream
from filterlab.simulate import TimeGrid
from filterlab.cli import (
    EXIT_BLOWUP,
    EXIT_CHECK_FAILED,
    EXIT_COLLAPSE,
    EXIT_CONFIG,
    EXIT_OK,
    check_gronwall,
    main,
)
from golden_outputs import benchmark_workloads


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


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_floats(rows: list[list[str]]) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in rows])


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
        assert manifest["bit_generator"] == "SFC64"
        assert manifest["package"] == f"filterlab {filterlab.__version__}"

    @pytest.mark.parametrize("name", ["jump_ou", "change_detection"])
    def test_paths_read_back_exactly(self, tmp_path, name):
        cfg = {"model": {"name": name}, "grid": {"horizon": 0.1, "dt": 0.01}, "seed": 17}
        path = write_cfg(tmp_path, "sim.json", cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        grid = TimeGrid(0.1, 0.01)
        bundle = simulate.simulate_pair(make_model(name), grid, substream(17, TAG_PATH, 0))
        d = bundle.x.shape[1]
        rows = read_rows(tmp_path / "paths.csv")
        assert rows[0] == [f"# horizon={grid.horizon!r} dt={grid.dt!r} seed=17"]
        assert rows[1] == ["step", "t"] + [f"x_{i + 1}" for i in range(d)] + ["y_1"]
        data = read_floats(rows[2:])
        np.testing.assert_array_equal(data[:, 0], np.arange(grid.n_steps + 1))
        np.testing.assert_array_equal(data[:, 1], grid.times())
        np.testing.assert_array_equal(data[:, 2:2 + d], bundle.x)
        np.testing.assert_array_equal(data[:, 2 + d:], bundle.y)

    def test_jump_sidecar_lists_marks(self, tmp_path):
        cfg = dict(SIM_CFG, grid={"horizon": 1.0, "dt": 0.01}, seed=12)
        path = write_cfg(tmp_path, "sim.json", cfg)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == EXIT_OK
        bundle = simulate.simulate_pair(make_model("jump_ou"), TimeGrid(1.0, 0.01), substream(12, TAG_PATH, 0))
        rows = read_rows(tmp_path / "jumps.csv")
        assert bundle.jump_log and rows[0] == ["step", "mark_1"]
        assert [[int(row[0]), float(row[1])] for row in rows[1:]] == [[k, float(m[0])] for k, m in bundle.jump_log]

    def test_jump_sidecar_without_jumps_is_its_header(self, tmp_path):
        # SIM_CFG's path fires no jump
        main(["simulate", "--config", write_cfg(tmp_path, "sim.json", SIM_CFG), "--out", str(tmp_path)])
        assert (tmp_path / "jumps.csv").read_text() == "step,mark_1\n"

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
        assert not (tmp_path / "x").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--seed", "8", "--out", str(tmp_path / "c")])
        assert (tmp_path / "a" / "paths.csv").read_bytes() != (tmp_path / "c" / "paths.csv").read_bytes()


RESID = {"model": "jump_ou", "n_runs": 3, "n_particles": 32, "dt": 0.02, "horizon": 0.2, "phis": ["1", "x"]}
ENSEMBLE = {"scenario": "revuz_yor", "n_paths": 200, "dt": 0.01}
TILTED = {"alpha": 1.0, "t": 0.5, "n_paths": 200, "dt": 0.01}


def residual_cfg(tmp_path: Path, name: str, checks: list[str], zakai: dict, ks: dict) -> str:
    """Config of a tiny `verify` of the given residual checks, with a params block for each of them."""
    params = {name: block for name, block in (("zakai_residual", zakai), ("ks_residual", ks)) if name in checks}
    cfg = {"diagnostics": {"checks": checks, "params": params}, "seed": 5}
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

    def test_columns_read_back_exactly(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "flt.json", FILTER_CFG)
        assert main(["filter", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        model, grid = make_model("change_detection"), TimeGrid(0.3, 0.005)
        bundle = simulate.simulate_pair(model, grid, substream(3, TAG_PATH, 0))
        indicator = filters.change_indicator   # the seam through which run_filter reads the change posterior
        seen = []
        monkeypatch.setattr(filters, "change_indicator", lambda states, t: seen.append(t) or indicator(states, t))
        run = run_filter(model, bundle.y, grid, FilterConfig(n_particles=300, resample_threshold=0.5, seed=3),
                         battery=Battery.default(2))
        assert seen == [k * grid.dt for k in range(grid.n_steps + 1)] and list(run.pi)[-1] == "prob_change"
        rows = read_rows(tmp_path / "filter.csv")
        assert rows[0] == ["t"] + [f"pi:{lab}" for lab in run.pi] + ["rho1", "ess", "resampled"]
        columns = [run.times, *run.pi.values(), run.rho_one, run.ess, np.concatenate([[False], run.resampled])]
        np.testing.assert_array_equal(read_floats(rows[1:]), np.column_stack(columns))

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
        assert not (tmp_path / "x").exists()


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

    def test_expected_fail_negative_control_exits_0(self, tmp_path, capsys):
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
        assert code == EXIT_OK
        assert "expected-fail" in out
        assert "passed 2/2" in out   # the count follows ok(): a control that fails as expected counts
        with open(tmp_path / "v" / "verdicts.csv") as fh:
            rows = list(csv.DictReader(fh))
        var_row = [r for r in rows if r["scenario"].endswith("var")][0]
        assert var_row["expect_fail"] == "1" and var_row["passed"] == "0"

    def test_negative_control_that_does_not_fail_exits_5(self, tmp_path, capsys):
        # so short a horizon and so wide a band that the correlation-blind filter stays inside it
        params = {"kalman_ablation": {"n_seeds": 2, "n_particles": 200, "horizon": 0.1, "tolerance": 10}}
        cfg = write_cfg(tmp_path, "neg.json", {"diagnostics": {"checks": ["kalman_ablation"], "params": params},
                                               "seed": 5})
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILED
        assert out.count(": FAIL") == 2 and "expected-fail" not in out
        assert "passed 0/2" in out

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
        assert len(traj_files) == 1, "gronwall check should export its trajectory"
        rows = read_rows(traj_files[0])
        [[row]] = run_plans([check_gronwall(4, n_paths=300, dt=0.01)])
        trajectory = row.trajectory
        assert rows[0] == list(trajectory) and rows[0][0] == "t" and "bound" in rows[0]
        np.testing.assert_array_equal(read_floats(rows[1:]), np.column_stack(list(trajectory.values())))

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
        monkeypatch.setattr(verify, "residual_run", lambda *a, **kw: calls.append(a[4]) or real(*a, **kw))
        # residual_run's blocks of run indices, in call order: once per run, or twice with unequal params
        cases = [("same", RESID, [(0, 1, 2)]), ("other", dict(RESID, phis=["x^2"]), [(0, 1, 2)] * 2)]
        for tag, ks_params, expected in cases:
            cfg = residual_cfg(tmp_path, tag, ["zakai_residual", "ks_residual"], RESID, ks_params)
            code = main(["verify", "--config", cfg, "--out", str(tmp_path / tag), "--workers", "1"])
            assert code in (EXIT_OK, EXIT_CHECK_FAILED)
            assert calls == expected, tag
            calls.clear()

    @pytest.mark.parametrize("producer, params", [
        ("ensemble_revuz_yor", {"martingale_mean": dict(ENSEMBLE, times=[0.25, 0.5]), "zstar_bound": dict(ENSEMBLE, t=0.5),
                                "energy_identity": dict(ENSEMBLE, t=0.5)}),
        ("ensemble_from_model", {name: {"scenario": "jump_ou", "n_paths": 200, "dt": 0.02, "horizon": 0.4}
                                 for name in ("local_boundedness", "gronwall")}),
        ("revuz_yor_transformed_estimates", {"revuz_yor_energy": TILTED, "zlogz_identity": TILTED}),
    ])
    def test_equal_producer_inputs_run_once(self, tmp_path, monkeypatch, producer, params):
        calls = []
        real = getattr(girsanov, producer)
        monkeypatch.setattr(girsanov, producer, lambda *a: calls.append(a) or real(*a))
        outputs = {}
        for tag, names in [("all", list(params))] + [(name, [name]) for name in params]:
            cfg = {"diagnostics": {"checks": names, "params": {n: params[n] for n in names}}, "seed": 5}
            code = main(["verify", "--config", write_cfg(tmp_path, f"{tag}.json", cfg), "--out", str(tmp_path / tag)])
            assert code in (EXIT_OK, EXIT_CHECK_FAILED)
            assert len(calls) == 1, tag
            calls.clear()
            outputs[tag] = {p.name: p.read_bytes() for p in (tmp_path / tag).iterdir() if p.name != "manifest.json"}
        # every row and trajectory of the shared run equals, byte for byte, that of its check run alone
        alone = {}
        for name in params:
            alone.update(outputs[name])
        alone["verdicts.csv"] = b"".join([outputs[n]["verdicts.csv"].split(b"\n", 1)[1] for n in params])
        outputs["all"]["verdicts.csv"] = outputs["all"]["verdicts.csv"].split(b"\n", 1)[1]
        assert outputs["all"] == alone

    def test_band_width_is_written_once(self, tmp_path, monkeypatch):
        # every statistical check at a small size, and every fixed-tolerance row
        params = {
            "revuz_yor_energy": TILTED, "zlogz_identity": TILTED,
            "martingale_mean": dict(ENSEMBLE, times=[0.25, 0.5]), "zstar_bound": dict(ENSEMBLE, t=0.5),
            "energy_identity": dict(ENSEMBLE, t=0.5), "independent_h": {"t": 0.5, "n_paths": 200, "dt": 0.01},
            "local_boundedness": {"scenario": "jump_ou", "n_paths": 200, "dt": 0.02, "horizon": 0.4},
            "gronwall": {"scenario": "jump_ou", "n_paths": 200, "dt": 0.02, "horizon": 0.4},
            "dufresne": {"n_paths": 200, "horizon": 10.0, "dt": 0.01},
            "hitting": {"barriers": [1, 3], "n_paths": 200, "dt": 1e-3},
            "zakai_residual": RESID, "ks_residual": RESID, "kalman_agreement": KALMAN, "change_detection": KALMAN,
        }
        cfg = write_cfg(tmp_path, "all.json", {"diagnostics": {"checks": list(params), "params": params}, "seed": 5})

        def rows(tag):
            assert main(["verify", "--config", cfg, "--out", str(tmp_path / tag)]) in (EXIT_OK, EXIT_CHECK_FAILED)
            with open(tmp_path / tag / "verdicts.csv") as fh:
                return list(csv.DictReader(fh))

        base = rows("sigmas3")
        monkeypatch.setattr(verify, "SIGMAS", 4.0)
        wide = rows("sigmas4")
        # fixed tolerances, and the hitting rows' own HITTING_SIGMAS band
        unmoved = {"kalman_agreement", "change_detection_oracle_gap", "divergence_partial_sums", "hitting_probability"}
        banded = {"revuz_yor_energy", "zlogz_identity", "martingale_mean", "zstar_bound", "energy_identity",
                  "independent_h", "local_boundedness", "gronwall_envelope", "dufresne", "zakai_residual",
                  "ks_residual"}
        assert {r["check"] for r in base} == unmoved | banded
        assert [(r["check"], r["scenario"], r["estimate"], r["reference"]) for r in base] == \
            [(r["check"], r["scenario"], r["estimate"], r["reference"]) for r in wide]
        for a, b in zip(base, wide):
            if a["check"] in unmoved:
                assert b["tolerance"] == a["tolerance"], a["check"]
            else:
                assert float(b["tolerance"]) == pytest.approx(float(a["tolerance"]) * 4.0 / 3.0, rel=1e-12), a["check"]
        assert {r["check"] for r in base if r["check"] in banded and float(r["tolerance"]) > 0.0} == banded

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
        with open(tmp_path / "ce" / "counterexample.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["quantity"] for r in rows] == ["e_z", "transformed_energy", "z_log_z", "z_star", "plain_energy",
                                                 "transformed_energy_tilted", "closed_form"]
        assert {(r["scenario"], r["n_paths"], r["seed"]) for r in rows} == {("revuz_yor(alpha=1)", "500", "2")}
        grid = TimeGrid(0.5, 0.005)
        e_z = girsanov.ensemble_revuz_yor(1.0, grid, 500, 2).z.at(grid.n_steps)
        assert (rows[0]["estimate"], rows[0]["se"]) == (repr(e_z.value), repr(e_z.se))
        assert (rows[-1]["estimate"], rows[-1]["se"]) == (repr(girsanov.revuz_yor_closed_form(1.0, 0.5)), "0.0")

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

    def test_hitting_barrier_without_two_resolved_paths_is_a_failing_row(self, tmp_path, monkeypatch, capsys):
        # with a horizon shorter than one step no path resolves; this used to end in a
        # ValueError traceback from mean_se
        monkeypatch.setattr(simulate, "HITTING_MAX_TIME", 0.5)
        block = {"barriers": [100000], "n_paths": 2, "dt": 1.0}
        cfg = write_cfg(tmp_path, "hit.json", {"counterexample": dict(block, kind="hitting"), "seed": 11})
        assert main(["counterexample", "--config", cfg, "--out", str(tmp_path / "ce")]) == EXIT_OK
        with open(tmp_path / "ce" / "counterexample.csv") as fh:
            [row] = [r for r in csv.DictReader(fh) if r["quantity"] == "hitting_probability"]
        assert (row["estimate"], row["detail"]) == ("nan", "censored=2")
        cfg = write_cfg(tmp_path, "ver.json", verify_cfg({"hitting": block}))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_CHECK_FAILED
        assert "hitting_probability [barrier=100000]: FAIL" in capsys.readouterr().out

    def test_hitting_row_whose_paths_all_exit_on_one_side_has_a_band(self, tmp_path):
        # both paths exit at -1, so the sample SE is 0; the band is the SE of a Bernoulli
        # mean under the reference, where a band of 0 SEs used to fail this row (exit 5)
        block = {"barriers": [100000], "n_paths": 2, "dt": 1.0}
        cfg = write_cfg(tmp_path, "ver.json", dict(verify_cfg({"hitting": block}), seed=11))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_OK
        with open(tmp_path / "v" / "verdicts.csv") as fh:
            [row] = [r for r in csv.DictReader(fh) if r["check"] == "hitting_probability"]
        p0 = 100000 / 100001
        assert (row["estimate"], row["detail"], row["passed"]) == ("1.0", "censored=0", "1")
        assert float(row["tolerance"]) == 5.0 * math.sqrt(p0 * (1.0 - p0) / 2)

    def test_unknown_kind_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "ce.json", {"counterexample": {"kind": "weird"}, "seed": 2})
        proc = run_cli(["counterexample", "--config", cfg, "--out", str(tmp_path / "x")])
        assert proc.returncode == EXIT_CONFIG, proc.stderr


def verify_cfg(params: dict) -> dict:
    """A `verify` config that runs the first check named in params."""
    return {"diagnostics": {"checks": [next(iter(params))], "params": params}, "seed": 5}


SMALL = {"n_paths": 100, "dt": 0.01}
KALMAN = {"n_seeds": 2, "n_particles": 50, "dt": 0.05, "horizon": 0.2}
MODEL_CFG = {"grid": {"horizon": 0.1, "dt": 0.01}, "seed": 1}
# (command, config, the dotted key stderr must name); every config is small enough to run
# in a second, so a CLI that ignored the key would finish and exit 0
STRICT_CASES = {
    "top_level": ("simulate", dict(SIM_CFG, bogus=1), "'bogus'"),
    "grid": ("simulate", dict(SIM_CFG, grid={"horizon": 0.3, "dt": 0.005, "steps": 60}), "grid.steps"),
    "grid_word": ("simulate", dict(SIM_CFG, grid={"horizon": 0.3, "dt": "abc"}), "grid.dt"),
    "grid_null": ("simulate", dict(SIM_CFG, grid={"horizon": 0.3, "dt": None}), "grid.dt"),
    "grid_numeric_string": ("simulate", dict(SIM_CFG, grid={"horizon": "1.0", "dt": 0.005}), "grid.horizon"),
    "grid_bool": ("simulate", dict(SIM_CFG, grid={"horizon": True, "dt": 0.005}), "grid.horizon"),
    "bool_seed": ("simulate", dict(SIM_CFG, seed=True), "'seed'"),
    "negative_seed": ("simulate", dict(SIM_CFG, seed=-1), "'seed'"),
    "grid_overflow": ("simulate", dict(SIM_CFG, grid={"horizon": 0.3, "dt": 10 ** 400}), "grid.dt"),
    # json reads NaN and Infinity; an infinite dt used to give a 0-step path and exit 0, an
    # infinite horizon or time an OverflowError traceback, an infinite dt or NaN tolerance exit 5
    "grid_infinite_dt": ("simulate", dict(SIM_CFG, grid={"horizon": 0.3, "dt": math.inf}), "grid.dt"),
    "grid_infinite_horizon": ("simulate", dict(SIM_CFG, grid={"horizon": math.inf, "dt": 0.005}), "grid.horizon"),
    "infinite_time": ("verify", verify_cfg({"martingale_mean": dict(SMALL, times=[math.inf])}),
                      "diagnostics.params.martingale_mean.times"),
    "infinite_dufresne_horizon": ("verify", verify_cfg({"dufresne": dict(SMALL, horizon=math.inf)}),
                                  "diagnostics.params.dufresne.horizon"),
    "infinite_dt": ("verify", verify_cfg({"revuz_yor_energy": dict(SMALL, dt=math.inf)}),
                    "diagnostics.params.revuz_yor_energy.dt"),
    "nan_tolerance": ("verify", verify_cfg({"kalman_agreement": dict(KALMAN, tolerance=math.nan)}),
                      "diagnostics.params.kalman_agreement.tolerance"),
    "count_overflow": ("verify", verify_cfg({"independent_h": dict(SMALL, n_paths=10 ** 400)}),
                       "diagnostics.params.independent_h.n_paths"),
    "filter": ("filter", dict(FILTER_CFG, filter={"n_partcles": 300}), "filter.n_partcles"),
    "filter_seed": ("filter", dict(FILTER_CFG, filter={"n_particles": 300, "seed": 4}), "filter.seed"),
    "filter_resampler": ("filter", dict(FILTER_CFG, filter={"n_particles": 300, "resampler": "multinomial"}),
                         "filter.resampler"),
    "diagnostics": ("verify", {"diagnostics": {"checks": ["independent_h"], "parms": {}}, "seed": 5},
                    "diagnostics.parms"),
    "check_params": ("verify", verify_cfg({"independent_h": dict(SMALL, n_path=5)}),
                     "diagnostics.params.independent_h.n_path"),
    "removed_key": ("verify", verify_cfg({"kalman_agreement": dict(KALMAN, correlated=True)}),
                    "diagnostics.params.kalman_agreement.correlated"),
    "checks_string": ("verify", {"diagnostics": {"checks": "dufresne"}, "seed": 5}, "diagnostics.checks"),
    "checks_number": ("verify", {"diagnostics": {"checks": 5}, "seed": 5}, "diagnostics.checks"),
    "checks_nested": ("verify", {"diagnostics": {"checks": [["dufresne"]]}, "seed": 5}, "diagnostics.checks"),
    "non_check": ("verify", verify_cfg({"independent_h": SMALL, "nope": {}}), "diagnostics.params.nope"),
    # a block for a check that diagnostics.checks does not name used to be validated and then ignored
    "unused_params": ("verify", verify_cfg({"independent_h": SMALL, "hitting": {"barriers": [1], "n_paths": 100,
                                                                               "dt": 1e-3}}),
                      "diagnostics.params.hitting"),
    "non_numeric": ("verify", verify_cfg({"independent_h": dict(SMALL, n_paths="many")}),
                    "diagnostics.params.independent_h.n_paths"),
    "phi_label": ("verify", verify_cfg({"zakai_residual": dict(RESID, phis=["x", "bogus"])}),
                  "diagnostics.params.zakai_residual.phis"),
    "phi_coordinate": ("verify", verify_cfg({"zakai_residual": dict(RESID, phis=["x", "x5"])}),
                       "diagnostics.params.zakai_residual.phis"),
    # labels other than Battery.default(d)'s, and repeated ones, used to be renamed or written twice
    "phi_x0_alias": ("verify", verify_cfg({"zakai_residual": dict(RESID, phis=["1", "x0"])}),
                             "diagnostics.params.zakai_residual.phis"),
    "phi_tanh_alias": ("verify", verify_cfg({"ks_residual": dict(RESID, phis=["tanh(x0)"])}),
                       "diagnostics.params.ks_residual.phis"),
    "phi_square_alias": ("verify", verify_cfg({"zakai_residual": dict(RESID, phis=["x0*x0"])}),
                         "diagnostics.params.zakai_residual.phis"),
    "phi_space": ("verify", verify_cfg({"zakai_residual": dict(RESID, model="change_detection", phis=["x 1"])}),
                  "diagnostics.params.zakai_residual.phis"),
    "phi_plus": ("verify", verify_cfg({"ks_residual": dict(RESID, model="change_detection", phis=["x+1"])}),
                 "diagnostics.params.ks_residual.phis"),
    "phi_repeated": ("verify", verify_cfg({"zakai_residual": dict(RESID, phis=["x", "x"])}),
                     "diagnostics.params.zakai_residual.phis"),
    # a number where a label is due used to be read as its string, so [1] ran phi = 1
    "phi_number": ("verify", verify_cfg({"zakai_residual": dict(RESID, phis=[1])}),
                   "diagnostics.params.zakai_residual.phis"),
    # a non-string out used to end in a TypeError traceback, and an empty object wrote to the working directory
    "out_number": ("simulate", dict(SIM_CFG, out=5), "'out'"),
    "out_object": ("simulate", dict(SIM_CFG, out={}), "'out'"),
    # model keys used to be passed on unread: a bool or a numeric string ran, an unlisted
    # key was ignored, and a bad prior failed in the sampler with a traceback
    "model_bool": ("simulate", dict(MODEL_CFG, model={"name": "linear_gaussian", "a_x": True}), "model.a_x"),
    "model_numeric_string": ("simulate", dict(MODEL_CFG, model={"name": "linear", "x0_var": "0.5"}), "model.x0_var"),
    # a negative variance used to be refused by a message that named no key
    "model_negative_variance": ("simulate", dict(MODEL_CFG, model={"name": "linear", "x0_var": -1}), "model.x0_var"),
    "model_change_bool": ("simulate", dict(MODEL_CFG, model={"name": "change_detection", "b0": True}), "model.b0"),
    "model_sigma_tilde": ("simulate", dict(MODEL_CFG, model={"name": "linear", "sigma_tilde": 3}),
                          "model.sigma_tilde"),
    "model_levy": ("simulate", dict(MODEL_CFG, model={"name": "linear", "levy": {"a": 1}}), "model.levy"),
    "prior_sum": ("simulate", dict(MODEL_CFG, model={"name": "change_detection", "b_values": [1, 2],
                                                     "b_probs": [0.5, 0.6]}), "model.b_probs"),
    "prior_negative": ("simulate", dict(MODEL_CFG, model={"name": "change_detection", "b_values": [1, 2],
                                                          "b_probs": [-1, 2]}), "model.b_probs"),
    "prior_size": ("simulate", dict(MODEL_CFG, model={"name": "change_detection", "tau_values": [0.5],
                                                      "tau_probs": [1, 2]}), "model.tau_probs"),
    "prior_empty": ("simulate", dict(MODEL_CFG, model={"name": "change_detection", "b_values": []}), "model.b_values"),
    "check_model": ("verify", verify_cfg({"kalman_agreement": dict(KALMAN, model="nope")}),
                    "diagnostics.params.kalman_agreement.model"),
    # a model with no Kalman-Bucy oracle used to end in an IndexError traceback (change_detection) or to be
    # checked against an oracle blind to its jumps (jump_ou)
    **{f"{check}_{model}": ("verify", verify_cfg({check: dict(KALMAN, model=model)}),
                            f"diagnostics.params.{check}.model")
       for check in ("kalman_agreement", "kalman_ablation") for model in ("change_detection", "jump_ou")},
    "scenario": ("verify", verify_cfg({"zstar_bound": dict(SMALL, scenario="nope")}),
                 "diagnostics.params.zstar_bound.scenario"),
    "model_only_scenario": ("verify", verify_cfg({"gronwall": dict(SMALL, scenario="revuz_yor")}),
                            "diagnostics.params.gronwall.scenario"),
    "representation": ("verify", verify_cfg({"revuz_yor_energy": dict(SMALL, representation="tilted")}),
                       "diagnostics.params.revuz_yor_energy.representation"),
    "empty_times": ("verify", verify_cfg({"martingale_mean": dict(SMALL, times=[])}),
                    "diagnostics.params.martingale_mean.times"),
    # an empty list used to end in a ValueError traceback (barriers) or to pass a verify that checked nothing (phis)
    "empty_barriers": ("verify", verify_cfg({"hitting": {"barriers": [], "n_paths": 10, "dt": 1e-3}}),
                       "diagnostics.params.hitting.barriers"),
    "counterexample_empty_barriers": ("counterexample", {"counterexample": {"kind": "hitting", "barriers": [],
                                                                            "n_paths": 10, "dt": 1e-3}, "seed": 2},
                                      "counterexample.barriers"),
    "empty_phis": ("verify", verify_cfg({"zakai_residual": dict(RESID, phis=[])}),
                   "diagnostics.params.zakai_residual.phis"),
    "time_off_grid": ("verify", verify_cfg({"martingale_mean": dict(SMALL, times=[0.5, 0.333])}),
                      "diagnostics.params.martingale_mean.times"),
    "negative_dt": ("verify", verify_cfg({"hitting": {"barriers": [1], "n_paths": 100, "dt": -1e-3}}),
                    "diagnostics.params.hitting.dt"),
    "horizon_below_dt": ("verify", verify_cfg({"zstar_bound": dict(SMALL, t=0.001)}),
                         "diagnostics.params.zstar_bound.t"),
    # at a horizon <= 2 ln 100 the closed-form tail, not the simulated paths, carries much of the estimate
    "dufresne_horizon": ("verify", verify_cfg({"dufresne": dict(SMALL, horizon=2.0)}),
                         "diagnostics.params.dufresne.horizon"),
    "one_particle": ("verify", verify_cfg({"kalman_agreement": dict(KALMAN, n_particles=1)}),
                     "diagnostics.params.kalman_agreement.n_particles"),
    "threshold": ("verify", verify_cfg({"kalman_agreement": dict(KALMAN, resample_threshold=1.5)}),
                  "diagnostics.params.kalman_agreement.resample_threshold"),
    "filter_one_particle": ("filter", dict(FILTER_CFG, filter={"n_particles": 1}), "filter.n_particles"),
    "string_bool": ("filter", dict(FILTER_CFG, filter={"n_particles": 300, "ignore_correlation": "false"}),
                    "filter.ignore_correlation"),
    "change_size_elsewhere": ("verify", verify_cfg({"gronwall": dict(SMALL, scenario="jump_ou", b=5, b0=2)}),
                              "diagnostics.params.gronwall.b'"),
    "change_bound_elsewhere": ("verify", verify_cfg({"local_boundedness": dict(SMALL, b_max=3.0)}),
                               "diagnostics.params.local_boundedness.b_max"),
    "one_path": ("verify", verify_cfg({"independent_h": dict(SMALL, n_paths=1)}),
                 "diagnostics.params.independent_h.n_paths"),
    "fractional_paths": ("verify", verify_cfg({"independent_h": dict(SMALL, n_paths=20.7)}),
                         "diagnostics.params.independent_h.n_paths"),
    "string_count": ("verify", verify_cfg({"independent_h": dict(SMALL, n_paths="100")}),
                     "diagnostics.params.independent_h.n_paths"),
    "no_seeds": ("verify", verify_cfg({"change_detection": dict(KALMAN, n_seeds=0)}),
                 "diagnostics.params.change_detection.n_seeds"),
    # alpha <= 0 and barriers below 1 are refused before any check runs
    "zero_alpha": ("verify", verify_cfg({"revuz_yor_energy": dict(SMALL, alpha=0)}),
                   "diagnostics.params.revuz_yor_energy.alpha"),
    "negative_alpha": ("verify", verify_cfg({"zlogz_identity": dict(SMALL, alpha=-1.0), "independent_h": SMALL}),
                       "diagnostics.params.zlogz_identity.alpha"),
    # an alpha whose closed form e^{2 alpha t} overflows a float used to end in an OverflowError
    "alpha_overflow": ("verify", verify_cfg({"revuz_yor_energy": dict(SMALL, alpha=400)}),
                       "diagnostics.params.revuz_yor_energy.alpha"),
    "zlogz_alpha_overflow": ("verify", verify_cfg({"zlogz_identity": dict(SMALL, alpha=1e300, t=0.5)}),
                             "diagnostics.params.zlogz_identity.alpha"),
    "negative_barrier": ("verify", verify_cfg({"hitting": {"barriers": [-1], "n_paths": 100, "dt": 1e-3}}),
                         "diagnostics.params.hitting.barriers"),
    "zero_barrier": ("verify", verify_cfg({"hitting": {"barriers": [1, 0], "n_paths": 100, "dt": 1e-3}}),
                     "diagnostics.params.hitting.barriers"),
    "fractional_barrier": ("verify", verify_cfg({"hitting": {"barriers": [1, 2.5], "n_paths": 100, "dt": 1e-3}}),
                           "diagnostics.params.hitting.barriers"),
    "one_counterexample_path": ("counterexample", {"counterexample": {"kind": "dufresne", "n_paths": 1,
                                                                      "horizon": 1.0, "dt": 0.01}, "seed": 2},
                                "counterexample.n_paths"),
    "counterexample": ("counterexample", {"counterexample": {"kind": "dufresne", "n_path": 3, "n_paths": 100,
                                                             "horizon": 1.0, "dt": 0.01}, "seed": 2},
                       "counterexample.n_path"),
    "kind_list": ("counterexample", {"counterexample": {"kind": ["hitting"]}, "seed": 2}, "counterexample.kind"),
    "counterexample_alpha": ("counterexample", {"counterexample": {"kind": "revuz_yor", "alpha": 0, "n_paths": 100,
                                                                   "t": 0.5, "dt": 0.01}, "seed": 2},
                             "counterexample.alpha"),
    "counterexample_alpha_overflow": ("counterexample", {"counterexample": {"kind": "revuz_yor", "alpha": 400,
                                                                            "n_paths": 100, "dt": 0.01}, "seed": 2},
                                      "counterexample.alpha"),
    "counterexample_barrier": ("counterexample", {"counterexample": {"kind": "hitting", "barriers": [0],
                                                                     "n_paths": 100, "dt": 1e-3}, "seed": 2},
                               "counterexample.barriers"),
    # a dt that does not divide HITTING_MAX_TIME used to be accepted and censor elsewhere (0.3: at t = 399.9)
    "hitting_dt": ("verify", verify_cfg({"hitting": {"barriers": [1], "n_paths": 100, "dt": 0.3}}),
                   "diagnostics.params.hitting.dt"),
    "counterexample_hitting_dt": ("counterexample", {"counterexample": {"kind": "hitting", "barriers": [1],
                                                                        "n_paths": 100, "dt": 0.3}, "seed": 2},
                                  "counterexample.dt"),
}


@pytest.mark.parametrize("case", list(STRICT_CASES))
def test_unknown_key_or_bad_value_exits_2_naming_it(tmp_path, capsys, case):
    command, cfg, dotted = STRICT_CASES[case]
    path = write_cfg(tmp_path, "cfg.json", cfg)
    code = main([command, "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert dotted in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    code = main(["simulate", "--config", write_cfg(tmp_path, "sim.json", SIM_CFG), "--seed", "-1",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["flag", "config", "under_file", "dangling_link"])
def test_out_naming_a_file_exits_2_before_the_command_runs(tmp_path, capsys, monkeypatch, where):
    # such an out used to run the whole command and end in a FileExistsError traceback from mkdir
    monkeypatch.setitem(cli.COMMANDS, "simulate", lambda *args: pytest.fail("the command ran"))
    taken = tmp_path / "taken"
    taken.write_text("kept")
    (tmp_path / "link").symlink_to(tmp_path / "missing")
    out = {"under_file": taken / "sub", "dangling_link": tmp_path / "link"}.get(where, taken)
    cfg = write_cfg(tmp_path, "sim.json", dict(SIM_CFG, out=str(out)) if where == "config" else SIM_CFG)
    code = main(["simulate", "--config", cfg] + ([] if where == "config" else ["--out", str(out)]))
    assert code == EXIT_CONFIG
    assert "'out'" in capsys.readouterr().err
    assert taken.read_text() == "kept" and sorted(p.name for p in tmp_path.iterdir()) == ["link", "sim.json", "taken"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2(tmp_path, capsys, monkeypatch, workers):
    # it used to run the command with one worker
    monkeypatch.setitem(cli.COMMANDS, "verify", lambda *args: pytest.fail("the command ran"))
    cfg = write_cfg(tmp_path, "verify.json", VERIFY_CFG)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out"), "--workers", workers]) == EXIT_CONFIG
    assert "'--workers'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_2(tmp_path):
    proc = run_cli(["simulate", "--config", str(tmp_path / "absent.json")])
    assert proc.returncode == EXIT_CONFIG, proc.stderr


def test_importing_the_package_loads_none_of_its_modules():
    # the package re-exports nothing: callers import the modules they use
    script = "import sys, filterlab; print(sorted(m for m in sys.modules if m.startswith('filterlab.')))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env(), check=True)
    assert out.stdout.strip() == "[]"


WORKLOADS = benchmark_workloads()
# what each command writes besides manifest.json
COMMAND_OUTPUTS = {"simulate": "paths.csv", "filter": "filter.csv", "verify": "verdicts.csv"}


@pytest.mark.parametrize("workload", list(WORKLOADS.WORKLOADS))
def test_benchmark_configs_are_accepted(tmp_path, workload):
    # a config key the CLI refuses would make the benchmark itself fail; a verdict may fail (exit 5)
    for i, (command, cfg) in enumerate(WORKLOADS.commands(workload, 1, "quick")):
        out = tmp_path / f"{i}_{command}"
        code = main([command, "--config", write_cfg(tmp_path, f"{i}.json", cfg), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED), (command, code)
        assert (out / "manifest.json").is_file() and (out / COMMAND_OUTPUTS[command]).is_file()
