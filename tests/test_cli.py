import csv
import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from ranksieve import MCConfig, Sample, cli, simulate
from ranksieve.cli import main


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    n = 200
    z1 = rng.normal(size=n)
    z2 = rng.uniform(-3, 3, n)
    w = rng.normal(size=n)
    y = z1 + np.sin(z2) + 0.1 * rng.normal(size=n)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "z1", "z2", "w"])
        for i in range(n):
            writer.writerow([repr(float(v)) for v in (y[i], z1[i], z2[i], w[i])])
    schema = tmp_path / "schema.json"
    schema.write_text(
        json.dumps({"y_column": "y", "z_columns": ["z1", "z2"], "w_columns": ["w"]})
    )
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "components": [
                    {"type": "identity", "input": {"coord": 0}, "pinned": True,
                     "coefficient": 1.0},
                    {"type": "spline", "input": {"coord": 1}, "degree": 2, "n_interior": 1},
                ],
                "normalization": {"type": "anchor", "point": [0.0, 0.0], "value": 0.0},
            }
        )
    )
    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps(
            {"linspace": {"coord": 1, "start": -2.5, "stop": 2.5, "num": 11,
                          "base": [0.0, 0.0]}}
        )
    )
    return {"data": str(path), "schema": str(schema), "spec": str(spec), "grid": str(grid)}


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def test_estimate_writes_both_curves(dataset, tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code = main(
        [
            "estimate",
            "--data", dataset["data"],
            "--schema", dataset["schema"],
            "--spec", dataset["spec"],
            "--grid", dataset["grid"],
            "--out", str(out),
            "--seed", "5",
        ]
    )
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 11
    assert set(rows[0]) == {"z_0", "z_1", "rank", "ols"}
    mid = rows[5]
    assert float(mid["z_1"]) == 0.0
    assert abs(float(mid["rank"])) < 1e-9  # anchored at (0, 0)
    captured = capsys.readouterr().out
    assert "rank criterion value" in captured


def test_estimate_weighted_variant(dataset, tmp_path):
    out = tmp_path / "curves_w.csv"
    code = main(
        [
            "estimate",
            "--data", dataset["data"],
            "--schema", dataset["schema"],
            "--spec", dataset["spec"],
            "--grid", dataset["grid"],
            "--variant", "weighted",
            "--w0", "0.0",
            "--bandwidth", "2.0",
            "--kernel", "uniform",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(_read_csv(out)) == 11


@pytest.mark.parametrize(
    "variant", [[], ["--variant", "weighted", "--w0", "0.0", "--bandwidth", "2.0"]]
)
def test_estimate_output_does_not_depend_on_the_worker_count(
    dataset, tmp_path, capsys, monkeypatch, variant
):
    out = tmp_path / "curves.csv"
    argv = [
        "estimate",
        "--data", dataset["data"],
        "--schema", dataset["schema"],
        "--spec", dataset["spec"],
        "--grid", dataset["grid"],
        "--out", str(out),
        "--seed", "7",
    ] + variant
    fit = cli.maximize_rank_criterion
    calls = []

    def logged(*args):  # as the benchmark's fit log wraps it: positional arguments only
        calls.append(args[4])
        return fit(*args)

    monkeypatch.setattr(cli, "maximize_rank_criterion", logged)
    outputs = []
    for jobs in (None, 2, 0):  # None: the count estimate works out itself (1 for 200 rows)
        if jobs is not None:
            monkeypatch.setattr(cli, "_fit_jobs", lambda sample, jobs=jobs: jobs)
        assert main(argv) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert multiprocessing.active_children() == []
    assert calls == [1, 2, 0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_estimate_pools_only_forked_workers_on_large_samples(monkeypatch):
    rows = cli.POOL_MIN_ROWS
    small, large = (Sample(y=np.zeros(n), z=np.zeros((n, 2))) for n in (rows - 1, rows))
    for method, jobs in (("fork", 0), ("spawn", 1), ("forkserver", 1)):
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda method=method: method)
        assert cli._fit_jobs(large) == jobs, method
        assert cli._fit_jobs(small) == 1, method


def _readme_json_block(after):
    """The first ```json block of README.md that follows the text ``after``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(after)[1].split("```json")[1].split("```")[0]


def test_estimate_readme_spec(dataset, tmp_path):
    spec = tmp_path / "readme_spec.json"
    spec.write_text(_readme_json_block("`sieve.json` is the spec"))
    out = tmp_path / "curves.csv"
    code = main(
        [
            "estimate",
            "--data", dataset["data"],
            "--schema", dataset["schema"],
            "--spec", str(spec),
            "--grid", dataset["grid"],
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(_read_csv(out)) == 11


def test_estimate_missing_column_exit_2(dataset, tmp_path):
    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(json.dumps({"y_column": "nope", "z_columns": ["z1", "z2"]}))
    code = main(
        [
            "estimate",
            "--data", dataset["data"],
            "--schema", str(bad_schema),
            "--spec", dataset["spec"],
            "--grid", dataset["grid"],
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


def test_estimate_config_errors_exit_1(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(
        [
            "estimate",
            "--data", dataset["data"],
            "--schema", str(bad),
            "--spec", dataset["spec"],
            "--grid", dataset["grid"],
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1
    # missing required --w0 for weighted variant
    code = main(
        [
            "estimate",
            "--data", dataset["data"],
            "--schema", dataset["schema"],
            "--spec", dataset["spec"],
            "--grid", dataset["grid"],
            "--variant", "weighted",
            "--bandwidth", "1.0",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1
    # control point or bandwidth vector of the wrong dimension (one control column)
    for variant_args in (
        ["--variant", "pairwise", "--kernel", "gaussian", "--bandwidth", "1", "2"],
        ["--variant", "discrete-w", "--w0", "0.5", "0.5"],
    ):
        code = main(
            [
                "estimate",
                "--data", dataset["data"],
                "--schema", dataset["schema"],
                "--spec", dataset["spec"],
                "--grid", dataset["grid"],
                "--out", str(tmp_path / "x.csv"),
            ]
            + variant_args
        )
        assert code == 1
    # a variant that needs controls, on a sample without them
    no_controls = tmp_path / "schema_no_w.json"
    no_controls.write_text(json.dumps({"y_column": "y", "z_columns": ["z1", "z2"]}))
    for variant_args in (
        ["--variant", "weighted", "--w0", "0.0", "--bandwidth", "1.0"],
        ["--variant", "discrete-w", "--w0", "0.0"],
        ["--variant", "pairwise", "--bandwidth", "1.0"],
    ):
        argv = ["estimate", "--schema", str(no_controls), "--out", str(tmp_path / "x.csv")]
        argv += [arg for name in ("data", "spec", "grid") for arg in (f"--{name}", dataset[name])]
        assert main(argv + variant_args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "requires controls" in err


def test_malformed_config_files_exit_1_naming_the_file(dataset, tmp_path, capsys):
    cases = [
        ("schema", {"z_columns": ["z1", "z2"]}, "missing key 'y_column'"),
        ("spec", {"components": [{"type": "spline", "degree": 2, "n_interior": 1}]},
         "missing key 'input'"),
        ("grid", {"linspace": {"coord": 1, "start": -1.0, "num": 3, "base": [0.0, 0.0]}},
         "missing key 'stop'"),
        ("grid", {"linspace": {"coord": 7, "start": -1.0, "stop": 1.0, "num": 3,
                               "base": [0.0, 0.0]}}, "out of bounds"),
    ]
    for option, obj, detail in cases:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        files = dict(dataset, **{option: str(bad)})
        argv = ["estimate", "--out", str(tmp_path / "x.csv")]
        argv += [arg for name, path in files.items() for arg in (f"--{name}", path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"config error: {bad}: " in err and detail in err


def test_estimate_numerical_failure_exit_3(dataset, tmp_path):
    pinned_only = tmp_path / "pinned.json"
    pinned_only.write_text(
        json.dumps(
            {
                "components": [
                    {"type": "identity", "input": {"coord": 0}, "pinned": True,
                     "coefficient": 1.0}
                ],
                "normalization": {"type": "none"},
            }
        )
    )
    code = main(
        [
            "estimate",
            "--data", dataset["data"],
            "--schema", dataset["schema"],
            "--spec", str(pinned_only),
            "--grid", dataset["grid"],
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 3


def test_estimate_window_too_small_to_fit_exit_3(dataset, tmp_path, capsys):
    # a uniform window around the largest control holding it and its 3 nearest
    # rows; the spec has 4 free coefficients, so a fit needs 6 rows with weight
    with open(dataset["data"], newline="") as fh:
        w = np.sort([float(row["w"]) for row in csv.DictReader(fh)])
    w0 = float(w[-1])
    bandwidth = float(w0 - 0.5 * (w[-4] + w[-5]))
    code = main(
        [
            "estimate",
            "--data", dataset["data"],
            "--schema", dataset["schema"],
            "--spec", dataset["spec"],
            "--grid", dataset["grid"],
            "--variant", "weighted",
            "--w0", repr(w0),
            "--bandwidth", repr(bandwidth),
            "--kernel", "uniform",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: 4 observation(s) with weight" in err and ">= 6" in err


def test_unwritable_output_paths_exit_1_naming_the_path(dataset, tmp_path, capsys, monkeypatch):
    # the fit does not start when its output cannot be written: a missing
    # directory, or a path that names an existing directory
    monkeypatch.setattr(cli, "maximize_rank_criterion", lambda *a: pytest.fail("the fit ran"))
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        argv = ["estimate", "--out", str(out)]
        for name in ("data", "schema", "spec", "grid"):
            argv += [f"--{name}", dataset[name]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and str(out) in err and err.count("\n") == 1
    # the sweep does not start when its output directory cannot be made
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps({"n_jobs": 1}))
    monkeypatch.setattr(cli, "run_monte_carlo", lambda cfg: pytest.fail("the sweep ran"))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and str(blocker) in err and err.count("\n") == 1


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--bogus"])
    assert exc.value.code == 1


def test_summary_output(dataset, capsys):
    code = main(["summary", "--data", dataset["data"], "--schema", dataset["schema"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "median" in out
    for name in ("y", "z1", "z2", "w"):
        assert name in out


def test_aggregate_ls_and_lad(dataset, tmp_path):
    outs = []
    for seed in (1, 2, 3):
        out = tmp_path / f"curve_{seed}.csv"
        main(
            [
                "estimate",
                "--data", dataset["data"],
                "--schema", dataset["schema"],
                "--spec", dataset["spec"],
                "--grid", dataset["grid"],
                "--out", str(out),
                "--seed", str(seed),
            ]
        )
        outs.append(out)
    agg_out = tmp_path / "agg.csv"
    code = main(
        [
            "aggregate",
            "--curves", str(tmp_path / "curve_*.csv"),
            "--method", "lad",
            "--out", str(agg_out),
        ]
    )
    assert code == 0
    rows = _read_csv(agg_out)
    assert len(rows) == 11
    assert "lad" in rows[0]
    curves = np.array([[float(r["rank"]) for r in _read_csv(p)] for p in outs])
    expected = np.median(curves, axis=0)
    got = np.array([float(r["lad"]) for r in rows])
    np.testing.assert_allclose(got, expected, atol=2e-6)  # 6 significant digits in files


def _write_curves(tmp_path, curves, grid=(-1.0, 0.0, 2.5), column="rank"):
    for k, curve in enumerate(curves):
        with open(tmp_path / f"curve_{k}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z_0", "z_1", column])
            for z1, v in zip(grid, curve):
                writer.writerow([repr(0.0), repr(z1), repr(float(v))])


def test_aggregate_mean_and_median_of_hand_written_curves(tmp_path):
    # four curves whose pointwise mean and median differ everywhere
    curves = np.array(
        [
            [0.25, -3.0, 10.5],
            [1.5, 2.0, -0.125],
            [7.75, 0.5, 1.0],
            [-2.0, 40.0, 3.25],
        ]
    )
    _write_curves(tmp_path, curves)
    for method, expected in (("ls", np.mean(curves, axis=0)), ("lad", np.median(curves, axis=0))):
        out = tmp_path / f"agg_{method}.csv"
        code = main(
            ["aggregate", "--curves", str(tmp_path / "curve_*.csv"), "--method", method,
             "--out", str(out)]
        )
        assert code == 0
        rows = _read_csv(out)
        assert [float(r["z_1"]) for r in rows] == [-1.0, 0.0, 2.5]
        assert [r[method] for r in rows] == ["%.6g" % v for v in expected]


def test_aggregate_grid_mismatch_and_missing_column_exit_2(tmp_path, capsys):
    _write_curves(tmp_path, [[1.0, 2.0, 3.0]])
    with open(tmp_path / "curve_9.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z_0", "z_1", "rank"])
        for z1 in (-1.0, 0.5, 2.5):
            writer.writerow([0.0, z1, 1.0])
    args = ["aggregate", "--curves", str(tmp_path / "curve_*.csv"), "--method", "ls",
            "--out", str(tmp_path / "agg.csv")]
    assert main(args) == 2
    assert "grid differs" in capsys.readouterr().err
    assert main(args + ["--column", "ols"]) == 2
    assert "column 'ols' not found" in capsys.readouterr().err


def test_aggregate_unparsable_cell_exit_2(tmp_path, capsys):
    _write_curves(tmp_path, [[1.0, 2.0, 3.0]])
    args = ["aggregate", "--curves", str(tmp_path / "curve_*.csv"), "--method", "ls",
            "--out", str(tmp_path / "agg.csv")]
    for bad, line, column in (("np.float64(0.25)", 3, "rank"), ("", 4, "z_1")):
        path = tmp_path / "curve_9.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z_0", "z_1", "rank"])
            for k, z1 in enumerate((-1.0, 0.0, 2.5)):
                cells = [0.0, z1, 1.0]
                if k + 2 == line:
                    cells[["z_0", "z_1", "rank"].index(column)] = bad
                writer.writerow(cells)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{path}: line {line}, column {column!r}: cannot parse {bad!r}" in err


def test_aggregate_no_match_exit_2(tmp_path):
    code = main(
        ["aggregate", "--curves", str(tmp_path / "none_*.csv"), "--method", "ls",
         "--out", str(tmp_path / "agg.csv")]
    )
    assert code == 2


def test_simulate_writes_tables(tmp_path):
    cfg = {
        "variant": "baseline",
        "n": 150,
        "sigma": [1.0],
        "c": [3.0],
        "K": [3],
        "replications": 2,
        "master_seed": 9,
        "quantile_approx_draws": 10000,
        "optimizer": {"n_starts": 2, "max_iters": 80},
        "grid_points": 11,
        "n_jobs": 1,
    }
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert code == 0
    table = _read_csv(out_dir / "mse_table.csv")
    assert len(table) == 1
    assert set(table[0]) == {"sigma", "c", "K", "mse_rank", "mse_ols",
                             "ks_reject_rate", "n_failed"}
    curves = _read_csv(out_dir / "curves_sigma1_c3_K3.csv")
    assert len(curves) == 11
    assert set(curves[0]) == {"z2", "truth", "rank_median", "rank_q05", "rank_q95",
                              "ols_median"}


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = {
        "variant": "baseline",
        "n": 120,
        "sigma": [1.0],
        "c": [3.0],
        "K": [3],
        "replications": 1,
        "master_seed": 1,
        "quantile_approx_draws": 10000,
        "optimizer": {"n_starts": 2, "max_iters": 60},
        "grid_points": 5,
        "n_jobs": 1,
    }
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(b), "--seed", "2"]) == 0
    ta = (a / "mse_table.csv").read_text()
    tb = (b / "mse_table.csv").read_text()
    assert ta != tb


def test_simulate_readme_config_loads():
    cfg = MCConfig.from_dict(json.loads(_readme_json_block("`mc.json` holds an `MCConfig` object")))
    assert cfg.K == (3, 4, 5, 6)
    assert cfg.optimizer.n_starts == 20


def test_simulate_bad_config_exit_1(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps({"replications": 0}))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    # an integer setting that is not integral is named before the sweep starts
    monkeypatch.setattr(cli, "run_monte_carlo", lambda cfg: pytest.fail("the sweep ran"))
    for obj in ({"K": [4.7]}, {"replications": 2.5}, {"optimizer": {"n_starts": 2.5}}):
        cfg_path.write_text(json.dumps(obj))
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg_path}: ") and "must be an integer" in err
    # a config that is not a JSON object, with an override applied to it
    cfg_path.write_text(json.dumps([1, 2]))
    args = ["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"), "--seed", "3"]
    assert main(args) == 1


@pytest.mark.parametrize(
    "obj, name",
    [
        ({"optimizer": {"init_scale": float("nan")}}, "init_scale"),
        ({"c": [float("inf")]}, "c"),
        ({"sigma": [float("nan")]}, "sigma"),
        ({"a": float("nan")}, "a"),
        ({"grid_margin": float("nan")}, "grid_margin"),
        ({"bandwidth_scale": float("inf")}, "bandwidth_scale"),
        ({"kernel": "bogus"}, "kernel"),
        ({"sigma": [0.5, True]}, "sigma"),
        ({"c": "3"}, "c"),
    ],
)
def test_simulate_bad_float_or_kernel_exit_1(tmp_path, capsys, monkeypatch, obj, name):
    # json writes and reads NaN and Infinity; either is named before the sweep starts
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(obj))
    monkeypatch.setattr(cli, "run_monte_carlo", lambda cfg: pytest.fail("the sweep ran"))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg_path}: {name}")


def test_simulate_reports_failed_replications_and_exits_0(tmp_path, capsys, monkeypatch):
    # a constant control has no bandwidth, so every replication fails
    n = 40
    rng = np.random.default_rng(17)
    z = np.column_stack([rng.normal(size=n), rng.uniform(-3, 3, n)])
    sample = Sample(y=rng.normal(size=n), z=z, w=np.full(n, 0.5))
    monkeypatch.setattr(
        simulate, "generate", lambda dgp: simulate.GeneratedSample(sample, sample.y)
    )
    cfg = {"variant": "weighted", "n": n, "K": [3], "replications": 2, "n_w_draws": 3,
           "quantile_approx_draws": 10000, "grid_points": 5, "n_jobs": 1}
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "failed=2/2" in out
    assert "2 replication(s) failed; see summary above" in out


def test_grid_builder_forms():
    from ranksieve.cli import _build_grid

    pts = _build_grid({"points": [[1.0, 2.0], [3.0, 4.0]]})
    np.testing.assert_array_equal(pts, [[1.0, 2.0], [3.0, 4.0]])

    lin = _build_grid(
        {"linspace": {"coord": 1, "start": 0.0, "stop": 1.0, "num": 3, "base": [9.0, 0.0]}}
    )
    np.testing.assert_allclose(lin, [[9.0, 0.0], [9.0, 0.5], [9.0, 1.0]])

    prod = _build_grid(
        {
            "product": {
                "axes": [
                    {"coord": 0, "start": -20.0, "stop": 50.0, "num": 3},
                    {"coord": 1, "start": -20.0, "stop": 50.0, "num": 3},
                ],
                "base": [0.0, 0.0],
            }
        }
    )
    assert prod.shape == (9, 2)
    # row-major: the second coordinate varies fastest
    np.testing.assert_allclose(prod[0], [-20.0, -20.0])
    np.testing.assert_allclose(prod[1], [-20.0, 15.0])
    np.testing.assert_allclose(prod[3], [15.0, -20.0])
    np.testing.assert_allclose(prod[-1], [50.0, 50.0])
