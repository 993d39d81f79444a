"""The benchmark's workloads: what one op is, its inputs and its output checks.

Every op runs in this process, one after another, with ``n_jobs=1``.  Every
input and every per-op seed is drawn from the workload seed through numpy's
``SeedSequence``, never taken as consecutive small integers: the optimizer
seeds start ``s`` with ``rng_seed ^ s``, so seeds that differ only in their
low bits run the identical multi-start search (``estimate --seed 0`` to
``--seed 3`` give the same fit).  The benchmark leaves that defect in the
program and only avoids feeding it such seeds.

Each workload splits an op into ``run_op`` (timed) and ``check_op``
(untimed), which verifies the op's outputs and returns an :class:`OpOutput`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ranksieve import cli, simulate
from ranksieve.optimize import OptimizerConfig
from ranksieve.simulate import DgpConfig, MCConfig

# Per-op sanity bounds, set from the program as first benchmarked.  110
# mc-baseline replications gave mse_rank 0.0057 to 0.092; a flat zero curve
# gives about 0.54 on the grid [-2.9, 2.9], so the upper bound sits well
# below that.  The estimate-large fit ignores W, which moves with z2, so its
# curve has about twice the slope of sin and an mse_rank of 0.79 to 1.67 (48
# ops), which a flat curve (0.54) would not fail; its shape is checked
# instead: 26 ops gave a correlation of 0.96 to 0.98 between the rank curve
# and sin(z2).
BASELINE_MSE_RANK = (1e-4, 0.2)
ESTIMATE_MSE_RANK = (0.05, 10.0)
ESTIMATE_MIN_CORR = 0.8


def derive(seed: int, *key: int) -> int:
    """A 64-bit seed for one input or op, from the workload seed."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class OpOutput:
    """What the checks saw of one op.  ``digest`` must repeat bit for bit."""

    problems: list
    mse_rank: float = math.nan
    mse_ols: float = math.nan
    digest: tuple = ()


def _hex(values) -> tuple:
    return tuple(float(v).hex() for v in np.ravel(values))


class MonteCarlo:
    """One op is one replication of a fixed Monte Carlo cell.

    ``nominal_op_s`` (on every workload) is the op time first measured, on a
    2-core Xeon; it only sets how many ops the traced run makes.
    """

    def __init__(self, nominal_op_s: float, mse_band, **cell):
        self.nominal_op_s = nominal_op_s
        self.mse_band = mse_band
        self.cell = cell
        self.seed = 0

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def run_op(self, i: int):
        cfg = MCConfig(
            replications=1, n_jobs=1, master_seed=derive(self.seed, 1, i), **self.cell
        )
        return simulate.run_monte_carlo(cfg)

    def check_op(self, summary) -> OpOutput:
        cell = summary.cells[0]
        problems = [f"replication failed: {msg}" for _, _, msg in summary.failures]
        if cell.n_degenerate:
            problems.append("degenerate fit")
        curves = (cell.rank_median, cell.rank_q05, cell.rank_q95, cell.ols_median)
        if not all(np.all(np.isfinite(c)) for c in curves):
            problems.append("non-finite curve")
        if not (math.isfinite(cell.mse_rank) and math.isfinite(cell.mse_ols)):
            problems.append("non-finite MSE")
        if self.mse_band is not None:
            lo, hi = self.mse_band
            if not lo <= cell.mse_rank <= hi:
                problems.append(f"mse_rank {cell.mse_rank:.6g} outside [{lo:g}, {hi:g}]")
        digest = _hex([cell.mse_rank, cell.mse_ols]) + _hex(cell.rank_median) + _hex(
            cell.ols_median
        )
        return OpOutput(problems, cell.mse_rank, cell.mse_ols, digest)

    def check_run(self, outputs) -> list:
        """Rank must beat series OLS on the run's mean MSE, as in the paper."""
        ok = [o for o in outputs if not o.problems]
        if not ok:
            return []
        rank = float(np.mean([o.mse_rank for o in ok]))
        ols = float(np.mean([o.mse_ols for o in ok]))
        if not rank < ols:
            return [f"mean mse_rank {rank:.6g} is not below mean mse_ols {ols:.6g}"]
        return []


class EstimateLarge:
    """One op is ``ranksieve estimate`` on a 4000-row CSV, run through cli.main.

    Setup draws ``n_datasets`` CSVs from the weighted DGP, and op i reads CSV
    i mod ``n_datasets``, so that a run's op times average over datasets as
    well as over optimizer seeds (eval counts differ by about 5% between
    datasets).  The spec is the plain one (pinned z1 plus a quadratic
    z2 spline).  The README's interaction spec exits with code 3 from
    series_ols after the whole rank fit has run, because its design is
    rank-deficient; that is a program defect for a later change, not
    something this workload hides.
    """

    nominal_op_s = 3.5
    n_rows = 4000
    n_datasets = 13

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.data = []
        for k in range(self.n_datasets):
            dgp = DgpConfig(variant="weighted", n=self.n_rows, a=0.0, b=0.0, seed=derive(seed, 0, k))
            s = simulate.generate(dgp).sample
            path = os.path.join(workdir, f"data{k}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["y", "z1", "z2", "w"])
                for row in zip(s.y, s.z[:, 0], s.z[:, 1], s.w[:, 0]):
                    writer.writerow([repr(float(v)) for v in row])
            self.data.append(path)
        files = {
            "schema": {"y_column": "y", "z_columns": ["z1", "z2"], "w_columns": ["w"]},
            "spec": {
                "components": [
                    {"type": "identity", "input": {"coord": 0}, "pinned": True, "coefficient": 1.0},
                    {"type": "spline", "input": {"coord": 1}, "degree": 2, "n_interior": 2},
                ],
                "normalization": {"type": "anchor", "point": [0.0, 0.0], "value": 0.0},
            },
            "grid": {
                "linspace": {"coord": 1, "start": -2.9, "stop": 2.9, "num": 101, "base": [0, 0]}
            },
        }
        self.paths = {}
        for key, obj in files.items():
            self.paths[key] = os.path.join(workdir, f"{key}.json")
            with open(self.paths[key], "w") as fh:
                json.dump(obj, fh)
        self.out = os.path.join(workdir, "curves.csv")

    def run_op(self, i: int):
        argv = [
            "estimate",
            "--data", self.data[i % self.n_datasets],
            "--schema", self.paths["schema"],
            "--spec", self.paths["spec"],
            "--variant", "full",
            "--grid", self.paths["grid"],
            "--out", self.out,
            "--seed", str(derive(self.seed, 1, i)),
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check_op(self, result) -> OpOutput:
        code, stdout, stderr = result
        if code != 0:
            return OpOutput([f"exit code {code}: {stderr.strip()}"])
        with open(self.out, newline="") as fh:
            text = fh.read()
        os.remove(self.out)  # a later op that writes nothing must not pass on this file
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = ["degenerate fit"] if "(degenerate fit)" in stdout else []
        if len(rows) != 101:
            problems.append(f"{len(rows)} grid rows, expected 101")
        z2, rank, ols = (np.array([float(r[c]) for r in rows]) for c in ("z_1", "rank", "ols"))
        if not (np.all(np.isfinite(rank)) and np.all(np.isfinite(ols))):
            problems.append("non-finite curve")
        truth = np.sin(z2)
        mse_rank = float(np.mean((rank - truth) ** 2))
        mse_ols = float(np.mean((ols - truth) ** 2))
        lo, hi = ESTIMATE_MSE_RANK
        if not lo <= mse_rank <= hi:
            problems.append(f"mse_rank {mse_rank:.6g} outside [{lo:g}, {hi:g}]")
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = float(np.corrcoef(rank, truth)[0, 1]) if len(rows) > 1 else math.nan
        if not corr >= ESTIMATE_MIN_CORR:
            problems.append(f"rank curve has correlation {corr:.6g} with sin(z2)")
        return OpOutput(problems, mse_rank, mse_ols, (text, stdout))

    def check_run(self, outputs) -> list:
        return []


WORKLOADS = {
    "mc-baseline": MonteCarlo(
        nominal_op_s=0.65,
        mse_band=BASELINE_MSE_RANK,
        variant="baseline",
        n=1000,
        sigma=(1.0,),
        c=(3.0,),
        K=(4,),
        a=0.5,
        b=0.5,
        optimizer=OptimizerConfig(n_starts=20, max_iters=400),
    ),
    "mc-weighted": MonteCarlo(
        nominal_op_s=3.4,
        mse_band=None,
        variant="weighted",
        n=1000,
        sigma=(1.0,),
        c=(3.0,),
        K=(4,),
        a=0.0,
        b=0.0,
        n_w_draws=50,
        bandwidth_scale=0.5,
        kernel="uniform",
        aggregation="lad",
        local_optimizer=OptimizerConfig(n_starts=8, max_iters=300),
    ),
    "estimate-large": EstimateLarge(),
}
