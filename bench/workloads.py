"""The benchmark's four workloads.

Each workload draws its inputs from the run seed (per-run choices from
``default_rng([seed])``, per-operation choices from ``default_rng([seed, i])``),
hands the program only those inputs, and checks every output with the
references in ``checks.py``.  Every operation of a workload does the same
amount of work, so its latencies form one population.

A workload object has:

``dists()``      build the workload's distribution objects (part of set-up);
``prepare()``    write generated input files (outside set-up and timing);
``inputs(i)``    the i-th operation's inputs;
``run(inp)``     the operation itself, the only timed call;
``failed(raw)``  whether the program reported failure (non-zero exit);
``output(inp, raw)``  the operation's output, read back and parsed;
``check(inp, out)``  compare the output with its reference, raising
                 ``checks.CheckError``.

``checks`` is imported inside ``check`` so that the set-up time measured
for the program does not include the references' own imports (mpmath,
scipy.stats).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os

import numpy as np

import asymloss
from asymloss import cli


def _loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _costs(rng, max_ratio):
    """A cost pair with k2/k1 or k1/k2 log-uniform in [1.5, max_ratio]."""
    k1 = _loguniform(rng, 0.5, 2.0)
    k2 = k1 * _loguniform(rng, 1.5, max_ratio)
    return (k2, k1) if rng.random() < 0.5 else (k1, k2)


class _Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out_path = os.path.join(workdir, f"{self.name}-{os.getpid()}.out")

    def _rng(self, i=None):
        return np.random.default_rng([self.seed] if i is None else [self.seed, i])

    def dists(self):
        return []

    def prepare(self):
        pass

    def run(self, inp):
        return cli.main(inp["argv"])

    def failed(self, raw):
        return raw != cli.EXIT_OK

    def output(self, inp, raw):
        with open(self.out_path, encoding="utf-8") as fh:
            return json.load(fh)

    def cleanup(self):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)


class VerifyGrid(_Workload):
    """`verify --grid gg:...`: the scalar sweep over six GG shapes."""

    name = "verify_grid"
    # One shape per bin, light tails (a = 0.25) to heavy (a = 6).
    SHAPE_EDGES = np.geomspace(0.25, 6.0, 7)
    POINTS = 50

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self._rng()
        self.shapes = [_loguniform(rng, lo, hi) for lo, hi in zip(self.SHAPE_EDGES, self.SHAPE_EDGES[1:])]

    def inputs(self, i):
        rng = self._rng(i)
        b = _loguniform(rng, 0.5, 2.0)
        sampled = [int(j) for j in rng.integers(1, self.POINTS, size=len(self.shapes))]
        grid = f"gg:a={','.join(map(repr, self.shapes))};b={b!r};points={self.POINTS}"
        return {"b": b, "sampled": sampled, "argv": ["verify", "--grid", grid, "--out", self.out_path]}

    def dists(self):
        b = self.inputs(0)["b"]
        return [asymloss.GeneralizedGaussian(a, b) for a in self.shapes]

    def output(self, inp, raw):
        with open(self.out_path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def check(self, inp, out):
        import checks

        checks.check_verify_rows(out, self.shapes, inp["b"], self.POINTS, inp["sampled"])


class AnalyzeMc(_Workload):
    """`analyze --dist gg:...` with a large Monte Carlo check and a small sweep."""

    name = "analyze_mc"
    # gammaincinv, which draws GG variates, costs up to 5x more at some
    # shapes than at others, so the shape is fixed and the seed varies
    # scale, costs and the Monte Carlo seed.
    SHAPE = 0.75
    MC_N = 80_000
    GRID_POINTS = 8
    # Above this cost ratio the program's own Monte Carlo check fails now
    # and then on correct analytics: its 5-sigma band rests on standard
    # errors estimated from a few hundred rare tail events.
    MAX_RATIO = 20.0

    def inputs(self, i):
        rng = self._rng(i)
        b = _loguniform(rng, 0.5, 2.0)
        k1, k2 = _costs(rng, self.MAX_RATIO)
        mc_seed = int(rng.integers(0, 2 ** 31))
        argv = [
            "analyze", "--dist", f"gg:a={self.SHAPE!r},b={b!r}", "--k1", repr(k1), "--k2", repr(k2),
            "--mc-n", str(self.MC_N), "--grid-points", str(self.GRID_POINTS), "--seed", str(mc_seed),
            "--fixed-clock", "--out", self.out_path,
        ]
        return {"b": b, "k1": k1, "k2": k2, "argv": argv}

    def dists(self):
        return [asymloss.GeneralizedGaussian(self.SHAPE, self.inputs(0)["b"])]

    def check(self, inp, out):
        import checks

        checks.check_analyze(out, self.SHAPE, inp["b"], inp["k1"], inp["k2"])


class BacktestCsv(_Workload):
    """`simulate --input log.csv` on an error log written at set-up."""

    name = "backtest_csv"
    ROWS = 100_000  # a multiple of 4, so both halves hold whole sign pairs
    TRAIN_FRAC = 0.5
    DECIMALS = 2
    RESOLUTION = 10.0 ** -DECIMALS  # forecast resolution

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self._rng()
        self.gen_a = _loguniform(rng, 0.6, 1.2)
        self.gen_b = _loguniform(rng, 0.5, 2.0)
        self.run_rng = rng  # continues into the log's draws in prepare()
        self.log_path = os.path.join(workdir, f"{self.name}-{os.getpid()}.csv")
        self.errors = None

    def prepare(self):
        rng = self.run_rng
        n = self.ROWS
        # |Z| / b = G^a with G ~ Gamma(a) has density exp(-(m/b)^(1/a)).
        mags = self.gen_b * rng.standard_gamma(self.gen_a, n) ** self.gen_a
        # Half the rows are rounded to the forecast resolution (never to 0,
        # which has no sign), so the fit sees tied and distinct magnitudes;
        # the rest are written with 9 significant digits.
        rounded = rng.random(n) < 0.5
        # Each consecutive pair holds one positive and one negative error, so
        # the training half is exactly sign-balanced and the sign test passes.
        first_positive = rng.random(n // 2) < 0.5
        signs = np.empty(n)
        signs[0::2] = np.where(first_positive, 1.0, -1.0)
        signs[1::2] = -signs[0::2]
        step = self.RESOLUTION
        lines = [
            f"{sign * max(step, round(m, self.DECIMALS)):.{self.DECIMALS}f}" if r else f"{sign * m:.9g}"
            for sign, m, r in zip(signs.tolist(), mags.tolist(), rounded.tolist())
        ]
        self.errors = np.array([float(v) for v in lines])
        with open(self.log_path, "w", encoding="utf-8") as fh:
            fh.write("error\n")
            fh.write("\n".join(lines))
            fh.write("\n")

    def inputs(self, i):
        k1, k2 = _costs(self._rng(i), 50.0)
        argv = [
            "simulate", "--input", self.log_path, "--k1", repr(k1), "--k2", repr(k2),
            "--train-frac", repr(self.TRAIN_FRAC), "--fixed-clock", "--out", self.out_path,
        ]
        return {"k1": k1, "k2": k2, "argv": argv}

    def check(self, inp, out):
        import checks

        checks.check_backtest(
            out, self.errors, self.TRAIN_FRAC, inp["k1"], inp["k2"], self.gen_a, self.gen_b, self.RESOLUTION
        )

    def cleanup(self):
        super().cleanup()
        if os.path.exists(self.log_path):
            os.remove(self.log_path)


class Triangular(asymloss.ErrorDistribution):
    """Density 1 - |x| on [-1, 1], defined through pdf alone.

    With no closed-form overrides, every moment and quantile goes through
    the base class's quadrature and bisection fallback.  ``pdf_calls``
    counts evaluations, so the fallback's work repeats exactly for a seed.
    """

    kind = "triangular"

    def __init__(self):
        self.pdf_calls = 0

    def pdf(self, x):
        self.pdf_calls += 1
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) <= 1.0, 1.0 - np.abs(x), 0.0)
        return float(out) if out.ndim == 0 else out


class CustomPdf(_Workload):
    """Library calls on the pdf-only triangular density."""

    name = "custom_pdf"
    SWEEP_POINTS = 5
    SWEEP_SPAN = 2.0  # in units of the rms 1/sqrt(6): the grid stays inside the support
    # Quantiles at seeded levels take the same bisection path as sampling.
    # Levels stay 0.005 away from 0 and 1: within about 1e-6 of them the
    # fallback returns magnitudes beyond the support, which a random
    # sample would hit on some seeds only.
    QUANTILE_N = 32
    LEVEL_MARGIN = 0.005

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dist = None

    def dists(self):
        self.dist = Triangular()
        return [self.dist]

    def inputs(self, i):
        rng = self._rng(i)
        k1, k2 = _costs(rng, 100.0)
        levels = rng.uniform(self.LEVEL_MARGIN, 1.0 - self.LEVEL_MARGIN, self.QUANTILE_N)
        return {"k1": k1, "k2": k2, "levels": levels}

    def run(self, inp):
        dist = self.dist
        report = asymloss.savings_report(dist, asymloss.LossParams(inp["k1"], inp["k2"]))
        rows = asymloss.sweep([dist], n_points=self.SWEEP_POINTS, span=self.SWEEP_SPAN)
        quantiles = dist.quantile(inp["levels"])
        return report, rows, quantiles

    def failed(self, raw):
        return False

    def output(self, inp, raw):
        report, rows, quantiles = raw
        return dataclasses.asdict(report), [(r.x, r.alpha, r.margin) for r in rows], quantiles

    def check(self, inp, out):
        import checks

        checks.check_custom(*out, inp["levels"], inp["k1"], inp["k2"], asymloss.MARGIN_TOL)


WORKLOADS = {cls.name: cls for cls in (VerifyGrid, AnalyzeMc, BacktestCsv, CustomPdf)}
