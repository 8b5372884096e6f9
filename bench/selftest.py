"""Self-test of the benchmark's output checks.

Runs one operation of each workload, shows that its check accepts the
real output, then perturbs that output and shows that the check rejects
every perturbed copy.  Exits non-zero if a check accepts a wrong result
or rejects the real one.

    python3 bench/selftest.py
"""

import contextlib
import copy
import io
import math
import os
import sys

from run import WORK_DIR, import_program

import_program()
import asymloss  # noqa: E402
import checks  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

REL = 1e-6  # the smallest relative perturbation every value check must catch


def _scaled(value):
    return value * (1.0 + REL)


def _verify_perturbations(wl, inp, out):
    points = wl.POINTS

    def at(shape, j):
        return shape * points + j

    def cell(name, shape, j, fn):
        def mutate(out):
            row = out[at(shape, j)]
            row[name] = repr(fn(float(row[name])))
        return mutate

    def flip(out):
        out[at(2, 7)]["passed"] = "False"

    perturbed = {"a passed cell flipped to False": flip}
    for shape in range(len(wl.shapes)):
        j = inp["sampled"][shape]
        for name in ("alpha", "beta", "s_tail", "eq1_lhs"):
            perturbed[f"{name} at shape {shape}, point {j}, moved by {REL:g} relative"] = cell(name, shape, j, _scaled)
        perturbed[f"alpha at x = 0 of shape {shape} set to {REL:g} of E|Z|"] = cell(
            "alpha", shape, 0, lambda v, s=shape: REL * checks.gg_mean_abs(wl.shapes[s], inp["b"])
        )
    return perturbed


def _analyze_perturbations(wl, inp, out):
    def solution(name, fn):
        def mutate(out):
            out["solution"][name] = fn(out["solution"])
        return mutate

    def verdict(out):
        out["verdict"] = "numerical_check_failed"

    return {
        f"C moved by {REL:g} relative": solution("C", lambda s: _scaled(s["C"])),
        f"expected_at_zero moved by {REL:g} relative": solution("expected_at_zero", lambda s: _scaled(s["expected_at_zero"])),
        f"variance_at_zero moved by {REL:g} relative": solution("variance_at_zero", lambda s: _scaled(s["variance_at_zero"])),
        "variance_at_C above variance_at_zero": solution("variance_at_C", lambda s: 1.01 * s["variance_at_zero"]),
        "verdict not ok": verdict,
    }


def _backtest_perturbations(wl, inp, out):
    n_train = int(wl.errors.size * wl.TRAIN_FRAC)
    test = wl.errors[n_train:]

    def policy(name, key):
        def mutate(out):
            out["policies"][name][key] = _scaled(out["policies"][name][key])
        return mutate

    def offset_only(out):
        out["offset"] = out["fitted_solution"]["C"] = _scaled(out["offset"])

    def far_offset(out):
        # Consistent costs for an offset 7 standard errors from the fractile:
        # only the comparison with the generating distribution can catch it.
        p = inp["k2"] / (inp["k1"] + inp["k2"])
        q = float(checks.gennorm.ppf(p, 1.0 / wl.gen_a, scale=wl.gen_b))
        density = float(checks.gennorm.pdf(q, 1.0 / wl.gen_a, scale=wl.gen_b))
        step = 7.0 * math.sqrt(p * (1.0 - p) / n_train) / density + 0.5 * wl.RESOLUTION
        out["offset"] = out["fitted_solution"]["C"] = q + step
        out["policies"] = checks.backtest_policies(test, q + step, inp["k1"], inp["k2"])

    perturbed = {f"{name} {key} moved by {REL:g} relative": policy(name, key)
                 for name in ("uncorrected", "corrected") for key in ("mean", "variance", "total")}
    perturbed[f"offset moved by {REL:g} relative, costs unchanged"] = offset_only
    perturbed["offset 7 standard errors from the fractile, costs consistent"] = far_offset
    return perturbed


def _custom_perturbations(wl, inp, out):
    def report(name, fn):
        def mutate(out):
            out[0]["solution"][name] = fn(out[0]["solution"][name])
        return mutate

    def margin(out):
        x, alpha, _ = out[1][2]
        out[1][2] = (x, alpha, -1e3 * asymloss.MARGIN_TOL)

    def alpha(out):
        x, a, m = out[1][1]
        out[1][1] = (x, _scaled(a), m)

    def quantile(fn):
        def mutate(out):
            # The quantile where a relative move changes the level most.
            z = out[2]
            i = int(np.argmax(np.abs(z) * (1.0 - np.abs(z))))
            z[i] = fn(z[i])
        return mutate

    return {
        f"C moved by {REL:g} relative": report("C", _scaled),
        f"expected_at_zero moved by {REL:g} relative": report("expected_at_zero", _scaled),
        "a swept margin below -MARGIN_TOL": margin,
        f"alpha at a swept point moved by {REL:g} relative": alpha,
        f"a quantile moved by {REL:g} relative": quantile(_scaled),
        "a quantile outside [-1, 1]": quantile(lambda z: 1.0 + 1e-6),
    }


PERTURBATIONS = {
    "verify_grid": _verify_perturbations,
    "analyze_mc": _analyze_perturbations,
    "backtest_csv": _backtest_perturbations,
    "custom_pdf": _custom_perturbations,
}


def main():
    os.makedirs(WORK_DIR, exist_ok=True)
    problems = 0
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1, WORK_DIR)
        wl.dists()
        wl.prepare()
        try:
            inp = wl.inputs(1)
            with contextlib.redirect_stderr(io.StringIO()):
                raw = wl.run(inp)
            if wl.failed(raw):
                print(f"[{name}] FAIL: the operation itself failed")
                problems += 1
                continue
            out = wl.output(inp, raw)
            try:
                wl.check(inp, out)
                print(f"[{name}] real output accepted")
            except checks.CheckError as exc:
                print(f"[{name}] FAIL: real output rejected: {exc}")
                problems += 1
            for label, mutate in PERTURBATIONS[name](wl, inp, out).items():
                bad = copy.deepcopy(out)
                mutate(bad)
                try:
                    wl.check(inp, bad)
                except checks.CheckError:
                    print(f"[{name}] rejected: {label}")
                else:
                    print(f"[{name}] FAIL: accepted: {label}")
                    problems += 1
        finally:
            wl.cleanup()
    print("self-test", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
