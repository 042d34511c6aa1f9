"""Output checks of the erwalk benchmark, against oracles computed here.

Each check function takes the workload's iteration directory (where the CLI
wrote its files) and the iteration's result record, and returns a list of
(check name, passed, detail).  The oracles are independent of erwalk: the
critical mean is a harmonic sum evaluated here with numpy and math.fsum,
and the martingale and branching means are the model's constants.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

import workloads

#: oracle constants; selftest.py corrupts one to prove that a wrong value fails
ORACLE = {
    "mean_m": 1.0,  # E[M_n] = E[Sigma_n] / c_n(p(beta+1)) = 1 at every n
    "mean_offspring": 1.0,  # m = p(beta+1)/beta at the critical point (0.75, 3)
    "z": 4.0,  # Monte Carlo checks allow 4 standard errors
    "exact_rtol": 1e-10,  # exact engines against the harmonic sum
}


@lru_cache(maxsize=None)
def critical_mean(beta: float, n: int) -> float:
    """E[Xi_n] on the critical line: 1 + beta * sum_{k=1}^{n-1} 1/(k+beta)."""
    k = np.arange(1, n, dtype=np.float64)
    return 1.0 + beta * math.fsum((1.0 / (k + beta)).tolist())


def _tag(p: float, beta: float) -> str:
    # the CLI names its files p<p:g>_beta<beta:g>
    return f"p{p:g}_beta{beta:g}"


def _rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _exit_code(result: dict) -> tuple:
    return ("exit code 0", result["rc"] == 0, f"rc={result['rc']}")


def check_report(out: Path, result: dict, size: str) -> list[tuple]:
    checks = [_exit_code(result)]
    path = out / "report.json"
    if not path.exists():
        return checks + [("report.json written", False, "missing")]
    for gate in json.loads(path.read_text()):
        checks.append((f"{gate['regime']}: {gate['gate']}", gate["passed"], gate["detail"]))
    return checks


def check_simulate(name: str, out: Path, result: dict, size: str) -> list[tuple]:
    checks = [_exit_code(result)]
    n, reps = workloads.simulate_shape(name, size)
    beta = workloads.CRITICAL_BETA
    path = out / f"simulate_{_tag(workloads.CRITICAL_P, beta)}.csv"
    if not path.exists():
        return checks + [("simulate csv written", False, f"{path.name} missing")]
    last = _rows(path)[-1]
    z = ORACLE["z"]
    if int(last["n"]) != n:
        checks.append(("last checkpoint", False, f"n={last['n']}, want {n}"))
    want = critical_mean(beta, n)
    got, se = float(last["mean_xi"]), math.sqrt(float(last["var_xi"]) / reps)
    checks.append(("mean_xi vs harmonic sum", abs(got - want) <= z * se,
                   f"{got:.6g} vs {want:.6g}, se {se:.3g}"))
    got, se = float(last["mean_m"]), math.sqrt(float(last["var_m"]) / reps)
    want = ORACLE["mean_m"]
    checks.append(("mean_m vs 1", abs(got - want) <= z * se,
                   f"{got:.6g} vs {want}, se {se:.3g}"))
    return checks


def check_branching(out: Path, result: dict, size: str) -> list[tuple]:
    # offspring counts are sums of independent Bernoullis, so their variance
    # is at most the mean m = 1 and the standard error at most 1/sqrt(N)
    expanded = result["expanded"]
    ratio = result["children"] / expanded
    se = 1.0 / math.sqrt(expanded)
    want = ORACLE["mean_offspring"]
    return [
        ("mean offspring per particle", abs(ratio - want) <= ORACLE["z"] * se,
         f"{ratio:.5f} vs {want} over {expanded} particles, se <= {se:.3g}"),
        ("no cutoff at the type cap", result["cap_hits"] == 0,
         f"cap_hits={result['cap_hits']} of {expanded} draws, "
         f"discarded mass {result['truncation_mass']:.4g}"),
    ]


def check_exact(out: Path, result: dict, size: str) -> list[tuple]:
    checks = [_exit_code(result)]
    n = workloads.SIZES[size]["exact_n"]
    rtol = ORACLE["exact_rtol"]
    for p in workloads.EXACT_PS:
        beta = p / (1.0 - p)
        tag = _tag(p, beta)
        want = critical_mean(beta, n)
        for fname, col in ((f"exact_mean_{tag}.csv", "mean_xi"),
                           (f"exact_moments_{tag}.csv", "m10")):
            path = out / fname
            if not path.exists():
                checks.append((f"{fname} written", False, "missing"))
                continue
            row = next((r for r in _rows(path) if int(r["n"]) == n), None)
            if row is None:
                checks.append((f"{fname} n={n}", False, "no row"))
                continue
            rel = abs(float(row[col]) - want) / want
            checks.append((f"{fname} {col} vs harmonic sum", rel <= rtol, f"rel err {rel:.2e}"))
        path = out / f"exact_l2_{tag}.json"
        bounded = json.loads(path.read_text()).get("bounded") if path.exists() else None
        checks.append((f"{path.name} bounded false", bounded is False, f"bounded={bounded}"))
    return checks


def run_checks(name: str, out: Path, result: dict, size: str) -> list[tuple]:
    if name == "report":
        return check_report(out, result, size)
    if name in ("simulate-long", "simulate-wide"):
        return check_simulate(name, out, result, size)
    if name == "branching-critical":
        return check_branching(out, result, size)
    if name == "exact-critical":
        return check_exact(out, result, size)
    raise ValueError(f"unknown workload {name!r}")
