"""CSV/JSON emission with frozen schemas (see docs/file_formats.md, schema v1).

Every file the package writes goes through a `write_*` function here, and
each returns the `Path` it wrote.  Every file but two carries a metadata
header: tool version, a hash of the resolved configuration, and the master
seed; the martingale diagnostic and the verification report carry none.
Nothing time-dependent is written, so reruns with the same configuration
are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import EnsembleReport
from .exact import ExactLaw, L2Diagnostic, MomentTable
from .walkers import ModelParams, Trajectory

__all__ = [
    "SCHEMA_VERSION",
    "config_hash",
    "write_trajectory_csv",
    "write_trajectory_json",
    "write_ensemble_csv",
    "write_ensemble_json",
    "write_law_csv",
    "write_law_json",
    "write_moments_csv",
    "write_moments_json",
    "write_mean_table_csv",
    "write_mean_table_json",
    "write_critical_ratios_csv",
    "write_l2_json",
    "write_report_json",
]

SCHEMA_VERSION = 1


def config_hash(config: dict) -> str:
    """Stable short hash of a configuration mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _header_lines(config: dict, seed) -> list[str]:
    return [
        f"# erwalk {__version__} schema v{SCHEMA_VERSION}",
        f"# config_hash={config_hash(config)}",
        f"# seed={seed}",
    ]


def _meta(config: dict, seed) -> dict:
    return {
        "tool": "erwalk",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "config_hash": config_hash(config),
        "seed": seed,
    }


def _write(path, lines: list[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_trajectory_csv(path, traj: Trajectory, config: dict) -> Path:
    lines = _header_lines(config, traj.seed)
    lines.append(
        f"# params p={traj.params.p!r} beta={traj.params.beta!r}"
        f" replicate={traj.replicate_index} mode={traj.mode}"
    )
    lines.append("n,xi,sigma,m,a")
    for i in range(len(traj.n)):
        lines.append(
            f"{traj.n[i]},{traj.xi[i]},{float(traj.sigma[i])!r},"
            f"{float(traj.m[i])!r},{float(traj.a[i])!r}"
        )
    return _write(path, lines)


def write_trajectory_json(path, traj: Trajectory, config: dict) -> Path:
    payload = {
        "meta": _meta(config, traj.seed),
        "params": {"p": traj.params.p, "beta": traj.params.beta},
        "replicate": traj.replicate_index,
        "mode": traj.mode,
        "records": [
            {
                "n": int(traj.n[i]),
                "xi": int(traj.xi[i]),
                "sigma": float(traj.sigma[i]),
                "m": float(traj.m[i]),
                "a": float(traj.a[i]),
            }
            for i in range(len(traj.n))
        ],
    }
    return _write(path, [json.dumps(payload, indent=2, sort_keys=True)])


def write_ensemble_csv(path, report: EnsembleReport, config: dict) -> Path:
    lines = _header_lines(config, report.seed)
    has_m = report.mean_m is not None
    cols = "n,mean_xi,var_xi,ci_half_xi" + (",mean_m,var_m" if has_m else "")
    lines.append(cols)
    for i, n in enumerate(report.checkpoints):
        row = (
            f"{n},{float(report.mean_xi[i])!r},{float(report.var_xi[i])!r},"
            f"{float(report.ci_half_xi[i])!r}"
        )
        if has_m:
            row += f",{float(report.mean_m[i])!r},{float(report.var_m[i])!r}"
        lines.append(row)
    return _write(path, lines)


def write_ensemble_json(path, report: EnsembleReport, config: dict) -> Path:
    payload = {"meta": _meta(config, report.seed), "report": report.to_dict()}
    return _write(path, [json.dumps(payload, indent=2, sort_keys=True)])


def write_law_csv(path, law: ExactLaw, config: dict, seed="exact") -> Path:
    lines = _header_lines(config, seed)
    lines.append("k,prob")
    for k in range(1, law.n + 1):
        lines.append(f"{k},{float(law.probs[k])!r}")
    return _write(path, lines)


def write_law_json(path, law: ExactLaw, config: dict, seed="exact") -> Path:
    payload = {
        "meta": _meta(config, seed),
        "n": law.n,
        "probs": {str(k): float(law.probs[k]) for k in range(1, law.n + 1)},
    }
    return _write(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _moment_columns(degree: int) -> list[tuple[int, int]]:
    return [
        (a, b)
        for d in range(1, degree + 1)
        for a in range(d, -1, -1)
        for b in [d - a]
    ]


def write_moments_csv(path, tables: list[MomentTable], config: dict, seed="exact") -> Path:
    if not tables:
        raise ValueError("no moment tables to write")
    degree = tables[0].degree
    cols = _moment_columns(degree)
    lines = _header_lines(config, seed)
    lines.append("n," + ",".join(f"m{a}{b}" for a, b in cols))
    for t in tables:
        lines.append(f"{t.n}," + ",".join(repr(float(t.m[a, b])) for a, b in cols))
    return _write(path, lines)


def write_moments_json(path, tables: list[MomentTable], config: dict, seed="exact") -> Path:
    if not tables:
        raise ValueError("no moment tables to write")
    cols = _moment_columns(tables[0].degree)
    payload = {
        "meta": _meta(config, seed),
        "degree": tables[0].degree,
        "tables": [
            {
                "n": t.n,
                **{f"m{a}{b}": float(t.m[a, b]) for a, b in cols},
            }
            for t in tables
        ],
    }
    return _write(path, [json.dumps(payload, indent=2, sort_keys=True)])


def write_mean_table_csv(
    path, params: ModelParams, cps, means, config: dict, regime: str, limit=None,
    seed="exact",
) -> Path:
    """Exact E[Xi_n] at `cps`; a localized walk's table adds its limit and gap.

    `params` goes only into the JSON variant; both take the same arguments.
    """
    lines = _header_lines(config, seed)
    lines.append(f"# regime={regime}")
    if limit is None:
        lines.append("n,mean_xi")
        lines += [f"{c},{float(m)!r}" for c, m in zip(cps, means)]
    else:
        lines.append("n,mean_xi,limit,gap")
        lines += [
            f"{c},{float(m)!r},{float(limit)!r},{float(limit - m)!r}"
            for c, m in zip(cps, means)
        ]
    return _write(path, lines)


def write_mean_table_json(
    path, params: ModelParams, cps, means, config: dict, regime: str, limit=None,
    seed="exact",
) -> Path:
    rows = [{"n": int(c), "mean_xi": float(m)} for c, m in zip(cps, means)]
    if limit is not None:
        for row in rows:
            row["limit"] = float(limit)
            row["gap"] = float(limit - row["mean_xi"])
    payload = {
        "meta": {**_meta(config, seed), "regime": regime},
        "params": {"p": params.p, "beta": params.beta},
        "rows": rows,
    }
    return _write(path, [json.dumps(payload, indent=2, sort_keys=True)])


def write_critical_ratios_csv(
    path, params: ModelParams, tables: list[MomentTable], config: dict, seed="exact"
) -> Path:
    """E[Xi^(k-l) Sigma^l] / (n^(l beta) (log n)^(2k-1-l)) on the critical line."""
    beta = params.beta
    cols = [(k, l) for k in (1, 2, 3) for l in range(k + 1) if k <= tables[0].degree]
    lines = _header_lines(config, seed)
    lines.append("n," + ",".join(f"r{k}{l}" for k, l in cols))
    for t in tables:
        if t.n < 2:
            continue
        vals = []
        for k, l in cols:
            denom = t.n ** (l * beta) * math.log(t.n) ** (2 * k - 1 - l)
            vals.append(repr(float(t.m[k - l, l]) / denom))
        lines.append(f"{t.n}," + ",".join(vals))
    return _write(path, lines)


def write_l2_json(path, diag: L2Diagnostic) -> Path:
    """The martingale diagnostic's verdict and rates; no `meta` object."""
    payload = {
        "bounded": diag.bounded,
        "sup_m2": diag.sup_m2,
        "last_decade_increase": diag.last_decade_increase,
        "increment_exponent": diag.increment_exponent,
        "expected_exponent": diag.expected_exponent,
    }
    return _write(path, [json.dumps(payload, indent=2, sort_keys=True)])


def write_report_json(path, gates) -> Path:
    """One object per `report.Gate` of a run of the battery; no `meta` object."""
    payload = [
        {"regime": g.regime, "gate": g.name, "passed": g.passed, "detail": g.detail}
        for g in gates
    ]
    return _write(path, [json.dumps(payload, indent=2, sort_keys=True)])

