"""CSV/JSON emission with frozen schemas (see docs/file_formats.md, schema v1).

Every file the package writes goes through a `write_*` function here, and
each returns the `Path` it wrote.  A kind of file that comes as CSV or
JSON has one writer, `write_<kind>(..., fmt="csv")`, whose `fmt` is one of
FORMATS; any other is refused before a directory is made.  Every file but
two carries a metadata header: tool version, a hash of the resolved
configuration, and the master seed; the martingale diagnostic and the
verification report carry none.  Nothing time-dependent is written, so
reruns with the same configuration are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from . import __version__
from .analysis import EnsembleReport
from .exact import ExactLaw, L2Diagnostic, MomentTable
from .walkers import ModelParams, Trajectory

__all__ = [
    "SCHEMA_VERSION",
    "FORMATS",
    "config_hash",
    "write_trajectory",
    "write_ensemble",
    "write_law",
    "write_moments",
    "write_mean_table",
    "write_critical_ratios_csv",
    "write_l2_json",
    "write_report_json",
]

SCHEMA_VERSION = 1

#: the formats of every `write_<kind>(..., fmt)`; the first is the default
FORMATS = ("csv", "json")

#: the seed recorded for the closed-form outputs, which draw no randomness
_EXACT_SEED = "exact"


def config_hash(config: dict) -> str:
    """Stable short hash of a configuration mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _meta(config: dict, seed) -> dict:
    return {
        "tool": "erwalk",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "config_hash": config_hash(config),
        "seed": seed,
    }


def _is_csv(fmt: str) -> bool:
    """Whether `fmt` is "csv"; a format not in FORMATS is refused."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {list(FORMATS)}, got {fmt!r}")
    return fmt == "csv"


def _degree(tables: list[MomentTable]) -> int:
    """The degree of a run's moment tables; an empty list is refused."""
    if not tables:
        raise ValueError("no moment tables to write")
    return tables[0].degree


def _write(path, lines: list[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _csv(path, config: dict, seed, lines) -> Path:
    """The common three-line header, then `lines`: any further comment
    lines, the column line and the rows."""
    return _write(path, [
        f"# erwalk {__version__} schema v{SCHEMA_VERSION}",
        f"# config_hash={config_hash(config)}",
        f"# seed={seed}",
        *lines,
    ])


def _json(path, payload) -> Path:
    return _write(path, [json.dumps(payload, indent=2, sort_keys=True)])


def write_trajectory(path, traj: Trajectory, config: dict, fmt="csv") -> Path:
    rows = range(len(traj.n))
    if _is_csv(fmt):
        return _csv(path, config, traj.seed, [
            f"# params p={traj.params.p!r} beta={traj.params.beta!r}"
            f" replicate={traj.replicate_index} mode={traj.mode}",
            "n,xi,sigma,m,a",
            *(
                f"{traj.n[i]},{traj.xi[i]},{float(traj.sigma[i])!r},"
                f"{float(traj.m[i])!r},{float(traj.a[i])!r}"
                for i in rows
            ),
        ])
    return _json(path, {
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
            for i in rows
        ],
    })


def write_ensemble(path, report: EnsembleReport, config: dict, fmt="csv") -> Path:
    if not _is_csv(fmt):
        return _json(path, {"meta": _meta(config, report.seed), "report": report.to_dict()})
    has_m = report.mean_m is not None
    lines = ["n,mean_xi,var_xi,ci_half_xi" + (",mean_m,var_m" if has_m else "")]
    for i, n in enumerate(report.checkpoints):
        row = (
            f"{n},{float(report.mean_xi[i])!r},{float(report.var_xi[i])!r},"
            f"{float(report.ci_half_xi[i])!r}"
        )
        if has_m:
            row += f",{float(report.mean_m[i])!r},{float(report.var_m[i])!r}"
        lines.append(row)
    return _csv(path, config, report.seed, lines)


def write_law(path, law: ExactLaw, config: dict, fmt="csv") -> Path:
    ks = range(1, law.n + 1)
    if _is_csv(fmt):
        return _csv(
            path, config, _EXACT_SEED, ["k,prob", *(f"{k},{float(law.probs[k])!r}" for k in ks)]
        )
    return _json(path, {
        "meta": _meta(config, _EXACT_SEED),
        "n": law.n,
        "probs": {str(k): float(law.probs[k]) for k in ks},
    })


def write_moments(path, tables: list[MomentTable], config: dict, fmt="csv") -> Path:
    degree = _degree(tables)
    cols = [(a, d - a) for d in range(1, degree + 1) for a in range(d, -1, -1)]
    if _is_csv(fmt):
        return _csv(path, config, _EXACT_SEED, [
            "n," + ",".join(f"m{a}{b}" for a, b in cols),
            *(f"{t.n}," + ",".join(repr(float(t.m[a, b])) for a, b in cols) for t in tables),
        ])
    return _json(path, {
        "meta": _meta(config, _EXACT_SEED),
        "degree": degree,
        "tables": [
            {"n": t.n, **{f"m{a}{b}": float(t.m[a, b]) for a, b in cols}} for t in tables
        ],
    })


def write_mean_table(
    path, params: ModelParams, cps, means, config: dict, regime: str, limit=None, fmt="csv",
) -> Path:
    """Exact E[Xi_n] at `cps`, one mean per checkpoint; a localized walk's
    table adds its limit and gap.

    `params` goes only into the JSON file.
    """
    if len(cps) != len(means):
        raise ValueError(f"{len(cps)} checkpoints but {len(means)} means")
    rows = [(int(c), float(m)) for c, m in zip(cps, means)]
    if limit is not None:
        rows = [(c, m, float(limit), float(limit - m)) for c, m in rows]
    if _is_csv(fmt):
        return _csv(path, config, _EXACT_SEED, [
            f"# regime={regime}",
            "n,mean_xi" if limit is None else "n,mean_xi,limit,gap",
            *(",".join(map(repr, row)) for row in rows),
        ])
    keys = ("n", "mean_xi", "limit", "gap")
    return _json(path, {
        "meta": {**_meta(config, _EXACT_SEED), "regime": regime},
        "params": {"p": params.p, "beta": params.beta},
        "rows": [dict(zip(keys, row)) for row in rows],
    })


def write_critical_ratios_csv(
    path, params: ModelParams, tables: list[MomentTable], config: dict
) -> Path:
    """E[Xi^(k-l) Sigma^l] / (n^(l beta) (log n)^(2k-1-l)) on the critical line."""
    beta = params.beta
    degree = _degree(tables)
    cols = [(k, l) for k in (1, 2, 3) for l in range(k + 1) if k <= degree]
    lines = ["n," + ",".join(f"r{k}{l}" for k, l in cols)]
    for t in tables:
        if t.n < 2:
            continue
        vals = []
        for k, l in cols:
            denom = t.n ** (l * beta) * math.log(t.n) ** (2 * k - 1 - l)
            vals.append(repr(float(t.m[k - l, l]) / denom))
        lines.append(f"{t.n}," + ",".join(vals))
    return _csv(path, config, _EXACT_SEED, lines)


def write_l2_json(path, diag: L2Diagnostic) -> Path:
    """The martingale diagnostic's verdict and rates; no `meta` object."""
    return _json(path, {
        "bounded": diag.bounded,
        "sup_m2": diag.sup_m2,
        "last_decade_increase": diag.last_decade_increase,
        "increment_exponent": diag.increment_exponent,
        "expected_exponent": diag.expected_exponent,
    })


def write_report_json(path, gates) -> Path:
    """One object per `report.Gate` of a run of the battery; no `meta` object."""
    return _json(path, [
        {"regime": g.regime, "gate": g.name, "passed": g.passed, "detail": g.detail}
        for g in gates
    ])

