"""Benchmark workloads: seeded input generation and the correctness gate.

Each workload turns a `random.Random` into the files and arguments of one
`caloron` command, and checks what that command printed and wrote.  The
program only ever sees the generated inputs.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

# Spec templates.  SU3_PAIR is tests/data/su3_triple.json with its first two
# constituents (the rotated mu=0 monopole and one mu=1 monopole); the full
# triple takes about 85 s per verify on a 2-core Xeon, more than one
# benchmark run may spend.  SU2_SINGLE is tests/data/su2_single.json.  Both
# are copied here so that editing the test fixtures cannot change the
# benchmark's inputs.
SU3_PAIR = {
    "epsilon": 0.02,
    "group": {"series": "A", "rank": 2},
    "omega": [0.3333333333333333, 0.0, -0.3333333333333333],
    "constituents": [
        {"mu": 0, "position": [2.5, 0.0, 0.1], "phase": 0.4},
        {"mu": 1, "position": [-1.4, 2.3, -0.2], "phase": 1.1},
    ],
    "gluing": {"c": 0.15},
}
SU2_SINGLE = {
    "epsilon": 0.05,
    "group": {"series": "A", "rank": 1},
    "omega": [0.25, -0.25],
    "constituents": [{"mu": 1, "position": [0.0, 0.0, 0.0], "phase": 0.0}],
    "gluing": {"c": 0.3},
}

SWEEP_EPSILONS = (0.1, 0.05, 0.025)
SWEEP_HEADER = "epsilon,R,sd_error_l2_sq,energy,energy_formula,charge_residual"
INDEX_HEADER = "series,rank,mu,chern,boundary,total"

# Tolerances of the outside checks.  verify's own energy check uses 2 %;
# the sweep's coarsest epsilon (0.1) sits 5.8 % above the formula, and the
# fitted self-dual-error slope is 4.2 against the predicted 4.
VERIFY_ENERGY_TOL = 0.02
SWEEP_ENERGY_TOL = 0.10
SWEEP_CHARGE_TOL = 0.05
SWEEP_SLOPE_TOL = 0.5


def all_simple_types(max_rank=8):
    """Every simple type of rank <= max_rank, in `caloron index --sweep-all` order."""
    out = [("A", r) for r in range(1, max_rank + 1)]
    out += [("B", r) for r in range(2, max_rank + 1)]
    out += [("C", r) for r in range(3, max_rank + 1)]
    out += [("D", r) for r in range(4, max_rank + 1)]
    out += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    return out


@dataclass
class Prepared:
    """Generated inputs of one workload instance."""

    argv: List[str]  # arguments after `python3 -m calorons.cli`
    out_path: Path  # the file the command writes with --out
    spec_path: Optional[Path]  # spec for the set-up probe; None: import only
    expect: Dict = field(default_factory=dict)


def _write_spec(spec, workdir: Path) -> Path:
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _type_a_charge(spec):
    """Coroot coefficients n_mu - n_0 of a type-A spec (all marks are 1)."""
    rank = spec["group"]["rank"]
    n = [0] * (rank + 1)
    for c in spec["constituents"]:
        n[c["mu"]] += 1
    return [n[mu] - n[0] for mu in range(1, rank + 1)]


def _seeded_spec(template, rng):
    spec = copy.deepcopy(template)
    for c in spec["constituents"]:
        c["phase"] = rng.uniform(0.0, 2.0 * math.pi)
    return spec


# -- verify-su3 -------------------------------------------------------------

def _prepare_verify(rng, workdir: Path, small: bool) -> Prepared:
    spec = _seeded_spec(SU2_SINGLE if small else SU3_PAIR, rng)
    spec_path = _write_spec(spec, workdir)
    out = workdir / "report.json"
    argv = ["verify", "--spec", str(spec_path), "--seed", str(rng.randrange(2**31)),
            "--out", str(out)]
    return Prepared(argv, out, spec_path, {"charge": _type_a_charge(spec)})


def _energy_rel_err(report):
    return abs(report["ym_energy"] - report["energy_formula"]) / report["energy_formula"]


def _check_verify(prep: Prepared, stdout: str, out: bytes) -> List[str]:
    problems = []
    if "[PASS]" not in stdout:
        problems.append("no [PASS] line")
    if "verify: all checks passed" not in stdout:
        problems.append("verify did not report all checks passed")
    try:
        report = json.loads(out)
        err = _energy_rel_err(report)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return problems + [f"unreadable report: {exc!r}"]
    if report.get("recovered_charge") != prep.expect["charge"]:
        problems.append(
            f"recovered charge {report.get('recovered_charge')} != {prep.expect['charge']}"
        )
    if not err < VERIFY_ENERGY_TOL:
        problems.append(f"energy_rel_err {err:.3g} >= {VERIFY_ENERGY_TOL}")
    return problems


def _accuracy_verify(prep, stdout, out):
    return {"energy_rel_err": _energy_rel_err(json.loads(out))}


# -- sweep-su2 --------------------------------------------------------------

def _prepare_sweep(rng, workdir: Path, small: bool) -> Prepared:
    spec_path = _write_spec(_seeded_spec(SU2_SINGLE, rng), workdir)
    out = workdir / "sweep.csv"
    argv = ["sweep", "--spec", str(spec_path),
            "--epsilons", ",".join(str(e) for e in SWEEP_EPSILONS), "--out", str(out)]
    return Prepared(argv, out, spec_path)


def _sweep_rows(out: bytes):
    text = out.decode("utf-8")
    if not text.startswith(SWEEP_HEADER + "\n"):
        raise ValueError("bad CSV header")
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _sweep_slope(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1])["fitted_slope_log_corrected"] if lines else None


def _check_sweep(prep: Prepared, stdout: str, out: bytes) -> List[str]:
    try:
        rows = _sweep_rows(out)
        slope = _sweep_slope(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable sweep output: {exc!r}"]
    problems = []
    if [r["epsilon"] for r in rows] != list(SWEEP_EPSILONS):
        problems.append("CSV epsilons differ from the requested sweep")
    for r in rows:
        if not all(math.isfinite(v) for v in r.values()):
            problems.append(f"non-finite CSV row at epsilon {r['epsilon']}")
            continue
        err = abs(r["energy"] - r["energy_formula"]) / r["energy_formula"]
        if not err < SWEEP_ENERGY_TOL:
            problems.append(f"energy off by {err:.3g} at epsilon {r['epsilon']}")
        if not r["charge_residual"] < SWEEP_CHARGE_TOL:
            problems.append(f"charge residual {r['charge_residual']:.3g} at epsilon {r['epsilon']}")
    if slope is None or not abs(slope - 4.0) < SWEEP_SLOPE_TOL:
        problems.append(f"fitted slope {slope} not within {SWEEP_SLOPE_TOL} of 4")
    return problems


def _accuracy_sweep(prep, stdout, out):
    rows = _sweep_rows(out)
    return {
        "energy_rel_err": max(
            abs(r["energy"] - r["energy_formula"]) / r["energy_formula"] for r in rows
        ),
        "sd_slope_dev": abs(_sweep_slope(stdout) - 4.0),
    }


# -- index-all --------------------------------------------------------------

def _prepare_index(rng, workdir: Path, small: bool) -> Prepared:
    out = workdir / "indices.csv"
    argv = ["index", "--sweep-all", "--seed", str(rng.randrange(2**31)), "--out", str(out)]
    types = all_simple_types()
    if small:
        argv += ["--type", "A2"]
        types = [("A", 2)]
    keys = [(s, r, mu) for s, r in types for mu in range(r + 1)]
    return Prepared(argv, out, None, {"rows": keys})


def _check_index(prep: Prepared, stdout: str, out: bytes) -> List[str]:
    lines = out.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != INDEX_HEADER:
        return ["bad index CSV header"]
    problems = []
    keys = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            problems.append(f"malformed row {line!r}")
            continue
        if not (parts[1].isdigit() and parts[2].isdigit()):
            problems.append(f"malformed row {line!r}")
            continue
        keys.append((parts[0], int(parts[1]), int(parts[2])))
        if parts[5] != "0":
            problems.append(f"nonzero total index in row {line!r}")
    if keys != prep.expect["rows"]:
        problems.append(f"{len(keys)} rows, expected {len(prep.expect['rows'])} in type order")
    return problems


def _accuracy_index(prep, stdout, out):
    return {}


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    prepare: object
    check: object
    accuracy: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-su3", _prepare_verify, _check_verify, _accuracy_verify),
        Workload("sweep-su2", _prepare_sweep, _check_sweep, _accuracy_sweep),
        Workload("index-all", _prepare_index, _check_index, _accuracy_index),
    )
}


def gate(workload: Workload, prep: Prepared, returncode: int, stdout: str,
         out: Optional[bytes], reference: Optional[bytes]) -> List[str]:
    """Every reason the run fails the correctness gate; empty when it passes.

    `reference` is the output of the first run of the same seed in the set.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "[FAIL]" in stdout:
        problems.append("[FAIL] line in output")
    if out is None:
        return problems + ["no output file"]
    if reference is not None and out != reference:
        problems.append("output bytes differ from the first run of this seed")
    return problems + workload.check(prep, stdout, out)
