"""caloronkit benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload verify-su3 --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
workload's inputs are generated from --seed into .perfbench-work/ (removed
afterwards), then the `caloron` command runs as a fresh process again and
again while another run still fits in --seconds (at least once).  Every run
passes through the correctness gate; a failed run still counts in every
statistic.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall time per
run (median), set-up time (median of set-up probes spread through the
window) and peak resident memory.  --trace 1 runs the same command under
perfbench/tracer.py and reports the per-layer metrics instead.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

BLAS threads are pinned to 1 and CALORON_THREADS is removed from the
environment of every child process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
WORKDIR = ".perfbench-work"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # before every run and after the last


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class ProcResult:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def load_contract(root: Path):
    try:
        return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def child_env(root: Path):
    env = {k: v for k, v in os.environ.items() if k != "CALORON_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def run_process(argv, env, cwd: Path, work: Path) -> ProcResult:
    """Run argv to completion; wall time from spawn to exit, peak RSS of the child.

    A child started by vfork reports at least this process's own peak RSS,
    so the harness keeps numpy out of its imports and `measure` checks that
    its peak stays below every run's.
    """
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    i = n - 11
    return 100.0 * (i + 1) / n, sorted(values)[i]


@contextlib.contextmanager
def scratch(root: Path, name):
    """A fresh directory under .perfbench-work/, removed on exit."""
    work = root / WORKDIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            (root / WORKDIR).rmdir()


def measure(name, seed, seconds, trace, small=False, root=None, setup_probes=SETUP_PROBES):
    """Generate the workload's inputs from seed, run it, gate and summarise it."""
    root = Path(root or Path.cwd()).resolve()
    if not (root / "src" / "calorons" / "cli.py").is_file():
        raise BenchError(f"no calorons sources under {root / 'src'}")
    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}")
    with scratch(root, f"{name}-{seed}") as work:
        return _measure(workloads.WORKLOADS[name], seed, seconds, trace, small, root, work,
                        setup_probes)


def generate(workload, seed, work, small=False):
    """The workload's inputs for seed, written into work."""
    return workload.prepare(random.Random(f"{workload.name}:{seed}"), work, small)


def _measure(workload, seed, seconds, trace, small, root, work, setup_probes):
    prep = generate(workload, seed, work, small)
    env = child_env(root)
    py = sys.executable

    setup = []
    probe = [py, str(HERE / "setup_probe.py")]
    if prep.spec_path is not None:
        probe.append(str(prep.spec_path))

    def probe_setup(count):
        for _ in range(count):
            r = run_process(probe, env, root, work)
            if r.returncode != 0:
                raise BenchError(f"set-up probe failed:\n{r.stderr}")
            setup.append(r.wall_s)

    if not trace:
        probe_setup(1)  # fills the bytecode and file caches; not counted
        setup.clear()

    runs, failures, accuracy, layers = [], [], [], []
    reference = None
    start = time.perf_counter()
    # the first run always happens; another starts only if a run as long as
    # the median so far still ends within the window.  Set-up probes are
    # spread over the window, before every run and after the last, so that
    # setup_s samples the machine as the runs do.
    while not runs or (time.perf_counter() - start
                       + statistics.median(r.wall_s for r in runs) <= seconds):
        if not trace:
            probe_setup(setup_probes)
        k = len(runs)
        prep.out_path.unlink(missing_ok=True)
        spans = work / f"spans{k}.json"
        if trace:
            argv = [py, str(HERE / "tracer.py"), str(spans), f"{workload.name}-{seed}-{k}"]
        else:
            argv = [py, "-m", "calorons.cli"]
        r = run_process(argv + prep.argv, env, root, work)
        runs.append(r)
        out = prep.out_path.read_bytes() if prep.out_path.exists() else None
        problems = workloads.gate(workload, prep, r.returncode, r.stdout, out, reference)
        if reference is None:
            reference = out
        if problems:
            failures.append({"run": k, "problems": problems, "stderr": r.stderr[-2000:]})
        else:
            accuracy.append(workload.accuracy(prep, r.stdout, out))
        if trace:
            if not spans.exists():
                raise BenchError(f"traced run wrote no spans:\n{r.stderr}")
            layers.append(tracer.layer_metrics(json.loads(spans.read_text()), r.wall_s))
            spans.unlink()
    if not trace:
        probe_setup(setup_probes)

    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace and own_mb >= min(r.rss_mb for r in runs):
        raise BenchError(f"harness peak RSS {own_mb:.1f} MB hides the program's")
    walls = [r.wall_s for r in runs]
    if trace:
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r.rss_mb for r in runs),
        }
    acc = {key: statistics.median(a[key] for a in accuracy) for key in (accuracy or [{}])[0]}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": bool(trace),
        "argv": [a.replace(str(work), "<work>") for a in prep.argv],
        "walls": walls,
        "setup": setup,
        "attempted": len(runs),
        "failed": len(failures),
        "failures": failures,
        "accuracy": acc,
        "metrics": metrics,
    }


def describe(res):
    """Human-readable lines for one measured workload."""
    n = res["attempted"]
    lines = [
        f"workload {res['workload']} seed {res['seed']} trace {int(res['trace'])}: "
        f"{n} run(s), BLAS threads {BLAS_THREADS}, nproc {os.cpu_count()}, CALORON_THREADS unset",
    ]
    tail = tail_percentile(res["walls"])
    tail_text = (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail
                 else "no percentile has >= 10 samples beyond it")
    label = "traced wall_s" if res["trace"] else "wall_s"
    lines.append(f"  {label} median {statistics.median(res['walls']):.4f} s over {n} sample(s); "
                 f"{tail_text}")
    if res["setup"]:
        lines.append(f"  setup_s median {statistics.median(res['setup']):.4f} s over "
                     f"{len(res['setup'])} probe(s)")
    lines.append(f"  failed_runs_frac {res['failed']}/{n} = {res['failed'] / n:.4g}")
    for f in res["failures"]:
        lines.append(f"  FAILED run {f['run']}: {'; '.join(f['problems'])}")
    for key, unit in (("energy_rel_err", "fraction"), ("sd_slope_dev", "slope")):
        if key in res["accuracy"]:
            lines.append(f"  {key} {res['accuracy'][key]:.6g} {unit}")
    return lines


def result_line(res, contract):
    """The contract's last line: every metric of the mode, with its unit."""
    declared = contract["per_layer" if res["trace"] else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(res["metrics"]):
        missing = sorted(set(units) ^ set(res["metrics"]))
        raise BenchError(f"measured metrics differ from BENCHMARK.json: {missing}")
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": units[k]} for k in units},
    })


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    try:
        contract = load_contract(root)
        res = measure(args.workload, args.seed, args.seconds, args.trace, root=root)
        line = result_line(res, contract)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(describe(res)))
    for m in contract["per_layer" if args.trace else "end_to_end"]:
        print(f"  {m['name']} {res['metrics'][m['name']]:.6g} {m['unit']}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
