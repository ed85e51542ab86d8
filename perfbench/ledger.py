"""Multi-seed runs of the benchmark: spreads, tracing overhead, baseline.

    python3 perfbench/ledger.py [--workloads verify-su3,sweep-su2,index-all]
        [--out perfbench/results/baseline.json] [--compare OLD.json]

Run from the root of a checkout.  One process runs every requested workload;
the `caloron` commands are its children, with BLAS threads pinned to 1.  For
each workload it measures seeds 1..11 untraced and seeds 1..2 traced, each
for BENCHMARK.json's run_seconds, and prints:

* every end-to-end metric: median, quartiles and spread = (q3 - q1) / median
  against a third of the metric's bound in BENCHMARK.json;
* the highest wall-time percentile with ten samples beyond it, over all
  untraced runs (eleven seeds, so there is one);
* failed runs / runs attempted, and the accuracy figures;
* every per-layer metric (median over the traced seeds) and the tracing
  overhead: median traced wall time minus median untraced wall time over the
  same seeds.

--out writes all of it with the machine record as JSON.  --compare reads such
a file, refuses it if it was measured with another run_seconds, and reports
each end-to-end median's change against it, flagging changes for the worse
beyond the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

SEEDS = tuple(range(1, 12))
TRACE_SEEDS = SEEDS[:2]


_VERSIONS = (
    "import json, numpy, scipy\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
    "                  'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
)


def machine_record(root):
    # numpy and scipy are asked in a child: importing them here would raise
    # this process's peak RSS above that of the runs it measures
    versions = subprocess.run([sys.executable, "-c", _VERSIONS], env=run.child_env(root),
                              capture_output=True, text=True, check=True).stdout
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **json.loads(versions),
        "blas_threads": run.BLAS_THREADS,
        "CALORON_THREADS": "unset in every child process (validated by the CLI, no effect)",
    }


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def ledger_for(name, seconds, contract, root):
    plain = [run.measure(name, s, seconds, False, root=root) for s in SEEDS]
    traced = [run.measure(name, s, seconds, True, root=root) for s in TRACE_SEEDS]
    e2e = {m["name"]: dict(summary([r["metrics"][m["name"]] for r in plain]),
                           unit=m["unit"], bound=m["bound"])
           for m in contract["end_to_end"]}
    walls = [w for r in plain for w in r["walls"]]
    tail = run.tail_percentile(walls)
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    accuracy = {k: statistics.median(r["accuracy"][k] for r in plain if k in r["accuracy"])
                for k in plain[0]["accuracy"]}
    out = {
        "seeds": list(SEEDS),
        "end_to_end": e2e,
        "wall_s_samples": len(walls),
        "wall_s_tail": {"percentile": tail[0], "value": tail[1]} if tail else None,
        "attempted": attempted,
        "failed": failed,
        "failed_runs_frac": failed / attempted,
        "failures": [f for r in plain + traced for f in r["failures"]],
        "accuracy": accuracy,
        "argv_first_seed": plain[0]["argv"],
    }
    if traced:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        out["per_layer"] = {
            k: {"median": statistics.median(r["metrics"][k] for r in traced), "unit": units[k]}
            for k in units
        }
        untraced_wall = statistics.median(r["metrics"]["wall_s"] for r in plain[:len(TRACE_SEEDS)])
        traced_wall = out["per_layer"]["trace.wall_s"]["median"]
        out["trace_overhead_s"] = traced_wall - untraced_wall
        out["trace_overhead_frac"] = out["trace_overhead_s"] / untraced_wall
    return out


def print_workload(name, res, old):
    print(f"== {name}: seeds {res['seeds'][0]}..{res['seeds'][-1]}, "
          f"failed_runs_frac {res['failed']}/{res['attempted']} = {res['failed_runs_frac']:.4g}")
    for metric, s in res["end_to_end"].items():
        ok = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
        line = (f"  {metric:12s} median {s['median']:.5g} {s['unit']}  q1 {s['q1']:.5g}  "
                f"q3 {s['q3']:.5g}  spread {s['spread']:.4f} (bound/3 {s['bound'] / 3:.4f} {ok})")
        if old and metric in old.get("end_to_end", {}):
            change = s["median"] / old["end_to_end"][metric]["median"] - 1.0
            flag = "WORSE" if change > s["bound"] else "within bound"
            line += f"  vs old {change:+.2%} ({flag})"
        print(line)
    tail = res["wall_s_tail"]
    print("  wall_s tail: " + (f"p{tail['percentile']:.1f} = {tail['value']:.5g} s" if tail else
                                "no percentile has >= 10 samples beyond it")
          + f" ({res['wall_s_samples']} samples)")
    for k, v in res["accuracy"].items():
        print(f"  {k} {v:.6g}")
    if "per_layer" in res:
        print(f"  tracing overhead {res['trace_overhead_s']:+.4f} s "
              f"({res['trace_overhead_frac']:+.2%} of untraced wall_s)")
        for k, v in res["per_layer"].items():
            print(f"    {k} {v['median']:.6g} {v['unit']}")
    for f in res["failures"]:
        print(f"  FAILED: {f}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(run.workloads.WORKLOADS))
    p.add_argument("--out", default=None)
    p.add_argument("--compare", default=None)
    args = p.parse_args(argv)
    root = Path.cwd()
    contract = run.load_contract(root)
    seconds = contract["run_seconds"]
    old = {}
    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())
        if baseline["run_seconds"] != seconds:
            print(f"ledger: {args.compare} was measured with run_seconds "
                  f"{baseline['run_seconds']}, BENCHMARK.json has {seconds}", file=sys.stderr)
            return 2
        old = baseline["workloads"]
    result = {"machine": machine_record(root), "run_seconds": seconds, "workloads": {}}
    for name in args.workloads.split(","):
        res = ledger_for(name, seconds, contract, root)
        result["workloads"][name] = res
        print_workload(name, res, old.get(name))
        sys.stdout.flush()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    failed = sum(r["failed"] for r in result["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
