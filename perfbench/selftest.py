"""Fast self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each workload's code path runs on a
reduced input (verify-su3 on one circle-invariant SU(2) monopole, index-all
on A2 only, sweep-su2 unchanged), and the test checks that:

1. every end-to-end metric (--trace 0) and every per-layer metric
   (--trace 1) of BENCHMARK.json is emitted with its unit;
2. another seed generates other inputs but the same set of metrics;
3. the correctness gate passes a good output and flags corrupted ones.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads


def _corrupt(name, out: bytes) -> bytes:
    """A plausible-looking wrong output of the workload."""
    if name == "verify-su3":
        report = json.loads(out)
        report["ym_energy"] *= 1.5
        return json.dumps(report).encode()
    lines = out.decode().splitlines()
    cells = lines[-1].split(",")
    if name == "sweep-su2":
        cells[3] = repr(float(cells[3]) * 1.5)  # energy
    else:
        cells[5] = "1"  # total index
    lines[-1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def _inputs(workload, seed, work: Path):
    """Generated inputs with the work directory masked out."""
    work.mkdir(parents=True)
    prep = run.generate(workload, seed, work, small=True)
    spec = prep.spec_path.read_text() if prep.spec_path else ""
    return [a.replace(str(work), "<work>") for a in prep.argv], spec


def check_workload(name, contract, root, work, fail):
    workload = workloads.WORKLOADS[name]
    by_mode = {}
    for trace in (0, 1):
        res = run.measure(name, 1, 0, trace, small=True, root=root, setup_probes=1)
        declared = contract["per_layer" if trace else "end_to_end"]
        try:
            line = json.loads(run.result_line(res, contract))
        except run.BenchError as exc:
            fail(f"{name} trace {trace}: {exc}")
            continue
        for m in declared:
            if line["metrics"][m["name"]]["unit"] != m["unit"]:
                fail(f"{name}: {m['name']} emitted without its unit")
        if res["failed"]:
            fail(f"{name} trace {trace}: good run failed the gate: {res['failures']}")
        by_mode[trace] = res

    other = run.measure(name, 2, 0, 0, small=True, root=root, setup_probes=1)
    if 0 in by_mode and set(other["metrics"]) != set(by_mode[0]["metrics"]):
        fail(f"{name}: seed 2 emits another set of metrics")
    if _inputs(workload, 1, work / "s1") == _inputs(workload, 2, work / "s2"):
        fail(f"{name}: seeds 1 and 2 generate the same inputs")

    prep = run.generate(workload, 1, work, small=True)
    r = run.run_process([sys.executable, "-m", "calorons.cli"] + prep.argv,
                        run.child_env(root), root, work)
    good = prep.out_path.read_bytes()
    if workloads.gate(workload, prep, r.returncode, r.stdout, good, good):
        fail(f"{name}: gate rejects a good output")
    bad = _corrupt(name, good)
    cases = {
        "nonzero exit code": (1, r.stdout, good, good),
        "[FAIL] line": (0, r.stdout + "[FAIL] injected\n", good, good),
        "bytes differ from the first run": (0, r.stdout, bad, good),
        "wrong values": (0, r.stdout, bad, None),
    }
    for what, (code, stdout, out, ref) in cases.items():
        if not workloads.gate(workload, prep, code, stdout, out, ref):
            fail(f"{name}: gate misses {what}")


def main():
    root = Path.cwd().resolve()
    contract = run.load_contract(root)
    errors = []
    try:
        for name in workloads.WORKLOADS:
            with run.scratch(root, f"selftest-{name}") as work:
                check_workload(name, contract, root, work, errors.append)
            print(f"selftest {name}: {'ok' if not errors else 'FAILED'}", flush=True)
    except run.BenchError as exc:
        errors.append(str(exc))
    for e in errors:
        print(f"  {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} problem(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
