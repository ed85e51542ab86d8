"""cProfile top 10 by cumulative time of the verify-su3 workload, seed 1.

    python3 perfbench/cprofile_top.py [--out FILE]

Run from the root of a checkout.  Generates the workload's inputs exactly as
run.py does, runs the `caloron` command under `python3 -m cProfile` and
writes the ten `calorons` functions with the highest cumulative time (to
stdout, or to --out).  cProfile slows Python-level calls but not numpy kernels, so its
shares differ from an unprofiled run: the listing is for finding candidates,
not a metric.
"""

from __future__ import annotations

import argparse
import io
import pstats
import sys
from pathlib import Path

import run
import workloads

WORKLOAD = "verify-su3"
SEED = 1


def profile_top(name, seed, root: Path, limit=10):
    with run.scratch(root, "cprofile") as work:
        prep = run.generate(workloads.WORKLOADS[name], seed, work)
        prof = work / "profile.out"
        argv = [sys.executable, "-m", "cProfile", "-o", str(prof), "-m", "calorons.cli"]
        r = run.run_process(argv + prep.argv, run.child_env(root), root, work)
        if r.returncode != 0:
            raise run.BenchError(f"profiled run failed:\n{r.stderr}")
        buf = io.StringIO()
        pstats.Stats(str(prof), stream=buf).sort_stats("cumulative").print_stats("calorons/", limit)
        text = buf.getvalue()
        args = " ".join(prep.argv)
    # keep the listing free of this checkout's and this interpreter's locations
    for prefix, label in ((str(work), "<work>"), (str(root), "."),
                          (sys.prefix, "<python>"), (sys.base_prefix, "<python>")):
        text, args = text.replace(prefix, label), args.replace(prefix, label)
    lines = [line for line in text.splitlines() if "<work>" not in line]  # dated file header
    header = (f"cProfile of `caloron {args}` (workload {name}, seed {seed}), "
              f"profiled wall {r.wall_s:.1f} s\n")
    return header + "\n".join(lines).strip("\n") + "\n"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    text = profile_top(WORKLOAD, SEED, Path.cwd().resolve())
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
