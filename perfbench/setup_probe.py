"""Set-up work of one benchmark workload, timed from outside as a whole process.

    python3 perfbench/setup_probe.py [SPEC_JSON]

Imports `calorons`; given a spec, also parses it (which builds its root
datum) and constructs the approximate caloron, as `caloron` itself does.
The benchmark's `setup_s` is the wall time of this process, interpreter
start included.
"""

import sys

import calorons

if len(sys.argv) > 1:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = calorons.CaloronSpec.from_json(fh.read())
    calorons.approximate_caloron(spec)
