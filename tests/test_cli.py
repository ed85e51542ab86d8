"""CLI contract: commands, exit codes, deterministic outputs."""

import json
import math
import operator
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from calorons.cli import main
from calorons.rootsys import all_simple_types
from calorons.verify import Check

SU2_SPEC = {
    "epsilon": 0.05,
    "group": {"series": "A", "rank": 1},
    "omega": [0.25, -0.25],
    "constituents": [{"mu": 1, "position": [0.0, 0.0, 0.0], "phase": 0.0}],
    "gluing": {"c": 0.3},
}


@pytest.fixture
def su2_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SU2_SPEC))
    return path


def test_roots_command(tmp_path, capsys):
    out = tmp_path / "roots.json"
    assert main(["roots", "--type", "G2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["dual_coxeter_labels"] == [1, 2]
    assert len(payload["positive_roots"]) == 6


def test_roots_bad_type():
    assert main(["roots", "--type", "Z9"]) == 2


def test_construct_command(su2_spec_file, tmp_path):
    out = tmp_path / "construct.json"
    assert main(["construct", "--spec", str(su2_spec_file), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["constituent_counts"] == [0, 1]
    assert payload["moduli_dimension"] == 4
    assert abs(payload["energy_formula"] - 0.5) < 1e-12


def test_verify_command_passes(su2_spec_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--spec", str(su2_spec_file), "--out", str(out), "--seed", "3"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in captured
    report = json.loads(out.read_text())
    assert abs(report["ym_energy"] - 0.5) < 0.01
    assert report["recovered_charge"] == [1]


def test_verify_missing_spec(tmp_path):
    assert main(["verify", "--spec", str(tmp_path / "nope.json")]) == 2


def test_verify_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["verify", "--spec", str(bad)]) == 2


def test_verify_non_finite_epsilon_is_input_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(dict(SU2_SPEC, epsilon=float("nan"))))
    assert main(["verify", "--spec", str(path)]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_verify_omega_outside_alcove_named(tmp_path, capsys):
    tampered = dict(SU2_SPEC, omega=[0.7, -0.7])
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered))
    assert main(["verify", "--spec", str(path)]) == 2
    assert "alcove" in capsys.readouterr().err


def test_verify_overlapping_constituents_guidance(tmp_path, capsys):
    crowded = dict(
        SU2_SPEC,
        epsilon=0.45,
        constituents=[
            {"mu": 1, "position": [0.0, 0.0, 0.0], "phase": 0.0},
            {"mu": 1, "position": [0.9, 0.0, 0.0], "phase": 0.0},
        ],
    )
    path = tmp_path / "crowded.json"
    path.write_text(json.dumps(crowded))
    assert main(["verify", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert "epsilon" in err


@pytest.mark.parametrize("constituents", [[], "", {}], ids=["list", "string", "object"])
def test_verify_without_constituents_is_input_error(constituents, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(dict(SU2_SPEC, constituents=constituents)))
    assert main(["verify", "--spec", str(path)]) == 2
    assert "constituent" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["verify"], ["construct"], ["sweep", "--epsilons", "0.04,0.02,0.01"],
], ids=["verify", "construct", "sweep"])
def test_spec_of_a_group_other_than_su_n_is_input_error(command, tmp_path, capsys):
    """A well-formed B2 spec asks for fields outside the defining
    representation of su(n): an input the package refuses (exit 2), not a
    failed check (exit 1)."""
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(dict(
        SU2_SPEC,
        group={"series": "B", "rank": 2},
        omega=[0.2, 0.1],
        constituents=[{"mu": 1, "position": [1.5, 0.0, 0.0]}, {"mu": 2, "position": [-1.5, 0.0, 0.0]}],
    )))
    assert main([command[0], "--spec", str(path)] + command[1:]) == 2
    assert "input error" in capsys.readouterr().err


def _run_capped(code, limit=1 << 30):
    """Run `code` in a child Python whose address space is capped, so that a
    runaway allocation ends as MemoryError there instead of exhausting the
    machine."""
    prelude = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_verify_huge_integral_rank_is_input_error(tmp_path):
    """rank 1e308 is integral, so it passes as a rank; omega's length must be
    checked against the ambient dimension before the root datum is built."""
    path = tmp_path / "rank.json"
    path.write_text(json.dumps(dict(SU2_SPEC, group={"series": "A", "rank": 1e308})))
    proc = _run_capped(f"""
        import sys
        from calorons.cli import main
        sys.exit(main(["verify", "--spec", {str(path)!r}]))
    """)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "omega must have" in proc.stderr


@pytest.mark.parametrize("position", [[1e308, 0.0, 0.0], [0.0, -1e200, 0.0], [1e103, 0.0, 1e103]])
def test_verify_position_with_non_finite_geometry_is_input_error(position, tmp_path, capsys):
    spec = dict(SU2_SPEC, constituents=SU2_SPEC["constituents"] + [{"mu": 1, "position": position}])
    path = tmp_path / "far.json"
    path.write_text(json.dumps(spec))
    assert main(["verify", "--spec", str(path)]) == 2
    assert "positions too large" in capsys.readouterr().err


def test_verify_position_that_swallows_the_fd_step_is_input_error(data_dir, tmp_path, capsys):
    """At |p| = 1e20 the float spacing (16384) dwarfs verify's finite-difference
    steps; before the spec bound this ended as a flux-ambiguity check error."""
    spec = json.loads((data_dir / "su3_triple.json").read_text())
    spec["constituents"][0]["position"] = [1e20, 0.0, 0.1]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(spec))
    assert main(["verify", "--spec", str(path), "--seed", "1"]) == 2
    assert "does not resolve the finite-difference step" in capsys.readouterr().err


def test_verify_integer_past_the_json_digit_limit_is_input_error(tmp_path, capsys):
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(SU2_SPEC).replace('"epsilon": 0.05', '"epsilon": ' + "1" * 5000))
    assert main(["verify", "--spec", str(path)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_spec_fuzz_gives_a_spec_or_an_input_error(data_dir):
    """Single and double mutations of su3_triple.json (a value replaced by an
    edge value or random JSON, or a key deleted) through
    `CaloronSpec.from_json` + `approximate_caloron` build a caloron or raise
    one of the errors `caloron` maps to exit 2, nothing else.  One capped
    child runs the whole derandomized loop."""
    proc = _run_capped(f"""
        import json
        from hypothesis import HealthCheck, given, settings, strategies as st
        from calorons.assembler import CaloronSpec, approximate_caloron
        from calorons.errors import GluingInfeasibleError, HolonomyParameterError, InputError, InvalidGroupError

        BASE = json.loads(open({str(data_dir / "su3_triple.json")!r}).read())
        EXIT_2 = (InputError, InvalidGroupError, HolonomyParameterError, GluingInfeasibleError)

        def paths(node, prefix=()):
            yield prefix
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
            for key, value in items:
                yield from paths(value, prefix + (key,))

        edge = st.sampled_from([None, True, 0, -1, 2, 40, 1e-300, 1e20, 1e308, -0.0, 10**400, "", "A", "E", [], {{}}])
        scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
        values = st.one_of(edge, st.recursive(
            scalars, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
            max_leaves=6,
        ))
        # a path and its new value, or None to delete it
        mutation = st.tuples(st.sampled_from(list(paths(BASE))), st.one_of(st.none(), values.map(lambda v: (v,))))

        def mutate(spec, path, new):
            if not path:
                return new[0] if new else {{}}
            parent = spec
            for key in path[:-1]:
                parent = parent[key]
            if new is None:
                del parent[path[-1]]
            else:
                parent[path[-1]] = new[0]
            return spec

        @settings(max_examples=500, derandomize=True, database=None, deadline=None,
                  suppress_health_check=list(HealthCheck))
        @given(st.lists(mutation, min_size=1, max_size=2))
        def fuzz(mutations):
            spec = json.loads(json.dumps(BASE))
            for path, new in mutations:
                try:
                    spec = mutate(spec, path, new)
                except (KeyError, IndexError, TypeError):
                    pass  # the first mutation removed the second one's path
            try:
                approximate_caloron(CaloronSpec.from_json(json.dumps(spec)))
            except EXIT_2:
                pass

        fuzz()
    """)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_verify_imports_neither_numpy_random_nor_polynomial(su2_spec_file):
    """Probe points come from the stdlib generator and Gauss-Legendre nodes
    from the library's own Newton iteration, so verify loads neither numpy
    subpackage (about 20 ms of import)."""
    proc = _run_capped(f"""
        import json, sys
        import numpy
        lazy = ("numpy.random", "numpy.polynomial")
        eager = [m for m in lazy if m in sys.modules]
        from calorons.cli import main
        code = main(["verify", "--spec", {str(su2_spec_file)!r}, "--seed", "1"])
        print(json.dumps({{"code": code, "eager": eager, "loaded": [m for m in lazy if m in sys.modules]}}))
    """)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["eager"]:
        pytest.skip(f"this numpy imports {result['eager']} with numpy itself")
    assert result["code"] == 0
    assert result["loaded"] == []


def test_sweep_refuses_single_epsilon(su2_spec_file):
    assert main(["sweep", "--spec", str(su2_spec_file), "--epsilons", "0.1"]) == 2


@pytest.mark.parametrize("epsilons", ["0.1,0.05,0", "0.4,0.1,-0.05"])
def test_sweep_refuses_a_non_positive_epsilon(epsilons, su2_spec_file, capsys):
    assert main(["sweep", "--spec", str(su2_spec_file), "--epsilons", epsilons]) == 2
    assert "positive" in capsys.readouterr().err


def test_sweep_csv_and_slope(su2_spec_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--spec", str(su2_spec_file),
        "--epsilons", "0.1,0.05,0.025", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,R,sd_error_l2_sq,energy,energy_formula,charge_residual"
    assert len(lines) == 4
    rows = [dict(zip(lines[0].split(","), map(float, l.split(",")))) for l in lines[1:]]
    # energy_formula column is epsilon-independent (scale invariance in omega)
    formulas = [r["energy_formula"] for r in rows]
    assert max(formulas) - min(formulas) < 1e-12 * max(formulas)
    # the measured energy converges onto the formula as the glue thins
    errs = [abs(r["energy"] - r["energy_formula"]) / r["energy_formula"] for r in rows]
    assert all(e < 0.08 for e in errs)
    assert errs[-1] < 0.01  # smallest epsilon row
    assert errs[0] > errs[1] > errs[-1]
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 3.5 <= summary["fitted_slope_log_corrected"] <= 4.5


def test_sweep_reruns_byte_identical(su2_spec_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--spec", str(su2_spec_file), "--epsilons", "0.1,0.05,0.025"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_reruns_byte_identical(su2_spec_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["verify", "--spec", str(su2_spec_file), "--out", str(out), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _assert_matches_golden(fresh, golden, where="report"):
    """Strings, integers and lists exactly; floats to 1e-10 relative or
    absolute (charge_residual is finite-difference noise of about 1e-11)."""
    if isinstance(golden, dict):
        assert sorted(fresh) == sorted(golden), where
        for key in golden:
            _assert_matches_golden(fresh[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert isinstance(fresh, list) and len(fresh) == len(golden), where
        for i, (a, b) in enumerate(zip(fresh, golden)):
            _assert_matches_golden(a, b, f"{where}[{i}]")
    elif isinstance(golden, float):
        assert isinstance(fresh, float), where
        assert math.isclose(fresh, golden, rel_tol=1e-10, abs_tol=1e-10), (where, fresh, golden)
    else:
        assert type(fresh) is type(golden) and fresh == golden, (where, fresh, golden)


@pytest.mark.parametrize("name", ["su3_triple", "su2_single"])
def test_verify_report_matches_golden(name, data_dir, tmp_path):
    """A fresh `verify --seed 1` report against the one frozen in tests/data."""
    out = tmp_path / "report.json"
    assert main(["verify", "--spec", str(data_dir / f"{name}.json"), "--seed", "1", "--out", str(out)]) == 0
    golden = json.loads((data_dir / f"verify_{name}_seed1.json").read_text())
    _assert_matches_golden(json.loads(out.read_text()), golden)


LEDGER_LINE = re.compile(r"\[(PASS|FAIL)\] ([a-z-]+): (\S+) (<=|>=|<|>) (\S+)(  \(.*\))?$")
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
CHECK_NAMES = [
    "alcove-omega-margin", "alcove-local-parameters", "holonomy-shift-bound", "gluing-radius",
    "core-self-dual-error", "far-self-dual-error", "annulus-fplus-bound", "annulus-closed-form-vs-fd",
    "density-t-invariance", "gauge-patch-consistency", "alcove-containment-sigma",
    "alcove-sigma-refinement-drift", "magnetic-charge", "magnetic-charge-residual",
    "holonomy-infinity", "sd-error-localization", "energy-vs-formula",
]


def _ledger(lines):
    """The parsed check lines of a verify run; every line but the summary must parse."""
    parsed = [LEDGER_LINE.match(line) for line in lines[:-1]]
    assert all(parsed), lines
    return parsed


@pytest.mark.parametrize("name", ["su3_triple", "su2_single"])
def test_verify_ledger_lines_are_their_comparisons(name, data_dir, capsys):
    """Each verify line reads `[STATUS] name: value op bound`, the checks come
    in their fixed order (holonomy-shift-bound only with two or more
    constituents), and each status is the printed comparison."""
    assert main(["verify", "--spec", str(data_dir / f"{name}.json"), "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verify: all checks passed"
    ledger = _ledger(lines)
    expected = [n for n in CHECK_NAMES if name == "su3_triple" or n != "holonomy-shift-bound"]
    assert [m[2] for m in ledger] == expected
    for m in ledger:
        assert (m[1] == "PASS") == OPS[m[4]](float(m[3]), float(m[5])), m[0]


def test_verify_failure_is_one_fail_line(data_dir, tmp_path, capsys):
    """su2_single at eps = 0.1 is too coarse for the energy: verify exits 1,
    energy-vs-formula is the only [FAIL] line, at relative error 0.058 > 0.02,
    and every other check still prints PASS."""
    spec = dict(json.loads((data_dir / "su2_single.json").read_text()), epsilon=0.1)
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(spec))
    assert main(["verify", "--spec", str(path), "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verify: CHECK FAILURES"
    failed = [m for m in _ledger(lines) if m[1] == "FAIL"]
    assert [m[2] for m in failed] == ["energy-vs-formula"]
    assert abs(float(failed[0][3]) - 0.0584) < 5e-4 and failed[0].group(4, 5) == ("<", "0.02")
    assert sum(line.startswith("[PASS] ") for line in lines) == len(lines) - 2


def _su2_single_with(data_dir, tmp_path, epsilon, c):
    spec = json.loads((data_dir / "su2_single.json").read_text())
    spec["epsilon"], spec["gluing"]["c"] = epsilon, c
    path = tmp_path / "single.json"
    path.write_text(json.dumps(spec))
    return path


def test_flux_sphere_clears_a_large_gluing_ball(data_dir, tmp_path, capsys):
    """A single constituent puts no d_min bound on R.  At c = 0.02, R = 4.01
    and the sphere of radius 2(d_max + 1) = 2 lay inside the core, where the
    hedgehog gauge carries no abelian flux, and recovered charge 0; the
    sphere of radius d_max + 2R lies outside the gluing ball."""
    path = _su2_single_with(data_dir, tmp_path, 0.05, 0.02)
    assert main(["verify", "--spec", str(path), "--seed", "1"]) == 0
    assert "[PASS] magnetic-charge: 0 <= 0  (recovered (1,), expected (1,))" in capsys.readouterr().out


def test_verify_past_the_range_of_sinh_raises_no_float_error(data_dir, tmp_path, capsys):
    """At eps = 0.01 and c = 0.002 (R = 11, 2vR = 551) the remainders on the
    annulus have decayed past the range of sinh^2 and expm1: verify passes
    with division by zero, overflow and invalid operations raising.  (Only
    underflow is left to round: the squares of those decayed remainders.)"""
    path = _su2_single_with(data_dir, tmp_path, 0.01, 0.002)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert main(["verify", "--spec", str(path), "--seed", "1"]) == 0
    assert capsys.readouterr().out.endswith("verify: all checks passed\n")


def test_check_status_is_its_comparison():
    """A check passes exactly when `value op bound` holds, with the strictness
    of its operator, and prints that comparison."""
    assert not Check("c", 0.02, 0.02, "<").passed and Check("c", 0.02, 0.02, "<=").passed
    assert not Check("c", 0.0, 0.0, ">").passed and Check("c", 0.0, 0.0, ">=").passed
    assert not Check("c", float("nan"), 1.0, "<").passed
    assert Check("c", 0.25, 0.0, ">", "note").line() == "[PASS] c: 0.25 > 0  (note)"


def test_construct_matches_golden(data_dir, tmp_path):
    """`construct` on su3_triple against the output frozen in tests/data."""
    out = tmp_path / "construct.json"
    assert main(["construct", "--spec", str(data_dir / "su3_triple.json"), "--out", str(out)]) == 0
    golden = json.loads((data_dir / "construct_su3_triple.json").read_text())
    _assert_matches_golden(json.loads(out.read_text()), golden, "construct")


def _csv_rows(text):
    lines = text.strip().splitlines()
    return [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]


def test_sweep_matches_golden(data_dir, tmp_path):
    """The su2_single sweep over 0.1, 0.05, 0.025 against the CSV frozen in
    tests/data: the same columns, and every value to the golden tolerance."""
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--spec", str(data_dir / "su2_single.json"), "--epsilons", "0.1,0.05,0.025"]
    assert main(args + ["--out", str(out)]) == 0
    golden = (data_dir / "sweep_su2_single.csv").read_text()
    assert out.read_text().splitlines()[0] == golden.splitlines()[0]
    _assert_matches_golden(_csv_rows(out.read_text()), _csv_rows(golden), "sweep")


def test_fine_grid_verify_and_sweep(data_dir, tmp_path, capsys):
    """`--grid fine` refines the desk grid: verify on su2_single passes on
    more points, and the sweep keeps the eps^4 |ln eps|^3 slope (4.20)."""
    spec = str(data_dir / "su2_single.json")
    out = tmp_path / "report.json"
    assert main(["verify", "--spec", spec, "--seed", "1", "--grid", "fine", "--out", str(out)]) == 0
    grid = json.loads(out.read_text())["grid"]
    desk = json.loads((data_dir / "verify_su2_single_seed1.json").read_text())["grid"]
    assert grid["preset"] == "fine" and desk["preset"] == "desk"
    assert grid["points"] > desk["points"]
    capsys.readouterr()
    assert main(["sweep", "--spec", spec, "--epsilons", "0.1,0.05,0.025", "--grid", "fine",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 3.5 <= summary["fitted_slope_log_corrected"] <= 4.5


def test_index_command_json(tmp_path):
    out = tmp_path / "index.json"
    assert main(["index", "--type", "A2", "--mu", "0", "--omega", "1/3,0,-1/3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["total_index"] == 0
    assert payload["chern_term"] == "2/3"  # 2 (1 + alpha_0(omega)) = 2/3


def test_index_sweep_all_csv(tmp_path, data_dir):
    out = tmp_path / "index.csv"
    assert main(["index", "--sweep-all", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "series,rank,mu,chern,boundary,total"
    # every simple type A-G up to rank 8, every node: 31 types summed
    assert len(lines) - 1 == sum(rank + 1 for _, rank in all_simple_types())
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])
    # byte-identical to the frozen seed-0 sweep
    assert out.read_bytes() == (data_dir / "index_sweep_all_seed0.csv").read_bytes()


def test_index_requires_mu_or_sweep():
    assert main(["index", "--type", "A2"]) == 2
