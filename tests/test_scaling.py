"""Many constituents: the SU(4) Fibonacci-sphere calorons, bounded
evaluation blocks and the constituent axis.

The diagnostics evaluate at most `quadrature._EVAL_BLOCK` sampler
evaluations per call and keep only per-point values between blocks, so any
block size gives the same numbers bit for bit and the memory of a verify
run does not grow with the grid.  It grows linearly with the number N of
constituents, because each block's constituent sums hold (points, N, 3)
arrays.  Those sums run over an array axis of constituents;
`oracles.LoopCaloron` sums the same terms one constituent at a time.
"""

import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calorons import quadrature
from calorons.assembler import CaloronSpec, alcove_margin_report, approximate_caloron, gluing_radius, holonomy_shifts
from calorons.cli import main
from calorons.fieldcalc import sphere_averaged_holonomy
from calorons.verify import _annulus, field_integrals, run_verification
from oracles import LoopCaloron, dirac_potential, loop_holonomy_shifts

DATA = Path(__file__).parent / "data"


def fibonacci_spec(per_node, seed=0):
    """SU(4) caloron of charge per_node: 4 per_node constituents, node mu
    = i mod 4 for the i-th, at omega = (3/8, 1/8, -1/8, -3/8) (every
    omega'_k = 1/8), eps = 0.01 and c = 1/8.  They sit on a Fibonacci sphere
    of radius 1.3 R sqrt(N) + 1.5 R, with phases uniform in [0, 2 pi) from
    random.Random(seed)."""
    n, eps, c = 4 * per_node, 0.01, 0.125
    R = gluing_radius(eps, c)
    radius = 1.3 * R * math.sqrt(n) + 1.5 * R
    rng, turn = random.Random(seed), math.pi * (3.0 - math.sqrt(5.0))
    constituents = []
    for i in range(n):
        z = 1.0 - (2 * i + 1) / n
        rho = math.sqrt(1.0 - z * z)
        position = [radius * rho * math.cos(turn * i), radius * rho * math.sin(turn * i), radius * z]
        constituents.append({"mu": i % 4, "position": position, "phase": rng.uniform(0.0, 2.0 * math.pi)})
    return {"epsilon": eps, "group": {"series": "A", "rank": 3}, "omega": [0.375, 0.125, -0.125, -0.375],
            "constituents": constituents, "gluing": {"c": c}}


def test_su4_charge8_fixture_is_the_fibonacci_recipe(data_dir):
    stored, fresh = json.loads((data_dir / "su4_charge8.json").read_text()), fibonacci_spec(8)
    assert len(stored["constituents"]) == 32
    for a, b in zip(stored.pop("constituents"), fresh.pop("constituents")):
        assert (a["mu"], a["phase"]) == (b["mu"], b["phase"])
        assert all(math.isclose(u, v, rel_tol=1e-12, abs_tol=1e-12) for u, v in zip(a["position"], b["position"]))
    assert stored == fresh


def test_verify_passes_on_32_constituents(data_dir, capsys):
    assert main(["verify", "--spec", str(data_dir / "su4_charge8.json"), "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verify: all checks passed"


_CERTIFIED_CASES = sorted(p.stem for p in DATA.glob("*.json") if "constituents" in json.loads(p.read_text()))


@pytest.mark.parametrize("name", _CERTIFIED_CASES + ["fibonacci_spec(32)"])
def test_certified_sigma_is_positive_and_within_one_percent(name):
    """On every spec in tests/data and at N = 128 the certified bound is
    positive and at most sigma at refine 1 and 2, and at refine 2 it lies
    within 1 % of sigma."""
    raw = fibonacci_spec(32) if name.startswith("fibonacci") else json.loads((DATA / f"{name}.json").read_text())
    samp = approximate_caloron(CaloronSpec.from_json(json.dumps(raw)))
    for refine in (1, 2):
        rep = alcove_margin_report(samp, refine)
        assert 0.0 < rep["sigma_certified"] <= rep["sigma"]
    assert rep["sigma_certified"] > 0.99 * rep["sigma"]


def _diagnostics(spec):
    samp = approximate_caloron(spec)
    sd, energy, topo, _ = field_integrals(samp)
    phases = sphere_averaged_holonomy(samp, 10.0 * spec.d_max_eff)
    annulus = tuple(c.value for c in _annulus(spec, samp, random.Random(1), "desk")[0])
    return sd.annulus_sq, sd.background_sq, energy.raw, topo, tuple(phases), annulus


def test_block_size_leaves_every_integral_and_phase_unchanged_bit_for_bit(data_dir, monkeypatch):
    """Blocks of 7 evaluations (one point per block of shell stencils, one
    circle per block of holonomy circles, one probe per block of verify's
    annulus probes) give the default run's energy, trF^F, sd error, holonomy
    phases and the three annulus ledger values exactly, on both SU(n)
    fixtures and on G2 (roots of two lengths, killing_scale 3)."""
    for name in ("su3_triple", "su2_single", "g2_charge1"):
        spec = CaloronSpec.from_json((data_dir / f"{name}.json").read_text())
        default = _diagnostics(spec)
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_EVAL_BLOCK", 7)
            assert _diagnostics(spec) == default, name


def test_chart_codes_hold_past_63_constituents():
    """The far chart counts the constituents above a point, with no bit per
    constituent to run out of: on 68 constituents the fields and Phi below,
    above and among them equal the per-constituent sums with monopole k in
    its south patch exactly where z < z_k."""
    spec = CaloronSpec.from_dict(fibonacci_spec(17))
    samp = approximate_caloron(spec)
    assert len(spec.constituents) == 68
    x = np.array([[0.0, 0.0, -100.0], [0.0, 0.0, 100.0], [0.3, 0.2, 0.0]])
    t = np.zeros(len(x))
    assert np.all(samp.chart(x) < 0)
    assert samp.singular.chart(x).tolist() == [68, 0, int(np.sum(samp.positions[:, 2] > 0.0))]
    A_ref, Phi_ref = 0.0, samp.singular.omega / spec.epsilon
    for p, gamma in zip(samp.positions, samp.singular.coroots):
        A_ref = A_ref + dirac_potential(x - p, x[:, 2] < p[2])[..., :, None] * gamma
        Phi_ref = Phi_ref - gamma / (2.0 * np.linalg.norm(x - p, axis=-1))[:, None]
    A, Phi = samp.evaluate(x, t)
    _assert_close(A.diag, A_ref, "A")
    _assert_close(Phi.diag, Phi_ref, "Phi")
    assert not np.any(A.off) and not np.any(Phi.off)
    _assert_close(samp.higgs(x, t).diag, Phi_ref, "higgs")


def test_verify_traced_peak_stays_bounded_at_16_constituents():
    """With every point-by-constituent array inside one block, the traced
    peak of a 16-constituent verify stays below 12 MB (7.5 MB measured; 32.3
    MB when every diagnostic evaluated all its points in one sampler call)."""
    spec = CaloronSpec.from_dict(fibonacci_spec(4))
    run_verification(spec, seed=1)  # caches: root datum, quadrature nodes
    tracemalloc.start()
    try:
        report, checks = run_verification(spec, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak <= 12_000_000, f"traced peak {peak} B"


def _points_of_every_chart_kind(samp, rng, per=6):
    """Per constituent k: core (r < R/2), north and south annulus points,
    and points a distance 1.2 R .. 1.5 R off p_k, outside every ball."""
    kinds = {"core": [], "N": [], "S": [], "far": []}
    for p in samp.positions:
        u = rng.normal(size=(per, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        kinds["core"].append(p + samp.R * rng.uniform(0.05, 0.45, per)[:, None] * u)
        ann = samp.R * rng.uniform(0.55, 0.95, per)[:, None] * u
        ann[:, 2] = np.abs(ann[:, 2]) + 1e-3 * samp.R
        kinds["N"].append(p + ann)
        kinds["S"].append(p - ann)
        kinds["far"].append(p + samp.R * rng.uniform(1.2, 1.5, per)[:, None] * u)
    return {kind: np.concatenate(pts) for kind, pts in kinds.items()}


def _assert_close(a, b, what):
    scale = max(float(np.max(np.abs(b))), 1e-300)
    assert float(np.max(np.abs(a - b))) <= 1e-12 * scale, what


@settings(max_examples=10, deadline=None)
@given(per_node=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_constituent_axis_matches_the_per_constituent_loops(per_node, seed):
    """On SU(4) calorons of 8 and 12 constituents, each with spectators in
    both patches of some annulus, the fields, curvatures, Phi and chart
    codes summed over the constituent axis match the loops to 1e-12
    relative, at random points of every chart kind."""
    spec = CaloronSpec.from_dict(fibonacci_spec(per_node, seed))
    samp, ref = approximate_caloron(spec), LoopCaloron(spec)
    patches = samp._spect_patch[~np.eye(len(spec.constituents), dtype=bool)].reshape(len(spec.constituents), -1)
    assert np.any(np.any(patches, axis=1) & np.any(~patches, axis=1))
    _assert_close(np.asarray(holonomy_shifts(spec)), np.asarray(loop_holonomy_shifts(spec)), "omega_k")
    rng = np.random.default_rng(seed)
    for kind, x in _points_of_every_chart_kind(samp, rng).items():
        t = rng.uniform(0.0, 2.0 * np.pi, len(x))
        chart = samp.chart(x)
        assert np.array_equal(chart, ref.chart(x)), kind
        kinds = set(np.where(chart < 0, -1, (chart - 1) % 4).tolist())
        assert kinds == {{"core": 0, "N": 1, "S": 2, "far": -1}[kind]}, kind
        got = (*samp.evaluate(x, t), *samp.exact_curvature(x, t), samp.higgs(x, t))
        want = (*ref.evaluate(x, t), *ref.exact_curvature(x, t), ref.higgs(x, t))
        for name, a, b in zip(("A", "Phi", "E", "B", "higgs"), got, want):
            _assert_close(a.diag, b.diag, f"{kind} {name} diagonal")
            _assert_close(a.off, b.off, f"{kind} {name} su(2) entry")
