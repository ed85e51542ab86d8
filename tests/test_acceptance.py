"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
ledger.  Tolerances are the contract; they are pinned here and nowhere else.
"""

import dataclasses
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from calorons.assembler import (
    CaloronSpec,
    Constituent,
    alcove_margin_report,
    approximate_caloron,
)
from calorons.errors import ResonanceError
from calorons.fieldcalc import (
    energy_and_tr_f_wedge_f,
    magnetic_charge,
    sd_error_l2,
    sphere_averaged_holonomy,
)
from calorons.indexes import (
    adjoint_weights,
    dynkin_index_su2,
    jump_loci,
    moduli_dimension,
    transverse_index,
    twisted_dirac_index,
)
from calorons.quadrature import desk_grid
from calorons.rootsys import (
    alcove_margin,
    all_simple_types,
    build_root_datum,
    charge_vector,
    dynkin_index_adjoint,
    pairing,
    random_interior_omega,
)
from oracles import (
    bps_fields,
    dynkin_index_adjoint_bruteforce,
    dynkin_index_su2_via_adjoint,
    hedgehog_framing,
    su2_caloron,
    twisted_dirac_index_adjoint,
)

ITAU3 = 1j * np.diag([1.0, -1.0])


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:>2} [{status}] {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# -- 1. Bogomolny residual ---------------------------------------------------------

def test_criterion_01_bogomolny_residual():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-3.0, 3.0, size=(130, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.05][:100]
    assert len(pts) == 100

    def residual(h):
        A0, Phi0 = bps_fields(pts, 1.0)
        dA = np.zeros((len(pts), 3, 3, 2, 2), dtype=complex)
        dPhi = np.zeros((len(pts), 3, 2, 2), dtype=complex)
        for i in range(3):
            xp = pts.copy(); xp[:, i] += h
            xm = pts.copy(); xm[:, i] -= h
            Ap, Pp = bps_fields(xp, 1.0)
            Am, Pm = bps_fields(xm, 1.0)
            dA[:, i] = (Ap - Am) / (2 * h)
            dPhi[:, i] = (Pp - Pm) / (2 * h)
        dAPhi = dPhi + np.einsum("paij,pjk->paik", A0, Phi0) - np.einsum(
            "pij,pajk->paik", Phi0, A0
        )
        worst = 0.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            Fij = dA[:, i, j] - dA[:, j, i] + A0[:, i] @ A0[:, j] - A0[:, j] @ A0[:, i]
            worst = max(worst, float(np.max(np.abs(Fij - dAPhi[:, k]))))
        return worst

    r2, r3 = residual(1e-2), residual(1e-3)
    elapsed = time.monotonic() - t0
    ok = r2 < 10 * 1e-4 and r3 < 10 * 1e-6 and (r2 / r3) >= 50.0 and elapsed < 10.0
    _report(
        1, "Bogomolny residual",
        ok,
        f"resid(1e-2)={r2:.3e} < 1e-3, resid(1e-3)={r3:.3e} < 1e-5, "
        f"ratio={r2 / r3:.0f} >= 50, runtime {elapsed:.1f}s < 10s",
    )


# -- 2. asymptotics ---------------------------------------------------------------

def test_criterion_02_framed_higgs_decay():
    v = 1.0
    rs = np.linspace(2.0 / v, 6.0 / v, 21)
    dirn = np.array([2.0, 1.0, 2.0]) / 3.0
    dev = []
    for r in rs:
        x = (r * dirn)[None, :]
        f = hedgehog_framing(x)
        finv = np.conjugate(np.swapaxes(f, -1, -2))
        _, Phi = bps_fields(x, v)
        framed = (finv @ Phi @ f)[0]
        dev.append(np.max(np.abs(framed - (v - 1.0 / (2 * r)) * ITAU3)))
    rate = -np.polyfit(rs, np.log(dev), 1)[0]
    _report(2, "framed Higgs exponential decay", rate >= 3.5 * v,
            f"fitted rate {rate:.3f} v >= 3.5 v")


# -- 3. energy --------------------------------------------------------------------

def test_criterion_03_energy_of_fundamental_calorons():
    results = {}
    for name, samp, target in (
        ("circle-invariant", su2_caloron(0.25, 1.0), 0.5),   # 2 omega'
        ("rotated", su2_caloron(0.25, 1.0, rotated=True), 0.5),                # 1 - 2 omega'
    ):
        t0 = time.monotonic()
        grid = desk_grid([np.zeros(3)], [1.0 / (2.0 * samp.v)], 1.0)
        e, q = energy_and_tr_f_wedge_f(samp, grid)
        elapsed = time.monotonic() - t0
        results[name] = (e.value, q, elapsed)
    ok = all(
        abs(e - 0.5) / 0.5 < 0.01 and abs(q - 0.5) / 0.5 < 0.01 and dt < 300.0
        for e, q, dt in results.values()
    )
    detail = "; ".join(
        f"{k}: energy={v[0]:.5f}, trFF={v[1]:.5f} (target 0.5 +-1%), {v[2]:.0f}s"
        for k, v in results.items()
    )
    _report(3, "Yang-Mills energy of both SU(2) fundamental calorons", ok, detail)


# -- 4. self-dual error scaling -----------------------------------------------------

def test_criterion_04_error_scaling():
    epsilons = (0.1, 0.05, 0.025)
    rows = []
    for eps in epsilons:
        spec = CaloronSpec(
            epsilon=eps, series="A", rank=1, omega=(0.25, -0.25),
            constituents=[Constituent(1, (0.0, 0.0, 0.0), 0.0)], gluing_c=0.3,
        )
        samp = approximate_caloron(spec)
        est = sd_error_l2(samp)
        rows.append((eps, est.total_sq, est.annulus_fraction))
    xs = [math.log(eps) for eps, _, _ in rows]
    ys = [math.log(v / abs(math.log(eps)) ** 3) for eps, v, _ in rows]
    slope = float(np.polyfit(xs, ys, 1)[0])
    min_frac = min(f for _, _, f in rows)
    ok = 3.5 <= slope <= 4.5 and min_frac >= 0.95
    _report(
        4, "self-dual error scaling",
        ok,
        f"|ln eps|^3-corrected slope {slope:.2f} in [3.5, 4.5]; "
        f"annulus support fraction >= {min_frac:.4f} (>= 0.95); "
        f"err^2 = {[f'{v:.3e}' for _, v, _ in rows]}",
    )


# -- 5. alcove containment -----------------------------------------------------------

def test_criterion_05_alcove_containment():
    spec = CaloronSpec(
        epsilon=0.02, series="A", rank=2, omega=(1 / 3, 0.0, -1 / 3),
        constituents=[
            Constituent(0, (2.5, 0.0, 0.1), 0.4),
            Constituent(1, (-1.4, 2.3, -0.2), 1.1),
            Constituent(2, (-1.2, -2.4, 0.15), 0.0),
        ],
        gluing_c=0.15,
    )
    samp = approximate_caloron(spec)
    r1 = alcove_margin_report(samp, refine=1)
    r2 = alcove_margin_report(samp, refine=2)
    drift = abs(r2["sigma"] - r1["sigma"]) / abs(r1["sigma"])
    ok = r1["sigma"] > 0 and r2["sigma"] > 0 and drift <= 0.10
    _report(
        5, "alcove containment of the abelian Higgs field",
        ok,
        f"sigma={r2['sigma']:.4f} > 0 outside r >= {r1['c_exclusion']:.1f} eps; "
        f"refinement drift {drift:.2e} <= 10%",
    )


# -- 6. charge and holonomy -----------------------------------------------------------

def _random_spec(rng, series, rank):
    datum = build_root_datum(series, rank)
    while True:
        # random interior omega with a healthy margin and moderate weights
        om = np.array([float(c) for c in random_interior_omega(datum, rng_py(rng))])
        if float(alcove_margin(datum, om)) > 0.08 and np.max(np.abs(om)) < 0.42:
            break
    n_pts = rng.integers(1, 4)
    while True:
        pos = rng.uniform(-3.0, 3.0, size=(n_pts, 3))
        if n_pts == 1:
            break
        dmin = min(
            np.linalg.norm(pos[i] - pos[j])
            for i in range(n_pts)
            for j in range(i + 1, n_pts)
        )
        if dmin > 3.4:
            break
    constituents = [
        Constituent(int(rng.integers(0, rank + 1)), tuple(p), float(rng.uniform(0, 2 * np.pi)))
        for p in pos
    ]
    spec = CaloronSpec(epsilon=0.03, series=series, rank=rank, omega=tuple(om), constituents=constituents)
    return dataclasses.replace(spec, gluing_c=min(0.2, 2.0 * min(spec.masses())))  # c <= 2 omega'_k


def rng_py(rng):
    return random.Random(int(rng.integers(0, 2**31)))


def test_criterion_06_charge_and_holonomy():
    rng = np.random.default_rng(77)
    details = []
    ok = True
    cases = [("A", 1), ("A", 1), ("A", 1), ("A", 2), ("A", 2)]
    for series, rank in cases:
        spec = _random_spec(rng, series, rank)
        samp = approximate_caloron(spec)
        coeffs, resid = magnetic_charge(samp, 2.0 * (spec.d_max + 1.5))
        expected = spec.charge_coefficients()
        L = 10.0 * spec.d_max_eff
        phases = sphere_averaged_holonomy(samp, L)
        model = np.sort(
            2.0 * np.pi * (np.asarray(spec.omega) - spec.epsilon * samp.charge / (2.0 * L))
        )[::-1]
        hol_err = float(np.max(np.abs(phases - model)))
        case_ok = coeffs == expected and resid < 0.05 and hol_err < 1e-4
        ok = ok and case_ok
        details.append(
            f"{series}{rank} n={spec.counts()}: charge {coeffs}=={expected} "
            f"resid {resid:.1e}, holonomy err {hol_err:.1e}"
        )
    _report(6, "charge recovery and holonomy at infinity", ok, " | ".join(details))


# -- 7. transverse index vanishing ------------------------------------------------------

def test_criterion_07_transverse_index_vanishes():
    t0 = time.monotonic()
    seed = random.Random(123)
    count = 0
    for series, rank in all_simple_types():
        datum = build_root_datum(series, rank)
        for mu in range(rank + 1):
            for _ in range(10):
                om = random_interior_omega(datum, seed)
                rep = transverse_index(datum, mu, om)
                total = rep.chern_term + rep.boundary_term
                assert total == 0, (series, rank, mu, om)
                count += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 30.0
    _report(
        7, "transverse index vanishing",
        ok,
        f"{count} exact evaluations (all types A-G rank<=8, every node, "
        f"10 rational interior omega each) all exactly 0; runtime {elapsed:.1f}s < 30s",
    )


# -- 8. Dynkin identities ---------------------------------------------------------------

def test_criterion_08_dynkin_identities():
    checked = 0
    for series, rank in all_simple_types():
        datum = build_root_datum(series, rank)
        assert dynkin_index_adjoint(datum) == dynkin_index_adjoint_bruteforce(datum)
        for mu in range(rank + 1):
            assert dynkin_index_su2(datum, mu) == dynkin_index_su2_via_adjoint(datum, mu)
            checked += 1
    _report(
        8, "Dynkin index identities",
        True,
        f"adjoint index: closed form == brute-force root sum for all {len(all_simple_types())} types; "
        f"su(2)-embedding identity exact at {checked} nodes",
    )


# -- 9. dimension formula ---------------------------------------------------------------

def test_criterion_09_moduli_dimension():
    rng = random.Random(55)
    for _ in range(1000):
        n = tuple(rng.randint(0, 8) for _ in range(rng.randint(1, 9)))
        assert moduli_dimension(n) == 4 * sum(n)
    ok = moduli_dimension((1, 0)) == 4 and moduli_dimension((0, 1)) == 4
    _report(
        9, "moduli dimension",
        ok,
        "4 sum(n) verified on 1000 random decompositions; both SU(2) "
        "fundamental charge data give dimension 4",
    )


# -- 10. twisted Dirac index --------------------------------------------------------------

def test_criterion_10_twisted_index():
    datum = build_root_datum("A", 2)
    rep = adjoint_weights(datum)
    seed = random.Random(99)
    agree = 0
    while agree < 100:
        om = random_interior_omega(datum, seed)
        coeffs = (seed.randint(-3, 3), seed.randint(-3, 3))
        n0 = seed.randint(-2, 3)
        s = Fraction(seed.randint(1, 999), 1000)
        try:
            a = twisted_dirac_index(datum, rep, om, coeffs, n0, s)
            b = twisted_dirac_index_adjoint(datum, om, coeffs, n0, s)
        except ResonanceError:
            continue
        assert a == b
        agree += 1
    # piecewise constancy: jumps at s_w equal sum of w(gamma) over weights at s_w
    jumps_checked = 0
    for _ in range(10):
        om = random_interior_omega(datum, seed)
        coeffs = (seed.randint(-2, 2), seed.randint(-2, 2))
        gamma = charge_vector(datum, coeffs)
        for s_w in jump_loci(datum, rep, om):
            delta = Fraction(1, 10**7)
            lo = twisted_dirac_index(datum, rep, om, coeffs, 1, s_w - delta)
            hi = twisted_dirac_index(datum, rep, om, coeffs, 1, s_w + delta)
            expected = sum(
                pairing(w, gamma)
                for w in rep.weights
                if 1 - (pairing(w, om) - (pairing(w, om).numerator // pairing(w, om).denominator)) == s_w
            )
            assert hi - lo == expected
            jumps_checked += 1
    _report(
        10, "twisted Dirac index",
        True,
        f"general weight sum == adjoint special case on 100 random A2 inputs; "
        f"{jumps_checked} jump discontinuities equal their weight charges exactly",
    )
