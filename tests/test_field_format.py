"""The field format: Cartan diagonals plus one su(2) entry, against the dense
n x n route of tests/oracles.py; the self-dual error's exterior shell; and
the traced memory of a verify run and of one evaluation block per chart kind."""

import functools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calorons.assembler import CaloronSpec, Constituent, _distances, approximate_caloron
from calorons.errors import CaloronError
from calorons.fieldcalc import CurvatureSample, SdErrorEstimate, _closed_form_densities, curvature_at, sd_error_l2
from calorons.quadrature import graded_radii
from calorons.verify import _max_entry, run_verification
from oracles import (
    annulus_fields_dense,
    bps_fields,
    dense,
    dense_curvature_at,
    dense_exact_curvature,
    dense_fields,
    dense_inner,
    dense_norm_sq,
    dirac_monopole,
    embed_reference,
    rotated_pullback,
)

KINDS = ("rotated core", "core", "annulus N", "annulus S", "far")


@functools.cache
def _caloron(group):
    """A rotated mu = 0 constituent beside a mu = 1 one, in SU(2) or SU(3)."""
    omega = (0.25, -0.25) if group == "SU2" else (1 / 3, 0.0, -1 / 3)
    return approximate_caloron(CaloronSpec(
        epsilon=0.04, series="A", rank=len(omega) - 1, omega=omega,
        constituents=[Constituent(0, (1.5, 0.0, 0.1), 0.4), Constituent(1, (-1.0, 1.2, -0.2), 1.1)],
        gluing_c=0.3,
    ))


def _points(samp, kind, rng, count=6):
    """count points of one chart kind, their constituent k (None off the
    gluing balls) and random t."""
    u = rng.normal(size=(count, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    k = 1 if kind == "core" else 0
    if kind.startswith("annulus"):
        u[:, 2] = np.abs(u[:, 2]) * (1.0 if kind.endswith("N") else -1.0)
    lo, hi = {"rotated core": (0.02, 0.45), "core": (0.02, 0.45), "annulus N": (0.55, 0.95),
              "annulus S": (0.55, 0.95), "far": (1.5, 2.5)}[kind]
    pts = samp.positions[k] + samp.R * rng.uniform(lo, hi, count)[:, None] * u
    return pts, (None if kind == "far" else k), rng.uniform(0.0, 2.0 * np.pi, count)


def _reference_fields(samp, kind, k, pts, ts):
    """(A, Phi) as n x n matrices by the dense routes: 2 x 2 fields embedded
    by Pauli coefficients on the cores, `annulus_fields_dense` on the
    annuli, n x n Dirac monopoles off the gluing balls."""
    if kind == "far":
        A = 0.0
        Phi = 1j * np.diag(samp.singular.omega) / samp.epsilon
        for l, (p, gamma) in enumerate(zip(samp.positions, samp.singular.coroots)):
            pair = dirac_monopole(p, gamma)
            south = (pts[:, 2] < p[2])[:, None, None, None]  # the chart's patch of monopole l
            A = A + np.where(south, pair.potential(pts, "S"), pair.potential(pts, "N"))
            Phi = Phi + pair.higgs(pts)
        return A, Phi
    if kind.startswith("annulus"):
        return annulus_fields_dense(samp, k, kind[-1], pts, ts)[:2]
    fund, rel = samp.locals[k], pts - samp.positions[k]
    A2, P2 = (dense_fields(rotated_pullback(fund.su2_parameter, samp.epsilon), rel, ts) if fund.mu == 0
              else bps_fields(rel, fund.v))
    shift = 1j * np.diag(fund.omega_prime / samp.epsilon)
    return embed_reference(samp.datum, fund.mu, A2), embed_reference(samp.datum, fund.mu, P2) + shift


def _close(got, ref, rtol=1e-12):
    return np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None)
@given(group=st.sampled_from(["SU2", "SU3"]), kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
def test_field_format_matches_the_dense_route(group, kind, seed):
    """In every chart kind of an SU(2) and an SU(3) caloron the fields, the
    finite-difference curvature and the closed-form densities equal the
    dense n x n route to 1e-12 of their size."""
    samp = _caloron(group)
    pts, k, ts = _points(samp, kind, np.random.default_rng(seed))
    codes = samp.chart(pts)
    expected = {"far": codes < 0, "rotated core": (codes - 1) % 4 == 0, "core": (codes - 1) % 4 == 0,
                "annulus N": (codes - 1) % 4 == 1, "annulus S": (codes - 1) % 4 == 2}[kind]
    assert np.all(expected) and (k is None or np.all((codes - 1) // 4 == k))

    for got, ref in zip(dense_fields(samp, pts, ts), _reference_fields(samp, kind, k, pts, ts)):
        assert _close(got, ref)

    step = samp.epsilon / 100
    curv = curvature_at(samp, pts, ts, step=step)
    root = samp.block(codes)[:, None, :]
    for got, ref in zip((curv.E, curv.B), dense_curvature_at(samp, pts, ts, step=step)):
        assert _close(dense(got, root), ref)

    exact = CurvatureSample(*samp.exact_curvature(pts, ts))
    E, B = dense_exact_curvature(samp, pts, ts)
    norm = np.sum(dense_norm_sq(E) + dense_norm_sq(B), axis=-1)
    sd = 2.0 * np.sum(dense_norm_sq(0.5 * (E - B)), axis=-1)
    top = 2.0 * np.sum(dense_inner(E, B), axis=-1)
    for got, ref in ((exact.norm_sq(), norm), (exact.sd_norm_sq(), sd), (exact.topological_density(), top)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(norm)


@pytest.mark.parametrize("group", ["SU2", "SU3"])
def test_max_entry_is_the_dense_entrywise_max(group):
    """verify's annulus-closed-form-vs-fd reads the largest entry of the
    curvature gap and of the curvature off the diagonals and su(2) entries,
    point by point; that is exactly the entrywise max of their n x n matrices."""
    samp = _caloron(group)
    rng = np.random.default_rng(3)
    pts = np.concatenate([_points(samp, kind, rng)[0] for kind in ("annulus N", "annulus S")])
    ts = rng.uniform(0.0, 2.0 * np.pi, len(pts))
    root = samp.block(samp.chart(pts))[:, None, :]
    curv = CurvatureSample(*samp.exact_curvature(pts, ts))
    fd = curvature_at(samp, pts, ts, step=samp.epsilon / 100)
    for f in (fd.E - curv.E, fd.B - curv.B, curv.E, curv.B):
        assert np.array_equal(_max_entry(f), np.max(np.abs(dense(f, root)), axis=(-3, -2, -1)))


# -- the exterior shell of the self-dual error ------------------------------------

def test_graded_radii_reject_an_empty_or_reversed_range():
    """A reversed range would give negative Gauss-Legendre weights."""
    for r_min, r_max in ((2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(CaloronError):
            graded_radii(r_min, r_max, 4, 2)
    radii, weights = graded_radii(0.5, 2.0, 4, 2)
    assert np.all(np.diff(radii) > 0) and np.all(weights > 0)


def test_sd_error_exterior_shell_stays_outside_a_large_gluing_ball(data_dir):
    """At eps = 0.01, c = 0.002 the gluing radius R = 11 puts d_max + 1.5 R
    past 8 d_max_eff.  The exterior shell still runs outward from there, so
    the background is a sum of positive weights times |F+|^2 >= 0, and with
    the glue error underflowed (annulus ~1e-245) the finite-difference floor
    off the annuli dominates: the annulus fraction is far below 1."""
    spec = json.loads((data_dir / "su2_single.json").read_text())
    spec["epsilon"], spec["gluing"]["c"] = 0.01, 0.002
    samp = approximate_caloron(CaloronSpec.from_dict(spec))
    assert 1.5 * samp.R > 8.0 * samp.spec.d_max_eff
    est = sd_error_l2(samp)
    assert est.background_sq > 0.0
    assert est.annulus_fraction < 1e-100


def test_annulus_fraction_of_a_non_positive_total_is_zero():
    """No self-dual error at all localizes nowhere: fraction 0, not 1."""
    assert SdErrorEstimate(annulus_sq=0.0, background_sq=0.0).annulus_fraction == 0.0
    assert SdErrorEstimate(annulus_sq=1e-30, background_sq=-2e-30).annulus_fraction == 0.0


# -- memory -------------------------------------------------------------------------

def _traced_peak(run):
    """The tracemalloc peak of run(), after a warm-up call that fills the caches
    (root datum, quadrature nodes); numpy reports its data allocations to
    tracemalloc, so the peak repeats to within a few kB."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The tracemalloc peak of run_verification(su3_triple, seed 1) when every field
# value was a dense n x n matrix: 10 956 065 bytes.  With Cartan diagonals plus
# one su(2) entry it was 2 749 865 bytes, one finite-difference block of
# sd_error_l2's core shells; the in-place kernels bring it to 1 646 752 bytes.
DENSE_PEAK_BYTES = 10_956_065


def test_verify_traced_peak_memory_is_below_60_percent_of_the_dense_route(data_dir):
    spec = CaloronSpec.from_json((data_dir / "su3_triple.json").read_text())
    peak = _traced_peak(lambda: run_verification(spec, seed=1))
    assert peak <= 0.6 * DENSE_PEAK_BYTES, f"traced peak {peak} B"


def test_verify_traced_peak_memory_is_at_most_1_8_MB(data_dir):
    spec = CaloronSpec.from_json((data_dir / "su3_triple.json").read_text())
    peak = _traced_peak(lambda: run_verification(spec, seed=1))
    assert peak <= 1_800_000, f"traced peak {peak} B"


def test_verify_of_32_constituents_traces_at_most_7_MB(data_dir):
    """The constituent sums run one coordinate at a time over (points, N)
    arrays: no (points, N, 3) array of relative positions or of Dirac
    potentials exists.  With them the peak was 10 113 664 bytes; without,
    about 6 118 000, reached while the desk grid's 3.4 MB of points are held."""
    spec = CaloronSpec.from_json((data_dir / "su4_charge8.json").read_text())
    peak = _traced_peak(lambda: run_verification(spec, seed=1))
    assert peak <= 7_000_000, f"traced peak {peak} B"


_BLAS_PROBE = """
import json, sys
from calorons.assembler import CaloronSpec
from calorons.verify import run_verification

def blas_rss_kb():
    total, mappings, counted = 0, 0, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split()
            if head and not head[0].endswith(":"):  # a mapping's header: range, perms, offset, dev, inode, path
                counted = len(head) > 5 and any(lib in head[5].lower() for lib in ("blas", "lapack"))
                mappings += counted
            elif counted and head[0] == "Rss:":
                total += int(head[1])
    return total, mappings

before, mappings = blas_rss_kb()
for name in ("su3_triple", "su4_charge8"):
    with open(f"{sys.argv[1]}/{name}.json", encoding="utf-8") as fh:
        run_verification(CaloronSpec.from_json(fh.read()), seed=1)
print(json.dumps({"before": before, "after": blas_rss_kb()[0], "mappings": mappings}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="reads /proc/self/smaps (Linux)")
def test_verify_faults_in_no_blas_or_lapack_page(data_dir):
    """Every contraction of the field layers runs in numpy's own loops, so a
    verify process touches no page of numpy's BLAS/LAPACK library that import
    did not: the resident size of those mappings does not grow over two runs
    (it grew by 1.18 MB when the constituent sums and the flux fit went
    through @ and np.linalg.lstsq).  A fresh process: in this one, earlier
    tests have faulted those pages in."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(_BLAS_PROBE), str(data_dir)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["mappings"]:
        pytest.skip("numpy maps no BLAS or LAPACK library here")
    assert result["after"] <= result["before"], result


# Traced peaks in bytes of one 4096-point `evaluate` and one `exact_curvature`
# call on the SU(3) caloron of `_caloron`, points from `_points`, each pinned 10 %
# above what the in-place kernels reach.  Before them (frame vectors R, P, X and
# a copy per Field operation, each chart group's result beside the block's):
# rotated core 2 864 936 / 3 159 912, core 2 503 624 / 3 061 064, annulus
# 3 290 704 / 7 356 296, far 1 752 352 / 1 940 384.  The far `evaluate` was
# 960 984 while the Dirac sums built (points, N, 3) arrays.
KERNEL_PEAK_BYTES = {
    "rotated core": (1_151_168, 1_085_416),
    "core": (1_149_816, 920_960),
    "annulus N": (1_543_776, 2_986_984),
    "annulus S": (1_543_720, 2_986_928),
    "far": (798_272, 559_032),
}


@pytest.mark.parametrize("kind", KINDS)
def test_one_block_of_each_chart_kind_keeps_few_temporaries(kind):
    samp = _caloron("SU3")
    x, _, t = _points(samp, kind, np.random.default_rng(0), count=4096)
    for call, reached in zip((samp.evaluate, samp.exact_curvature), KERNEL_PEAK_BYTES[kind]):
        peak = _traced_peak(lambda: call(x, t))
        assert peak <= 1.1 * reached, f"{kind} {call.__name__}: traced peak {peak} B"


def test_chart_of_32_constituents_sums_distances_coordinate_by_coordinate(data_dir):
    """One 4096-point `chart` call on the 32 constituents of su4_charge8
    traces at most 2.45 MB (2 164 128 B with its distances summed one
    coordinate at a time, 2 229 760 B before `su2._relative`, 5 244 088 B
    with the (points, N, 3) array of relative positions), and its distances
    are np.linalg.norm's bit for bit."""
    samp = approximate_caloron(CaloronSpec.from_json((data_dir / "su4_charge8.json").read_text()))
    x = np.random.default_rng(0).uniform(-6.0, 6.0, (4096, 3))
    assert np.array_equal(_distances(x, samp.positions), np.linalg.norm(x[:, None, :] - samp.positions, axis=-1))
    peak = _traced_peak(lambda: samp.chart(x))
    assert peak <= 2_450_000, f"traced peak {peak} B"


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(["SU2", "SU3"]), kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=5, unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_densities_reduced_chart_by_chart_are_those_of_the_full_curvature(group, kinds, seed):
    """The integrals' densities, reduced from each chart group inside the
    gather, equal bit for bit the CurvatureSample densities of the whole
    batch's closed-form E and B, for batches of one chart kind or several."""
    samp = _caloron(group)
    rng = np.random.default_rng(seed)
    drawn = [_points(samp, kind, rng) for kind in kinds]
    order = rng.permutation(sum(len(p) for p, _, _ in drawn))  # interleave the chart groups
    x, t = (np.concatenate(a)[order] for a in ([p for p, _, _ in drawn], [ts for _, _, ts in drawn]))
    densities = (CurvatureSample.norm_sq, CurvatureSample.sd_norm_sq, CurvatureSample.topological_density)
    full = CurvatureSample(*samp.exact_curvature(x, t))
    assert np.array_equal(_closed_form_densities(samp, x, t, *densities),
                          np.stack([d(full) for d in densities], axis=-1))
