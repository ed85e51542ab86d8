"""Closed-form index/energy/dimension formulas: exact identities only."""

import os
import random
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from calorons.errors import ResonanceError
from calorons.indexes import (
    adjoint_weights,
    dynkin_index_su2,
    energy_formula,
    jump_loci,
    moduli_dimension,
    transverse_index,
    twisted_dirac_index,
)
from calorons.rootsys import (
    all_simple_types,
    build_root_datum,
    charge_vector,
    dynkin_index_adjoint,
    pairing,
    random_interior_omega,
)
from oracles import (
    dynkin_index_adjoint_ambient,
    dynkin_index_su2_ambient,
    dynkin_index_su2_via_adjoint,
    energy_formula_ambient,
    positive_root_charge_sum,
    rho_pairing_ambient,
    transverse_terms_ambient,
    twisted_dirac_index_adjoint,
    vscale,
    weight_list,
    weyl_closed,
)


# -- energy formula ------------------------------------------------------------

def test_energy_formula_su2():
    d = build_root_datum("A", 1)
    omega = vscale(Fraction(1, 4), d.simple_coroots[0])  # omega' = 1/4
    assert energy_formula(d, omega, (0, 1)) == Fraction(1, 2)
    assert energy_formula(d, omega, (1, 0)) == Fraction(1, 2)
    assert energy_formula(d, omega, (0, 0)) == 0


def test_energy_formula_zero_charge_any_type():
    d = build_root_datum("F", 4)
    rng = random.Random(1)
    om = random_interior_omega(d, rng)
    assert energy_formula(d, om, (0,) * 5) == 0


@pytest.mark.parametrize("series,rank", all_simple_types())
def test_energy_formula_matches_the_coroot_norm_form(series, rank):
    """marks_mu / labels_mu is (1/2)|alpha_mu^vee|^2: the energy formula equals
    its ambient form with the Killing norm of each simple coroot."""
    d = build_root_datum(series, rank)
    rng = random.Random(rank)
    om = random_interior_omega(d, rng)
    n = [rng.randint(0, 5) for _ in range(rank + 1)]
    assert energy_formula(d, om, n) == energy_formula_ambient(d, om, n)


# -- dimension -------------------------------------------------------------------

def test_moduli_dimension_fundamental():
    assert moduli_dimension((1, 0)) == 4
    assert moduli_dimension((0, 1)) == 4
    assert moduli_dimension((0, 0)) == 0
    assert moduli_dimension((2, 1, 3)) == 24


def test_moduli_dimension_random():
    rng = random.Random(2)
    for _ in range(1000):
        n = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 9)))
        assert moduli_dimension(n) == 4 * sum(n)


def test_moduli_dimension_negative_warns():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        moduli_dimension((-1, 2))
    assert any("empty" in str(w.message) for w in rec)


# -- su(2)-embedding Dynkin index -----------------------------------------------

def test_dynkin_su2_examples():
    assert dynkin_index_su2(build_root_datum("A", 1), 1) == 0
    d2 = build_root_datum("A", 2)
    # oracle: roots other than +-alpha_1 are +-alpha_2, +-(alpha_1+alpha_2)
    # with pairings against alpha_1^vee equal to -1, -1, 1, 1
    assert dynkin_index_su2(d2, 1) == Fraction(1, 2) * (1 + 1 + 1 + 1) == 2
    assert dynkin_index_su2(d2, 0) == 2


@pytest.mark.parametrize("series,rank", all_simple_types())
def test_dynkin_su2_identity_exact(series, rank):
    d = build_root_datum(series, rank)
    for mu in range(rank + 1):
        assert dynkin_index_su2(d, mu) == dynkin_index_su2_via_adjoint(d, mu)


@pytest.mark.parametrize("series,rank", all_simple_types())
def test_integer_route_matches_ambient_formulas(series, rank):
    """The integer sums against rows of extended_cartan equal the ambient
    Fraction formulas at every node: alpha(alpha_mu^vee) for each positive
    root, the su(2)-embedding index, rho(alpha_mu^vee) and the adjoint index."""
    d = build_root_datum(series, rank)
    assert dynkin_index_adjoint(d) == dynkin_index_adjoint_ambient(d)
    for mu in range(rank + 1):
        coroot = d.node_coroot(mu)
        assert d.coroot_pairings(mu) == tuple(pairing(a, coroot) for a in d.positive_roots)
        assert dynkin_index_su2(d, mu) == dynkin_index_su2_ambient(d, mu)
        assert d.rho_pairing(mu) == rho_pairing_ambient(d, mu)


def test_extended_cartan_column_is_not_a_row_on_g2():
    """The comparison above tells a row of extended_cartan from a column:
    on G2, sums against a column give a different su(2)-embedding index."""
    d = build_root_datum("G", 2)
    ext = d.extended_cartan

    def index_from(line):
        pairings = [sum(c * x for c, x in zip(cs, line[1:])) for cs in d.positive_root_coeffs]
        return sum(p * p for p in pairings) - 4

    reference = [dynkin_index_su2_ambient(d, mu) for mu in range(3)]
    assert [index_from(ext[mu]) for mu in range(3)] == reference
    assert [index_from([row[mu] for row in ext]) for mu in range(3)] != reference


# -- transverse index --------------------------------------------------------------

def test_transverse_index_a1():
    # for su(2) the transverse complement is trivial: both terms vanish
    # separately at both nodes (the mu=0 Chern factor is killed by
    # (1/2) ind_Ad |coroot|^2 - 4 = 0 since ind_Ad = 4)
    d = build_root_datum("A", 1)
    om = vscale(Fraction(1, 5), d.simple_coroots[0])
    for mu in (0, 1):
        rep = transverse_index(d, mu, om)
        assert rep.chern_term == 0 and rep.boundary_term == 0
        assert rep.total_index == 0


def test_transverse_index_a2_mu0_chern_term():
    d = build_root_datum("A", 2)
    rng = random.Random(4)
    for _ in range(10):
        om = random_interior_omega(d, rng)
        rep = transverse_index(d, 0, om)
        assert rep.chern_term == 2 * (1 + pairing(d.lowest_root, om))
        assert rep.total_index == 0


@pytest.mark.parametrize("mu", [-1, 3])
def test_transverse_index_refuses_a_node_outside_the_extended_diagram(mu):
    """As `su2_embedding` does: node_root(-1) would read simple_roots[-2]."""
    d = build_root_datum("A", 2)
    with pytest.raises(ValueError, match="out of range 0..2"):
        transverse_index(d, mu, d.alcove_barycenter())


@pytest.mark.parametrize("series,rank", all_simple_types())
def test_transverse_index_vanishes_everywhere(series, rank):
    d = build_root_datum(series, rank)
    rng = random.Random(hash((series, rank)) & 0xFFFF)
    for mu in range(rank + 1):
        rep = transverse_index(d, mu, d.alcove_barycenter())
        assert rep.chern_term + rep.boundary_term == 0
        for _ in range(10):
            om = random_interior_omega(d, rng)
            rep = transverse_index(d, mu, om)
            assert rep.chern_term + rep.boundary_term == 0


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(all_simple_types()),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_transverse_terms_match_ambient_formulas(group, node, seed):
    """The Chern and boundary terms at a random interior omega equal the
    ambient Fraction formulas, term by term."""
    d = build_root_datum(*group)
    mu = node % (d.rank + 1)
    om = random_interior_omega(d, random.Random(seed))
    rep = transverse_index(d, mu, om)
    assert (rep.chern_term, rep.boundary_term) == transverse_terms_ambient(d, mu, om)


# -- weights -----------------------------------------------------------------------

def test_adjoint_weights_closed_and_index():
    for series, rank in [("A", 2), ("B", 2), ("G", 2)]:
        d = build_root_datum(series, rank)
        w = adjoint_weights(d)
        assert len(w) == d.dim_g
        assert w.dynkin_index_rho == dynkin_index_adjoint(d)
        assert weyl_closed(d, w.weights)


def test_weight_list_closure_check():
    d = build_root_datum("A", 2)
    good = adjoint_weights(d).weights
    weight_list(d, good)
    with pytest.raises(ValueError):
        weight_list(d, good[:2])


# -- twisted Dirac index --------------------------------------------------------------

def test_twisted_index_trivial_rep():
    d = build_root_datum("A", 2)
    trivial = weight_list(d, [(0, 0, 0)])
    assert twisted_dirac_index(d, trivial, d.alcove_barycenter(), (1, -2), 3, Fraction(1, 2)) == 0


def test_twisted_index_su2_adjoint_small_omega():
    # su(2), adjoint rep, alpha_0(omega) > -1/2 and s strictly between
    # alpha(omega) and 1 - alpha(omega) for the positive root: the charge
    # corrections collapse and the index reduces to n0 * ind_Ad, the
    # inequality that forces n0 >= 0.
    d = build_root_datum("A", 1)
    om = vscale(Fraction(1, 8), d.simple_coroots[0])  # alpha(om) = 1/4
    rep = adjoint_weights(d)
    ind_ad = dynkin_index_adjoint(d)
    # jump loci: s = 1/4, 3/4; pick s = 1/2 between them
    for coeffs, n0 in [((-1,), 1), ((1,), 0), ((2,), 1)]:
        val = twisted_dirac_index(d, rep, om, coeffs, n0, Fraction(1, 2))
        assert val == twisted_dirac_index_adjoint(d, om, coeffs, n0, Fraction(1, 2))
        assert val == n0 * ind_ad


def test_twisted_index_adjoint_special_case_a2():
    d = build_root_datum("A", 2)
    rep = adjoint_weights(d)
    rng = random.Random(7)
    tested = 0
    while tested < 100:
        om = random_interior_omega(d, rng)
        coeffs = (rng.randint(-3, 3), rng.randint(-3, 3))
        n0 = rng.randint(-2, 3)
        s = Fraction(rng.randint(1, 999), 1000)
        try:
            general = twisted_dirac_index(d, rep, om, coeffs, n0, s)
            special = twisted_dirac_index_adjoint(d, om, coeffs, n0, s)
        except ResonanceError:
            continue
        assert general == special
        tested += 1


def test_twisted_index_jumps_by_weight_charge():
    d = build_root_datum("A", 2)
    rep = adjoint_weights(d)
    rng = random.Random(8)
    for _ in range(20):
        om = random_interior_omega(d, rng)
        coeffs = (rng.randint(-2, 2), rng.randint(-2, 2))
        n0 = rng.randint(0, 2)
        gamma = charge_vector(d, coeffs)
        loci = jump_loci(d, rep, om)
        for s_w in loci:
            delta = Fraction(1, 10**6)
            lo = twisted_dirac_index(d, rep, om, coeffs, n0, s_w - delta)
            hi = twisted_dirac_index(d, rep, om, coeffs, n0, s_w + delta)
            expected_jump = sum(
                pairing(w, gamma)
                for w in rep.weights
                if 1 - (pairing(w, om) - (pairing(w, om).numerator // pairing(w, om).denominator)) == s_w
            )
            assert hi - lo == expected_jump


def test_twisted_index_resonance_names_weight():
    d = build_root_datum("A", 1)
    rep = adjoint_weights(d)
    om = vscale(Fraction(1, 8), d.simple_coroots[0])
    with pytest.raises(ResonanceError) as err:
        twisted_dirac_index(d, rep, om, (1,), 0, Fraction(3, 4))
    assert err.value.weight in {w for w in rep.weights}


def test_positive_root_charge_sum_identity():
    rng = random.Random(9)
    for series, rank in [("A", 2), ("C", 3), ("G", 2)]:
        d = build_root_datum(series, rank)
        for _ in range(20):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(rank))
            n0 = rng.randint(-2, 2)
            lhs, rhs = positive_root_charge_sum(d, coeffs, n0)
            assert lhs == rhs


def test_integrality_checks_survive_python_O():
    """Non-integral totals raise under `python -O` too, which strips bare
    asserts: the transverse total, the twisted index (weights without a
    Weyl-closed index) and the adjoint one at a fractional charge."""
    code = textwrap.dedent("""
        from fractions import Fraction
        from calorons.indexes import IndexReport, WeightList, twisted_dirac_index
        from calorons.rootsys import build_root_datum
        from oracles import twisted_dirac_index_adjoint
        d = build_root_datum("A", 1)
        omega = (Fraction(1, 4), Fraction(-1, 4))  # alpha(omega) = 1/2
        calls = [
            lambda: IndexReport("A", 1, 0, (Fraction(1, 4),), Fraction(1, 3), Fraction(0)).total_index,
            lambda: twisted_dirac_index(d, WeightList((), Fraction(1, 3)), omega, (0,), 1, Fraction(1, 2)),
            lambda: twisted_dirac_index_adjoint(d, omega, (Fraction(1, 4),), 0, Fraction(1, 4)),
        ]
        for call in calls:
            try:
                print("returned", call())
            except AssertionError as exc:
                print(exc)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"), str(Path(__file__).parent)]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == [
        "transverse index not integral",
        "twisted index not integral",
        "adjoint twisted index not integral",
    ]
