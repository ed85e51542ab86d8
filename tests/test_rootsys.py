"""Root-system combinatorics against independent brute-force oracles."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calorons.samplers import bracket, su2_field
from calorons.errors import InvalidGroupError
from calorons.rootsys import (
    alcove_margin,
    ambient_dim,
    build_root_datum,
    charge_vector,
    decompose_charge,
    dot,
    all_simple_types,
    dynkin_index_adjoint,
    pairing,
    parse_group_label,
    random_interior_omega,
    reassemble_charge,
    su2_embedding,
)
from calorons.indexes import transverse_index
from oracles import (
    ITAU,
    _closure_by_redotting,
    alcove_vertices,
    dense,
    dot_fraction,
    dynkin_index_adjoint_bruteforce,
    eager_root_datum,
    embed_reference,
    itau,
    lincomb,
    rational_solve,
    rho_pairing_ambient,
    su2_matrices,
    vscale,
)

# catalogued positive-root counts
EXPECTED_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 5): 15, ("A", 8): 36,
    ("B", 2): 4, ("B", 5): 25, ("B", 8): 64,
    ("C", 3): 9, ("C", 8): 64,
    ("D", 4): 12, ("D", 8): 56,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
}


@pytest.mark.parametrize("series,rank", sorted(EXPECTED_COUNTS))
def test_positive_root_counts(series, rank):
    datum = build_root_datum(series, rank)
    assert len(datum.positive_roots) == EXPECTED_COUNTS[(series, rank)]


def test_a1_basics():
    d = build_root_datum("A", 1)
    assert len(d.positive_roots) == 1
    assert d.dual_coxeter_labels == (1,)
    assert d.norm_sq(d.simple_coroots[0]) == 2


def test_a2_bruteforce_roots():
    # oracle: enumerate e_i - e_j directly
    d = build_root_datum("A", 2)
    brute = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                v = [Fraction(0)] * 3
                v[i], v[j] = Fraction(1), Fraction(-1)
                brute.add(tuple(v))
    assert set(d.positive_roots) <= brute
    assert len(d.positive_roots) == 3
    assert d.dual_coxeter_labels == (1, 1)
    a1v, a2v = d.simple_coroots
    assert d.lowest_coroot == tuple(-x - y for x, y in zip(a1v, a2v))


def test_g2_dual_coxeter_by_integer_solve():
    # oracle: solve theta^vee = m1 a1^vee + m2 a2^vee in exact arithmetic
    d = build_root_datum("G", 2)
    assert len(d.positive_roots) == 6
    a1v, a2v = d.simple_coroots
    thetav = d.coroots[d.highest_root]
    gram = [[dot(a1v, a1v), dot(a1v, a2v)], [dot(a2v, a1v), dot(a2v, a2v)]]
    m = rational_solve(gram, [dot(a1v, thetav), dot(a2v, thetav)])
    assert tuple(int(c) for c in m) == d.dual_coxeter_labels == (1, 2)


@pytest.mark.parametrize("series,rank", all_simple_types())
def test_datum_invariants(series, rank):
    d = build_root_datum(series, rank)
    # extended Cartan: diagonal 2, off-diagonal <= 0
    for mu in range(rank + 1):
        assert d.extended_cartan[mu][mu] == 2
        for nu in range(rank + 1):
            if nu != mu:
                assert d.extended_cartan[mu][nu] <= 0
    # lowest coroot decomposition with positive labels
    assert all(m > 0 for m in d.dual_coxeter_labels)
    recon = d.lowest_coroot
    acc = tuple(Fraction(0) for _ in range(d.ambient_dim))
    for m, av in zip(d.dual_coxeter_labels, d.simple_coroots):
        acc = tuple(a - m * b for a, b in zip(acc, av))
    assert acc == recon
    # coroots of long roots have Killing norm^2 exactly 2
    long_sq = max(dot(a, a) for a in d.positive_roots)
    for a in d.positive_roots:
        if dot(a, a) == long_sq:
            assert d.norm_sq(d.coroots[a]) == 2
    # the highest root is sum marks_mu alpha_mu
    theta = tuple(Fraction(0) for _ in range(d.ambient_dim))
    for m, a in zip(d.marks, d.simple_roots):
        theta = tuple(x + m * y for x, y in zip(theta, a))
    assert theta == d.highest_root
    # independent route: every positive root's simple-root coefficients by a
    # rational solve are nonnegative integers, and heights never decrease
    gram = [[dot(a, b) for b in d.simple_roots] for a in d.simple_roots]
    heights = []
    for beta in d.positive_roots:
        coeffs = rational_solve(gram, [dot(a, beta) for a in d.simple_roots])
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)
        heights.append(sum(coeffs))
    assert heights == sorted(heights)


@pytest.mark.parametrize("series,rank", all_simple_types())
def test_lazy_root_data_match_the_eager_oracle(series, rank):
    """The ambient roots and coroots built on first use, and the pairing
    table read off the generated roots, equal the eager route that made
    every ambient vector up front and dotted each positive root with each
    extended-Cartan row."""
    d = build_root_datum(series, rank)
    o = eager_root_datum(series, rank)
    for mu in range(rank + 1):  # before any ambient root exists
        assert d.coroot_pairings(mu) == o.coroot_pairings[mu]
        assert d.rho_pairing(mu) == o.rho[mu]
    assert d.extended_cartan == o.extended_cartan
    assert d.simple_coroots == o.simple_coroots
    assert (d.highest_root, d.lowest_root, d.lowest_coroot) == (o.highest_root, o.lowest_root, o.lowest_coroot)
    assert d.positive_roots == o.positive_roots
    assert d.coroots == o.coroots
    assert d.coroots[d.highest_root] == o.highest_coroot
    assert charge_vector(d, range(1, rank + 1)) == lincomb(range(1, rank + 1), o.simple_coroots, d.ambient_dim)


@pytest.mark.parametrize("series,rank", [("A", 12), ("B", 10), ("C", 10), ("D", 10)])
def test_height_generation_matches_the_closure_beyond_the_sweep(series, rank):
    """Above the sweep's ranks the height-by-height generator still makes the
    positive roots of the reflection closure, in (height, vector) order, with
    the eager route's pairings and extended Cartan matrix."""
    d = build_root_datum(series, rank)
    o = eager_root_datum(series, rank)
    simple = d.scaled_simple_roots
    gram = [[sum(x * y for x, y in zip(a, b)) for b in simple] for a in simple]
    closure = [c for c in _closure_by_redotting(gram) if min(c) >= 0]
    assert sorted(d.positive_root_coeffs) == closure
    assert d.positive_root_vectors == tuple(lincomb(c, simple, d.ambient_dim) for c in d.positive_root_coeffs)
    assert d.positive_roots == o.positive_roots  # the oracle sorts by (height, vector)
    assert tuple(d.coroot_pairings(mu) for mu in range(rank + 1)) == o.coroot_pairings
    assert d.extended_cartan == o.extended_cartan


@pytest.mark.parametrize("series,rank", [("A", 12), ("B", 10), ("C", 10), ("D", 10), ("D", 16)])
def test_json_coroots_in_the_order_of_the_fraction_roots(series, rank):
    """Above the frozen digests' ranks, `to_json` lists every root and its
    coroot, made from integer vectors, in the sorted order of the eager
    route's Fraction roots."""
    coroots = sorted(eager_root_datum(series, rank).coroots.items())
    expected = [{"root": list(map(str, a)), "coroot": list(map(str, av))} for a, av in coroots]
    assert json.loads(build_root_datum(series, rank).to_json())["coroots"] == expected


def test_index_sweep_builds_no_ambient_root_list():
    """The transverse index reads the integer pairing table: a fresh datum
    swept over every node never makes its positive_roots or coroots."""
    rng = random.Random(0)
    for series, rank in all_simple_types():
        d = build_root_datum(series, rank)
        for mu in range(rank + 1):
            assert transverse_index(d, mu, random_interior_omega(d, rng)).total_index == 0
        assert "positive_roots" not in vars(d) and "coroots" not in vars(d)


_exact_numbers = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(*[st.lists(_exact_numbers, min_size=n, max_size=n)] * 2)
))
@example(([], []))
@example(([0, 0.0, Fraction(0), np.float64(0.0)], [0, 0, 0, 0]))
@example(([Fraction(1, 3), 0.1, np.float64(-2.5), 7], [0, 0.0, Fraction(0), np.float64(-0.0)]))
def test_dot_matches_fraction_oracle(pair):
    a, b = pair
    got = dot(a, b)
    assert type(got) is Fraction and got == dot_fraction(a, b)
    assert dot(b, a) == got


def test_dot_length_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        dot((), (Fraction(1, 2),))


def test_invalid_types():
    for series, rank in [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(InvalidGroupError):
            build_root_datum(series, rank)
    with pytest.raises(InvalidGroupError):
        parse_group_label("42")


# -- alcove -----------------------------------------------------------------

@pytest.mark.parametrize("series,rank", all_simple_types())
def test_fundamental_coweights_dual_to_simple_roots(series, rank):
    """alpha_nu(varpi_mu) = delta_{nu mu}, and rho(alpha_i^vee) = 1 for every
    simple coroot, both by the integer route and as an ambient pairing."""
    d = build_root_datum(series, rank)
    coweights = d.fundamental_coweights()
    assert len(coweights) == rank
    for mu, w in enumerate(coweights):
        assert [pairing(a, w) for a in d.simple_roots] == [int(nu == mu) for nu in range(rank)]
    for i in range(1, rank + 1):
        assert d.rho_pairing(i) == rho_pairing_ambient(d, i) == 1


_DATA = {t: build_root_datum(*t) for t in all_simple_types()}


@pytest.mark.parametrize("series,rank", all_simple_types())
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_alcove_point_has_its_weights_as_facet_values(series, rank, data):
    """omega = alcove_point(w) has alpha_mu(omega) = w_mu / (a_mu sum w) for
    mu >= 1 and 1 + alpha_0(omega) = w_0 / sum w, exactly: the barycentric
    identity of the vertices 0 and varpi_mu / a_mu, whatever their numerators."""
    d = _DATA[series, rank]
    w = data.draw(st.lists(st.integers(0, 10**6), min_size=rank + 1, max_size=rank + 1).filter(any))
    omega = d.alcove_point(w)
    total = sum(w)
    assert 1 + pairing(d.lowest_root, omega) == Fraction(w[0], total)
    for a, mark, w_mu in zip(d.simple_roots, d.marks, w[1:]):
        assert pairing(a, omega) == Fraction(w_mu, mark * total)


def test_alcove_su2_examples():
    d = build_root_datum("A", 1)
    xi = vscale(Fraction(1, 4), d.simple_coroots[0])
    assert alcove_margin(d, xi) >= 0
    xi_out = vscale(Fraction(3, 5), d.simple_coroots[0])
    assert not alcove_margin(d, xi_out) >= 0
    assert pairing(d.lowest_root, xi_out) == Fraction(-6, 5)


def test_alcove_barycenter_margin_vertex_oracle():
    # oracle: the barycenter of a simplex has facet margin
    # min over facets of (facet value at the opposite vertex) / (#vertices)
    d = build_root_datum("A", 2)
    bc = d.alcove_barycenter()
    assert alcove_margin(d, bc) == Fraction(1, 3)
    verts = alcove_vertices(d)
    facets = [lambda v, a=a: pairing(a, v) for a in d.simple_roots]
    facets.append(lambda v: 1 + pairing(d.lowest_root, v))
    margins = []
    for f in facets:
        vals = [f(v) for v in verts]
        assert min(vals) == 0  # each facet contains all but one vertex
        margins.append(sum(vals) / len(verts))
    assert min(margins) == alcove_margin(d, bc)


def test_alcove_margin_monotone():
    rng = random.Random(3)
    d = build_root_datum("C", 3)
    for _ in range(20):
        om = random_interior_omega(d, rng)
        m = alcove_margin(d, om)
        assert alcove_margin(d, om) >= m
        assert alcove_margin(d, om) >= m / 2  # any smaller margin also passes
        assert not alcove_margin(d, om) >= m + Fraction(1, 1000)


# -- charges ----------------------------------------------------------------

def test_decompose_charge_su2_fundamental_data():
    d = build_root_datum("A", 1)
    assert decompose_charge(d, (1,), 0) == (0, 1)
    assert decompose_charge(d, (-1,), 1) == (1, 0)


def test_decompose_charge_a2():
    d = build_root_datum("A", 2)
    assert decompose_charge(d, (0, 0), 2) == (2, 2, 2)


# classical types of rank <= 6 and all five exceptional types
@pytest.mark.parametrize("series,rank", [(s, r) for s, r in all_simple_types() if s not in "ABCD" or r <= 6])
def test_charge_roundtrip(series, rank):
    rng = random.Random(hash((series, rank)) & 0xFFFF)
    d = build_root_datum(series, rank)
    for _ in range(100):
        coeffs = tuple(rng.randint(-5, 5) for _ in range(rank))
        n0 = rng.randint(-3, 3)
        n = decompose_charge(d, coeffs, n0)
        assert reassemble_charge(d, n) == (coeffs, n0)
        # reassembly through the coroot vectors is exact
        acc = charge_vector(d, coeffs)
        via_n = tuple(Fraction(0) for _ in range(d.ambient_dim))
        for mu, nm in enumerate(n):
            av = d.node_coroot(mu)
            via_n = tuple(a + nm * b for a, b in zip(via_n, av))
        assert acc == via_n


# -- adjoint Dynkin index -----------------------------------------------------

def test_dynkin_adjoint_small():
    assert dynkin_index_adjoint(build_root_datum("A", 1)) == 4
    assert dynkin_index_adjoint(build_root_datum("A", 2)) == 6


def test_dynkin_adjoint_a_series_bruteforce():
    # oracle: brute force over e_i - e_j roots
    for n in range(2, 10):
        d = build_root_datum("A", n - 1)
        a1v = d.simple_coroots[0]
        brute = Fraction(0)
        for i, j in itertools.permutations(range(n), 2):
            root = [Fraction(0)] * n
            root[i], root[j] = Fraction(1), Fraction(-1)
            val = dot(root, a1v)
            brute += val * val
        assert dynkin_index_adjoint(d) == brute / 2 == 2 * n


@pytest.mark.parametrize("series,rank", all_simple_types())
def test_dynkin_adjoint_two_routes(series, rank):
    d = build_root_datum(series, rank)
    assert dynkin_index_adjoint(d) == dynkin_index_adjoint_bruteforce(d)


# -- su(2) embeddings ---------------------------------------------------------

E3 = np.eye(3)  # the coefficient vectors of i tau_1, i tau_2, i tau_3


def _scatter(d, mu, V):
    """Node mu's su(2) image of the coefficient vectors V (..., 3) of
    V.(i tau) through the field layer's scatter."""
    root = np.asarray(su2_embedding(d, mu).root, dtype=float)
    return dense(su2_field(V, root), root)


def _su2_brackets_ok(m):
    comm = lambda a, b: a @ b - b @ a
    return (
        np.allclose(comm(m[0], m[1]), -2 * m[2], atol=1e-12)
        and np.allclose(comm(m[1], m[2]), -2 * m[0], atol=1e-12)
        and np.allclose(comm(m[2], m[0]), -2 * m[1], atol=1e-12)
    )


def test_su2_embedding_a1_is_pauli():
    d = build_root_datum("A", 1)
    taus = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    assert np.array_equal(ITAU, [1j * t for t in taus])
    assert np.array_equal(_scatter(d, 1, E3), ITAU)


def test_su2_embedding_a2():
    d = build_root_datum("A", 2)
    assert np.array_equal(_scatter(d, 1, E3[2]), np.diag([1j, -1j, 0]))
    assert _su2_brackets_ok(_scatter(d, 1, E3))
    # mu = 0: corner embedding along the highest root e1 - e3
    emb0 = su2_embedding(d, 0)
    assert emb0.root == d.highest_root
    assert np.array_equal(_scatter(d, 0, E3[2]), np.diag([1j, 0, -1j]))
    assert emb0.p_dim == 8 - 2 - 2
    # image of i tau_3 is the coroot of the highest root = -alpha_0^vee
    assert emb0.coroot == vscale(-1, d.lowest_coroot)


@pytest.mark.parametrize("series,rank", [("A", 3), ("A", 5)])
def test_su2_embedding_brackets_all_nodes(series, rank):
    d = build_root_datum(series, rank)
    for mu in range(rank + 1):
        m = _scatter(d, mu, E3)
        assert np.array_equal(m, su2_matrices(d, mu))
        assert _su2_brackets_ok(m)
        assert np.array_equal(m + np.conjugate(np.swapaxes(m, -1, -2)), np.zeros_like(m))


def test_su2_embedding_of_b2_closes_su2_in_root_coordinates():
    """B2 has no defining matrices here: each node's su(2) is a Field of its
    root, whose brackets [i tau_a, i tau_b] = -2 eps_abc i tau_c hold with
    i tau_3 on the exact coroot."""
    d = build_root_datum("B", 2)
    for mu in range(d.rank + 1):
        emb = su2_embedding(d, mu)
        root = np.asarray(emb.root, dtype=float)
        m = [su2_field(e, root) for e in E3]
        assert np.array_equal(m[2].diag, np.asarray(emb.coroot, dtype=float))
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            got, want = bracket(m[a], m[b], root), -2.0 * m[c]
            assert np.allclose(got.diag, want.diag, atol=1e-12) and abs(got.off - want.off) < 1e-12
    assert su2_embedding(d, 1).p_dim == d.dim_g - d.rank - 2


def test_embed_linearity():
    d = build_root_datum("A", 2)
    c = np.random.default_rng(0).normal(size=3)
    expected = np.einsum("a,aij->ij", c, su2_matrices(d, 2))
    assert np.allclose(_scatter(d, 2, c), expected, atol=1e-14)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_embed_matches_pauli_coefficient_reference(rank):
    """The (a, b) block scatter of coefficient vectors V equals the
    Pauli-coefficient route c_a = -Re Tr(x i tau_a)/2, sum_a c_a matrices[a]
    on x = V.(i tau) bit for bit, for every node of A_rank."""
    d = build_root_datum("A", rank)
    V = np.random.default_rng(rank).normal(size=(64, 3, 3))
    for mu in range(rank + 1):
        assert np.array_equal(_scatter(d, mu, V), embed_reference(d, mu, itau(V)))


def test_exact_layers_import_no_numpy():
    """rootsys and indexes are exact: neither module imports numpy, so the
    index commands need no float layer."""
    import ast
    import calorons

    src = Path(calorons.__file__).parent
    for name in ("rootsys.py", "indexes.py"):
        tree = ast.parse((src / name).read_text(encoding="utf-8"))
        imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        imported += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert not [m for m in imported if m.split(".")[0] == "numpy"], (name, imported)


# -- CartanVector pairing exactness -------------------------------------------

def test_pairing_exact_on_lattice_vectors():
    d = build_root_datum("D", 4)
    rng = random.Random(5)
    for _ in range(50):
        coeffs = [rng.randint(-4, 4) for _ in range(4)]
        xi = charge_vector(d, coeffs)
        for a in d.positive_roots:
            exact = pairing(a, xi)
            assert exact.denominator == 1
            approx = float(np.dot([float(c) for c in a], [float(c) for c in xi]))
            assert abs(approx - float(exact)) < 1e-12


def test_json_roundtrip_golden_shape():
    d = build_root_datum("G", 2)
    payload = json.loads(d.to_json())
    assert payload["series"] == "G"
    assert payload["rank"] == 2
    assert payload["dual_coxeter_labels"] == [1, 2]
    assert len(payload["positive_roots"]) == 6
    assert payload["extended_cartan"][0][0] == 2


@pytest.mark.parametrize("label", [f"{s.lower()}{r}" for s, r in all_simple_types()])
def test_json_golden_files(label, data_dir):
    """The serialized root datum is byte-stable: every type against its
    frozen sha256, A2 and G2 also against the frozen files."""
    d = build_root_datum(label[0].upper(), int(label[1:]))
    digests = json.loads((data_dir / "root_datum_sha256.json").read_text())
    assert hashlib.sha256(d.to_json().encode()).hexdigest() == digests[label.upper()]
    golden = data_dir / f"root_datum_{label}.json"
    if golden.exists():
        assert d.to_json() + "\n" == golden.read_text()


def test_ambient_dim_without_building_the_datum():
    for series, rank in all_simple_types():
        assert ambient_dim(series, rank) == build_root_datum(series, rank).ambient_dim
    for series, rank in (("E", 9), ("Q", 2), ("B", 1)):
        with pytest.raises(InvalidGroupError):
            ambient_dim(series, rank)
    assert ambient_dim("A", 64) == 65 and ambient_dim("D", 64) == 64
    for series, rank in (("A", 65), ("D", 65), ("A", 10**300)):  # refused before any allocation
        with pytest.raises(InvalidGroupError, match=r"\(ranks \d\.\.64\)"):
            ambient_dim(series, rank)
