import numpy as np
import pytest
from oracles import analytic_chern

from bandflow.linalg import eigh
from bandflow.params import PhysParams
from bandflow.semiquantum import (MeshTooCoarseError, chern_numbers,
                                  check_closed_oriented, degeneracy_scan,
                                  delta_chern, h_semiquantum, sphere_mesh,
                                  verify_counting)
from bandflow.spectrum import assign_bands, joint_spectrum

MESH = sphere_mesh(32, 32)


def params(A=0.0, delta=1.0, d=0.0, gamma=1.0 + 0.0j, L=1, S=0.5):
    return PhysParams(A=A, delta=delta, d=d, gamma=gamma, L=L, S=S)


def random_sphere_point(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- mesh

def test_mesh_is_closed_oriented_surface():
    for n_theta, n_phi in [(2, 3), (8, 8), (32, 32)]:
        check_closed_oriented(sphere_mesh(n_theta, n_phi))


def test_mesh_vertices_on_sphere():
    norms = np.linalg.norm(MESH.vertices, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_mesh_rejects_degenerate_resolution():
    with pytest.raises(ValueError):
        sphere_mesh(1, 8)
    with pytest.raises(ValueError):
        sphere_mesh(8, 2)


# ---------------------------------------------------------------- Hamiltonian

def test_two_level_north_pole_is_diagonal():
    p = params(A=0.7, delta=0.4, d=-0.3, gamma=2.0 - 1.0j)
    h = h_semiquantum((0.0, 0.0, 1.0), p)
    f = p.A + p.delta + p.d
    assert np.allclose(h, np.diag([f, -f]), atol=1e-14)


def test_two_level_eigenvalues_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(30):
        p = params(A=rng.normal(), delta=rng.normal(), d=rng.normal(),
                   gamma=complex(rng.normal(), rng.normal()))
        x = random_sphere_point(rng)
        values = eigh(h_semiquantum(x, p)).values
        f = p.A + p.delta * x[2] + p.d * x[2] ** 2
        expected = np.sqrt(f * f + abs(p.gamma) ** 2 * (x[0] ** 2 + x[1] ** 2))
        assert abs(values[0] + expected) < 1e-12
        assert abs(values[1] - expected) < 1e-12


def test_tridiagonal_entries_general_s():
    # 1-based entries: H[i,i] = 2(S+1-i) f, H[i+1,i] = sqrt(S(S+1)-(S+1-i)(S-i))
    # * gamma (x1 + i x2)
    rng = np.random.default_rng(3)
    s = 1.5
    p = params(A=0.6, delta=-0.8, d=0.35, gamma=1.2 - 0.7j, L=3, S=s)
    x = random_sphere_point(rng)
    h = h_semiquantum(x, p)
    f = p.A + p.delta * x[2] + p.d * x[2] ** 2
    w = p.gamma * complex(x[0], x[1])
    dim = round(2 * s) + 1
    for i in range(1, dim + 1):
        assert h[i - 1, i - 1] == pytest.approx(2 * (s + 1 - i) * f, abs=1e-12)
        if i < dim:
            coeff = np.sqrt(s * (s + 1) - (s + 1 - i) * (s - i))
            assert h[i, i - 1] == pytest.approx(coeff * w, abs=1e-12)
            assert h[i - 1, i] == pytest.approx(np.conj(coeff * w), abs=1e-12)
    off = np.abs(h - np.diag(np.diag(h)) - np.diag(np.diag(h, 1), 1)
                 - np.diag(np.diag(h, -1), -1))
    assert np.max(off) == 0.0


@pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
def test_pole_spectrum_is_equally_spaced(s):
    p = params(A=0.3, delta=0.9, d=0.2, gamma=1.5 + 0.5j, L=5, S=s)
    for x3 in (1.0, -1.0):
        h = h_semiquantum((0.0, 0.0, x3), p)
        f = p.A + p.delta * x3 + p.d
        ladder = 2.0 * f * (s - np.arange(round(2 * s) + 1))
        assert np.allclose(h, np.diag(ladder), atol=1e-13)


def test_so2_equivariance():
    rng = np.random.default_rng(21)
    sz_half = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])
    for _ in range(20):
        p = params(A=rng.normal(), delta=rng.normal(), d=rng.normal(),
                   gamma=complex(rng.normal(), rng.normal()))
        x = random_sphere_point(rng)
        t = rng.uniform(0, 2 * np.pi)
        rot = np.array([
            [np.cos(t), -np.sin(t), 0.0],
            [np.sin(t), np.cos(t), 0.0],
            [0.0, 0.0, 1.0],
        ])
        u = np.diag(np.exp(-1j * t * np.diag(sz_half)))
        lhs = u @ h_semiquantum(x, p) @ u.conj().T
        rhs = h_semiquantum(rot @ x, p)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_energy_reflection_two_level():
    rng = np.random.default_rng(31)
    isigma2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for _ in range(20):
        p = params(A=rng.normal(), delta=rng.normal(), d=rng.normal(),
                   gamma=complex(rng.normal(), rng.normal()))
        x = random_sphere_point(rng)
        h = h_semiquantum(x, p)
        assert np.max(np.abs(isigma2 @ h.conj() @ (-isigma2) + h)) < 1e-12


def test_rejects_off_sphere_points():
    with pytest.raises(ValueError, match="unit sphere"):
        h_semiquantum((0.0, 0.0, 1.1), params())
    with pytest.raises(ValueError, match="unit sphere"):
        h_semiquantum([(0.0, 0.0, 1.0), (0.0, 1.1, 0.0)], params())
    with pytest.raises(ValueError, match="shape"):
        h_semiquantum((0.0, 1.0), params())


def test_stacked_points_match_single_points():
    p = params(A=0.3, delta=0.8, d=-0.4, gamma=0.6 - 1.2j, S=1.5, L=2)
    points = MESH.vertices[::97]
    stack = h_semiquantum(points, p)
    assert stack.shape == (len(points), 4, 4)
    for x, h in zip(points, stack):
        assert np.array_equal(h, h_semiquantum(x, p))


# ---------------------------------------------------------------- walls

def test_degeneracy_scan_split_walls():
    found = degeneracy_scan(params(delta=1.0, d=0.0), -5.0, 5.0)
    assert [(dp.A, dp.pole) for dp in found] == [(-1.0, "north"), (1.0, "south")]


def test_degeneracy_scan_simultaneous_walls():
    found = degeneracy_scan(params(delta=0.0, d=1.0), -5.0, 5.0)
    assert [(dp.A, dp.pole) for dp in found] == [(-1.0, "north"), (-1.0, "south")]


def test_degeneracy_scan_origin():
    found = degeneracy_scan(params(delta=0.0, d=0.0), -5.0, 5.0)
    assert [(dp.A, dp.pole) for dp in found] == [(0.0, "north"), (0.0, "south")]


def test_degeneracy_scan_respects_range():
    found = degeneracy_scan(params(delta=1.0, d=0.0), 0.0, 5.0)
    assert [(dp.A, dp.pole) for dp in found] == [(1.0, "south")]


def test_degeneracy_scan_rejects_gamma_zero():
    with pytest.raises(ValueError, match="gamma"):
        degeneracy_scan(params(gamma=0.0 + 0.0j), -5.0, 5.0)


# ---------------------------------------------------------------- Chern

def test_two_band_chern_by_domain():
    assert chern_numbers(params(A=0.0), MESH).chern == (1, -1)
    assert chern_numbers(params(A=-2.0), MESH).chern == (0, 0)
    assert chern_numbers(params(A=2.0), MESH).chern == (0, 0)


def test_two_band_chern_sign_flips_with_delta():
    assert chern_numbers(params(A=0.0, delta=-1.0), MESH).chern == (-1, 1)


def test_quadratic_family_trivial_bundles():
    p = params(delta=0.0, d=1.0)
    for a in (-2.0, 0.0):
        rep = chern_numbers(PhysParams(A=a, delta=0.0, d=1.0, gamma=1.0 + 0.0j,
                                       L=1, S=0.5), MESH)
        assert rep.chern == (0, 0)
    assert p.delta == 0.0


@pytest.mark.parametrize("s,expected", [
    (1.0, (2, 0, -2)),
    (2.0, (4, 2, 0, -2, -4)),
])
def test_n_band_chern_ladder(s, expected):
    p = PhysParams(A=0.0, delta=1.0, d=0.0, gamma=1.0 + 0.0j, L=5, S=s)
    rep = chern_numbers(p, MESH)
    assert rep.chern == expected
    assert sum(rep.chern) == 0


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("delta,a", [(1.0, -2.0), (1.0, -0.25), (1.0, 1.5),
                                     (-1.0, -0.25)])
def test_chern_matches_analytic_oracle(s, delta, a):
    # walls at A = -d -+ delta = -1.25 and 0.75; every A is >= 0.75 away
    p = PhysParams(A=a, delta=delta, d=0.25, gamma=0.8 - 0.6j, L=5, S=s)
    rep = chern_numbers(p, MESH)
    assert rep.valid
    assert rep.chern == analytic_chern(p)


def test_chern_independent_of_gamma_phase():
    p = PhysParams(A=0.0, delta=1.0, d=0.0, gamma=1.0 + 2.0j, L=5, S=1.0)
    assert chern_numbers(p, MESH).chern == (2, 0, -2)


def test_chern_refused_at_wall():
    rep = chern_numbers(params(A=-1.0), MESH)
    assert not rep.valid
    assert rep.chern is None
    assert "vertex" in rep.message
    assert rep.min_gap < 1e-8


def test_chern_mesh_refinement_stable():
    coarse = sphere_mesh(16, 16)
    p = params(A=0.0)
    assert chern_numbers(p, coarse).chern == chern_numbers(p, coarse.refined()).chern


def test_chern_gauge_independence():
    # independent plaquette evaluation, with and without random vertex phases
    p = params(A=0.0)
    rng = np.random.default_rng(77)
    mesh = sphere_mesh(16, 16)
    vecs = np.stack([eigh(h_semiquantum(v, p)).vectors
                     for v in mesh.vertices])
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=mesh.n_vertices))
    for band in range(2):
        def plaquette_total(vectors):
            total = 0.0
            for face in mesh.faces:
                prod = 1.0 + 0.0j
                for a, b in zip(face, face[1:] + face[:1]):
                    prod *= np.vdot(vectors[a, :, band], vectors[b, :, band])
                total += np.angle(prod)
            return total

        plain = plaquette_total(vecs)
        gauged = plaquette_total(vecs * phases[:, None, None])
        assert abs(plain - gauged) < 1e-10
        expected = chern_numbers(p, mesh).chern[band]
        assert abs(plain / (2 * np.pi) - expected) < 0.05


def test_chern_rejects_gamma_zero():
    with pytest.raises(ValueError, match="gamma"):
        chern_numbers(params(gamma=0.0 + 0.0j), MESH)


def test_unresolvable_mesh_is_refused():
    p = PhysParams(A=0.0, delta=1.0, d=0.0, gamma=1.0 + 0.0j, L=5, S=2.0)
    with pytest.raises(MeshTooCoarseError, match="refine"):
        chern_numbers(p, sphere_mesh(3, 3))


def test_eleven_band_ladder():
    p = PhysParams(A=0.0, delta=1.0, d=0.0, gamma=1.0 + 0.0j, L=16, S=5.0)
    rep = chern_numbers(p, MESH)
    assert rep.chern == tuple(range(10, -11, -2))


def test_delta_chern_across_walls():
    lo = chern_numbers(params(A=-2.0), MESH)
    mid = chern_numbers(params(A=0.0), MESH)
    hi = chern_numbers(params(A=2.0), MESH)
    assert delta_chern(lo, mid) == (1, -1)
    assert delta_chern(mid, hi) == (-1, 1)
    p_quad = PhysParams(A=0.0, delta=0.0, d=1.0, gamma=1.0 + 0.0j, L=1, S=0.5)
    quad_lo = chern_numbers(PhysParams(A=-2.0, delta=0.0, d=1.0,
                                       gamma=1.0 + 0.0j, L=1, S=0.5), MESH)
    quad_hi = chern_numbers(p_quad, MESH)
    assert delta_chern(quad_lo, quad_hi) == (0, 0)


def test_delta_chern_requires_valid_reports():
    good = chern_numbers(params(A=0.0), MESH)
    bad = chern_numbers(params(A=-1.0), MESH)
    with pytest.raises(ValueError, match="valid"):
        delta_chern(good, bad)


def test_delta_chern_band_count_mismatch():
    two = chern_numbers(params(A=0.0), MESH)
    three = chern_numbers(PhysParams(A=0.0, delta=1.0, d=0.0,
                                     gamma=1.0 + 0.0j, L=1, S=1.0), MESH)
    with pytest.raises(ValueError, match="mismatch"):
        delta_chern(two, three)


# ---------------------------------------------------------------- counting

def counting_setup(s, a):
    p = PhysParams(A=a, delta=1.0, d=0.0, gamma=1.0 + 0.0j, L=5, S=s)
    chern = chern_numbers(p, MESH)
    bands = assign_bands(joint_spectrum(p))
    return p, chern, bands


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_counting_relation_domain_ii(s):
    p, chern, bands = counting_setup(s, 0.0)
    report = verify_counting(p, chern, bands)
    assert report.conclusive and report.ok
    for row in report.rows:
        assert row.n_levels == 2 * p.L + 1 - row.chern


def test_counting_relation_trivial_domains():
    for a in (-30.0, 30.0):
        p, chern, bands = counting_setup(0.5, a)
        assert chern.chern == (0, 0)
        assert bands.counts() == (11, 11)
        assert verify_counting(p, chern, bands).ok


def test_counting_relation_normalized_two_level():
    # with L normalized to 1 the quantum redistribution window and the
    # matrix-family walls coincide at (-1, 1)
    p = PhysParams(A=0.0, delta=1.0, d=0.0, gamma=1.0 + 0.0j, L=1, S=0.5)
    chern = chern_numbers(p, MESH)
    bands = assign_bands(joint_spectrum(p))
    assert chern.chern == (1, -1)
    assert bands.counts() == (2, 4)
    assert verify_counting(p, chern, bands).ok


def test_counting_inconclusive_on_invalid_chern():
    p = params(A=-1.0, L=5)
    chern = chern_numbers(p, MESH)
    bands = assign_bands(joint_spectrum(p))
    report = verify_counting(p, chern, bands)
    assert not report.conclusive
