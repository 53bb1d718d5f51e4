import numpy as np
import pytest
from oracles import (dense_hamiltonian, dense_jz, dense_spectrum, jacobi_eigh,
                     one_dim_energies, two_level_block_eigenvalues)

from bandflow.linalg import eigh
from bandflow.params import PhysParams
from bandflow.spectrum import (BandAssignmentError, assign_bands,
                               joint_spectrum, jz_blocks, jz_values,
                               sweep_spectral_flow)

FIG_TWO_BAND = dict(delta=3.0, d=1.0, gamma=1.0 + 2.0j, L=5, S=0.5)
FIG_THREE_BAND = dict(delta=1.0, d=0.5, gamma=1.0 + 2.0j, L=5, S=1.0)


def params(A=0.0, **kw):
    base = dict(delta=0.0, d=0.0, gamma=1.0 + 0.0j, L=5, S=0.5)
    base.update(kw)
    return PhysParams(A=A, **base)


def test_phys_params_validation():
    with pytest.raises(ValueError):
        PhysParams(A=0.0, delta=0.0, d=0.0, gamma=1.0, L=-1, S=0.5)
    with pytest.raises(ValueError):
        PhysParams(A=0.0, delta=0.0, d=0.0, gamma=1.0, L=2, S=0.3)
    with pytest.warns(UserWarning, match="exceeds"):
        PhysParams(A=0.0, delta=0.0, d=0.0, gamma=1.0, L=1, S=2.0)


@pytest.mark.parametrize("field,value", [
    ("A", float("inf")), ("A", True), ("A", "0.5"), ("delta", float("nan")),
    ("d", None), pytest.param("d", 10 ** 400, id="d-huge-int"),
    ("gamma", complex(float("nan"), 1.0)),
    ("gamma", complex(1.0, float("inf"))), ("gamma", True), ("gamma", "1+2j"),
    ("L", True), ("L", 5.0), ("S", "1"), ("S", True), ("S", float("inf")),
])
def test_phys_params_rejects(field, value):
    kw = dict(A=0.0, delta=1.0, d=0.0, gamma=1.0 + 0.0j, L=5, S=1.0)
    kw[field] = value
    with pytest.raises(ValueError, match=field):
        PhysParams(**kw)


def test_block_dims_s2_l5():
    p = params(S=2.0, L=5)
    dims = {b.jz: b.dim for b in jz_blocks(p)}
    for jz_abs, dim in [(7, 1), (6, 2), (5, 3), (4, 4)]:
        assert dims[jz_abs] == dim
        assert dims[-jz_abs] == dim
    for jz in range(-3, 4):
        assert dims[jz] == 5
    assert len(dims) == 15


def test_spin_half_blocks_match_two_level_matrix():
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = params(A=rng.normal(scale=5), delta=rng.normal(), d=rng.normal(),
                   gamma=complex(rng.normal(), rng.normal()),
                   L=int(rng.integers(1, 7)))
        blocks = {b.jz: b for b in jz_blocks(p)}
        for m_l in range(-p.L + 1, p.L + 1):
            block = blocks[m_l - 0.5]
            assert block.basis == ((-0.5, float(m_l)), (0.5, float(m_l - 1)))
            coupling = p.gamma * np.sqrt(p.L * (p.L + 1) - m_l * (m_l - 1))
            expected = np.array([
                [-(p.A + p.delta * m_l + p.d * m_l * m_l), coupling],
                [np.conj(coupling),
                 p.A + p.delta * (m_l - 1) + p.d * (m_l - 1) ** 2],
            ])
            assert np.max(np.abs(block.matrix - expected)) < 1e-12


def test_one_dimensional_blocks():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = params(A=rng.normal(scale=10), delta=rng.normal(), d=rng.normal(),
                   gamma=complex(rng.normal(), rng.normal()), L=5)
        blocks = {b.jz: b for b in jz_blocks(p)}
        lower, upper = one_dim_energies(p)
        assert blocks[-(p.L + 0.5)].matrix[0, 0] == pytest.approx(lower, abs=1e-12)
        assert blocks[p.L + 0.5].matrix[0, 0] == pytest.approx(upper, abs=1e-12)


def test_two_level_closed_form_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        p = params(A=rng.uniform(-5, 5), delta=rng.uniform(-2, 2),
                   d=rng.uniform(-2, 2),
                   gamma=complex(rng.normal(), rng.normal()),
                   L=int(rng.integers(1, 9)))
        blocks = {b.jz: b for b in jz_blocks(p)}
        for m_l in range(-p.L + 1, p.L + 1):
            values = eigh(blocks[m_l - 0.5].matrix).values
            lo, hi = two_level_block_eigenvalues(p, m_l)
            assert abs(values[0] - lo) < 1e-10
            assert abs(values[1] - hi) < 1e-10


def test_edge_state_zero_crossing():
    # the upward edge state (jz = L + 1/2) crosses E = 0 at A = -d L^2 - delta L
    p = params(A=-40.0, **FIG_TWO_BAND)
    spec = joint_spectrum(p)
    level = [lv for lv in spec.levels if lv.jz == p.L + 0.5]
    assert len(level) == 1
    assert abs(level[0].energy) < 1e-10


def test_small_system_against_dense_oracle():
    p = params(A=0.0, L=1)
    spec = joint_spectrum(p)
    assert len(spec.levels) == 6
    expected = np.sort(dense_spectrum(p))
    got = np.sort(spec.energies())
    assert np.allclose(got, expected, atol=1e-10)
    root2 = np.sqrt(2.0)
    frozen = np.sort([0.0, 0.0, -root2, root2, -root2, root2])
    assert np.allclose(got, frozen, atol=1e-10)


@pytest.mark.parametrize("s,l", [(0.5, 5), (1.0, 5), (2.0, 5)])
def test_blocked_equals_dense_spectrum(s, l):
    rng = np.random.default_rng(round(2 * s) * 17 + l)
    for _ in range(3):
        p = params(A=rng.uniform(-10, 10), delta=rng.uniform(-2, 2),
                   d=rng.uniform(-1, 1),
                   gamma=complex(rng.normal(), rng.normal()), L=l, S=s)
        got = np.sort(joint_spectrum(p).energies())
        expected = dense_spectrum(p)
        assert len(got) == p.n_levels
        assert np.max(np.abs(got - expected)) < 1e-9


@pytest.mark.parametrize("l,s,d,gamma", [
    (3, 0.5, 0.3, 1.0 + 2.0j), (5, 1.0, -0.2, 0.5 - 1.0j),
    (4, 1.5, 0.1, -1.0 + 0.5j), (6, 2.5, -0.05, 2.0j),
])
def test_block_eigenvalues_match_jacobi(l, s, d, gamma):
    p = params(A=0.7, delta=1.3, d=d, gamma=gamma, L=l, S=s)
    spec = joint_spectrum(p)
    scale = np.max(np.abs(spec.energies()))
    for block in jz_blocks(p):
        reference = jacobi_eigh(block.matrix)[0]
        assert np.max(np.abs(spec.column(block.jz) - reference)) <= 1e-11 * scale


def test_jz_commutes_with_dense_hamiltonian():
    for s, l in [(0.5, 3), (1.0, 4), (2.0, 5)]:
        p = params(A=1.3, delta=0.7, d=-0.4, gamma=0.8 - 1.1j, L=l, S=s)
        h = dense_hamiltonian(p)
        jz = dense_jz(p)
        comm = jz @ h - h @ jz
        scale = max(1.0, np.linalg.norm(h) * np.linalg.norm(jz))
        assert np.max(np.abs(comm)) < 1e-12 * scale


def test_energy_reflection_when_delta_zero():
    p0 = params(**FIG_TWO_BAND)
    for a in np.linspace(-30, 30, 7):
        p = PhysParams(A=float(a), delta=0.0, d=p0.d, gamma=p0.gamma,
                       L=p0.L, S=p0.S)
        spec = joint_spectrum(p)
        energies = np.sort(spec.energies())
        assert np.max(np.abs(energies + energies[::-1])) < 1e-10
        pairs = sorted((lv.jz, lv.energy) for lv in spec.levels)
        mirrored = sorted((-lv.jz, -lv.energy) for lv in spec.levels)
        for (jz_a, e_a), (jz_b, e_b) in zip(pairs, mirrored):
            assert jz_a == jz_b
            assert abs(e_a - e_b) < 1e-10


def test_one_dim_blocks_linear_in_a():
    base = params(**FIG_TWO_BAND)
    grid = np.linspace(-20, 20, 9)
    for jz in (-(base.L + 0.5), base.L + 0.5):
        energies = []
        for a in grid:
            spec = joint_spectrum(PhysParams(A=float(a), delta=base.delta,
                                             d=base.d, gamma=base.gamma,
                                             L=base.L, S=base.S))
            energies.append(spec.column(jz)[0])
        second = np.diff(energies, n=2)
        assert np.max(np.abs(second)) < 1e-10


def test_band_counts_two_band_model():
    p = params(A=-60.0, **FIG_TWO_BAND)
    decomp = assign_bands(joint_spectrum(p))
    assert decomp.counts() == (11, 11)
    assert decomp.unassigned == ()
    p = params(A=-25.0, **FIG_TWO_BAND)
    decomp = assign_bands(joint_spectrum(p))
    assert decomp.counts() == (10, 12)


def test_band_counts_three_band_model():
    # mid-domain point: near the walls the gained edge levels still sit in
    # the gap and the largest-gap rule groups them differently
    p = params(A=-12.5, **FIG_THREE_BAND)
    decomp = assign_bands(joint_spectrum(p))
    assert decomp.counts() == (9, 11, 13)


def test_band_energy_ordering():
    p = params(A=-25.0, **FIG_TWO_BAND)
    decomp = assign_bands(joint_spectrum(p))
    for lower, upper in zip(decomp.bands, decomp.bands[1:]):
        assert max(lv.energy for lv in lower) < min(lv.energy for lv in upper)


def test_spectral_flow_three_bands():
    p = params(**FIG_THREE_BAND)
    a_points = [-30.0, -12.5, 0.0]
    report = sweep_spectral_flow(p, a_points)
    assert report.local_flows[0] == (-2, 0, 2)
    assert report.local_flows[1] == (2, 0, -2)
    assert report.global_flow == (0, 0, 0)
    assert report.redistributions[0] == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    assert report.redistributions[1] == {(1, 0): 1, (2, 0): 1, (2, 1): 1}
    for flow in report.local_flows:
        assert sum(flow) == 0
    # each local flow equals the raw band-count difference
    decomps = [assign_bands(joint_spectrum(PhysParams(
        A=a, delta=p.delta, d=p.d, gamma=p.gamma, L=p.L, S=p.S)))
        for a in a_points]
    for i, flow in enumerate(report.local_flows):
        diff = tuple(after - before
                     for before, after in zip(decomps[i].counts(),
                                              decomps[i + 1].counts()))
        assert diff == flow
    # identities of the movers over the first wall: the one-dimensional
    # jz = L+1 block jumps two bands, the jz = L pair moves one band each
    before, after = decomps[0].band_by_site(), decomps[1].band_by_site()
    assert (before[(6.0, 0)], after[(6.0, 0)]) == (0, 2)
    assert (before[(5.0, 0)], after[(5.0, 0)]) == (0, 1)
    assert (before[(5.0, 1)], after[(5.0, 1)]) == (1, 2)


def test_spectral_flow_two_bands():
    p = params(**FIG_TWO_BAND)
    report = sweep_spectral_flow(p, [-60.0, -25.0, 20.0])
    assert report.redistributions[0] == {(0, 1): 1}
    assert report.redistributions[1] == {(1, 0): 1}
    assert report.global_flow == (0, 0)


def test_band_inversion_correlation_diagram():
    # between the asymptotic domains, every level of an m-dimensional block
    # at jz = +-(L+S-m+1) changes its band label by +-(2S-m+1); maximal
    # blocks hold the bulk states, which never change band
    s, l = 2.0, 5
    p = params(delta=1.0, d=0.0, gamma=1.0 + 0.0j, L=l, S=s)
    maps = []
    for a in (-30.0, 30.0):
        decomp = assign_bands(joint_spectrum(
            PhysParams(A=a, delta=p.delta, d=p.d, gamma=p.gamma, L=l, S=s)))
        assert not decomp.unassigned
        maps.append(decomp.band_by_site())
    before, after = maps
    for site, b_from in before.items():
        jz, _ = site
        dim = round(min(s, jz + l) - max(-s, jz - l)) + 1
        if dim == round(2 * s) + 1:
            assert after[site] == b_from
        else:
            m = dim
            expected_jump = round(2 * s) - m + 1
            sign = 1 if jz > 0 else -1
            assert after[site] - b_from == sign * expected_jump


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_spectral_flow_general_s_first_wall(s):
    p = params(delta=1.0, d=0.0, gamma=1.0 + 0.0j, L=5, S=s)
    report = sweep_spectral_flow(p, [-30.0, 0.0, 30.0])
    expected_first = tuple(-round(2 * (s - b)) for b in range(p.n_bands))
    expected_second = tuple(round(2 * (s - b)) for b in range(p.n_bands))
    assert report.local_flows[0] == expected_first
    assert report.local_flows[1] == expected_second
    assert report.global_flow == (0,) * p.n_bands


def test_assign_bands_flags_collapsed_split():
    # two of the three bands touch: the second-largest gap is below
    # 1e-6 * width, so the adjacent levels are refused, not guessed
    from bandflow.spectrum import JointSpectrum, Level

    p = params(S=1.0, L=1)
    energies = [0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0 + 1e-9, 5.0 + 1e-9, 5.0 + 1e-9]
    levels = tuple(Level(jz=float(i), n=0, energy=e)
                   for i, e in enumerate(energies))
    decomp = assign_bands(JointSpectrum(params=p, levels=levels))
    assert len(decomp.unassigned) == 2
    assert decomp.counts() == (3, 2, 2)


def test_sweep_rejects_unassigned(monkeypatch):
    import bandflow.spectrum as spectrum_mod
    from bandflow.spectrum import BandDecomposition

    real = spectrum_mod.assign_bands

    def flaky(spec, gap_rtol=1e-6):
        if spec.params.A == -40.0:
            return BandDecomposition(bands=((), ()), unassigned=spec.levels)
        return real(spec, gap_rtol)

    monkeypatch.setattr(spectrum_mod, "assign_bands", flaky)
    p = params(**FIG_TWO_BAND)
    with pytest.raises(BandAssignmentError, match="unassigned"):
        sweep_spectral_flow(p, [-60.0, -40.0, 20.0])


def test_sweep_rejects_bad_grid():
    p = params(**FIG_TWO_BAND)
    with pytest.raises(ValueError, match="ascending"):
        sweep_spectral_flow(p, [0.0, -1.0])
    with pytest.raises(ValueError, match="two A points"):
        sweep_spectral_flow(p, [0.0])


def test_jz_values_cover_support():
    p = params(S=1.0, L=5)
    values = jz_values(p)
    assert values[0] == -6 and values[-1] == 6 and len(values) == 13
