import numpy as np
import pytest
import scipy.linalg as sla

import oracles
from bosetherm import StateVector, enumerate_basis
from bosetherm.errors import (
    CapacityError,
    IntegrityError,
    SectorMismatchError,
    StepTooLargeError,
    UnreachableTimeError,
)
from bosetherm.hamiltonian import (
    HamiltonianParams,
    SectorOperator,
    build_hamiltonian,
    diagonalize,
)
from bosetherm.propagator import (
    EigenPropagator,
    PropagatorConfig,
    advance_columns,
    base_step,
    build_eigen_propagator,
    build_ladder,
    choose_base_step,
    estimate_spectral_radius,
    evolve_to,
)

# (modes, particles) of the model sectors the eigen propagator is checked on
EIGEN_SECTORS = [(3, 2), (5, 6)]


def random_hermitian_op(dim, rng, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = scale * (a + a.conj().T) / (2.0 * np.sqrt(dim))
    basis = enumerate_basis(2, dim - 1)  # any sector with the right dim
    return SectorOperator(basis, h)


def random_unit(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_base_step_matches_series():
    rng = np.random.default_rng(1)
    op = random_hermitian_op(8, rng)
    cfg = PropagatorConfig(base_step=0.02, depth=0, taylor_order=4)
    u = base_step(op, cfg)
    z = (-1j * 0.02) * op.matrix
    expect = np.eye(8, dtype=complex)
    power = np.eye(8, dtype=complex)
    for k in range(1, 5):
        power = power @ z / k
        expect = expect + power
    assert np.abs(u - expect).max() < 1e-15


def test_step_rule_enforced():
    rng = np.random.default_rng(2)
    op = random_hermitian_op(12, rng)
    too_big = 0.2 / op.max_element()
    with pytest.raises(StepTooLargeError):
        base_step(op, PropagatorConfig(base_step=too_big, depth=0))


def test_non_hermitian_generator_rejected():
    # rejected when the operator is made, before any propagator sees it
    basis = enumerate_basis(2, 11)
    m = np.triu(np.ones((12, 12)))
    with pytest.raises(IntegrityError):
        base_step(SectorOperator(basis, m),
                  PropagatorConfig(base_step=1e-3, depth=0))


def test_spectral_radius_estimate_bounds_spectrum():
    rng = np.random.default_rng(3)
    op = random_hermitian_op(40, rng)
    exact = np.abs(np.linalg.eigvalsh(op.matrix)).max()
    rho = estimate_spectral_radius(op.matrix)
    assert exact <= rho <= 1.2 * exact


def test_rungs_are_exact_powers():
    rng = np.random.default_rng(4)
    op = random_hermitian_op(10, rng)
    cfg = choose_base_step(op, horizon=10.0, branching=3)
    ladder = build_ladder(op, cfg)
    u0 = ladder.rungs[0]
    for k in range(1, cfg.depth + 1):
        direct = np.linalg.matrix_power(u0, 3 ** k)
        assert np.abs(ladder.rungs[k] - direct).max() < 1e-10


@pytest.mark.parametrize("branching", [2, 3])
def test_evolution_matches_eigensolver(branching):
    rng = np.random.default_rng(5)
    op = random_hermitian_op(60, rng)
    eig = diagonalize(op)
    cfg = choose_base_step(op, horizon=1000.0, branching=branching)
    ladder = build_ladder(op, cfg)
    psi0 = random_unit(60, rng)
    state = StateVector(op.basis, psi0)
    for t in [0.0, 0.37, 5.0, 113.0, 999.0]:
        m, actual = ladder.snap(t)
        moved = evolve_to(ladder, state, t)
        expect = oracles.exact_evolve(eig.energies, eig.vectors, psi0, actual)
        assert np.abs(moved.amplitudes - expect).max() < 1e-6
        assert abs(moved.norm() - 1.0) < 1e-8


def test_backward_evolution_matches_eigensolver():
    rng = np.random.default_rng(6)
    op = random_hermitian_op(40, rng)
    eig = diagonalize(op)
    cfg = choose_base_step(op, horizon=50.0)
    ladder = build_ladder(op, cfg)
    psi0 = random_unit(40, rng)
    state = StateVector(op.basis, psi0)
    m, actual = ladder.snap(-17.3)
    moved = evolve_to(ladder, state, -17.3)
    expect = oracles.exact_evolve(eig.energies, eig.vectors, psi0, actual)
    assert np.abs(moved.amplitudes - expect).max() < 1e-6


def test_forward_then_backward_is_identity():
    rng = np.random.default_rng(7)
    op = random_hermitian_op(30, rng)
    cfg = choose_base_step(op, horizon=100.0)
    ladder = build_ladder(op, cfg)
    v = random_unit(30, rng)
    back = ladder.advance(ladder.advance(v, 12345), -12345)
    assert np.abs(back - v).max() < 1e-7


def test_advance_composes():
    rng = np.random.default_rng(8)
    op = random_hermitian_op(25, rng)
    cfg = choose_base_step(op, horizon=30.0)
    ladder = build_ladder(op, cfg)
    v = random_unit(25, rng)
    both = ladder.advance(v, 700 + 41)
    split = ladder.advance(ladder.advance(v, 700), 41)
    assert np.abs(both - split).max() < 1e-12


def test_advance_handles_matrix_columns():
    rng = np.random.default_rng(9)
    op = random_hermitian_op(20, rng)
    ladder = build_ladder(op, choose_base_step(op, horizon=5.0))
    block = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    together = ladder.advance(block, -250)
    for col in range(3):
        alone = ladder.advance(block[:, col], -250)
        assert np.abs(together[:, col] - alone).max() < 1e-12


def test_advance_columns_matches_per_column_advance():
    rng = np.random.default_rng(15)
    op = random_hermitian_op(20, rng)
    ladder = build_ladder(op, PropagatorConfig(base_step=0.01, depth=6,
                                               branching=3))
    steps = [0, 1, -1, 250, -250, 1000, -7, ladder.max_steps, 0, 13]
    block = (rng.normal(size=(20, len(steps)))
             + 1j * rng.normal(size=(20, len(steps))))
    walked = advance_columns(ladder, block, steps)
    for col, count in enumerate(steps):
        alone = ladder.advance(block[:, col], count)
        assert np.abs(walked[:, col] - alone).max() < 1e-12
    assert np.abs(walked[:, 0] - block[:, 0]).max() == 0.0


def test_advance_columns_rejects_bad_steps():
    rng = np.random.default_rng(16)
    op = random_hermitian_op(10, rng)
    ladder = build_ladder(op, PropagatorConfig(base_step=0.01, depth=3))
    block = np.ones((10, 2), dtype=complex)
    with pytest.raises(UnreachableTimeError):
        advance_columns(ladder, block, [1, -(ladder.max_steps + 1)])
    with pytest.raises(ValueError):
        advance_columns(ladder, block, [1, 2, 3])
    with pytest.raises(ValueError):
        advance_columns(ladder, block[:, 0], [1])


def test_snap_and_strict_mode():
    rng = np.random.default_rng(10)
    op = random_hermitian_op(10, rng)
    cfg = PropagatorConfig(base_step=0.01, depth=6)
    ladder = build_ladder(op, cfg)
    m, actual = ladder.snap(0.034)
    assert m == 3 and actual == pytest.approx(0.03)
    with pytest.raises(UnreachableTimeError):
        ladder.snap(0.034, strict=True)
    m2, actual2 = ladder.snap(0.03, strict=True)
    assert m2 == 3


def test_times_beyond_span_rejected():
    rng = np.random.default_rng(11)
    op = random_hermitian_op(10, rng)
    ladder = build_ladder(op, PropagatorConfig(base_step=0.01, depth=3))
    with pytest.raises(UnreachableTimeError):
        ladder.advance(np.ones(10, dtype=complex), ladder.max_steps + 1)


def test_both_propagators_raise_one_span_error():
    op = model_op(3, 2)
    cfg = PropagatorConfig(base_step=0.002, depth=3)
    block = np.ones((op.basis.dim, 2), dtype=complex)
    messages = set()
    for prop in (build_ladder(op, cfg), build_eigen_propagator(op, cfg)):
        for beyond in (cfg.max_steps + 1, -(cfg.max_steps + 1)):
            with pytest.raises(UnreachableTimeError) as by_advance:
                prop.advance(block[:, 0], beyond)
            with pytest.raises(UnreachableTimeError) as by_columns:
                advance_columns(prop, block, [1, beyond])
            messages |= {str(by_advance.value), str(by_columns.value)}
    assert messages == {f"{cfg.max_steps + 1} base steps exceed the span of "
                        f"{cfg.max_steps} (time {cfg.span:.6e})"}


def test_memory_cap():
    rng = np.random.default_rng(12)
    op = random_hermitian_op(64, rng)
    cfg = PropagatorConfig(base_step=1e-3, depth=2, max_rung_bytes=1000)
    with pytest.raises(CapacityError):
        build_ladder(op, cfg)


def test_sector_mismatch_rejected():
    rng = np.random.default_rng(13)
    op = random_hermitian_op(10, rng)
    ladder = build_ladder(op, PropagatorConfig(base_step=0.01, depth=2))
    other = enumerate_basis(3, 3)
    psi = StateVector(other, np.ones(other.dim, dtype=complex))
    with pytest.raises(SectorMismatchError):
        evolve_to(ladder, psi, 0.01)


def test_choose_base_step_alignment():
    p = HamiltonianParams(num_modes=3, num_particles=2, level_spacing=10.0,
                          hopping=1.0, u_intra=1.0, u_inter=0.1)
    op = build_hamiltonian(p)
    cfg = choose_base_step(op, horizon=100.0, align_to=0.005)
    ratio = 0.005 / cfg.base_step
    assert ratio == pytest.approx(round(ratio), abs=1e-9)
    assert cfg.base_step * op.max_element() <= 0.1 * (1 + 1e-12)
    assert cfg.span >= 100.0


def test_trap_model_long_horizon_conservation():
    # small trap sector, energy measured against the eigensolver at Jt=500
    p = HamiltonianParams(num_modes=3, num_particles=3, level_spacing=10.0,
                          hopping=1.0, u_intra=1.0, u_inter=0.1)
    op = build_hamiltonian(p)
    eig = diagonalize(op)
    cfg = choose_base_step(op, horizon=500.0)
    ladder = build_ladder(op, cfg)
    rng = np.random.default_rng(15)
    psi0 = random_unit(op.basis.dim, rng)
    state = StateVector(op.basis, psi0)
    e0 = float(np.vdot(psi0, op.matrix @ psi0).real)
    for t in [1.0, 50.0, 500.0]:
        moved = evolve_to(ladder, state, t)
        _, actual = ladder.snap(t)
        expect = oracles.exact_evolve(eig.energies, eig.vectors, psi0, actual)
        assert np.abs(moved.amplitudes - expect).max() < 1e-6
        e_t = float(np.vdot(moved.amplitudes,
                            op.matrix @ moved.amplitudes).real)
        assert abs(e_t - e0) <= 1e-6 * abs(e0)


def model_op(modes, particles):
    return build_hamiltonian(HamiltonianParams(
        num_modes=modes, num_particles=particles, level_spacing=10.0,
        hopping=1.0, u_intra=1.0, u_inter=0.1))


@pytest.mark.parametrize("sector", EIGEN_SECTORS)
def test_eigen_advance_matches_exact_states(sector):
    op = model_op(*sector)
    eig = diagonalize(op)
    prop = build_eigen_propagator(op, choose_base_step(op, horizon=100.0))
    rng = np.random.default_rng(21)
    psi0 = random_unit(op.basis.dim, rng)
    for m in [0, 1, -1, 4321, -4321, prop.max_steps, -prop.max_steps]:
        got = prop.advance(psi0, m)
        want = oracles.exact_evolve(eig.energies, eig.vectors, psi0,
                                    m * prop.base_step)
        assert got.shape == psi0.shape
        assert np.abs(got - want).max() < 1e-12
    block = rng.normal(size=(op.basis.dim, 3)) + 0j
    together = prop.advance(block, -777)
    for col in range(3):
        want = oracles.exact_evolve(eig.energies, eig.vectors,
                                    block[:, col], -777 * prop.base_step)
        assert np.abs(together[:, col] - want).max() < 1e-12
    state = StateVector(op.basis, psi0)
    for t in [0.0, 0.37, 13.0, -61.5, 99.9]:
        _, actual = prop.snap(t)
        want = oracles.exact_evolve(eig.energies, eig.vectors, psi0, actual)
        assert np.abs(evolve_to(prop, state, t).amplitudes - want).max() \
            < 1e-12


def test_eigen_advance_matches_matrix_exponential():
    # an oracle that does not go through diagonalize
    op = model_op(3, 2)
    prop = build_eigen_propagator(op, choose_base_step(op, horizon=10.0))
    psi0 = random_unit(op.basis.dim, np.random.default_rng(22))
    m, actual = prop.snap(1.7)
    want = sla.expm(-1j * actual * op.matrix) @ psi0
    assert np.abs(prop.advance(psi0, m) - want).max() < 1e-12


@pytest.mark.parametrize("sector", EIGEN_SECTORS)
def test_eigen_advance_columns_matches_exact_states(sector):
    op = model_op(*sector)
    eig = diagonalize(op)
    prop = build_eigen_propagator(op, choose_base_step(op, horizon=50.0))
    rng = np.random.default_rng(23)
    top = prop.max_steps
    steps = [0, 1, -1, 250, -250, top, -top, 0, 13, top - 1]
    block = (rng.normal(size=(op.basis.dim, len(steps)))
             + 1j * rng.normal(size=(op.basis.dim, len(steps))))
    walked = advance_columns(prop, block, steps)
    for col, count in enumerate(steps):
        want = oracles.exact_evolve(eig.energies, eig.vectors, block[:, col],
                                    count * prop.base_step)
        assert np.abs(walked[:, col] - want).max() < 1e-12
        assert np.abs(walked[:, col] - prop.advance(block[:, col], count)
                      ).max() < 1e-12
    # a transposed (Fortran-ordered) block walks the same way
    again = advance_columns(prop, np.asfortranarray(block), steps)
    assert np.abs(again - walked).max() < 1e-12
    with pytest.raises(UnreachableTimeError):
        advance_columns(prop, block[:, :2], [1, -(top + 1)])
    with pytest.raises(UnreachableTimeError):
        prop.advance(block[:, 0], top + 1)
    with pytest.raises(ValueError):
        advance_columns(prop, block[:, 0], [1])


def test_eigen_propagator_keeps_the_ladder_lattice():
    op = model_op(3, 2)
    cfg = choose_base_step(op, horizon=30.0, align_to=0.01)
    ladder = build_ladder(op, cfg)
    prop = build_eigen_propagator(op, cfg)
    assert prop.config is cfg
    assert (prop.base_step, prop.max_steps, prop.span) == \
        (ladder.base_step, ladder.max_steps, ladder.span)
    for t in [0.0, 0.034, 7.77, -29.9]:
        assert prop.snap(t) == ladder.snap(t)
    with pytest.raises(UnreachableTimeError):
        prop.snap(2.0 * prop.span)
    with pytest.raises(UnreachableTimeError):
        prop.snap(0.034, strict=True)
    # the two agree to the ladder's own truncation (target_error 1e-8)
    psi0 = random_unit(op.basis.dim, np.random.default_rng(24))
    m, _ = prop.snap(29.0)
    assert np.abs(prop.advance(psi0, m) - ladder.advance(psi0, m)).max() \
        < 1e-8


def test_eigen_memory_cap_checked_before_diagonalizing(monkeypatch):
    import bosetherm.propagator as propagator

    op = model_op(3, 2)
    dim = op.basis.dim
    calls = []
    real = propagator.diagonalize
    monkeypatch.setattr(propagator, "diagonalize",
                        lambda o: calls.append(o) or real(o))
    tight = PropagatorConfig(base_step=1e-3, depth=2,
                             max_rung_bytes=8 * dim * dim - 1)
    with pytest.raises(CapacityError):
        build_eigen_propagator(op, tight)
    assert calls == []
    exact = PropagatorConfig(base_step=1e-3, depth=2,
                             max_rung_bytes=8 * dim * dim)
    assert isinstance(build_eigen_propagator(op, exact), EigenPropagator)
    assert len(calls) == 1


def test_eigen_propagator_on_complex_hermitian_generator():
    rng = np.random.default_rng(25)
    op = random_hermitian_op(20, rng)
    eig = diagonalize(op)
    prop = build_eigen_propagator(op, PropagatorConfig(base_step=0.01,
                                                       depth=6))
    psi0 = random_unit(20, rng)
    want = oracles.exact_evolve(eig.energies, eig.vectors, psi0, -0.37)
    assert np.abs(prop.advance(psi0, -37) - want).max() < 1e-12
