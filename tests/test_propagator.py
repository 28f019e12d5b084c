import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import oracles
from bosetherm import StateVector, enumerate_basis, occupation_state
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
    MAX_STEP_FACTOR,
    MAX_TAYLOR_ORDER,
    MIN_TAYLOR_ORDER,
    EigenPropagator,
    PropagatorConfig,
    PropagatorLadder,
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

# the generic ladder tests run on both: a complex Hermitian generator keeps
# dense rungs, a real symmetric one (as every model sector is) gets packed
# ones
GENERATORS = ["complex_hermitian", "real_symmetric"]


def random_hermitian_op(dim, rng, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = scale * (a + a.conj().T) / (2.0 * np.sqrt(dim))
    basis = enumerate_basis(2, dim - 1)  # any sector with the right dim
    return SectorOperator(basis, h)


def random_generator(kind, dim, rng):
    if kind == "complex_hermitian":
        return random_hermitian_op(dim, rng)
    a = rng.normal(size=(dim, dim))
    return SectorOperator(enumerate_basis(2, dim - 1),
                          (a + a.T) / (2.0 * np.sqrt(dim)))


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
    for kind in GENERATORS:
        rng = np.random.default_rng(4)
        op = random_generator(kind, 10, rng)
        cfg = choose_base_step(op, horizon=10.0)
        ladder = build_ladder(op, cfg)
        assert ladder.packed == (kind == "real_symmetric")
        u0 = ladder.rung(0)
        assert np.abs(u0 - base_step(op, cfg)).max() < 1e-15
        for k in range(1, cfg.depth + 1):
            direct = np.linalg.matrix_power(u0, 2 ** k)
            assert np.abs(ladder.rung(k) - direct).max() < 1e-10


@pytest.mark.parametrize("branching", [2])
def test_model_sector_rungs_are_packed_exact_powers(branching):
    op = model_op(5, 4)  # dim 70
    cfg = choose_base_step(op, horizon=10.0)
    ladder = build_ladder(op, cfg)
    dim = op.basis.dim
    assert ladder.packed
    assert ladder.rungs.shape == (cfg.depth + 1, dim * (dim + 1) // 2)
    assert ladder.nbytes == (cfg.depth + 1) * 8 * dim * (dim + 1)
    u0 = ladder.rung(0)
    assert np.abs(u0 - u0.T).max() == 0.0
    for k in range(1, cfg.depth + 1):
        direct = np.linalg.matrix_power(u0, branching ** k)
        assert np.abs(ladder.rung(k) - direct).max() < 1e-10


@pytest.mark.parametrize("branching", [2])
def test_evolution_matches_eigensolver(branching):
    for kind in GENERATORS:
        rng = np.random.default_rng(5)
        op = random_generator(kind, 60, rng)
        eig = diagonalize(op)
        cfg = choose_base_step(op, horizon=1000.0)
        ladder = build_ladder(op, cfg)
        psi0 = random_unit(60, rng)
        state = StateVector(op.basis, psi0)
        for t in [0.0, 0.37, 5.0, 113.0, 999.0]:
            m, actual = ladder.snap(t)
            moved = evolve_to(ladder, state, t)
            expect = oracles.exact_evolve(eig.energies, eig.vectors, psi0,
                                          actual)
            assert np.abs(moved.amplitudes - expect).max() < 1e-6
            assert abs(moved.norm() - 1.0) < 1e-8


def test_backward_evolution_matches_eigensolver():
    for kind in GENERATORS:
        rng = np.random.default_rng(6)
        op = random_generator(kind, 40, rng)
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
    for kind in GENERATORS:
        rng = np.random.default_rng(7)
        op = random_generator(kind, 30, rng)
        cfg = choose_base_step(op, horizon=100.0)
        ladder = build_ladder(op, cfg)
        v = random_unit(30, rng)
        # all rungs but one, forward and back
        m = ladder.max_steps - 2
        back = ladder.advance(ladder.advance(v, m), -m)
        assert np.abs(back - v).max() < 1e-7


def test_advance_composes():
    for kind in GENERATORS:
        rng = np.random.default_rng(8)
        op = random_generator(kind, 25, rng)
        cfg = choose_base_step(op, horizon=30.0)
        ladder = build_ladder(op, cfg)
        v = random_unit(25, rng)
        # 200 + 41 sets other digits than 200 and 41 do, within 255 steps
        both = ladder.advance(v, 200 + 41)
        split = ladder.advance(ladder.advance(v, 200), 41)
        assert np.abs(both - split).max() < 1e-12


def test_advance_handles_matrix_columns():
    for kind in GENERATORS:
        rng = np.random.default_rng(9)
        op = random_generator(kind, 20, rng)
        ladder = build_ladder(op, choose_base_step(op, horizon=5.0))
        block = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        # three rungs of a five-rung ladder, backward
        m = -(ladder.max_steps - 6)
        together = ladder.advance(block, m)
        for col in range(3):
            alone = ladder.advance(block[:, col], m)
            assert np.abs(together[:, col] - alone).max() < 1e-12


def test_advance_columns_matches_per_column_advance():
    for kind in GENERATORS:
        rng = np.random.default_rng(15)
        op = random_generator(kind, 20, rng)
        ladder = build_ladder(op, PropagatorConfig(base_step=0.01, depth=10))
        steps = [0, 1, -1, 250, -250, 1000, -7, ladder.max_steps, 0, 13]
        block = (rng.normal(size=(20, len(steps)))
                 + 1j * rng.normal(size=(20, len(steps))))
        walked = advance_columns(ladder, block, steps)
        for col, count in enumerate(steps):
            alone = ladder.advance(block[:, col], count)
            assert np.array_equal(walked[:, col], alone)
        assert np.array_equal(walked[:, 0], block[:, 0])


def test_advance_applies_one_rung_per_set_bit(monkeypatch):
    # perfbench/spans.py counts rung applies from config.branching and
    # wraps PropagatorLadder.__dict__["advance"], so both must hold
    assert PropagatorConfig.branching == 2
    assert "advance" in PropagatorLadder.__dict__
    applied = []
    apply = PropagatorLadder._apply

    def counted(self, k, vector, transpose):
        applied.append(k)
        return apply(self, k, vector, transpose)

    monkeypatch.setattr(PropagatorLadder, "_apply", counted)
    for kind in GENERATORS:
        rng = np.random.default_rng(34)
        op = random_generator(kind, 12, rng)
        ladder = build_ladder(op, PropagatorConfig(base_step=0.01, depth=5))
        assert ladder.packed == (kind == "real_symmetric")
        v = random_unit(12, rng)
        for m in [0, 1, -1, 6, ladder.max_steps, -ladder.max_steps]:
            applied.clear()
            ladder.advance(v, m)
            bits = [k for k in range(ladder.config.depth, -1, -1)
                    if abs(m) >> k & 1]
            assert applied == bits, (kind, m)
            assert len(applied) == bin(abs(m)).count("1")


def test_advance_columns_walks_a_block_wider_than_the_sector():
    # dim 6 and 23 columns: the block is walked six columns at a time
    op = model_op(3, 2)
    cfg = choose_base_step(op, horizon=20.0)
    rng = np.random.default_rng(24)
    steps = rng.integers(-cfg.max_steps, cfg.max_steps + 1, size=23)
    steps[:3] = [cfg.max_steps, -cfg.max_steps, 0]
    assert (steps > 0).any() and (steps < 0).any()
    block = (rng.normal(size=(op.basis.dim, steps.size))
             + 1j * rng.normal(size=(op.basis.dim, steps.size)))
    # one read-only state broadcast over the columns, as the time grids walk
    shared = np.broadcast_to(block[:, :1], block.shape)
    for prop in (build_ladder(op, cfg), build_eigen_propagator(op, cfg)):
        for cols in (block, shared):
            walked = advance_columns(prop, cols, steps)
            assert walked.shape == cols.shape
            for col, count in enumerate(steps):
                alone = prop.advance(cols[:, col], count)
                assert np.abs(walked[:, col] - alone).max() < 1e-12


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


def test_snap_rounds_to_the_nearest_lattice_time():
    rng = np.random.default_rng(10)
    op = random_hermitian_op(10, rng)
    cfg = PropagatorConfig(base_step=0.01, depth=6)
    ladder = build_ladder(op, cfg)
    m, actual = ladder.snap(0.034)
    assert m == 3 and actual == pytest.approx(0.03)
    m2, actual2 = ladder.snap(0.03)
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


def taylor_error(order, step, rho, horizon):
    """The truncation model choose_base_step holds to its target."""
    return horizon * rho ** (order + 1) * step ** order / math.factorial(
        order + 1)


# the quench-like long horizons need orders above 4, the last case none up
# to the cap reaches the rule
@pytest.mark.parametrize("sector, horizon, target", [
    ((5, 4), 1000.0, 1e-8), ((5, 6), 1000.0, 1e-8), ((3, 2), 107.0, 1e-6),
    ((3, 2), 10.0, 1e-100)])
def test_choose_base_step_takes_the_lowest_order_that_reaches_the_rule(
        sector, horizon, target):
    op = model_op(*sector)
    cfg = choose_base_step(op, horizon, target_error=target)
    rho = estimate_spectral_radius(op.matrix)
    rule = MAX_STEP_FACTOR / op.max_element()
    order = cfg.taylor_order
    assert MIN_TAYLOR_ORDER < order <= MAX_TAYLOR_ORDER
    assert cfg.base_step <= rule
    assert taylor_error(order, cfg.base_step, rho, horizon) <= target * (
        1.0 + 1e-9)
    # one order lower misses the budget at the rule's step
    assert taylor_error(order - 1, rule, rho, horizon) > target
    if order < MAX_TAYLOR_ORDER:
        assert cfg.base_step == rule
    else:
        assert cfg.base_step < rule
    assert cfg.span >= horizon


@pytest.mark.parametrize("horizon, target", [(1.0, 1e-3), (0.1, 1e-2)])
def test_choose_base_step_keeps_order_four_where_it_reaches_the_rule(
        horizon, target):
    op = model_op(3, 2)
    rho = estimate_spectral_radius(op.matrix)
    rule = MAX_STEP_FACTOR / op.max_element()
    assert taylor_error(4, rule, rho, horizon) <= target
    depth = 0
    while (2 ** (depth + 1) - 1) * rule < horizon:
        depth += 1
    assert choose_base_step(op, horizon, target_error=target) == \
        PropagatorConfig(base_step=rule, depth=depth, taylor_order=4)


def test_long_horizon_ladder_meets_its_target_error():
    # a step far below the rule multiplies the rounding of the rungs: at
    # order 4 this walk to t = 999.9 misses 1e-8 (2.2e-8)
    op = model_op(5, 4)  # dim 70
    target = 1e-8
    ladder = build_ladder(op, choose_base_step(op, 1000.0,
                                               target_error=target))
    eig = diagonalize(op)
    psi0 = occupation_state(op.basis, (4, 0, 0, 0, 0))
    m, actual = ladder.snap(999.9)
    want = oracles.exact_evolve(eig.energies, eig.vectors, psi0.amplitudes,
                                actual)
    assert np.abs(ladder.advance(psi0.amplitudes, m) - want).max() < target


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


def per_column_phase_walk(prop, block, steps, group):
    """advance_columns on a real eigenbasis as it was before step counts
    were shared: one phase column per block column, cut where
    advance_columns cuts, group * max(1, dim // group) columns at a
    time."""
    def walk(cols, counts):
        cols = np.ascontiguousarray(cols)
        coeff = (prop.vectors.T @ cols.view(np.float64)).view(np.complex128)
        phases = np.outer(-1j * prop.energies, counts * prop.base_step)
        coeff *= np.exp(phases, out=phases)
        return (prop.vectors @ coeff.view(np.float64)).view(np.complex128)
    width = group * max(1, prop.basis.dim // group)
    if steps.size <= width:
        return walk(block, steps)
    out = np.empty(block.shape, dtype=np.complex128)
    for lo in range(0, steps.size, width):
        cols = slice(lo, lo + width)
        out[:, cols] = walk(block[:, cols], steps[cols])
    return out


@pytest.mark.parametrize("particles", [5, 7])  # dims 126 and 330
def test_grouped_eigen_walk_is_bit_equal_to_per_column_phases(particles):
    op = model_op(5, particles)
    prop = build_eigen_propagator(op, choose_base_step(op, horizon=107.0))
    dim = op.basis.dim
    rng = np.random.default_rng(particles)
    walks = []
    walk = prop._walk_columns
    prop._walk_columns = lambda block, steps, group: (
        walks.append((block.shape[1], steps.size)) or walk(block, steps, group))
    # runs that fit in one walk, fill it, and cross its cuts, where dim is
    # and is not a multiple of the run
    for group, runs in [(1, dim), (5, 3), (5, dim // 5), (5, 42),
                        (3, dim // 3 + 7), (7, 2 * dim // 7 + 1)]:
        counts = rng.integers(-300, 300, runs)
        counts[::3] = 0
        counts[1::3] = np.abs(counts[1::3])
        counts[2::3] = -np.abs(counts[2::3]) - 1
        block = (rng.normal(size=(dim, group * runs))
                 + 1j * rng.normal(size=(dim, group * runs)))
        walks.clear()
        grouped = advance_columns(prop, block, counts, group)
        # each walk takes whole runs, at most max(1, dim // group) of them
        assert all(width == size * group and size <= max(1, dim // group)
                   for width, size in walks), (group, walks)
        assert sum(size for _, size in walks) == runs
        want = per_column_phase_walk(prop, block, np.repeat(counts, group),
                                     group)
        assert grouped.tobytes() == want.tobytes(), (group, runs)


def test_grouped_ladder_walk_matches_per_column_advance():
    rng = np.random.default_rng(35)
    op = random_hermitian_op(6, rng)
    ladder = build_ladder(op, PropagatorConfig(base_step=0.01, depth=6))
    counts = np.array([3, 0, -5, 17, -1])
    block = rng.normal(size=(6, 15)) + 1j * rng.normal(size=(6, 15))
    walked = advance_columns(ladder, block, counts, 3)
    for col in range(15):
        want = ladder.advance(block[:, col], int(counts[col // 3]))
        assert walked[:, col].tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        advance_columns(ladder, block, counts, 2)


def test_eigen_propagator_keeps_the_ladder_lattice():
    op = model_op(3, 2)
    cfg = choose_base_step(op, horizon=30.0, align_to=0.01)
    ladder = build_ladder(op, cfg)
    prop = build_eigen_propagator(op, cfg)
    assert prop.config is cfg
    assert (prop.base_step, prop.max_steps, prop.span) == \
        (ladder.base_step, ladder.max_steps, ladder.span)
    for t in [0.0, 0.0345, 7.77, -29.9]:
        assert prop.snap(t) == ladder.snap(t)
    with pytest.raises(UnreachableTimeError):
        prop.snap(2.0 * prop.span)
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


def test_eigen_walk_holds_at_most_two_block_sized_arrays():
    op = model_op(5, 6)  # dim 210
    prop = build_eigen_propagator(op, choose_base_step(op, horizon=50.0))
    dim = op.basis.dim
    rng = np.random.default_rng(32)
    # a sweep repeats each count once per mode, given per column or once
    # per run of mode columns; a trajectory repeats none
    for steps, group in ((np.repeat(np.arange(dim // 5) * 4, 5), 1),
                         (np.arange(dim // 5) * 4, 5),
                         (3 * np.arange(-dim // 2, dim // 2), 1)):
        block = (rng.normal(size=(dim, steps.size * group))
                 + 1j * rng.normal(size=(dim, steps.size * group)))
        tracemalloc.start()
        try:
            prop._walk_columns(block, steps, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the energy and step vectors, the two casting buffers of the
        # complex-by-real outer product and 8 KiB for the interpreter's own
        # objects; a third block-sized array would overshoot this by far
        slack = (16 * dim + 8 * steps.size + 2 * 16 * np.getbufsize()
                 + 8192)
        assert peak <= 2 * block.nbytes + slack, (peak, block.nbytes)


@pytest.mark.parametrize("branching", [2])
def test_packed_ladder_build_holds_its_rungs_and_three_dense_matrices(
        branching):
    op = model_op(5, 6)  # dim 210
    cfg = choose_base_step(op, horizon=1000.0)
    dim = op.basis.dim
    tracemalloc.start()
    try:
        ladder = build_ladder(op, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store = (cfg.depth + 1) * 8 * dim * (dim + 1)
    assert ladder.nbytes == store
    # the packed rungs and three dense matrices: the two work matrices of
    # the squarings, with room for the base step's real terms; dense rungs
    # would take twice the store
    assert peak <= store + 3 * 16 * dim * dim, (peak, store)


def test_propagators_report_the_bytes_they_hold():
    op = model_op(3, 2)
    dim = op.basis.dim
    cfg = PropagatorConfig(base_step=1e-3, depth=4)
    assert build_ladder(op, cfg).nbytes == 5 * 8 * dim * (dim + 1)
    assert build_eigen_propagator(op, cfg).nbytes == 8 * dim * (dim + 1)
    rng = np.random.default_rng(33)
    cplx = random_hermitian_op(10, rng)
    assert build_ladder(cplx, cfg).nbytes == 5 * 16 * 100
    # complex eigenvectors and their held conjugate transpose
    assert build_eigen_propagator(cplx, cfg).nbytes == 8 * 10 + 2 * 16 * 100
