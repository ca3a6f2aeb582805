from fractions import Fraction as F

import pytest

from selfsim import automaton as am
from selfsim.automaton import NotAdmissible
from selfsim.field import NumberField, RootBox
from selfsim.intervals import RatInterval
from selfsim.maps import IFS, ScaleBase, Similitude
from selfsim.measure import GlobalSystem, MeasureError, _solve_components, compute_mass_vectors
from selfsim.neighbors import NeighborDecider
from selfsim.oracle import word_sum_entry
from test_solve_reference import _int_rows


def test_root_mass_is_one(pipelines):
    for name in ("cantor-1-3", "golden-bernoulli", "commensurable-osc"):
        model = pipelines(name).measure
        assert model.mass([0]) == 1
        assert model.v[0] == (F(1),)


def test_cantor_masses(cantor):
    model = cantor.measure
    assert cantor.ifs.den == 2
    for e in model.edges[0]:
        assert e.tnum == ((1,),)
        assert model.transition_matrix(0, e.child) == ((F(1, 2),),)
    for addr in model.addresses(3):
        assert model.mass(addr) == F(1, 8)


def test_cantor_biased_probabilities():
    K = NumberField([F(-1, 3), 1], RootBox(RatInterval(0, 1)))
    r = K.gen
    ifs = IFS(K, [Similitude(K, ((r,),), (K.zero,), 1),
                  Similitude(K, ((r,),), (K.from_rational(F(2, 3)),), 1)],
              [F(1, 3), F(2, 3)], ScaleBase(K, ratio=r))
    model = compute_mass_vectors(am.build(ifs, NeighborDecider(ifs)))
    mats = sorted(model.transition_matrix(0, e.child)[0][0] for e in model.edges[0])
    assert mats == [F(1, 3), F(2, 3)]
    assert model.total_mass(6) == 1


def test_lebesgue_interval_lengths(lebesgue):
    model = lebesgue.measure
    # the null overlap states carry exact zeros and are pruned
    assert len(model.kept) == 5
    for d in range(1, 7):
        for addr in model.addresses(d):
            assert model.mass(addr) == F(1, 2**d)


def test_partition_of_unity_exact(pipelines):
    for name in ("cantor-1-3", "lebesgue-1-2", "golden-bernoulli",
                 "commensurable-osc"):
        model = pipelines(name).measure
        for d in range(0, 7):
            assert model.total_mass(d) == 1
        assert sum(model.mass(a) for a in model.addresses(5)) == 1


def test_parent_equals_sum_of_children(golden):
    model = golden.measure
    for addr in model.addresses(3):
        kids = [addr + (e.child,) for e in model.edges[addr[-1]]]
        assert model.mass(addr) == sum(model.mass(k) for k in kids)


def test_self_consistency_of_vectors(pipelines):
    for name in ("golden-bernoulli", "commensurable-osc", "complex-pisot-demo"):
        model = pipelines(name).measure
        for sid in model.kept:
            acc = [F(0)] * model.star_dim(sid)
            for e in model.edges[sid]:
                vs = model.v_star(e.child)
                t = model.transition_matrix(sid, e.child)
                for i in range(len(acc)):
                    acc[i] += sum(t[i][j] * vs[j] for j in range(len(vs)))
            assert tuple(acc) == model.v_star(sid)


@pytest.mark.parametrize("address", [
    pytest.param([], id="empty"),
    pytest.param([-21], id="negative-id"),  # read state 1 from the end
    pytest.param([4], id="null-state"),
    pytest.param([22], id="past-the-states"),
    pytest.param([0, -21], id="negative-step"),
])
def test_product_matrix_refuses_ids_off_the_pruned_model(golden, address):
    model = golden.measure
    assert len(model.automaton.states) == 22 and 4 not in model.kept and 1 in model.kept
    with pytest.raises(NotAdmissible):
        model.product_matrix(address)


@pytest.mark.parametrize("a, b", [(10**6, 0), (-21, 0), (4, 0), (0, 10**6)])
def test_transition_matrix_refuses_ids_off_the_pruned_model(golden, a, b):
    with pytest.raises(NotAdmissible):
        golden.measure.transition_matrix(a, b)


def test_product_matrix_from_a_mass_positive_state(golden):
    # a path need not start at the root: its product starts from the identity
    model = golden.measure
    d = model.star_dim(1)
    assert model.product_matrix([1]) == tuple(tuple(F(int(i == j)) for j in range(d))
                                              for i in range(d))
    e = model.edges[1][0]
    assert model.product_matrix([1, e.child]) == model.transition_matrix(1, e.child)


def test_transition_matrix_errors(cantor):
    model = cantor.measure
    with pytest.raises(NotAdmissible):
        model.transition_matrix(1, 0)
    with pytest.raises(NotAdmissible):
        model.mass([0, 99])


@pytest.mark.parametrize("address", [[0, 0, 0], [0, 99], [1], []])
def test_star_maps_absolute_checks_its_address(cantor, address):
    # the same addresses as mass and u_vector: from the root, over pruned edges
    model = cantor.measure
    with pytest.raises(NotAdmissible):
        model.star_maps_absolute(address)
    with pytest.raises(NotAdmissible):
        model.mass(address)


def test_restricted_columns_positive(pipelines):
    for name in ("golden-bernoulli", "complex-pisot-demo", "commensurable-osc"):
        model = pipelines(name).measure
        for sid in model.kept:
            for e in model.edges[sid]:
                cols = len(e.tnum[0])
                for j in range(cols):
                    assert any(e.tnum[i][j] > 0 for i in range(len(e.tnum)))


def test_u_vectors_positive(golden):
    model = golden.measure
    for addr in model.addresses(5):
        u = model.u_vector(addr)
        assert all(x > 0 for x in u)


def test_global_system_matches_mass(pipelines):
    for name in ("cantor-1-3", "lebesgue-1-2", "golden-bernoulli",
                 "commensurable-osc"):
        pipe = pipelines(name)
        model = pipe.measure
        gs = pipe.global_system
        assert gs.mass_global([0]) == 1
        for addr in model.addresses(4):
            assert gs.mass_global(addr) == model.mass(addr)


def test_dense_matrix_representation(pipelines):
    """e1 . M_{i1} ... M_{in} . w_{in}^T by dense Fraction matrices."""
    for name in ("cantor-1-3", "golden-bernoulli", "commensurable-osc"):
        pipe = pipelines(name)
        model, gs = pipe.measure, pipe.global_system
        dense = [gs.matrix_dense(i) for i in range(len(gs.alphabet))]
        for depth in range(5):
            for addr in model.addresses(depth):
                row = [F(int(j == 0)) for j in range(gs.size)]
                for sid in addr[1:]:
                    m = dense[gs.position[sid]]
                    row = [sum((row[k] * m[k][j] for k in range(gs.size)), F(0))
                           for j in range(gs.size)]
                w = gs.weight_vector(gs.position[addr[-1]])
                value = sum((x * y for x, y in zip(row, w)), F(0))
                assert value == gs.mass_global(addr) == model.mass(addr), (name, addr)


def test_mass_global_is_zero_on_a_step_with_no_block(pipelines):
    for name in ("cantor-1-3", "golden-bernoulli"):
        pipe = pipelines(name)
        model, gs = pipe.measure, pipe.global_system
        cases = [addr + (b,) for addr in model.addresses(1) for b in gs.alphabet
                 if b not in {e.child for e in model.edges[addr[-1]]}]
        assert cases
        for addr in cases:
            assert gs.mass_global(addr) == 0
            with pytest.raises(NotAdmissible):
                model.mass(addr)
            # an admissible step after the missing block keeps the mass at 0
            for e in model.edges[addr[-1]]:
                assert gs.mass_global(addr + (e.child,)) == 0


def test_total_mass_is_the_sum_of_masses(pipelines):
    for name in ("cantor-1-3", "golden-bernoulli", "commensurable-osc",
                 "complex-pisot-demo"):
        model = pipelines(name).measure
        for d in range(6):
            assert model.total_mass(d) == sum(
                (model.mass(a) for a in model.addresses(d)), F(0)), (name, d)


def test_global_dense_blocks(cantor):
    gs = GlobalSystem(cantor.measure)
    n = gs.size
    assert n == 3
    m1 = gs.matrix_dense(1)
    # only the column block of state eta_1 is populated
    assert sum(1 for i in range(n) for j in range(n) if m1[i][j] != 0) >= 1
    assert all(m1[i][0] == 0 for i in range(n))
    w = gs.weight_vector(1)
    assert all(x > 0 for x in w)


def test_product_entries_match_word_sums(cantor, golden):
    """Matrix products along a path equal brute-force word sums, exactly."""
    for pipe in (cantor, golden):
        model = pipe.measure
        ifs = pipe.ifs
        for depth in range(1, 5):
            for addr in model.addresses(depth):
                mat = model.product_matrix(addr)
                start = model.star_maps_absolute([0])
                end = model.star_maps_absolute(addr)
                for i, hi in enumerate(start):
                    for j, hj in enumerate(end):
                        target = hi.inverse().compose(hj)
                        assert mat[i][j] == word_sum_entry(ifs, target, depth)


def test_overlap_words_exist(golden):
    # entries built from two or more contributing words occur under overlap
    ifs = golden.ifs
    model = golden.measure
    found = False
    for addr in model.addresses(3):
        mat = model.product_matrix(addr)
        for row in mat:
            for x in row:
                if x > 0 and x not in (F(1, 8),):
                    found = True
    assert found


def _solve_rows(rows):
    """The one-pass solve on hand-written rows; component k is state k."""
    den, int_rows = _int_rows(rows)
    return _solve_components([(k, 0) for k in range(len(rows))], int_rows, den)


@pytest.mark.parametrize("cycle", [
    [[(3, F(1, 2))], [(2, F(1))]],
    # total weight 1 - 2^-60, which is 1.0 as a float
    [[(3, 1 - F(1, 2**60))], [(2, F(1))]],
    # eigenvalue 1 with the mixed-sign null vector (1, -1), spectral radius 3
    [[(2, F(2)), (3, F(1))], [(2, F(1)), (3, F(2))]],
], ids=["half", "one-minus-2^-60", "radius-3"])
def test_zero_inflow_class_off_radius_one_is_exactly_null(cycle):
    # 0 feeds the carrier loop at 1 and the class {2, 3}; 4 feeds only {2, 3}
    rows = [[(1, F(1, 2)), (2, F(1, 2))], [(1, F(1))], *cycle, [(2, F(1, 3))]]
    v = _solve_rows(rows)
    assert v[2] == v[3] == v[4] == 0
    assert v[1] > 0 and v[0] == v[1] / 2


def test_two_incomparable_unit_classes_underdetermined():
    rows = [[(1, F(1, 2)), (2, F(1, 2))],
            [(1, F(1))],
            [(2, F(1))]]
    with pytest.raises(MeasureError, match="underdetermined"):
        _solve_rows(rows)


@pytest.mark.parametrize("name, den", [
    ("cantor-1-3", 2), ("lebesgue-1-2", 2), ("golden-bernoulli", 2),
    ("golden-gasket-conjugated", 3), ("complex-pisot-demo", 2), ("commensurable-osc", 9),
])
def test_edge_matrices_are_ints_over_one_denominator(pipelines, name, den):
    pipe = pipelines(name)
    ifs, model = pipe.ifs, pipe.measure
    assert ifs.den == den
    for tag in range(ifs.k_max):
        for br in ifs.bridges(tag):
            assert type(br.weight) is int
            assert ifs.word(br.letters).probability * den == br.weight
    for sid in model.kept:
        for e in model.edges[sid]:
            t = model.transition_matrix(sid, e.child)
            assert all(type(n) is int for row in e.tnum for n in row)
            assert t == tuple(tuple(F(n, den) for n in row) for row in e.tnum)
