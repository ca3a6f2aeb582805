from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BUNDLED
from selfsim.config import IfsConfig, load_bundled
from selfsim.field import FieldError, NumberField, RootBox
from selfsim.intervals import RatInterval, RectInterval
from selfsim.maps import (IFS, MapError, ScaleBase, Similitude, dist_sq_interval, mat_mul,
                          mat_vec)

K = NumberField([-1, 1, 1], RootBox(RatInterval(0, 1)))
RHO = K.gen


def one_d(lin, tr, k=1):
    return Similitude(K, ((lin,),), (tr,), k)


S1 = one_d(RHO, K.zero)
S2 = one_d(RHO, K.one - RHO)
GOLDEN = IFS(K, [S1, S2], [F(1, 2), F(1, 2)], ScaleBase(K, ratio=RHO))

KQ = NumberField([F(-1, 2), 1], RootBox(RatInterval(0, 1)))
R2 = KQ.gen
T1 = Similitude(KQ, ((R2,),), (KQ.zero,), 1)
T2 = Similitude(KQ, ((R2 * R2,),), (KQ.from_rational(F(3, 4)),), 2)
COMM = IFS(KQ, [T1, T2], [F(2, 3), F(1, 3)], ScaleBase(KQ, ratio=R2),
           mode="commensurable")


def test_compose_golden():
    c = S1.compose(S2)
    assert c.linear[0][0] == K.one - RHO            # rho^2 canonical
    assert c.translation[0] == K.element([-1, 2])   # 2 rho - 1
    assert c.exponent == 2
    ident = Similitude.identity(K, 1)
    assert ident.compose(S1) == S1 and S1.compose(ident) == S1


def test_compose_with_inverse():
    v = S2.compose(S1.inverse()).apply((K.zero,))
    assert v[0] == K.one - RHO


def test_invert():
    ident = Similitude.identity(K, 1)
    assert ident.inverse() == ident
    s3 = one_d(RHO, K.one)
    i3 = s3.inverse()
    assert i3.linear[0][0] == RHO + K.one
    assert i3.translation[0] == -(RHO + K.one)
    assert s3.compose(i3) == ident and i3.compose(s3) == ident


def test_equality_and_apply():
    assert S1.compose(S2) != S2.compose(S1)
    assert S1.apply((K.zero,)) == (K.zero,)
    assert S1 == S1 and S1 != S2


def test_equality_requires_same_field():
    from selfsim.config import load_bundled
    from selfsim.pipeline import Pipeline

    a, b = (Pipeline(load_bundled("golden-bernoulli")).ifs for _ in range(2))
    assert a.field is not b.field
    # within one field: equal coefficients give equal maps
    assert a.maps[1] == a.map_of_word((1,)) and a.maps[1] is not a.map_of_word((1,))
    # across two fields built from the same polynomial they differ
    for f, g in zip(a.maps, b.maps):
        assert f.key() == g.key()
        assert f != g
    assert a.map_of_word((0, 1)) != b.map_of_word((0, 1))


def test_fixed_points():
    assert S1.fixed_point() == (K.zero,)
    assert S2.fixed_point() == (K.one,)


def test_stopping_words_equicontractive():
    ws = GOLDEN.stopping_words(2)
    assert [w.letters for w in ws] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(w.probability == F(1, 4) for w in ws)


def test_stopping_words_commensurable():
    ws = COMM.stopping_words(2)
    assert sorted(w.letters for w in ws) == [(0, 0), (0, 1), (1,)]
    assert COMM.stopping_words(0)[0].letters == ()


def test_stopping_words_prefix_free_cover():
    # every long word has exactly one prefix in the stopping set
    for ifs, n, depth in ((GOLDEN, 3, 5), (COMM, 4, 6)):
        stops = {w.letters for w in ifs.stopping_words(n)}
        def walk(prefix):
            hits = sum(1 for s in stops
                       if len(s) <= len(prefix) and prefix[:len(s)] == s)
            if len(prefix) == depth:
                assert hits == 1, prefix
                return
            for i in range(ifs.m):
                walk(prefix + (i,))
        walk(())


def test_bridges_tags():
    br = COMM.bridges(0)
    assert [(b.letters, b.new_tag) for b in br] == [((0, 0), 0), ((0, 1), 1), ((1,), 0)]
    br1 = COMM.bridges(1)
    assert [(b.letters, b.new_tag) for b in br1] == [((0,), 0), ((1,), 1)]
    with pytest.raises(MapError):
        COMM.bridges(2)


def test_validation_catches_bad_systems():
    with pytest.raises(MapError):
        IFS(K, [S1, S2], [F(1, 2), F(1, 3)], ScaleBase(K, ratio=RHO))
    with pytest.raises(MapError):
        IFS(K, [S1, S1], [F(1, 2), F(1, 2)], ScaleBase(K, ratio=RHO))
    bad = Similitude(K, ((K.one,),), (K.zero,), 1)   # |linear| != rho
    with pytest.raises(MapError):
        IFS(K, [bad, S2], [F(1, 2), F(1, 2)], ScaleBase(K, ratio=RHO))


def test_rotation_orthogonality():
    # quarter turn times 1/2 in the rational field
    KD = NumberField([F(-1, 2), 1], RootBox(RatInterval(0, 1)))
    h = KD.gen
    z = KD.zero
    rot = Similitude(KD, ((z, -h), (h, z)), (z, z), 1)
    shift = Similitude(KD, ((h, z), (z, h)), (KD.one, z), 1)
    ifs = IFS(KD, [rot, shift], [F(1, 2), F(1, 2)], ScaleBase(KD, ratio=h))
    assert ifs.dim == 2
    comp = rot.compose(rot)
    assert comp.exponent == 2
    assert comp.linear[0][0] == KD.from_rational(F(-1, 4))


def test_orthogonality_check_in_the_plane():
    # r diag(1, -1) is a reflection (det < 0) and passes; a shear and r^2 R
    # for a rotation R (ratio r^2 at exponent 1) are each refused on their own
    KD = NumberField([F(-1, 2), 1], RootBox(RatInterval(0, 1)))
    h, z = KD.gen, KD.zero
    shift = Similitude(KD, ((h, z), (z, h)), (KD.one, z), 1)

    def system(linear):
        return IFS(KD, [Similitude(KD, linear, (z, z), 1), shift],
                   [F(1, 2), F(1, 2)], ScaleBase(KD, ratio=h))

    assert system(((h, z), (z, -h))).dim == 2
    for linear in (((h, h), (z, h)), ((z, -h * h), (h * h, z))):
        with pytest.raises(MapError, match="not r\\^k-orthogonal"):
            system(linear)


letters = st.lists(st.integers(0, 1), min_size=0, max_size=6)


@settings(max_examples=40, deadline=None)
@given(letters, letters)
def test_compose_exponent_and_involution(aw, bw):
    f = GOLDEN.map_of_word(aw)
    g = GOLDEN.map_of_word(bw)
    assert f.compose(g).exponent == f.exponent + g.exponent
    assert f.inverse().inverse() == f
    assert f.compose(f.inverse()) == GOLDEN.identity_map()


@settings(max_examples=30, deadline=None)
@given(letters, letters)
def test_orthogonality_preserved(aw, bw):
    # L^T L = (r^2)^k exactly for composites and inverses
    h = GOLDEN.map_of_word(aw).compose(GOLDEN.map_of_word(bw).inverse())
    want = GOLDEN.base.ratio_sq ** h.exponent
    lt_l = h.linear[0][0] * h.linear[0][0]
    assert lt_l == want


@settings(max_examples=30, deadline=None)
@given(letters, letters)
def test_word_probability_product(aw, bw):
    wa = GOLDEN.word(aw)
    wb = GOLDEN.word(bw)
    wc = GOLDEN.word(tuple(aw) + tuple(bw))
    assert wc.probability == wa.probability * wb.probability
    assert wc.exponent == wa.exponent + wb.exponent


# -- a complex map z -> c z + t is the 1x1 case of x -> L x + t ---------------

KC = NumberField([F(1, 2), -1, 1], RootBox(RatInterval(0, 1), RatInterval(F(1, 4), 1)),
                 complex_embedding=True)

small_q = st.fractions(min_value=-3, max_value=3, max_denominator=6)
dragon_el = st.tuples(small_q, small_q).map(KC.element)
nonzero_el = dragon_el.filter(lambda c: not c.is_zero())


def complex_map(c, t, k=1):
    return Similitude(KC, ((c,),), (t,), k)


def _flat(x):
    # the per-coefficient Fraction (numerator, denominator) pairs of an element
    return tuple(v for q in x.coeffs for v in (q.numerator, q.denominator))


def _scalar_key(e, c, t):
    return (e, _flat(c), _flat(t))


def _fraction_key(s):
    return (s.exponent, tuple(_flat(c) for row in s.linear for c in row),
            tuple(_flat(c) for c in s.translation))


@settings(max_examples=40, deadline=None)
@given(nonzero_el, dragon_el, nonzero_el, dragon_el, dragon_el)
def test_complex_map_matches_scalar_formulas(c1, t1, c2, t2, z):
    s1, s2 = complex_map(c1, t1), complex_map(c2, t2, 2)
    comp = s1.compose(s2)
    assert comp.linear == ((c1 * c2,),) and comp.translation == (c1 * t2 + t1,)
    assert comp.exponent == 3
    inv = s1.inverse()
    assert inv.linear == ((c1.inverse(),),) and inv.translation == (-(t1 / c1),)
    assert s1.apply((z,)) == (c1 * z + t1,)
    if c1 != KC.one:
        assert s1.fixed_point() == (t1 / (KC.one - c1),)
    assert str(s1) == f"z->({c1})*z+({t1})"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 3), nonzero_el, dragon_el),
                min_size=2, max_size=8))
def test_complex_map_key_sorts_like_scalar_key(specs):
    maps = [complex_map(c, t, e) for e, c, t in specs]
    assert all(m.key() == _fraction_key(m) for m in maps)
    by_key = sorted(range(len(maps)), key=lambda i: maps[i].key())
    by_scalar = sorted(range(len(maps)), key=lambda i: _scalar_key(*specs[i]))
    assert by_key == by_scalar


@settings(max_examples=30, deadline=None)
@given(dragon_el, dragon_el, st.tuples(small_q, small_q), st.tuples(small_q, small_q))
def test_dist_sq_interval_encloses_the_exact_square(z, w, p, q):
    # complex: |z - w|^2 = (z - w) * conj(z - w), the real slice of its rectangle
    d = z - w
    assert dist_sq_interval((z,), (w,)) == (d * d.conjugate()).enclosure(96).re
    # real 2-D: the sum of squared coordinate differences
    a = tuple(K.from_rational(x) + RHO for x in p)
    b = tuple(K.from_rational(x) for x in q)
    exact = sum(((x - y) * (x - y) for x, y in zip(a, b)), start=K.zero)
    assert dist_sq_interval(a, b) == exact.enclosure(96)


def test_a_complex_field_must_be_quadratic():
    # x^3 + x^2 - 1 and its root near -0.877 + 0.745i: conjugation is no
    # automorphism of a cubic field, so |c|^2 is not an element of it
    cubic = NumberField([-1, 0, 1, 1], RootBox(RatInterval(-1, F(-3, 4)), RatInterval(F(1, 2), 1)),
                        complex_embedding=True)
    with pytest.raises(MapError, match=r"quadratic.*\"dimension\": 2"):
        ScaleBase(cubic, ratio_sq=cubic.from_rational(F(1, 4)))
    with pytest.raises(FieldError, match="quadratic"):
        cubic.gen.conjugate()
    with pytest.raises(FieldError, match="quadratic"):
        cubic.gen.modulus_sq()
    # over a quadratic field the modulus check is exact equality
    base = ScaleBase(KC, ratio_sq=KC.from_rational(F(1, 2)))
    rho = KC.gen
    IFS(KC, [complex_map(rho, KC.zero), complex_map(rho, KC.one)], [F(1, 2), F(1, 2)], base)
    with pytest.raises(MapError, match=r"\|c\|\^2 != r\^\(2k\)"):
        IFS(KC, [complex_map(rho * KC.from_rational(F(1, 2)), KC.zero)], [F(1)], base)


def test_intervals_compare_by_value():
    d2 = dist_sq_interval((RHO, K.zero), (K.zero, K.from_rational(F(1, 3))))
    fresh = RatInterval(d2.lo, d2.hi)
    assert fresh is not d2 and fresh == d2 and hash(fresh) == hash(d2)
    assert len({d2, fresh}) == 1
    assert d2 != RatInterval(d2.lo, d2.hi + 1) and d2 != RatInterval(d2.lo - 1, d2.hi)
    box = RectInterval(d2, RatInterval(0, 1))
    assert box == RectInterval(fresh, RatInterval(F(0), F(1)))
    assert hash(box) == hash(RectInterval(fresh, RatInterval(0, 1)))
    assert box != RectInterval(d2, RatInterval(0, 2)) and box != RectInterval(fresh, fresh)
    assert d2 != box and d2 != d2.lo


# -- mat_mul and mat_vec skip zero factors; the sums must not change -----------

golden_el = st.tuples(small_q, small_q).map(K.element)


def _dense_dot(u, v):
    # the plain sum of all d products, zero factors included
    terms = [x * y for x, y in zip(u, v)]
    return sum(terms[1:], start=terms[0])


def _dense_mul(a, b):
    return tuple(tuple(_dense_dot(row, col) for col in zip(*b)) for row in a)


def _dense_vec(a, v):
    return tuple(_dense_dot(row, v) for row in a)


@st.composite
def sparse_system(draw):
    """(field, a, b, v, w, zero row of a, zero column of b): d x d matrices and
    d-vectors over the golden or the dragon field, entries zero about half of
    the time."""
    field, el = draw(st.sampled_from([(K, golden_el), (KC, dragon_el)]))
    d = draw(st.integers(1, 3))
    entry = st.one_of(st.just(field.zero), el)

    def matrix():
        return [[draw(entry) for _ in range(d)] for _ in range(d)]

    a, b = matrix(), matrix()
    v, w = (tuple(draw(entry) for _ in range(d)) for _ in range(2))
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    a[i] = [field.element([0, 0]) for _ in range(d)]  # a zero built afresh, not field.zero
    for row in b:
        row[j] = field.zero
    return field, tuple(map(tuple, a)), tuple(map(tuple, b)), v, w, i, j


def _is_zero_of(x, field):
    return x == field.zero and hash(x) == hash(field.zero)


@settings(max_examples=80, deadline=None)
@given(sparse_system())
def test_zero_skipping_products_equal_the_dense_sums(system):
    field, a, b, v, _w, i, j = system
    prod = mat_mul(a, b)
    assert prod == _dense_mul(a, b)
    assert mat_vec(a, v) == _dense_vec(a, v)
    assert all(_is_zero_of(x, field) for x in prod[i])            # a's zero row
    assert all(_is_zero_of(row[j], field) for row in prod)        # b's zero column
    assert _is_zero_of(mat_vec(a, v)[i], field)
    assert all(_is_zero_of(x, field) for x in mat_vec(a, tuple(field.zero for _ in v)))


@pytest.mark.parametrize("field", [K, KC])
def test_zero_skipping_one_by_one(field):
    x = field.element([F(2, 3), F(-1, 2)])
    for a, b in ((field.zero, x), (x, field.zero), (field.zero, field.zero)):
        out, = mat_vec(((a,),), (b,))
        assert _is_zero_of(out, field) and mat_mul(((a,),), ((b,),)) == ((out,),)
    assert mat_mul(((x,),), ((x,),)) == ((x * x,),) and mat_vec(((x,),), (x,)) == (x * x,)


@settings(max_examples=60, deadline=None)
@given(sparse_system(), st.integers(-2, 3), st.integers(-2, 3))
def test_compose_key_matches_the_dense_reference(system, ks, kt):
    field, a, b, v, w, _i, _j = system
    s, t = Similitude(field, a, v, ks), Similitude(field, b, w, kt)
    s_of_w = tuple(x + y for x, y in zip(_dense_vec(a, w), v))
    dense = Similitude(field, _dense_mul(a, b), s_of_w, ks + kt)
    assert s.compose(t).key() == dense.key()
    assert s.apply(w) == s_of_w


def test_dragon_maps_are_one_by_one(dragon):
    auto = dragon.automaton
    maps = list(dragon.ifs.maps) + list(dragon.decider.gamma_maps())
    for st_ in auto.states:
        maps.extend(st_.umaps)
        maps.append(st_.rmap)
    assert len(maps) > len(dragon.ifs.maps)
    for s in maps:
        assert len(s.linear) == 1 and len(s.linear[0]) == 1
        assert len(s.translation) == 1


@pytest.mark.parametrize("name", BUNDLED)
def test_map_key_is_the_fraction_key(pipelines, name):
    # the key orders Gamma, the DOT numbering and the automaton's canonical
    # states, so it must stay the Fraction pairs whatever the element form
    pipe = pipelines(name)
    maps = list(pipe.decider.gamma_maps())
    for st_ in pipe.automaton.states:
        maps.extend(st_.umaps)
        maps.append(st_.rmap)
    assert len(maps) > len(pipe.automaton.states)
    for s in maps:
        assert s.key() == _fraction_key(s)


_GASKET_3D = Path(__file__).parent / "data" / "golden-gasket-3d.json"


def _fresh_ifs(name):
    # a new field: the ball's enclosures are those a fresh build makes
    cfg = IfsConfig.load(_GASKET_3D) if name == "golden-gasket-3d" else load_bundled(name)
    return cfg.build_ifs()


@pytest.mark.parametrize("name", BUNDLED + ["golden-gasket-3d"])
def test_ball_is_invariant_under_every_generator(name):
    # the definition of the ball, checked apart from its construction:
    # S_i(B) lies in B, i.e. |S_i(c) - c| + r^k_i R <= R, certified on
    # enclosures finer than the 96 bits the ball is built with
    ifs = _fresh_ifs(name)
    ball = ifs.ball
    assert ball.radius_sq == ball.radius ** 2 and ball.radius > 0
    radius = RatInterval.point(ball.radius)
    for s in ifs.maps:
        d2 = dist_sq_interval(s.apply(ball.center), ball.center, 160)
        room = radius - ifs.base.ratio_interval(s.exponent, 160) * radius  # (1 - r^k) R
        assert room.lo >= 0 and d2.hi <= room.lo ** 2


@pytest.mark.parametrize("name, radius", [
    ("golden-gasket-conjugated",
     F(4251829370743097047106441445376, 2178897495425902889443084854501)),
    ("golden-gasket-3d",
     F(525540175778231015357799464960, 242099721713989209938120539389)),
])
def test_ball_radius_is_pinned(name, radius):
    # the radius the neighbour closure has always filtered with: a change
    # here can move which candidates the ball test drops
    assert _fresh_ifs(name).ball.radius == radius
