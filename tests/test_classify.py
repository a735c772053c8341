import itertools

import numpy as np
import pytest

from bpblab import (
    enumerate_extreme_linf3_l13,
    enumerate_isometries,
    equivalence_orbit,
    is_extreme_contraction,
    is_isometry,
    l1,
    l1_column_condition,
    l2,
    linf,
    linf_row_condition,
    lp,
    op_norm,
    operator,
)
from bpblab.classify import (
    CANONICAL_BLOCK_3,
    CANONICAL_RANK_ONE_3,
    _extreme_census,
    _one_unimodular_per_line,
    all_signed_permutations,
    census_lookup,
    orbit_with_witnesses,
)
from bpblab.errors import InfiniteGroupError, NormNotOneError, WrongSpacesError
from bpblab.spaces import TAU_EQ


class TestRowCondition:
    def test_signed_permutation_passes(self):
        T = operator([[1.0, 0.0], [0.0, -1.0]], linf(2), linf(2))
        assert linf_row_condition(T)

    def test_repeated_column_passes(self):
        T = operator([[1.0, 0.0], [1.0, 0.0]], linf(2), linf(2))
        assert linf_row_condition(T)

    def test_split_row_fails(self):
        T = operator([[0.5, 0.5], [0.0, 1.0]], linf(2), linf(2))
        assert not linf_row_condition(T)

    def test_wrong_spaces_rejected(self):
        with pytest.raises(WrongSpacesError):
            linf_row_condition(operator(np.eye(2), l1(2), l1(2)))


class TestColumnCondition:
    def test_identity_passes(self):
        assert l1_column_condition(operator(np.eye(2), l1(2), l1(2)))

    def test_doubled_row_passes(self):
        T = operator([[1.0, 1.0], [0.0, 0.0]], l1(2), l1(2))
        assert l1_column_condition(T)

    def test_split_column_fails(self):
        T = operator([[0.5, 0.0], [0.5, 1.0]], l1(2), l1(2))
        assert not l1_column_condition(T)


class TestExtremality:
    def test_block_canonical_is_extreme(self):
        T = operator([[0.5, 0.5], [0.5, -0.5]], linf(2), l1(2))
        assert is_extreme_contraction(T).is_extreme

    def test_rank_one_mixed_pair_is_extreme(self):
        T = operator([[1.0, 0.0], [0.0, 0.0]], linf(2), l1(2))
        assert is_extreme_contraction(T).is_extreme

    def test_midpoint_is_not_extreme(self):
        T = operator([[1.0, 0.0], [0.0, 0.0]], linf(2), linf(2))
        verdict = is_extreme_contraction(T)
        assert verdict.status == "not_extreme"
        D = verdict.witness
        assert np.abs(D).max() > 1e-7
        for sgn in (1.0, -1.0):
            v, _ = op_norm(operator(T.entries + sgn * D, linf(2), linf(2)))
            assert v <= 1.0 + 1e-7

    @pytest.mark.parametrize(
        "T",
        [
            operator(np.diag([1.0, 0.5]), lp(3, 2), lp(3, 2)),
            operator([[1.0, 0.0], [0.0, 0.0]], l2(2), l2(2)),
            operator([[0.6, 0.0], [0.8, 0.0]], linf(2), l2(2)),
        ],
    )
    def test_pair_outside_the_rank_test_gets_no_verdict(self, T):
        verdict = is_extreme_contraction(T)
        assert (verdict.status, verdict.method, verdict.witness) == (
            "necessary_condition_only", "none", None
        )

    def test_norm_not_one_rejected(self):
        with pytest.raises(NormNotOneError):
            is_extreme_contraction(operator([[0.5, 0.0], [0.0, 0.0]], linf(2), linf(2)))

    def test_agrees_with_brute_force_on_2x2_polyhedral(self):
        cases = [
            operator(np.eye(2), linf(2), linf(2)),
            operator([[1.0, 0.0], [0.0, 0.0]], linf(2), linf(2)),
            operator([[0.5, 0.5], [0.5, -0.5]], linf(2), l1(2)),
            operator([[1.0, 1.0], [0.0, 0.0]], l1(2), l1(2)),
            operator([[1.0, 0.0], [0.0, 0.5]], l1(2), linf(2)),
        ]
        # perturbation directions in {-1, 0, 1}^(2x2): the faces of these
        # balls are spanned by such matrices, where a Gaussian draw never lands
        directions = [
            np.array(d, dtype=float).reshape(2, 2)
            for d in itertools.product((-1, 0, 1), repeat=4)
            if any(d)
        ]
        fired = 0
        for T in cases:
            v, _ = op_norm(T)
            T = (1.0 / v) * T
            verdict = is_extreme_contraction(T)
            # brute force: every direction, magnitude scan; a brute hit
            # proves non-extremality (the converse search can miss
            # directions outside the lattice, so the check is one-sided)
            brute_not_extreme = False
            for D in directions:
                D = D / np.abs(D).sum()
                for t in (0.5, 0.1, 0.02):
                    n1, _ = op_norm(operator(T.entries + t * D, T.domain, T.codomain))
                    n2, _ = op_norm(operator(T.entries - t * D, T.domain, T.codomain))
                    if n1 <= 1 + 1e-9 and n2 <= 1 + 1e-9:
                        brute_not_extreme = True
            if brute_not_extreme:
                fired += 1
                assert not verdict.is_extreme
            if not verdict.is_extreme:
                D = verdict.witness
                assert np.abs(D).max() > 1e-7
                for sgn in (1.0, -1.0):
                    v, _ = op_norm(operator(T.entries + sgn * D, T.domain, T.codomain))
                    assert v <= 1.0 + 1e-7
        assert fired >= 1


class TestIsometry:
    def test_quarter_turn_on_p3(self):
        T = operator([[0.0, -1.0], [1.0, 0.0]], lp(3, 2), lp(3, 2))
        assert is_isometry(T)

    def test_rotation_on_euclidean_plane(self):
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        T = operator([[c, -s], [s, c]], l2(2), l2(2))
        assert is_isometry(T)

    def test_rotation_fails_on_p4(self):
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        T = operator([[c, -s], [s, c]], lp(4, 2), lp(4, 2))
        assert not is_isometry(T)

    def test_wrong_spaces(self):
        with pytest.raises(WrongSpacesError):
            is_isometry(operator(np.eye(2), linf(2), l1(2)))


def old_is_signed_permutation_matrix(M, tol=TAU_EQ):
    """The signed-permutation rule `is_isometry` used on p != 2 before it
    became one unimodular entry per row and per column: strict `< tol`
    where the row and column conditions allow `<= TAU_EQ`."""
    if M.shape[0] != M.shape[1]:
        return False
    A = np.abs(M)
    near_one = np.abs(A - 1.0) < tol
    near_zero = A < tol
    if not (near_one | near_zero).all():
        return False
    return bool((near_one.sum(axis=0) == 1).all() and (near_one.sum(axis=1) == 1).all())


# an entry of exactly TAU_EQ: zero for the row and column conditions, not
# for the old rule
BOUNDARY = [
    (np.array([[1.0, 1e-9], [0.0, 1.0]]), linf(2)),
    (np.array([[1.0, 0.0], [1e-9, 1.0]]), l1(2)),
]


class TestSignedPermutationRule:
    def test_agrees_with_the_old_rule_off_the_boundary(self):
        rng = np.random.default_rng(7)
        perms = [m for n in (2, 3) for m in all_signed_permutations(n)]
        assert len(perms) == 56
        dense = [rng.standard_normal((3, 3)) for _ in range(200)]
        integer = [rng.integers(-1, 2, size=(3, 3)).astype(float) for _ in range(100)]
        for _ in range(100):
            M = np.zeros((3, 3))
            M[np.arange(3), rng.integers(0, 3, size=3)] = rng.choice([-1.0, 1.0], size=3)
            integer.append(M)
        verdicts = []
        for M in perms + dense + integer:
            for s in (linf(len(M)), l1(len(M)), lp(3, len(M))):
                new = is_isometry(operator(M, s, s))
                assert new == old_is_signed_permutation_matrix(M)
                verdicts.append(new)
        assert sum(verdicts) > 3 * len(perms)

    @pytest.mark.parametrize("M, s", BOUNDARY)
    def test_boundary_entry_is_read_as_zero(self, M, s):
        T = operator(M, s, s)
        assert is_isometry(T) and not old_is_signed_permutation_matrix(M)
        assert linf_row_condition(T) if s == linf(2) else l1_column_condition(T)


def loop_one_unimodular_per_line(M):
    """`_one_unimodular_per_line` as a loop over the rows, one boolean
    index per row."""
    for row in M:
        nz = row[np.abs(row) > TAU_EQ]
        if len(nz) != 1 or abs(abs(nz[0]) - 1.0) > TAU_EQ:
            return False
    return True


def _one_unimodular_per_row(n):
    """Every n x n matrix with one +/-1 per row, signed permutations
    included."""
    rows = np.arange(n)
    for cols in itertools.product(range(n), repeat=n):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            M = np.zeros((n, n))
            M[rows, cols] = signs
            yield M


def _seeded_matrices(count, seed):
    """Dense Gaussian and half-integer 2x2 and 3x3 matrices, none zero."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = 2 + len(out) % 2
        if len(out) % 4 < 2:
            M = rng.standard_normal((n, n))
        else:
            M = rng.integers(-2, 3, size=(n, n)) / 2.0
        if M.any():
            out.append(M)
    return out


def _unimodular_cases():
    """(operator, its row or column condition) on l_inf^n and l_1^n, n = 2
    and 3: every one-unimodular-per-row matrix on l_inf and its transpose
    on l_1, then 400 seeded matrices scaled to norm one."""
    cases = []
    for n in (2, 3):
        for M in _one_unimodular_per_row(n):
            cases.append((operator(M, linf(n), linf(n)), linf_row_condition))
            cases.append((operator(M.T, l1(n), l1(n)), l1_column_condition))
    for k, M in enumerate(_seeded_matrices(400, 61)):
        s, condition = ((linf, linf_row_condition), (l1, l1_column_condition))[k % 2]
        T = operator(M, s(len(M)), s(len(M)))
        cases.append((T * (1.0 / op_norm(T)[0]), condition))
    return cases


class TestOneUnimodularPerLine:
    def test_one_mask_matches_the_row_loop(self):
        mats = [M for n in (2, 3) for M in _one_unimodular_per_row(n)]
        assert len(mats) == 16 + 216
        mats += [M.T for M in mats] + _seeded_matrices(400, 67) + [M for M, _ in BOUNDARY]
        verdicts = []
        for M in mats:
            verdicts.append(_one_unimodular_per_line(M))
            assert verdicts[-1] == loop_one_unimodular_per_line(M), M
        assert set(verdicts) == {True, False}

    def test_row_and_column_conditions_are_extremality(self):
        # the operator ball of l_inf^n (l_1^n) is the product of the rows'
        # (columns') l_1 balls, so the condition is exactly extremality
        verdicts = []
        for T, condition in _unimodular_cases():
            verdicts.append(condition(T))
            assert is_extreme_contraction(T).is_extreme == verdicts[-1], T
        assert verdicts.count(True) >= 2 * (16 + 216) and False in verdicts


class TestIsometryEnumeration:
    def test_plane_count(self):
        assert len(enumerate_isometries(lp(3, 2))) == 8

    def test_cube_count(self):
        assert len(enumerate_isometries(linf(3))) == 48

    def test_one_dimensional(self):
        mats = enumerate_isometries(l1(1))
        assert sorted(float(m.entries[0, 0]) for m in mats) == [-1.0, 1.0]

    def test_group_closure_and_inverses(self):
        mats = [m.entries for m in enumerate_isometries(linf(2))]
        keys = {tuple(np.round(m, 9).reshape(-1)) for m in mats}
        for a, b in itertools.product(mats, repeat=2):
            assert tuple(np.round(a @ b, 9).reshape(-1)) in keys
        for a in mats:
            assert tuple(np.round(np.linalg.inv(a), 9).reshape(-1)) in keys

    def test_hilbert_group_is_infinite(self):
        with pytest.raises(InfiniteGroupError):
            enumerate_isometries(l2(2))


class TestOrbits:
    def test_identity_orbit_is_the_isometry_group(self):
        orbit = equivalence_orbit(operator(np.eye(2), linf(2), linf(2)))
        assert len(orbit) == 8

    def test_rank_one_orbit_size(self):
        A = operator(
            [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], linf(3), l1(3)
        )
        assert len(equivalence_orbit(A)) == 18

    def test_block_orbit_size(self):
        A = operator(
            [[0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 0.0]], linf(3), l1(3)
        )
        assert len(equivalence_orbit(A)) == 72

    def test_witnesses_reconstruct_members(self):
        A = operator(
            [[0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 0.0]], linf(3), l1(3)
        )
        wit = orbit_with_witnesses(A)
        for B, L, R in list(wit.values())[:10]:
            assert np.abs(L @ A.entries @ R - B).max() < 1e-12

    @pytest.mark.parametrize(
        "entries, dom, cod, shape",
        [(np.ones((2, 3)), linf(3), l1(2), "2 x 3"), (np.ones((3, 2)), lp(3, 2), l2(3), "3 x 2")],
    )
    def test_non_square_operator_is_refused(self, entries, dom, cod, shape, monkeypatch):
        def refuse(n):
            raise AssertionError("the orbit was enumerated before the shape was checked")

        monkeypatch.setattr("bpblab.classify.all_signed_permutations", refuse)
        with pytest.raises(WrongSpacesError, match=shape):
            orbit_with_witnesses(operator(entries, dom, cod))

    def test_orbit_preserves_norm(self):
        A = operator(
            [[0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 0.0]], linf(3), l1(3)
        )
        for B in equivalence_orbit(A)[:12]:
            v, _ = op_norm(B)
            assert v == pytest.approx(1.0, abs=1e-12)


def loop_orbit_with_witnesses(A):
    """`orbit_with_witnesses` as one product L A R at a time, keyed by a
    tuple of numpy floats."""
    mats = list(all_signed_permutations(A.domain.n))
    out = {}
    for L in mats:
        LA = L @ A.entries
        for R in mats:
            B = LA @ R
            key = tuple((np.round(B, 12) + 0.0).reshape(-1))
            if key not in out:
                out[key] = (B, L, R)
    return out


def _orbit_cases():
    rng = np.random.default_rng(11)
    signed_zeros = np.array([[0.0, -0.0, 0.5], [-0.5, 0.0, -0.0], [0.0, 0.0, -0.0]])
    return [
        operator([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], linf(3), l1(3)),
        operator([[0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.0, 0.0]], linf(3), l1(3)),
        operator(np.eye(2), linf(2), linf(2)),
        operator(signed_zeros, linf(3), l1(3)),
        operator(rng.standard_normal((3, 3)), l1(3), l1(3)),
        operator(rng.integers(-2, 3, size=(3, 3)) / 2.0, linf(3), linf(3)),
        operator([[-2.0]], lp(3, 1), lp(3, 1)),
    ]


class TestStackedOrbit:
    @pytest.mark.parametrize("A", _orbit_cases())
    def test_one_stacked_product_is_the_loop(self, A):
        got, want = orbit_with_witnesses(A), loop_orbit_with_witnesses(A)
        assert list(got) == list(want)
        for (B, L, R), (B0, L0, R0) in zip(got.values(), want.values()):
            # tobytes tells -0.0 from 0.0
            assert B.tobytes() == B0.tobytes()
            assert L.tobytes() == L0.tobytes() and R.tobytes() == R0.tobytes()

    def test_census_members_are_the_loops(self):
        members = [m.entries for m in enumerate_extreme_linf3_l13()]
        rank_one, block = _extreme_census()
        loop = [
            B for A in (CANONICAL_RANK_ONE_3, CANONICAL_BLOCK_3)
            for B, _, _ in loop_orbit_with_witnesses(operator(A, linf(3), l1(3))).values()
        ]
        assert [B.tobytes() for B in members] == [B.tobytes() for B in loop]
        assert len(rank_one) + len(block) == 90


class TestCensus:
    def test_count_and_orbit_split(self):
        members = enumerate_extreme_linf3_l13()
        assert len(members) == 90
        names = [census_lookup(m)[0] for m in members]
        assert names.count("rank_one") == 18
        assert names.count("block") == 72

    def test_orbits_disjoint_and_members_distinct(self):
        members = enumerate_extreme_linf3_l13()
        keys = {tuple(np.round(m.entries, 9).reshape(-1)) for m in members}
        assert len(keys) == 90

    def test_all_members_have_unit_norm(self):
        for m in enumerate_extreme_linf3_l13():
            v, _ = op_norm(m)
            assert v == pytest.approx(1.0, abs=1e-12)

    def test_lookup_misses_outsiders(self):
        T = operator(np.zeros((3, 3)), linf(3), l1(3))
        assert census_lookup(T) is None
