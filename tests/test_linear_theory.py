"""Maximal kernels of function families, closures, idempotency, regularity."""

import itertools

import numpy as np
import pytest

from tropkern.core import (
    NEG_INF,
    POS_INF,
    GridFunction,
    PointSet,
    dirac,
)
from tropkern.kernels import ClosedFormKernel, gram_on
from tropkern.linear_theory import (
    FunctionFamily,
    closure_CG,
    is_idempotent,
    is_lipschitz_member,
    is_von_neumann_regular,
    left_residual,
    max_kernel_cG,
    mp_apply,
    mp_matmul,
    regularity,
    right_residual,
)
import tropkern.linear_theory as linear_theory

from oracles import regularity_brute_all

GRID3 = PointSet([-1.0, 0.0, 1.0])
CONV_GRAM3 = gram_on(ClosedFormKernel("conv"), GRID3)
DELTA_BOT3 = np.where(np.eye(3, dtype=bool), 0.0, NEG_INF)


def family_abs_id() -> FunctionFamily:
    xs = GRID3.as_array()[:, 0]
    return FunctionFamily(
        GRID3, (GridFunction(GRID3, np.abs(xs)), GridFunction(GRID3, xs.copy()))
    )


def random_integer_family(rng, n=4, m=3, allow_top=False) -> FunctionFamily:
    members = []
    pts = PointSet(list(range(n)))
    for _ in range(m):
        v = rng.integers(-5, 6, size=n).astype(float)
        if allow_top:
            mask = rng.random(n) < 0.2
            if mask.all():
                mask[rng.integers(n)] = False
            v[mask] = POS_INF
        members.append(GridFunction(pts, v))
    return FunctionFamily(pts, tuple(members))


class TestFunctionFamily:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FunctionFamily(GRID3, ())

    def test_domain_mismatch_rejected(self):
        other = PointSet([0.0, 1.0])
        with pytest.raises(ValueError):
            FunctionFamily(GRID3, (GridFunction(other, np.zeros(2)),))

    def test_bottom_values_rejected(self):
        with pytest.raises(ValueError):
            FunctionFamily(GRID3, (GridFunction(GRID3, np.array([0.0, NEG_INF, 0.0])),))

    def test_improper_member_rejected(self):
        with pytest.raises(ValueError):
            FunctionFamily(GRID3, (GridFunction(GRID3, np.full(3, POS_INF)),))


class TestMaxKernel:
    def test_singleton_difference(self):
        g = GridFunction(GRID3, np.array([2.0, -1.0, 5.0]))
        c = max_kernel_cG(FunctionFamily(GRID3, (g,)))
        assert np.array_equal(c, g.values[:, None] - g.values[None, :])

    def test_abs_and_identity_pinned(self):
        c = max_kernel_cG(family_abs_id())
        expected = np.array(
            [[0.0, -1.0, -2.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
        )
        assert np.array_equal(c, expected)

    def test_diagonal_zero_for_finite_family(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            fam = random_integer_family(rng)
            assert np.array_equal(np.diag(max_kernel_cG(fam)), np.zeros(4))

    def test_diagonal_top_where_all_members_top(self):
        pts = PointSet([0, 1])
        fam = FunctionFamily(
            pts,
            (
                GridFunction(pts, np.array([0.0, POS_INF])),
                GridFunction(pts, np.array([1.0, POS_INF])),
            ),
        )
        c = max_kernel_cG(fam)
        assert c[1, 1] == POS_INF
        assert c[0, 0] == 0.0


class TestClosure:
    def test_members_fixed(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            fam = random_integer_family(rng)
            c = max_kernel_cG(fam)
            for g in fam.members:
                assert np.array_equal(closure_CG(c, g).values, g.values)

    def test_bottom_spike_gives_section(self):
        fam = family_abs_id()
        c = max_kernel_cG(fam)
        out = closure_CG(c, dirac(GRID3, 0.0, "bottom"))
        assert np.array_equal(out.values, c[:, 1])

    def test_bottom_function_fixed(self):
        c = max_kernel_cG(family_abs_id())
        f = GridFunction(GRID3, np.full(3, NEG_INF))
        assert (closure_CG(c, f).values == NEG_INF).all()

    def test_extensive_monotone_idempotent(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            fam = random_integer_family(rng)
            c = max_kernel_cG(fam)
            f = GridFunction(fam.domain, rng.integers(-5, 6, size=4).astype(float))
            g = GridFunction(fam.domain, f.values + rng.integers(0, 4, size=4))
            cf = closure_CG(c, f)
            cg = closure_CG(c, g)
            assert (cf.values >= f.values).all()
            assert (cf.values <= cg.values).all()
            assert np.array_equal(closure_CG(c, cf).values, cf.values)

    def test_shape_mismatch_rejected(self):
        c = max_kernel_cG(family_abs_id())
        f = GridFunction(PointSet([0.0, 1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            closure_CG(c, f)


class TestLipschitzMembership:
    def test_members_belong(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            fam = random_integer_family(rng)
            c = max_kernel_cG(fam)
            for g in fam.members:
                assert is_lipschitz_member(c, g)

    def test_spike_rejected(self):
        fam = family_abs_id()
        c = max_kernel_cG(fam)
        base = fam.members[0].values.copy()
        base[1] -= 2.0  # dip below every closure bound at the middle point
        assert not is_lipschitz_member(c, GridFunction(GRID3, base))

    def test_constant_iff_offdiagonal_nonpositive(self):
        rng = np.random.default_rng(34)
        const = GridFunction(PointSet(list(range(4))), np.full(4, 3.0))
        for _ in range(20):
            fam = random_integer_family(rng)
            c = max_kernel_cG(fam)
            scan = bool((c[~np.eye(4, dtype=bool)] <= 0).all())
            assert is_lipschitz_member(c, const) == scan

    def test_matches_closure_equality(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            fam = random_integer_family(rng)
            c = max_kernel_cG(fam)
            f = GridFunction(fam.domain, rng.integers(-5, 6, size=4).astype(float))
            fixed = np.array_equal(closure_CG(c, f).values, f.values)
            assert is_lipschitz_member(c, f) == fixed


class TestIdempotency:
    def test_max_kernel_always_idempotent(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            fam = random_integer_family(rng, allow_top=(rng.random() < 0.5))
            assert is_idempotent(max_kernel_cG(fam))

    def test_abs_identity_kernel_idempotent(self):
        assert is_idempotent(max_kernel_cG(family_abs_id()))

    def test_delta_bottom_identity(self):
        assert is_idempotent(DELTA_BOT3)

    def test_conv_gram_not_idempotent(self):
        assert not is_idempotent(CONV_GRAM3)
        square = mp_matmul(CONV_GRAM3, CONV_GRAM3)
        assert square[2, 2] == 2.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_idempotent(np.zeros((2, 3)))

    def test_mp_matmul_rejects_vectors(self):
        with pytest.raises(ValueError, match=r"2-D: shapes \(3,\) and \(3,\)"):
            mp_matmul(np.zeros(3), np.zeros(3))


class TestResiduation:
    def test_left_adjunction(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            x = rng.integers(-4, 5, size=(3, 3)).astype(float)
            y = rng.integers(-4, 5, size=(3, 3)).astype(float)
            x[rng.random((3, 3)) < 0.2] = NEG_INF
            res = left_residual(x, y)
            assert (mp_matmul(x, np.where(res == POS_INF, 1e9, res)) <= y + 1e-6).all()
            z = rng.integers(-8, 9, size=(3, 3)).astype(float)
            below = (z <= res).all()
            product_ok = (mp_matmul(x, z) <= y).all()
            assert below == product_ok or product_ok  # below implies product_ok
            if below:
                assert product_ok

    def test_right_adjunction(self):
        rng = np.random.default_rng(38)
        for _ in range(30):
            x = rng.integers(-4, 5, size=(3, 3)).astype(float)
            y = rng.integers(-4, 5, size=(3, 3)).astype(float)
            res = right_residual(y, x)
            z = rng.integers(-8, 9, size=(3, 3)).astype(float)
            if (z <= res).all():
                assert (mp_matmul(z, x) <= y).all()
            if (mp_matmul(z, x) <= y).all():
                assert (z <= res).all()

    def test_unit_inequality(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            x = rng.integers(-4, 5, size=(3, 3)).astype(float)
            z = rng.integers(-4, 5, size=(3, 3)).astype(float)
            assert (z <= left_residual(x, mp_matmul(x, z))).all()


class TestRegularity:
    def test_idempotents_regular(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            fam = random_integer_family(rng)
            c = max_kernel_cG(fam)
            verdict = is_von_neumann_regular(c)
            assert verdict.regular
            middle = np.where(verdict.witness == POS_INF, 1e9, verdict.witness)
            assert np.allclose(mp_matmul(mp_matmul(c, middle), c), c)

    def test_conv_gram_not_regular(self):
        assert not is_von_neumann_regular(CONV_GRAM3).regular

    def test_scalar_inverse(self):
        for a in (-2.0, 0.0, 3.5):
            verdict = is_von_neumann_regular(np.array([[a]]))
            assert verdict.regular
            assert verdict.witness[0, 0] == -a

    def test_candidate_is_greatest_feasible(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            b = rng.integers(-3, 4, size=(3, 3)).astype(float)
            verdict = is_von_neumann_regular(b)
            prod = mp_matmul(mp_matmul(b, verdict.witness), b)
            assert (prod <= b + 1e-9).all()
            bumped = verdict.witness + 0.5
            bumped_prod = mp_matmul(mp_matmul(b, bumped), b)
            assert (bumped_prod > b - 1e-9).any()

    def test_matches_brute_force_on_small_alphabet(self):
        rng = np.random.default_rng(42)
        alphabet = np.array([0.0, -1.0, NEG_INF])
        grams = alphabet[rng.integers(0, 3, size=(120, 3, 3))]
        brute = regularity_brute_all(grams)
        for g, expected in zip(grams, brute):
            assert is_von_neumann_regular(g).regular == bool(expected)


def noisy_distance_grams(rng, count):
    """-alpha |x - y| Grams of float points in 1 to 3 dimensions at coordinate
    scales 1 to 1e6, most with noise of 1e-13 to 1e-9, some masked by -inf."""
    for _ in range(count):
        n, dim = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        points = rng.random((n, dim)) * 10.0 ** rng.integers(0, 7)
        gram = -rng.choice([0.5, 1.0, 3.0]) * np.linalg.norm(
            points[:, None] - points[None], axis=-1
        )
        noise = 10.0 ** rng.uniform(-13, -9)
        gram += rng.uniform(-noise, noise, gram.shape) * (rng.random() < 0.7)
        gram[rng.random(gram.shape) < rng.choice([0.0, 0.0, 0.1, 0.5])] = NEG_INF
        yield gram


def small_alphabet_matrices(rng):
    """Every 2x2 matrix over {0, -1, 1, inf, -inf}, and random 1x1, 3x3, 4x4."""
    alphabet = np.array([0.0, -1.0, 1.0, POS_INF, NEG_INF])
    for codes in itertools.product(range(5), repeat=4):
        yield alphabet[list(codes)].reshape(2, 2)
    for n in (1, 3, 4):
        for _ in range(200):
            yield alphabet[rng.integers(0, 5, (n, n))]


class TestRegularityFromSquare:
    """``regularity`` returns the flags of ``is_idempotent`` and
    ``is_von_neumann_regular``, skipping the residuation when the square
    decides it."""

    @pytest.fixture
    def residuations(self, monkeypatch):
        """Counts the residuations ``regularity`` makes."""
        calls = []

        def counted(x, y):
            calls.append(x)
            return left_residual(x, y)

        monkeypatch.setattr(linear_theory, "left_residual", counted)
        return calls

    @staticmethod
    def assert_same_flags(matrices, tols, residuations):
        """The number of verdicts, and of residuations ``regularity`` made."""
        verdicts = made = 0
        for b in matrices:
            for tol in tols:
                expected = (is_idempotent(b, tol), is_von_neumann_regular(b, tol).regular)
                before = len(residuations)
                assert regularity(b, tol) == expected, (b, tol)
                made += len(residuations) - before
                verdicts += 1
        return verdicts, made

    def test_equals_residuation_on_noisy_distance_grams(self, residuations):
        grams = noisy_distance_grams(np.random.default_rng(7), 300)
        verdicts, made = self.assert_same_flags(grams, (0.0, 1e-12, 1e-9, 1e-6), residuations)
        assert 200 < verdicts - made < verdicts

    def test_equals_residuation_on_small_alphabet(self, residuations):
        matrices = small_alphabet_matrices(np.random.default_rng(8))
        tols = (0.0, 1e-12, 1e-9, 1e-6, 0.5)
        verdicts, made = self.assert_same_flags(matrices, tols, residuations)
        assert 500 < verdicts - made < verdicts

    def test_square_alone_decides_a_rounded_lip_gram(self, monkeypatch):
        # 240 integer points of a 2-D box, as the benchmark's regularity op
        # reads them: the square roots round, so B (x) B exceeds B by a few
        # ulps in some entries and B is idempotent only within tol.
        rng = np.random.default_rng(1)
        cells = np.sort(rng.choice(22 * 22, 240, replace=False))
        grid = PointSet(np.stack([cells // 22 - 11, cells % 22 - 11], axis=1).tolist())
        gram = gram_on(ClosedFormKernel("lip"), grid)
        assert (mp_matmul(gram, gram) > gram).any()

        def refuse(x, y):
            raise AssertionError("the square should decide regularity")

        monkeypatch.setattr(linear_theory, "left_residual", refuse)
        flags = regularity(gram, 1e-9)
        assert flags == (True, True)
        assert all(type(flag) is bool for flag in flags)

    def test_margin_is_four_times_the_defect(self):
        # delta = 2 for C, and B (x) A* (x) B misses C by 3 in one entry, so
        # a rule of "idempotent within tol" would call the scaled C regular.
        c = np.array([[1.0, -1.0, -3.0], [-2.0, -1.0, 0.0], [-4.0, -4.0, 1.0]])
        assert np.abs(mp_matmul(c, c) - c).max() == 2.0
        b = c * 4.5e-10
        assert regularity(b, 1e-9) == (True, False)
        assert regularity(b, 4e-9) == (True, True)

    def test_exact_square_is_regular_at_tol_zero(self, residuations):
        # The float square of this lip Gram equals it exactly, so B is its
        # own witness, fl(B (x) B (x) B) = B; the float residuation misses B
        # by an ulp, which no tol may turn into "not regular".
        gram = gram_on(ClosedFormKernel("lip"), PointSet([0.1, 0.2, 0.5]))
        assert (mp_matmul(gram, gram) == gram).all()
        a_star = right_residual(left_residual(gram, gram), gram)
        assert not (mp_matmul(mp_matmul(gram, a_star), gram) == gram).all()
        verdict = is_von_neumann_regular(gram, 0.0)
        assert verdict.regular and np.array_equal(verdict.witness, gram)
        assert (mp_matmul(mp_matmul(gram, verdict.witness), gram) == gram).all()
        assert np.array_equal(verdict.product, gram)
        # Within a tol the residuated A* holds, and stays the witness.
        verdict = is_von_neumann_regular(gram, 1e-12)
        assert verdict.regular and np.array_equal(verdict.witness, a_star)
        residuations.clear()
        for tol in (0.0, 1e-12):
            assert is_idempotent(gram, tol)
            assert regularity(gram, tol) == (True, True)
        assert residuations == []

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            regularity(np.zeros((2, 3)))


class TestMaximality:
    def test_delta_bottom_reproduces_and_is_below(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            fam = random_integer_family(rng)
            c = max_kernel_cG(fam)
            delta = np.where(np.eye(4, dtype=bool), 0.0, NEG_INF)
            for g in fam.members:
                assert np.array_equal(mp_apply(delta, g.values), g.values)
            assert (delta <= c).all()

    def test_upward_perturbation_breaks_reproduction(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            fam = random_integer_family(rng)
            c = max_kernel_cG(fam)
            finite = np.argwhere(np.isfinite(c) & ~np.eye(4, dtype=bool))
            i, j = finite[rng.integers(len(finite))]
            bumped = c.copy()
            bumped[i, j] += 0.5
            broken = any(
                not np.array_equal(mp_apply(bumped, g.values), g.values)
                for g in fam.members
            )
            assert broken

    def test_smaller_reproducing_kernels_below(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            fam = random_integer_family(rng)
            c = max_kernel_cG(fam)
            smaller = c - rng.integers(0, 3, size=c.shape)
            reproduces = all(
                np.array_equal(
                    np.maximum(mp_apply(smaller, g.values), g.values), g.values
                )
                for g in fam.members
            )
            if reproduces:
                assert (smaller <= c).all()


class TestReproducing:
    def test_exact_on_integer_families(self):
        rng = np.random.default_rng(46)
        for _ in range(25):
            fam = random_integer_family(rng, n=5, m=4, allow_top=(rng.random() < 0.3))
            c = max_kernel_cG(fam)
            for g in fam.members:
                assert np.array_equal(mp_apply(c, g.values), g.values)
