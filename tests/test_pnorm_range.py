"""`pnorm` outside the range of its unscaled sums.

For 1 < p <= UNSCALED_P_MAX `pnorm` sums |v_i|^p unscaled, whose powers
under- or overflow far from 1, and whose root loses accuracy there.  The
norm of one vector outside [2^-34, 2^34] is measured again scaled by its
largest entry.  The reference is the unscaled form, `pnorm_into` on a
copy: every vector and every lane of a batch with entries in [1e-9, 1e9]
must keep its bits.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from bpblab.spaces import l2, lp, pnorm, pnorm_into, point, support_functionals

P_VALUES = [Fraction(3, 2), 2, 3, 4, 32]


def unscaled(v, p, axis=-1):
    return pnorm_into(np.array(v, dtype=float), p, axis)


def entries(rng, shape):
    """Entries of random sign with magnitudes log-uniform in [1e-9, 1e9]."""
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-9.0, 9.0, size=shape)


@pytest.mark.parametrize("p", P_VALUES, ids=str)
def test_lanes_in_range_keep_the_unscaled_bits(p):
    rng = np.random.default_rng(int(float(p) * 100))
    for n in (1, 2, 3, 5, 16):
        for _ in range(40):
            v = entries(rng, n)
            got, want = pnorm(v, p), unscaled(v, p)
            assert type(got) is type(want) and got.tobytes() == want.tobytes(), (v, p)
        V = entries(rng, (n, 300))
        for axis in (0, -1):
            got, want = pnorm(V, p, axis=axis), unscaled(V, p, axis)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", P_VALUES, ids=str)
def test_under_and_overflowing_lanes_are_measured_scaled(p):
    # an unscaled root of a sum near 1e300 is off by up to about 3e-14
    # relative (1/p rounds, and ln(1e300) scales that); the scaled form
    # hits every value below exactly, so one ulp is left for libm's pow
    rel = 2.0 ** -52
    root2 = 2.0 ** (1.0 / float(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e-200, 1e-300, 5e-324, 1e200, 1e300, 1.7e308):
            assert pnorm([c, 0.0], p) == pytest.approx(c, rel=rel)
            assert pnorm([0.0, -c, 0.0], p) == pytest.approx(c, rel=rel)
        for c in (1e-300, 1e-200, 1e200, 1e300):
            assert pnorm([c, -c], p) == pytest.approx(c * root2, rel=rel)
        # a batch keeps the unscaled form, out-of-range lanes included
        V = np.array([[1e-300, 3.0, 0.0], [0.0, 4.0, 0.0]])
        assert pnorm(V, p, axis=0).tobytes() == unscaled(V, p, 0).tobytes()
    assert unscaled([1e-300, 0.0], p) == 0.0


def test_norms_far_from_1_are_accurate():
    # in range, but the unscaled root of the sum is off in the last bits
    assert pnorm([1e200, 0.0], Fraction(3, 2)) == 1e200
    assert unscaled([1e200, 0.0], Fraction(3, 2)) != 1e200
    assert pnorm([1e12, 1e12], 3) == 1e12 * 2.0 ** (1.0 / 3.0)
    assert unscaled([1e12, 1e12], 3) != 1e12 * 2.0 ** (1.0 / 3.0)


def test_tiny_and_huge_vectors_on_l2():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pnorm([1e-200, 0.0], 2) == 1e-200
        assert pnorm([1e200, 1.0], 2) == 1e200
        J = support_functionals(point([1e-200, 0.0], l2(2)))
    assert J.is_unique and J.functionals[0].coords.tolist() == [1.0, 0.0]


def test_a_norm_past_the_float_range_is_inf_and_warns():
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert pnorm([1.5e308, 1.5e308], 2) == np.inf
    assert pnorm([np.inf, 1.0], 3) == np.inf
    assert np.isnan(pnorm([np.nan, 1.0], 2))


def test_the_other_exponents_are_untouched():
    for p in (1, np.inf, 33, 5000):
        v = np.array([1e-200, 3e-200])
        assert pnorm(v, p).tobytes() == unscaled(v, p).tobytes()
    assert point([1e-200, 0.0], lp(3, 2)).norm() == 1e-200
