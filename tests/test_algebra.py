import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bohrqed.algebra import (
    BASIS,
    I0,
    I1,
    I2,
    I3,
    ONE,
    Biquaternion,
    DiagonalMatrix,
    LorentzTransform,
    Reflector,
    bq_dagger_arr,
    bq_frobenius_arr,
    bq_mul_arr,
    bq_mul_planes,
    bq_quat_conj_arr,
    reflector_mul,
    vec4_to_bq,
    bq_to_vec4,
)

coeff = st.complex_numbers(min_magnitude=0, max_magnitude=10,
                           allow_nan=False, allow_infinity=False)
bq = st.builds(Biquaternion, coeff, coeff, coeff, coeff)


# the fixed right-handed convention: i1 i2 = i3 cyclically, ik^2 = -1
MUL_TABLE = {
    ("1", "1"): ONE, ("1", "i1"): I1, ("1", "i2"): I2, ("1", "i3"): I3,
    ("i1", "1"): I1, ("i1", "i1"): -ONE, ("i1", "i2"): I3, ("i1", "i3"): -I2,
    ("i2", "1"): I2, ("i2", "i1"): -I3, ("i2", "i2"): -ONE, ("i2", "i3"): I1,
    ("i3", "1"): I3, ("i3", "i1"): I2, ("i3", "i2"): -I1, ("i3", "i3"): -ONE,
}
UNITS = {"1": ONE, "i1": I1, "i2": I2, "i3": I3}


def test_full_multiplication_table_exact():
    for (na, nb), want in MUL_TABLE.items():
        got = UNITS[na] * UNITS[nb]
        assert got == want, f"{na} * {nb} gave {got}, wanted {want}"


def test_identity_multiplication():
    q = Biquaternion(1 + 2j, -0.5, 3j, 4)
    assert (ONE * q) == q
    assert (q * ONE) == q
    assert (1 * q) == q


def test_scalar_and_complex_multiplication():
    q = Biquaternion(2, 1, 0, -1)
    assert (2 * q).w == 4
    assert (1j * q).x == 1j


@given(bq, bq, bq)
@settings(max_examples=200)
def test_multiplication_associative(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    scale = max(lhs.frobenius(), rhs.frobenius(), 1.0)
    assert (lhs - rhs).frobenius() <= 1e-12 * scale


@given(bq, bq, bq)
@settings(max_examples=200)
def test_multiplication_distributes(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    scale = max(lhs.frobenius(), rhs.frobenius(), 1.0)
    assert (lhs - rhs).frobenius() <= 1e-12 * scale


class TestQuatConj:
    def test_basis(self):
        assert I1.quat_conj() == -I1
        assert Biquaternion(3.5).quat_conj() == Biquaternion(3.5)

    def test_q_times_conj_is_scalar(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            prod = q * q.quat_conj()
            scale = max(q.frobenius() ** 2, 1.0)
            assert prod.vector_part().frobenius() <= 1e-12 * scale
            assert prod.w == pytest.approx(q.norm_form())

    @given(bq, bq)
    @settings(max_examples=300)
    def test_antihomomorphism(self, a, b):
        lhs = (a * b).quat_conj()
        rhs = b.quat_conj() * a.quat_conj()
        scale = max(lhs.frobenius(), 1.0)
        assert (lhs - rhs).frobenius() <= 1e-12 * scale

    @given(bq)
    def test_involution(self, q):
        assert q.quat_conj().quat_conj() == q


class TestDagger:
    def test_real_scalar_fixed(self):
        assert Biquaternion(2.5).dagger() == Biquaternion(2.5)

    def test_imaginary_i1(self):
        # (i*1)*i1 -> (-i)*(-i1) = i*i1
        q = Biquaternion(0, 1j)
        assert q.dagger() == q

    @given(bq)
    def test_involution(self, q):
        assert q.dagger().dagger() == q

    @given(bq, bq)
    @settings(max_examples=300)
    def test_antihomomorphism(self, a, b):
        lhs = (a * b).dagger()
        rhs = b.dagger() * a.dagger()
        scale = max(lhs.frobenius(), 1.0)
        assert (lhs - rhs).frobenius() <= 1e-12 * scale


class TestReflector:
    def test_unit_square(self):
        d = reflector_mul(Reflector(ONE, ONE), Reflector(ONE, ONE))
        assert d.d1 == ONE and d.d2 == ONE

    def test_i1_square(self):
        d = reflector_mul(Reflector(I1, I1), Reflector(I1, I1))
        assert d.d1 == -ONE and d.d2 == -ONE

    def test_product_layout(self):
        a1, b1 = Biquaternion(1, 2), Biquaternion(0, 0, 3)
        a2, b2 = Biquaternion(0, 1j), Biquaternion(2, 0, 0, 1)
        d = reflector_mul(Reflector(a1, b1), Reflector(a2, b2))
        assert d.d1 == a1 * b2
        assert d.d2 == b1 * a2

    def test_operator_square_is_scalar(self):
        # X(d, d‡)^2 = diag(d d‡, d‡ d): a pure scalar acting componentwise
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            sq = reflector_mul(Reflector(d, d.quat_conj()),
                               Reflector(d, d.quat_conj()))
            assert sq.d1.vector_part().frobenius() <= 1e-12 * d.frobenius() ** 2
            assert (sq.d1 - sq.d2).frobenius() <= 1e-12 * d.frobenius() ** 2

    def test_diagonal_times_reflector(self):
        d = DiagonalMatrix(Biquaternion(2), Biquaternion(3))
        x = Reflector(I1, I2)
        assert (d * x).upper == 2 * I1
        assert (d * x).lower == 3 * I2
        assert (x * d).upper == I1 * Biquaternion(3)
        assert (x * d).lower == I2 * Biquaternion(2)


def random_transform(rng) -> LorentzTransform:
    axis = rng.normal(size=3)
    angle = rng.uniform(-math.pi, math.pi)
    baxis = rng.normal(size=3)
    rap = rng.uniform(-3.0, 3.0)
    return LorentzTransform.from_parts(axis, angle, baxis, rap,
                                       rotation_first=bool(rng.integers(2)))


class TestLorentz:
    def test_identity(self):
        q = Biquaternion(1 + 1j, 2, 3, 4)
        assert LorentzTransform.identity().apply(q) == q

    def test_rotation_pi_about_axis3(self):
        got = LorentzTransform.rotation([0, 0, 1], math.pi).apply(I1)
        assert (got - (-I1)).frobenius() < 1e-15

    def test_boost_on_time_axis(self):
        zeta = 0.8
        Z = LorentzTransform.boost([1, 0, 0], zeta)
        v = Z.apply_vec4([1.0, 0.0, 0.0, 0.0])
        assert v[0] == pytest.approx(math.cosh(zeta))
        assert v[1] == pytest.approx(-math.sinh(zeta))
        assert v[2] == pytest.approx(0) and v[3] == pytest.approx(0)

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            Z = random_transform(rng)
            q = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            back = Z.inverse().apply(Z.apply(q))
            assert (back - q).frobenius() < 1e-12 * max(q.frobenius(), 1.0)

    def test_norm_form_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            Z = random_transform(rng)
            q = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            dev = abs(Z.apply(q).norm_form() - q.norm_form())
            assert dev < 1e-10 * max(abs(q.norm_form()), 1.0)

    def test_composition(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            Z1, Z2 = random_transform(rng), random_transform(rng)
            q = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            lhs = Z2.apply(Z1.apply(q))
            rhs = Z2.compose(Z1).apply(q)
            assert (lhs - rhs).frobenius() < 1e-10 * max(lhs.frobenius(), 1.0)

    def test_four_vector_stays_four_vector(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            Z = random_transform(rng)
            v = rng.normal(size=4)
            q = Biquaternion.from_array(vec4_to_bq(v))
            out = Z.apply(q)
            # time coefficient imaginary, space coefficients real
            assert abs(out.w.real) < 1e-12
            for c in (out.x, out.y, out.z):
                assert abs(c.imag) < 1e-12

    def test_minkowski_form_on_four_vectors(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            Z = random_transform(rng)
            v = rng.normal(size=4)
            w = Z.apply_vec4(v)
            lhs = -w[0] ** 2 + np.sum(w[1:] ** 2)
            rhs = -v[0] ** 2 + np.sum(v[1:] ** 2)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestArrayOps:
    def test_mul_matches_scalar(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        b = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        prod = bq_mul_arr(a, b)
        for i in range(6):
            want = Biquaternion.from_array(a[i]) * Biquaternion.from_array(b[i])
            assert np.allclose(prod[i], want.as_array())

    def test_conj_and_dagger(self):
        q = Biquaternion(1 + 2j, 3, -1j, 0.5)
        assert np.allclose(bq_quat_conj_arr(q.as_array()),
                           q.quat_conj().as_array())
        assert np.allclose(bq_dagger_arr(q.as_array()), q.dagger().as_array())

    def test_apply_array_matches_apply(self):
        rng = np.random.default_rng(37)
        Z = random_transform(rng)
        vals = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        out = Z.apply_array(vals)
        for i in range(5):
            want = Z.apply(Biquaternion.from_array(vals[i]))
            assert np.allclose(out[i], want.as_array())

    def test_frobenius(self):
        q = Biquaternion(3, 4)
        assert bq_frobenius_arr(q.as_array()) == pytest.approx(5.0)

    def test_vec4_roundtrip(self):
        v = np.array([1.5, -2.0, 0.25, 3.0])
        assert np.allclose(np.real(bq_to_vec4(vec4_to_bq(v))), v)


def _ref_bq_mul_arr(a, b):
    """The interleaved Hamilton product that the plane kernel replaced."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def _signed_values(rng, shape):
    """Random entries with many +0.0 and -0.0 parts."""
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    v.real[rng.random(shape) < 0.25] = -0.0
    v.imag[rng.random(shape) < 0.25] = -0.0
    v[rng.random(shape) < 0.15] = 0.0
    return v


class TestHamiltonPlanes:
    """The plane kernel and its wrapper against the interleaved formula,
    site by site and bit for bit, signed zeros included."""

    @pytest.mark.parametrize("shapes", [
        ((7, 5, 4), (7, 5, 4)), ((4,), (7, 5, 4)), ((7, 5, 4), (4,)),
        ((4,), (4,)), ((5, 1, 4), (1, 3, 4))])
    def test_bitwise(self, shapes):
        rng = np.random.default_rng(41)
        a, b = (_signed_values(rng, shape) for shape in shapes)
        want = _ref_bq_mul_arr(a, b)
        got = bq_mul_arr(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        planes = np.empty((4,) + want.shape[:-1], dtype=complex)
        bq_mul_planes(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0), planes,
                      np.empty(want.shape[:-1], dtype=complex))
        assert np.moveaxis(planes, 0, -1).tobytes() == want.tobytes()

    def test_constant_with_signed_zeros(self):
        # a unit constant's zero coefficients still multiply every entry
        rng = np.random.default_rng(43)
        b = _signed_values(rng, (9, 4))
        for c in (I0, -I1, I2, Biquaternion(-0.0, 0.0, -1j, 0.0)):
            assert (bq_mul_arr(c.as_array(), b).tobytes()
                    == _ref_bq_mul_arr(c.as_array(), b).tobytes())
            assert (bq_mul_arr(b, c.as_array()).tobytes()
                    == _ref_bq_mul_arr(b, c.as_array()).tobytes())

    def test_apply_array_bitwise(self):
        rng = np.random.default_rng(47)
        Z = random_transform(rng)
        vals = _signed_values(rng, (6, 3, 4))
        want = _ref_bq_mul_arr(_ref_bq_mul_arr(Z.g.as_array(), vals),
                               Z.g.dagger().as_array())
        assert Z.apply_array(vals).tobytes() == want.tobytes()


def test_time_basis_element():
    assert I0 == Biquaternion(1j)
    assert BASIS == (I0, I1, I2, I3)
