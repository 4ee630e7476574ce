import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bohrqed import DomainError, algebra
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
    bq_frobenius_arr,
    bq_mul_arr,
    bq_mul_planes,
    reflector_mul,
)
from reference_lattice import transform_vec4

coeff = st.complex_numbers(min_magnitude=0, max_magnitude=10,
                           allow_nan=False, allow_infinity=False)
bq = st.builds(Biquaternion, coeff, coeff, coeff, coeff)


def frob(q: Biquaternion) -> float:
    return bq_frobenius_arr(q.as_array())


def norm_form(q: Biquaternion) -> complex:
    """The invariant quadratic form, the scalar part of ``q q‡``."""
    return (q * q.quat_conj()).w


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
    scale = max(frob(lhs), frob(rhs), 1.0)
    assert frob((lhs - rhs)) <= 1e-12 * scale


@given(bq, bq, bq)
@settings(max_examples=200)
def test_multiplication_distributes(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    scale = max(frob(lhs), frob(rhs), 1.0)
    assert frob((lhs - rhs)) <= 1e-12 * scale


class TestQuatConj:
    def test_basis(self):
        assert I1.quat_conj() == -I1
        assert Biquaternion(3.5).quat_conj() == Biquaternion(3.5)

    def test_q_times_conj_is_scalar(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            prod = q * q.quat_conj()
            scale = max(frob(q) ** 2, 1.0)
            assert frob(prod - prod.w) <= 1e-12 * scale  # the vector part
            assert prod.w == pytest.approx(q.w**2 + q.x**2 + q.y**2 + q.z**2)

    @given(bq, bq)
    @settings(max_examples=300)
    def test_antihomomorphism(self, a, b):
        lhs = (a * b).quat_conj()
        rhs = b.quat_conj() * a.quat_conj()
        scale = max(frob(lhs), 1.0)
        assert frob((lhs - rhs)) <= 1e-12 * scale

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
        scale = max(frob(lhs), 1.0)
        assert frob((lhs - rhs)) <= 1e-12 * scale


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
            assert frob(sq.d1 - sq.d1.w) <= 1e-12 * frob(d) ** 2
            assert frob((sq.d1 - sq.d2)) <= 1e-12 * frob(d) ** 2

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
    r, b = LorentzTransform.rotation(axis, angle), LorentzTransform.boost(baxis, rap)
    return LorentzTransform(b.g * r.g if rng.integers(2) else r.g * b.g)


#: ``float.hex`` of a rotation's and a boost's ``g`` about 2,000 random axes
_AXIS_BITS = """
import numpy as np
from bohrqed.algebra import LorentzTransform
rng = np.random.default_rng(31)
for axis in rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-3, 3, (2000, 1)):
    for Z in (LorentzTransform.rotation(axis, 0.3), LorentzTransform.boost(axis, 0.7)):
        print(*(part.hex() for z in Z.g.as_array().tolist() for part in (z.real, z.imag)))
"""


class TestLorentz:
    def test_identity(self):
        q = Biquaternion(1 + 1j, 2, 3, 4)
        assert LorentzTransform.identity().apply(q) == q

    def test_rotation_pi_about_axis3(self):
        got = LorentzTransform.rotation([0, 0, 1], math.pi).apply(I1)
        assert frob((got - (-I1))) < 1e-15

    def test_boost_on_time_axis(self):
        zeta = 0.8
        Z = LorentzTransform.boost([1, 0, 0], zeta)
        v = transform_vec4(Z, [1.0, 0.0, 0.0, 0.0])
        assert v[0] == pytest.approx(math.cosh(zeta))
        assert v[1] == pytest.approx(-math.sinh(zeta))
        assert v[2] == pytest.approx(0) and v[3] == pytest.approx(0)

    @pytest.mark.parametrize(("method", "args", "message"), [
        ("boost", ([1, 0, 0], math.nan), "rapidity must be finite, got nan"),
        ("boost", ([1, 0, 0], -math.inf), "rapidity must be finite, got -inf"),
        ("rotation", ([0, 0, 1], math.nan),
         "rotation angle must be finite, got nan"),
        ("rotation", ([0, 0, 1], math.inf),
         "rotation angle must be finite, got inf"),
        ("rotation", ([0, math.nan, 1], 0.5),
         "norm of axis [0.0, nan, 1.0] must be finite and positive, got nan"),
        ("boost", ([math.inf, 0, 0], 0.5),
         "norm of axis [inf, 0.0, 0.0] must be finite and positive, got inf"),
    ], ids=["boost-nan", "boost-inf", "rotation-nan", "rotation-inf",
            "rotation-axis", "boost-axis"])
    def test_non_finite_rejected(self, method, args, message):
        # each used to build a NaN g without complaint
        with pytest.raises(ValueError) as info:
            getattr(LorentzTransform, method)(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("axis", [[1.3e154, 1.3e154, 0.0], [1e154, -1e154, 1e154]])
    def test_axis_norm_past_the_float_range(self, axis):
        # finite squares whose exact sum overflows
        with pytest.raises(DomainError, match=r"norm of axis .* got inf"):
            LorentzTransform.rotation(axis, 0.3)

    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_axis_bits_do_not_depend_on_the_blas_kernel(self, coretype):
        # the axis norm went through BLAS ddot, whose last bits follow the
        # kernel OpenBLAS dispatches; OPENBLAS_CORETYPE forces one in a child
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            exec(_AXIS_BITS, {})
        src = str(Path(algebra.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", _AXIS_BITS], capture_output=True,
                               text=True, env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout == here.getvalue()

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            Z = random_transform(rng)
            q = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            back = Z.inverse().apply(Z.apply(q))
            assert frob((back - q)) < 1e-12 * max(frob(q), 1.0)

    def test_norm_form_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            Z = random_transform(rng)
            q = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            dev = abs(norm_form(Z.apply(q)) - norm_form(q))
            assert dev < 1e-10 * max(abs(norm_form(q)), 1.0)

    def test_composition(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            Z1, Z2 = random_transform(rng), random_transform(rng)
            q = Biquaternion(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
            lhs = Z2.apply(Z1.apply(q))
            rhs = LorentzTransform(Z2.g * Z1.g).apply(q)
            assert frob((lhs - rhs)) < 1e-10 * max(frob(lhs), 1.0)

    def test_four_vector_stays_four_vector(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            Z = random_transform(rng)
            v = rng.normal(size=4)
            q = Biquaternion(1j * v[0], *v[1:])
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
            w = transform_vec4(Z, v)
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
            want = Biquaternion(*a[i]) * Biquaternion(*b[i])
            assert np.allclose(prod[i], want.as_array())

    def test_conj_and_dagger(self):
        # the array conjugation is the scalar one, and with the vector part
        # negated it is the dagger
        q = Biquaternion(1 + 2j, 3, -1j, 0.5)
        conj = np.conj(q.as_array())
        assert np.array_equal(conj, q.complex_conj().as_array())
        assert np.array_equal(conj * [1, -1, -1, -1], q.dagger().as_array())

    def test_apply_array_matches_apply(self):
        rng = np.random.default_rng(37)
        Z = random_transform(rng)
        vals = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        out = Z.apply_array(vals)
        for i in range(5):
            want = Z.apply(Biquaternion(*vals[i]))
            assert np.allclose(out[i], want.as_array())

    def test_frobenius(self):
        q = Biquaternion(3, 4)
        assert bq_frobenius_arr(q.as_array()) == pytest.approx(5.0)

    @pytest.mark.parametrize("shape", [(4,), (7, 4), (3, 5, 2, 4)])
    def test_frobenius_sums_in_component_order(self, shape):
        # ((|a0|² + |a1|²) + |a2|²) + |a3|², bit for bit: the order in which
        # np.sum reduces component-major planes, the layout of lattice fields
        rng = np.random.default_rng(41)
        a = (rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=shape)
             + 1j * rng.normal(size=shape))
        a.flat[:3] = [np.inf, np.nan, -0.0]
        planes = np.ascontiguousarray(np.moveaxis(a, -1, 0))
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.abs(a) ** 2
            want = np.sqrt(((s[..., 0] + s[..., 1]) + s[..., 2]) + s[..., 3])
            old = np.sqrt(np.sum(np.abs(np.moveaxis(planes, 0, -1)) ** 2, axis=-1))
            got = [bq_frobenius_arr(a), bq_frobenius_arr(np.moveaxis(planes, 0, -1))]
        assert np.asarray(old).tobytes() == np.asarray(want).tobytes()
        for norms in got:
            assert np.shape(norms) == shape[:-1]
            assert np.asarray(norms).tobytes() == np.asarray(want).tobytes()

    def test_vec4_roundtrip(self):
        # the housing i*v0 + v1 i1 + v2 i2 + v3 i3 and back
        v = np.array([1.5, -2.0, 0.25, 3.0])
        assert np.array_equal(transform_vec4(LorentzTransform.identity(), v), v)


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
