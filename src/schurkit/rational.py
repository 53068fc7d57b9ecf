"""Complex rational-function arithmetic on the unit disk.

Polynomials are stored as ascending complex coefficient arrays, every given
coefficient kept but exact trailing zeros; only a sum trims, the dust of a
cancellation against its operands' scale. Rational functions keep a reduced
numerator/denominator pair with a monic denominator.
Reduction solves for the cofactors of the greatest common divisor in the null
space of a Sylvester-type matrix and keeps them only if the quotient still
evaluates like the input; no roots are computed.

The scalar recurrences (evaluation at a number, synthetic division, Taylor
shift, power-series division) run on Python complex multiply and add, which
round like numpy's scalar complex arithmetic, in the order of operations of
numpy.polynomial; every division stays a numpy division, and scalar values
come back as np.complex128. Products are np.convolve and sums a padded add,
on the operands numpy.polynomial would use. Arrays of points are evaluated
by numpy.polynomial, whose array loop may round differently in the last bits
from the scalar recurrence.

A rational function is treated as immutable, so what is derived from it is
computed once and kept on it: its poles, and its numerator and denominator
shifted to the first expansion centre asked (for a function built at a
centre by `RationalFn._at`, its coefficients there) with the longest Taylor
series computed there; shorter orders are slices of it, the vanishing order
reads the same shift, and other centres are expanded afresh. Reassigning
`num` or `den` is unsupported.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import (
    BoundaryPole,
    DegenerateLFT,
    DegreeLimitExceeded,
    NotGeneralizedSchur,
    PoleAtExpansionPoint,
    PoleAtOne,
    ZeroDenominator,
)
from .tolerances import BOUNDARY_MARGIN, CIRCLE_SAMPLES, CIRCLE_TOL, MAX_DEGREE
from .tolerances import ORDER_TOL, REFLECTION_FLOOR, ROOT_TOL, TRIM_REL

__all__ = [
    "Poly",
    "RationalFn",
    "BlaschkeProduct",
    "Mat2RF",
    "as_rational",
    "vanishing_order",
    "krein_langer_factor",
    "cayley",
    "cayley_fn",
    "unit_circle_samples",
]

INF = math.inf


def _kept(a, cut):
    """Length of `a` without its trailing coefficients of modulus at or below
    `cut` (none is dropped when `cut` is NaN). The modulus is numpy's scalar
    abs, which can differ in the last bit from its array abs."""
    k = a.size
    while k and abs(a[k - 1]) <= cut:
        k -= 1
    return k


def _top(a):
    """Largest modulus of the nonempty array `a`; argmax finds a NaN modulus
    first, if there is one."""
    mag = np.abs(a)
    return mag[mag.argmax()]


def _trim(a):
    """`a` without the trailing coefficients at or below TRIM_REL times its
    largest magnitude."""
    if a.size == 0:
        return a
    return a[: _kept(a, TRIM_REL * _top(a))]


def _horner(c, z, zero):
    """Horner's rule over the list `c` of ascending coefficients at z, in
    npoly.polyval's order: c[-1] + zero, where zero is the caller's z * 0,
    then c[i] + acc * z."""
    acc = c[-1] + zero
    for ci in c[-2::-1]:
        acc = ci + acc * z
    return acc


def _value(a, z):
    """Nonempty coefficient array `a` at the scalar z, as np.complex128."""
    return np.complex128(_horner(a.tolist(), complex(z), complex(z * 0)))


def _majorant(a, x):
    """Upper bound sum |a_j| |x|^j used to scale remainder/guard thresholds."""
    if a.size == 0:
        return 0.0
    r = float(abs(x))
    return _horner(np.abs(a).tolist(), r, r * 0)


def _deflate(a, c):
    """Synthetic division of ascending coeffs `a` by (z - c) -> (quotient, a(c))."""
    n = a.size - 1
    coeffs = a.tolist()
    c = complex(c)
    q = [0j] * n
    b = coeffs[n]
    for j in range(n - 1, -1, -1):
        q[j] = b
        b = coeffs[j] + c * b
    return np.array(q, dtype=complex), np.complex128(b)


def _valuation(b):
    """Index of the first coefficient of the nonempty shifted array `b` above
    ORDER_TOL times its largest magnitude (the last index if none is)."""
    cut = ORDER_TOL * float(np.max(np.abs(b)))
    for j, v in enumerate(b):
        if abs(v) > cut:
            return j
    return b.size - 1


class Poly:
    """Polynomial with complex coefficients in ascending degree order.

    The zero polynomial has an empty coefficient array and degree -1.
    Construction keeps every coefficient it is given except exact trailing
    zeros. Only a sum trims further: it drops the trailing coefficients at or
    below TRIM_REL times the larger operand's largest modulus, the dust a
    cancellation leaves, measured against what was added.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        a = np.array(coeffs.coeffs if isinstance(coeffs, Poly) else coeffs, dtype=complex).ravel()
        # A NaN or infinite coefficient makes the largest magnitude non-finite
        # (argmax finds a NaN first); so does a finite coefficient whose
        # modulus overflows.
        if a.size and not _top(a) < INF:
            raise ValueError("non-finite coefficient")
        self.coeffs = a[: _kept(a, 0.0)]

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1.0,))

    @classmethod
    def constant(cls, c):
        return cls((complex(c),))

    @classmethod
    def x(cls):
        return cls((0.0, 1.0))

    @classmethod
    def from_roots(cls, roots, leading=1.0):
        p = np.array([complex(leading)])
        for r in roots:
            p = np.convolve(p, np.array([-complex(r), 1.0]))
        return cls(p)

    @property
    def degree(self):
        return self.coeffs.size - 1

    @property
    def is_zero(self):
        return self.coeffs.size == 0

    def __call__(self, z):
        """Value at a number (np.complex128; 0j for the zero polynomial), or
        values at each point of a list, tuple or array."""
        if isinstance(z, (int, float, complex)):
            return _value(self.coeffs, z) if self.coeffs.size else 0j
        if self.coeffs.size == 0:
            if isinstance(z, (list, tuple, np.ndarray)):
                return np.zeros(np.shape(z), dtype=complex)
            return 0j
        return npoly.polyval(z, self.coeffs)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, numbers.Complex):
            return Poly.constant(other)
        return NotImplemented

    def __add__(self, other):
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return Poly(q.coeffs)
        if q.is_zero:
            return Poly(self.coeffs)
        a, b = self.coeffs, q.coeffs
        if a.size <= b.size:
            a, b = b, a
        out = a.copy()
        out[: b.size] += b
        return Poly(out[: _kept(out, TRIM_REL * max(_top(a), _top(b)))])

    __radd__ = __add__

    def __sub__(self, other):
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(-self.coeffs)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is NotImplemented:
            return NotImplemented
        if self.is_zero or q.is_zero:
            return Poly.zero()
        return Poly(np.convolve(self.coeffs, q.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = Poly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def shifted(self, center):
        """Coefficients of the polynomial in powers of (z - center)."""
        b = self.coeffs.tolist()
        n = len(b)
        c = complex(center)
        for i in range(n):
            for j in range(n - 2, i - 1, -1):
                b[j] = b[j] + c * b[j + 1]
        return np.array(b, dtype=complex)

    def roots(self):
        if self.degree < 1:
            return np.zeros(0, dtype=complex)
        return npoly.polyroots(self.coeffs)

    def allclose(self, other, tol=1e-12):
        q = self._coerce(other)
        n = max(self.coeffs.size, q.coeffs.size)
        a = np.zeros(n, complex)
        b = np.zeros(n, complex)
        a[: self.coeffs.size] = self.coeffs
        b[: q.coeffs.size] = q.coeffs
        return bool(np.max(np.abs(a - b), initial=0.0) <= tol)

    def __repr__(self):
        return f"Poly({np.round(self.coeffs, 12).tolist()})"


# Fixed evaluation points used to confirm that a candidate reduction did not
# change the function (radii chosen away from the unit circle and from each
# other; no randomness so reductions are deterministic).
_CHECK_POINTS = np.array(
    [r * cmath.exp(2j * math.pi * (k + 0.137) / 5) for r in (0.37, 0.73, 1.42, 2.31) for k in range(5)],
    dtype=complex,
)

_GCD_TOL = 1e-10  # null-space residual bound, relative to the largest singular value
_VERIFY_TOL = 1e-7


def _same_function(num0, den0, num1, den1):
    used = 0
    for x in _CHECK_POINTS:
        d0 = _value(den0, x)
        d1 = _value(den1, x)
        if abs(d0) < 1e-6 * _majorant(den0, x) or abs(d1) < 1e-6 * _majorant(den1, x):
            continue
        f0 = _value(num0, x) / d0
        f1 = _value(num1, x) / d1
        if abs(f0 - f1) > _VERIFY_TOL * (1.0 + max(abs(f0), abs(f1))):
            return False
        used += 1
    return used >= 6


def _convolution(a, cols):
    """Matrix of p -> a * p on polynomials with `cols` coefficients."""
    C = np.zeros((a.size + cols - 1, cols), dtype=complex)
    for j in range(cols):
        C[j : j + a.size, j] = a
    return C


def _reduce_fraction(num, den):
    """Cancel the greatest common divisor of two coefficient arrays.

    With m = deg num and n = deg den, the gcd degree of the norm-scaled pair
    is the nullity of its Sylvester matrix. For a gcd of degree g the
    cofactors u = num / gcd and v = den / gcd solve num * v = den * u, i.e.
    they span the null space of [conv(num) | -conv(den)] with n-g+1 and m-g+1
    columns. The candidate at the nullity is accepted when that null vector's
    residual is within _GCD_TOL of the largest singular value and the
    quotient u / v still evaluates like the input; otherwise the input is
    returned unchanged.
    """
    num = _trim(num)
    den = _trim(den)
    if den.size == 0:
        raise ZeroDenominator("denominator reduced to zero")
    if num.size == 0:
        return num, np.array([1.0 + 0j])
    if den.size == 1:
        return num / den[0], np.array([1.0 + 0j])
    if num.size == 1:
        return num, den
    na, nb = np.linalg.norm(num), np.linalg.norm(den)
    a, b = num / na, den / nb
    m, n = a.size - 1, b.size - 1
    sylvester = np.hstack([_convolution(a, n), _convolution(b, m)])
    sing = np.linalg.svd(sylvester, compute_uv=False)
    g = min(int(np.sum(sing <= _GCD_TOL * sing[0])), m, n)
    if g == 0:
        return num, den
    C = np.hstack([_convolution(a, n - g + 1), -_convolution(b, m - g + 1)])
    _, sing, vh = np.linalg.svd(C, full_matrices=False)
    if sing[-1] > _GCD_TOL * sing[0]:
        return num, den
    null = vh[-1].conj()
    v, u = _trim(null[: n - g + 1]), _trim(null[n - g + 1 :])
    u = u * (na / nb)
    if u.size and v.size and _same_function(num, den, u, v):
        return u, v
    return num, den


class RationalFn:
    """Reduced quotient of two complex polynomials with a monic denominator.

    Treated as immutable: `num` and `den` are not reassigned or written
    after construction, since what is derived from them is kept on the
    object (see the module docstring).
    """

    __slots__ = ("num", "den", "_poles", "_center", "_expansion")

    def __init__(self, num, den=1.0, *, reduce=True):
        pn = num if isinstance(num, Poly) else Poly(num)
        pd = den if isinstance(den, Poly) else Poly(den)
        if pd.is_zero:
            raise ZeroDenominator("denominator is the zero polynomial")
        if reduce:
            cn, cd = _reduce_fraction(pn.coeffs, pd.coeffs)
        else:
            cn, cd = pn.coeffs, pd.coeffs
        lead = cd[-1]
        cd = cd / lead
        cd[-1] = 1.0
        cn = cn / lead
        try:
            self.num = Poly(cn)
            self.den = Poly(cd)
        except ValueError:  # finite coefficients over a tiny leading one
            raise ValueError(
                f"dividing by the leading denominator coefficient {complex(lead)!r} "
                "gives a non-finite coefficient"
            ) from None
        if self.num.degree > MAX_DEGREE or self.den.degree > MAX_DEGREE:
            raise DegreeLimitExceeded(
                f"degree {max(self.num.degree, self.den.degree)} exceeds cap {MAX_DEGREE}"
            )
        self._poles = None
        self._center = None
        self._expansion = None

    @classmethod
    def _at(cls, center, num, den):
        """num / den for arrays in powers of (z - center), both divided by the
        last coefficient of den, which a shift keeps. The scaled arrays are the
        kept expansion at `center`, and `num`, `den` them shifted to powers of z."""
        num, den = num / den[-1], den / den[-1]
        den[-1] = 1.0
        c = complex(center)
        zn, zd = (Poly(Poly(a).shifted(-c)) for a in (num, den))
        f = cls(zn, zd, reduce=False)
        f._center, f._expansion = (c.real.hex(), c.imag.hex()), (num, den, [])
        return f

    @classmethod
    def constant(cls, c):
        return cls(Poly.constant(c), Poly.one(), reduce=False)

    @classmethod
    def x(cls):
        return cls(Poly.x(), Poly.one(), reduce=False)

    @property
    def degree(self):
        return max(self.num.degree, self.den.degree)

    @property
    def is_zero(self):
        return self.num.is_zero

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return 0j if self.num.is_zero else complex(self.num.coeffs[0])

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def poles(self):
        """Roots of the denominator, computed once; read only where a pole's
        location is the answer (krein_langer_factor, schur_kernel, gram_matrix)."""
        if self._poles is None:
            self._poles = self.den.roots()
        return self._poles

    def _coerce(self, other):
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, Poly):
            return RationalFn(other, Poly.one(), reduce=False)
        if isinstance(other, numbers.Complex):
            return RationalFn.constant(other)
        return NotImplemented

    def __add__(self, other):
        g = self._coerce(other)
        if g is NotImplemented:
            return NotImplemented
        if np.array_equal(self.den.coeffs, g.den.coeffs):
            return RationalFn(self.num + g.num, self.den)
        return RationalFn(self.num * g.den + g.num * self.den, self.den * g.den)

    __radd__ = __add__

    def __sub__(self, other):
        g = self._coerce(other)
        if g is NotImplemented:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalFn(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        if isinstance(other, numbers.Complex) and not isinstance(other, RationalFn):
            c = complex(other)
            if c == 0:
                return RationalFn.constant(0.0)
            return RationalFn(Poly(self.num.coeffs * c), self.den, reduce=False)
        g = self._coerce(other)
        if g is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * g.num, self.den * g.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._coerce(other)
        if g is NotImplemented:
            return NotImplemented
        if g.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self.num * g.den, self.den * g.num)

    def __rtruediv__(self, other):
        g = self._coerce(other)
        if g is NotImplemented:
            return NotImplemented
        return g / self

    def _shifted(self, center):
        """Numerator, denominator in powers of (z - center) and the Taylor
        coefficients computed from them so far: kept for the first centre
        asked (compared bit for bit), shifted afresh for any other."""
        c = complex(center)
        key = (c.real.hex(), c.imag.hex())
        if self._center is None:
            self._center = key
            self._expansion = (self.num.shifted(c), self.den.shifted(c), [])
        if key == self._center:
            return self._expansion
        return self.num.shifted(c), self.den.shifted(c), []

    def taylor(self, center, order):
        """Taylor coefficients c_0..c_order of the function at `center`.

        Computed by shifting numerator and denominator to powers of
        (z - center) and dividing the power series. Coefficient m depends
        only on the first m + 1 shifted coefficients of each, so the longest
        series computed at the kept centre is stored: a shorter order is a
        slice of it and a longer one continues the division.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        n = order + 1
        if self.num.is_zero:
            return np.zeros(n, dtype=complex)
        a, b, c = self._shifted(center)
        if len(c) < n:
            if not c and abs(b[0]) <= ROOT_TOL * float(np.max(np.abs(b))):
                raise PoleAtExpansionPoint(f"denominator vanishes at {center}")
            A = a[:n].tolist() + [0j] * (n - a.size)
            B = b[:n].tolist() + [0j] * (n - b.size)
            b0 = b[0]
            for m in range(len(c), n):
                acc = A[m]
                for i in range(1, m + 1):
                    acc = acc - B[i] * c[m - i]
                c.append(complex(np.complex128(acc) / b0))
        return np.array(c[:n], dtype=complex)

    def vanishing_order(self, center):
        """Smallest Taylor index with |c_j| above ORDER_TOL at `center`.

        Returns INF for the zero function and a negative integer (minus the
        pole order) when `center` is a pole.
        """
        if self.num.is_zero:
            return INF
        a, b, _ = self._shifted(center)
        return _valuation(a) - _valuation(b)

    def allclose(self, other, tol=1e-9):
        g = self._coerce(other)
        return self.num.allclose(g.num, tol) and self.den.allclose(g.den, tol)

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"


def as_rational(x):
    """Coerce a scalar, Poly, or RationalFn to a RationalFn."""
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, Poly):
        return RationalFn(x, Poly.one(), reduce=False)
    if isinstance(x, numbers.Complex):
        return RationalFn.constant(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational function")


def vanishing_order(f, center):
    return as_rational(f).vanishing_order(center)


def unit_circle_samples(n):
    """n points on the unit circle; the offset 0.31 keeps the common data
    points 1 and -1 off the samples."""
    return np.exp(1j * (0.31 + 2.0 * np.pi * np.arange(n) / n))


# The samples of every circle-supremum check, computed once; read-only.
_CIRCLE = unit_circle_samples(CIRCLE_SAMPLES)
_CIRCLE.flags.writeable = False


class BlaschkeProduct:
    """Finite Blaschke product: const * prod (z - a_i) / (1 - conj(a_i) z)."""

    __slots__ = ("zeros", "const")

    def __init__(self, zeros=(), const=1.0):
        zs = tuple(complex(a) for a in zeros)
        for a in zs:
            if not abs(a) < 1.0 - BOUNDARY_MARGIN:
                raise BoundaryPole(f"Blaschke zero {a} too close to the unit circle")
        c = complex(const)
        if not abs(abs(c) - 1.0) <= CIRCLE_TOL:
            raise ValueError(f"constant {c} is not unimodular")
        self.zeros = zs
        self.const = c

    @property
    def order(self):
        return len(self.zeros)

    def __call__(self, z):
        out = np.full_like(np.asarray(z, dtype=complex), self.const) if isinstance(z, np.ndarray) else self.const
        for a in self.zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out

    def as_rational(self):
        num = Poly.from_roots(self.zeros, self.const)
        den = Poly.one()
        for a in self.zeros:
            if abs(a) > REFLECTION_FLOOR:
                den = den * Poly((1.0, -np.conj(a)))
        return RationalFn(num, den, reduce=False)  # poles reflect the zeros: coprime

    def __repr__(self):
        return f"BlaschkeProduct(zeros={list(self.zeros)}, const={self.const})"


class Mat2RF:
    """2x2 matrix of rational functions acting by linear-fractional transform."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = as_rational(a)
        self.b = as_rational(b)
        self.c = as_rational(c)
        self.d = as_rational(d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def eval(self, z):
        return np.array([e(z) for e in self.entries()], dtype=complex).reshape(2, 2)

    def apply(self, s):
        """(A n + B m) / (C n + D m) for s = n / m, with A..D the entries'
        numerators over the product q of their distinct denominators (compared
        bit for bit; CoeffMatrix.mat has one).

        Not reduced: a common zero of the pair is, for coprime n and m, a zero
        of AD - BC = q^2 det. So for an invertible constant matrix the pair is
        coprime, and for CoeffMatrix.mat (det 1, q a power of the node factor)
        only a parameter equal to tau0 at z1 shares a node factor with it.
        """
        s = as_rational(s)
        dens = {e.den.coeffs.tobytes(): e.den for e in self.entries()}
        A, B, C, D = (
            math.prod((q for key, q in dens.items() if key != e.den.coeffs.tobytes()), start=e.num)
            for e in self.entries()
        )
        if (A * D - B * C).is_zero:
            raise DegenerateLFT("transform determinant is identically zero")
        bot = C * s.num + D * s.den
        if bot.is_zero:
            raise DegenerateLFT("transform denominator is identically zero")
        return RationalFn(A * s.num + B * s.den, bot, reduce=False)

    def __repr__(self):
        return f"Mat2RF(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"


def krein_langer_factor(s, *, circle_tol=CIRCLE_TOL):
    """Split s = s0 / b with s0 analytic on the closed disk and b the Blaschke
    product over the poles of s inside the open disk (with multiplicity).

    s0 = s * b is formed by exact division: each disk pole a (smallest
    modulus first) is divided out of the denominator, and its reflection
    1 - conj(a) z out of the numerator where s vanishes at 1 / conj(a), i.e.
    the reversed numerator vanishes at conj(a) within ROOT_TOL of its
    majorant; otherwise the reflection becomes a factor of the denominator,
    unless |a| <= REFLECTION_FLOOR makes it 1 within rounding on the disk.

    The order of b is the negative-squares index of s. Raises BoundaryPole if
    a pole sits numerically on the circle and NotGeneralizedSchur when the
    analytic part exceeds modulus 1 + circle_tol on circle samples.
    """
    s = as_rational(s)
    if s.is_zero:
        # No negative squares, whatever poles an unreduced denominator lists.
        return RationalFn.constant(0.0), BlaschkeProduct([], 1.0)
    disk = []
    for p in s.poles():
        if abs(abs(p) - 1.0) <= BOUNDARY_MARGIN:
            raise BoundaryPole(f"pole {p} lies on the unit circle within {BOUNDARY_MARGIN}")
        if abs(p) < 1.0:
            disk.append(complex(p))
    num, den = s.num.coeffs, s.den.coeffs
    for a in sorted(disk, key=abs):
        den, _ = _deflate(den, a)
        c = a.conjugate()
        q, r = _deflate(num[::-1], c)
        if abs(r) <= ROOT_TOL * _majorant(num[::-1], c):
            num = q[::-1]
        elif abs(c) > REFLECTION_FLOOR:
            den = np.convolve(den, np.array((1.0, -c)))
    s0 = RationalFn(num, den, reduce=False)
    b = BlaschkeProduct(disk, 1.0)
    sup = float(np.max(np.abs(s0(_CIRCLE))))
    if sup > 1.0 + circle_tol:
        raise NotGeneralizedSchur(f"analytic factor reaches modulus {sup:.6g} on the circle")
    return s0, b


def cayley(z):
    """Pointwise Cayley transform (1 + z) / (1 - z)."""
    z = complex(z)
    if z == 1.0:
        raise PoleAtOne("Cayley transform undefined at z = 1")
    return (1.0 + z) / (1.0 - z)


def cayley_fn(s):
    """Cayley transform (1 + s) / (1 - s) as (den + num) / (den - num): a
    common factor of that pair would divide den and num, so it is coprime."""
    s = as_rational(s)
    bot = s.den - s.num
    if bot.is_zero:
        raise DegenerateLFT("Cayley transform degenerate: s is identically 1")
    return RationalFn(s.den + s.num, bot, reduce=False)
