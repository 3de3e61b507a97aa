"""Exact arithmetic for bivariate polynomials over the Gaussian integers.

Every weight that appears on a graph in this package lives in one universal
ring: polynomials in two indeterminates ``x`` and ``y`` whose coefficients are
Gaussian integers with arbitrary-precision integer parts.  Natural numbers,
the imaginary unit, degree-tracking powers of ``x`` and the color variable
``y`` all embed here, so everything is exact and no floating point exists
anywhere.

A :class:`RingElem` stores its terms sparsely::

    terms = {(deg_x, deg_y): (re, im), ...}

with no zero coefficients ever stored, so equal values have equal term maps
and hash identically.  Instances are immutable and safe to share between
workers, so an operation may hand back an operand instead of a new value:
``w + 0`` and ``w * 1`` are ``w`` itself, whose hash is already cached.  The
unit test reads the canonical terms, so any element equal to 1 counts, not
only :data:`ONE`.
"""

from __future__ import annotations

from random import Random
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import NotDivisibleError

__all__ = [
    "GaussInt",
    "RingElem",
    "Classification",
    "ZERO",
    "ONE",
    "I",
    "X",
    "Y",
    "const",
    "product",
    "x_pow",
    "monomial",
    "random_element",
    "random_gauss_int",
]


class GaussInt(NamedTuple):
    """A Gaussian integer ``re + im*i`` with arbitrary-precision parts."""

    re: int
    im: int

    @classmethod
    def of(cls, value: "GaussInt | int") -> "GaussInt":
        if isinstance(value, GaussInt):
            return value
        if isinstance(value, int):
            return cls(value, 0)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian integer")

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def __add__(self, other):  # type: ignore[override]
        o = GaussInt.of(other)
        return GaussInt(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def __sub__(self, other) -> "GaussInt":
        o = GaussInt.of(other)
        return GaussInt(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> "GaussInt":
        return (-self) + other

    def __mul__(self, other):  # type: ignore[override]
        o = GaussInt.of(other)
        return GaussInt(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def exact_div(self, divisor: "GaussInt | int") -> "GaussInt":
        """Divide exactly in Z[i]; raise :class:`NotDivisibleError` otherwise."""
        d = GaussInt.of(divisor)
        if d.is_zero:
            raise ZeroDivisionError("exact division by zero")
        num = self * d.conjugate()
        nn = d.norm()
        q_re, r_re = divmod(num.re, nn)
        q_im, r_im = divmod(num.im, nn)
        if r_re or r_im:
            raise NotDivisibleError(f"{self} is not divisible by {d}")
        return GaussInt(q_re, q_im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{imag}"


class Classification(NamedTuple):
    """Constant-coefficient predicates used by the characterization checks."""

    is_zero: bool
    is_constant: bool
    is_nonzero_pure_imaginary: bool
    is_in_minus_i_plus_z: bool


class RingElem:
    """An exact polynomial in x, y with Gaussian-integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, int], tuple[int, int]] = {}
        for key, coeff in items:
            dx, dy = key
            re, im = coeff
            if dx < 0 or dy < 0:
                raise ValueError(f"negative exponent in term {key}")
            if key in clean:
                cre, cim = clean[key]
                re, im = cre + re, cim + im
            if re or im:
                clean[(dx, dy)] = (re, im)
            else:
                clean.pop((dx, dy), None)
        self._terms = clean
        self._hash: int | None = None

    @classmethod
    def _raw(cls, terms: dict[tuple[int, int], tuple[int, int]]) -> "RingElem":
        # Internal fast path: `terms` must already be canonical (no zeros) and
        # must never be mutated afterwards.
        el = object.__new__(cls)
        el._terms = terms
        el._hash = None
        return el

    # -- basic protocol ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RingElem):
            return self._terms == other._terms
        coerced = _coerce(other)
        if coerced is None:
            return NotImplemented
        return self._terms == coerced._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            self._hash = h
        return h

    def terms(self) -> Iterator[tuple[tuple[int, int], GaussInt]]:
        """Yield ((deg_x, deg_y), coefficient) sorted by exponent."""
        for key in sorted(self._terms):
            re, im = self._terms[key]
            yield key, GaussInt(re, im)

    def sort_key(self) -> tuple:
        """A total order on ring elements, used for canonical output."""
        return tuple(
            (dx, dy, re, im)
            for (dx, dy), (re, im) in sorted(self._terms.items())
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RingElem":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not self._terms:
            return o
        if not o._terms:
            return self
        out = dict(self._terms)
        for key, (re, im) in o._terms.items():
            cur = out.get(key)
            if cur is None:
                out[key] = (re, im)
            else:
                nre, nim = cur[0] + re, cur[1] + im
                if nre or nim:
                    out[key] = (nre, nim)
                else:
                    del out[key]
        return RingElem._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "RingElem":
        return RingElem._raw({k: (-re, -im) for k, (re, im) in self._terms.items()})

    def __sub__(self, other) -> "RingElem":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RingElem":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "RingElem":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return product(self, o)

    __rmul__ = __mul__

    # -- ring operations from the problem domain ----------------------------

    def eval(self, x_value: GaussInt | int, y_value: GaussInt | int) -> GaussInt:
        """Substitute both indeterminates; a ring homomorphism into Z[i]."""
        xv = GaussInt.of(x_value)
        yv = GaussInt.of(y_value)
        x_pows: dict[int, tuple[int, int]] = {0: (1, 0)}
        y_pows: dict[int, tuple[int, int]] = {0: (1, 0)}
        tot_re = tot_im = 0
        for (dx, dy), (re, im) in self._terms.items():
            pxr, pxi = _pow_cached(xv.re, xv.im, dx, x_pows)
            pyr, pyi = _pow_cached(yv.re, yv.im, dy, y_pows)
            mr = pxr * pyr - pxi * pyi
            mi = pxr * pyi + pxi * pyr
            tot_re += re * mr - im * mi
            tot_im += re * mi + im * mr
        return GaussInt(tot_re, tot_im)

    def coeff_x(self, j: int) -> "RingElem":
        """The coefficient of x**j, as a polynomial in y alone."""
        if j < 0:
            raise ValueError("coefficient index must be nonnegative")
        out = {
            (0, dy): c for (dx, dy), c in self._terms.items() if dx == j
        }
        return RingElem._raw(out)

    def coeffs_x(self) -> dict[int, "RingElem"]:
        """All x-coefficients, grouped: {j: coefficient in y}. Absent j means 0."""
        grouped: dict[int, dict] = {}
        for (dx, dy), c in self._terms.items():
            grouped.setdefault(dx, {})[(0, dy)] = c
        return {j: RingElem._raw(t) for j, t in grouped.items()}

    def exact_div(self, divisor: GaussInt | int) -> "RingElem":
        """Divide every coefficient exactly by a nonzero Gaussian integer."""
        d = GaussInt.of(divisor)
        if d.is_zero:
            raise ZeroDivisionError("exact division by zero")
        out = {}
        for key, (re, im) in self._terms.items():
            q = GaussInt(re, im).exact_div(d)
            out[key] = (q.re, q.im)
        return RingElem._raw(out)

    def classify(self) -> Classification:
        """Flags for the constant-coefficient tests of the characterizations.

        ``is_nonzero_pure_imaginary``: a constant b*i with b != 0 (zero is
        excluded).  ``is_in_minus_i_plus_z``: a constant m - i with m an
        integer.
        """
        if not self._terms:
            return Classification(True, True, False, False)
        if len(self._terms) == 1 and (0, 0) in self._terms:
            re, im = self._terms[(0, 0)]
            return Classification(False, True, re == 0 and im != 0, im == -1)
        return Classification(False, False, False, False)

    def constant_value(self) -> GaussInt:
        """The value of a constant element; raises for non-constants."""
        if not self._terms:
            return GaussInt(0, 0)
        if len(self._terms) == 1 and (0, 0) in self._terms:
            return GaussInt(*self._terms[(0, 0)])
        raise ValueError(f"{self} is not constant")

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[dict]:
        """Terms sorted by (deg_x, deg_y); integer parts as decimal strings."""
        return [
            {"x": dx, "y": dy, "re": str(re), "im": str(im)}
            for (dx, dy), (re, im) in sorted(self._terms.items())
        ]

    @classmethod
    def from_json(cls, data: Iterable[Mapping]) -> "RingElem":
        return cls(
            ((int(t["x"]), int(t["y"])), (int(t["re"]), int(t["im"])))
            for t in data
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (dx, dy), coeff in self.terms():
            mono = "*".join(
                s
                for s in (_var_str("x", dx), _var_str("y", dy))
                if s
            )
            cs = str(coeff)
            if mono:
                if cs == "1":
                    term = mono
                elif cs == "-1":
                    term = f"-{mono}"
                elif coeff.re != 0 and coeff.im != 0:
                    term = f"({cs})*{mono}"
                else:
                    term = f"{cs}*{mono}"
            else:
                term = cs if coeff.im == 0 or coeff.re == 0 else f"({cs})"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"RingElem<{self}>"


def _var_str(name: str, deg: int) -> str:
    if deg == 0:
        return ""
    if deg == 1:
        return name
    return f"{name}^{deg}"


def _pow_cached(base_re: int, base_im: int, k: int, cache: dict) -> tuple[int, int]:
    v = cache.get(k)
    if v is not None:
        return v
    hr, hi = _pow_cached(base_re, base_im, k // 2, cache)
    sr, si = hr * hr - hi * hi, 2 * hr * hi
    if k % 2:
        sr, si = sr * base_re - si * base_im, sr * base_im + si * base_re
    cache[k] = (sr, si)
    return (sr, si)


def product(p: RingElem, q: RingElem) -> RingElem:
    """``p * q`` for two ring elements, without coercing either.  The one
    home of the zero and unit rules: a product with 0 is :data:`ZERO` and a
    product with 1 is the other operand itself."""
    a, b = p._terms, q._terms
    if not a or not b:
        return ZERO
    if b == _UNIT_TERMS:
        return p
    if a == _UNIT_TERMS:
        return q
    out: dict[tuple[int, int], tuple[int, int]] = {}
    _add_product(out, a, b)
    return RingElem._raw(out)


def _add_product(out: dict, a: dict, b: dict) -> None:
    """Add the product of the term maps ``a`` and ``b`` into the term map
    ``out``, deleting each term that cancels to zero.  The one convolution
    loop of :func:`product` and of ``gadgets.star_sum``."""
    for (ax, ay), (ar, ai) in a.items():
        for (bx, by), (br, bi) in b.items():
            key = (ax + bx, ay + by)
            pr = ar * br - ai * bi
            pi = ar * bi + ai * br
            cur = out.get(key)
            if cur is None:
                if pr or pi:
                    out[key] = (pr, pi)
            else:
                nre, nim = cur[0] + pr, cur[1] + pi
                if nre or nim:
                    out[key] = (nre, nim)
                else:
                    del out[key]


def _coerce(value) -> RingElem | None:
    if isinstance(value, RingElem):
        return value
    if isinstance(value, GaussInt):
        re, im = value
    elif isinstance(value, int):
        re, im = value, 0
    else:
        return None
    if re == 0 and im == 0:
        return ZERO
    return RingElem._raw({(0, 0): (re, im)})


# The canonical terms of 1; every element equal to 1 has exactly these.
_UNIT_TERMS = {(0, 0): (1, 0)}

ZERO = RingElem._raw({})
ONE = RingElem._raw(_UNIT_TERMS)
I = RingElem._raw({(0, 0): (0, 1)})
X = RingElem._raw({(1, 0): (1, 0)})
Y = RingElem._raw({(0, 1): (1, 0)})


def const(re: int, im: int = 0) -> RingElem:
    """The constant polynomial re + im*i."""
    if re == 0 and im == 0:
        return ZERO
    return RingElem._raw({(0, 0): (re, im)})


def x_pow(j: int) -> RingElem:
    if j < 0:
        raise ValueError("exponent must be nonnegative")
    return RingElem._raw({(j, 0): (1, 0)})


def monomial(re: int, im: int, deg_x: int, deg_y: int) -> RingElem:
    if deg_x < 0 or deg_y < 0:
        raise ValueError("exponent must be nonnegative")
    if re == 0 and im == 0:
        return ZERO
    return RingElem._raw({(deg_x, deg_y): (re, im)})


def random_gauss_int(rng: Random, bound: int = 9) -> GaussInt:
    return GaussInt(rng.randint(-bound, bound), rng.randint(-bound, bound))


def random_element(
    rng: Random,
    max_deg: int = 4,
    max_terms: int = 5,
    coeff_bound: int = 9,
) -> RingElem:
    """A random sparse element; used by the randomized axiom checks."""
    n_terms = rng.randint(0, max_terms)
    terms = []
    for _ in range(n_terms):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        coeff = (rng.randint(-coeff_bound, coeff_bound), rng.randint(-coeff_bound, coeff_bound))
        terms.append((key, coeff))
    return RingElem(terms)
