"""Closed-form heat kernels for the commuting case a = 0.

The one-dimensional generator D_yy + (c/y) D_y with the natural no-flux
condition at y = 0 has an explicit kernel built from the scaled modified
Bessel function; the full-space kernel is its product with the standard
N-dimensional Gaussian.  All values are taken with respect to the
weighted measure y^c dz, the convention used everywhere in this package
(conservation reads: integral of p against y^c dz equals 1).

On a tensor grid the a = 0 kernel is evaluated once per axis by
tensor_kernel: Gaussians at the x-nodes, Bessel values at the y-nodes,
and their outer product, bit-identical to product_kernel at every node.

Slices are written by one CSV writer, write_csv, which builds the text
column by column: the sample points once per call, the time and source
once per file, the values once per chunk of rows.  Its numbers are the
bytes of `"%.17g" % v`, formatted in numpy by _g17: the 17 significant
digits come from a double-double product with a power of ten and are
written as plain text, their trailing zeros are stripped once, and %g's
layout is cut from that text; the rare value that product cannot settle
goes through Python's `%`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterError, WrongOperatorError
from .special import bessel_i_scaled, log_gamma

__all__ = [
    "WEIGHTED_CONVENTION",
    "bessel_heat_kernel",
    "product_kernel",
    "tensor_kernel",
    "KernelSlice",
    "exact_slice",
    "write_csv",
]

WEIGHTED_CONVENTION = "y^c dz"

#: largest |a| treated as zero: reductions of a = 0 operators leave round-off
A_ZERO_TOL = 1e-13

#: rows formatted and written at once, so the text buffers stay small for large tables
CSV_CHUNK_ROWS = 2048

# _g17: k = floor(log10|v|) of a normal double lies in [_K_MIN, _K_MAX); the
# tables run to _K_MAX for the test v >= 10^(k+1)
_K_MIN, _K_MAX = -308, 309
_LOG10_2 = 0.30102999566398120
_TINY = 2.2250738585072014e-308  # smallest normal double
_HUGE = 1.7976931348623157e308
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit doubles
#: a value whose scaled fraction lies this close to 1/2 goes to `%`; its error is below 2^-45
_TIE_GUARD = 2.0 ** -40
#: longest `%.17g` text, "-1.2345678901234567e-308"
_G17_WIDTH = 24


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0.0)):  # NaN fails both
        raise DomainError("kernel time must be positive and finite")


def bessel_heat_kernel(c: float, t: float, y1, y2):
    """Kernel of the 1-D Bessel generator w.r.t. y^c dy, for c + 1 > 0.

    p(t, y1, y2) = (2t)^{-1} (y1 y2)^{-(c-1)/2}
                   exp(-(y1-y2)^2/(4t)) * [e^{-xi} I_{(c-1)/2}(xi)],
    xi = y1 y2 / (2t).  The Gaussian cancellation between the exponential
    and the Bessel growth is done in the exponent, so no intermediate
    overflows occur.
    """
    if not c + 1.0 > 0.0:
        raise ParameterError(f"Bessel drift must satisfy c+1 > 0, got c={c}")
    _check_time(t)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if not (np.all(np.isfinite(y1) & (y1 > 0.0))
            and np.all(np.isfinite(y2) & (y2 > 0.0))):  # NaN fails both
        raise DomainError("bessel_heat_kernel requires finite y > 0")
    nu = 0.5 * (c - 1.0)
    xi = y1 * y2 / (2.0 * t)
    small = xi < 1e-4
    with np.errstate(over="ignore", invalid="ignore"):
        val = (
            (0.5 / t)
            * (y1 * y2) ** (-nu)
            * np.exp(-((y1 - y2) ** 2) / (4.0 * t))
            * bessel_i_scaled(nu, np.where(small, 1.0, xi))
        )
    if np.any(small):
        # leading series of I_nu: the y powers cancel against the prefactor,
        # leaving a bounded expression where the direct product would be 0*inf
        lim = (
            (0.5 / t) * (4.0 * t) ** (-nu) / np.exp(log_gamma(nu + 1.0))
            * np.exp(-(y1 ** 2 + y2 ** 2) / (4.0 * t))
            * (1.0 + xi ** 2 / (4.0 * (nu + 1.0)))
        )
        val = np.where(small, lim, val)
    return val if np.ndim(val) else float(val)


def _check_commuting(model, t):
    if np.linalg.norm(model.a) > A_ZERO_TOL:
        raise WrongOperatorError(
            "closed-form kernel requires a = 0; use the finite-difference solver"
        )
    _check_time(t)


def product_kernel(model, t: float, z1, z2):
    """Full kernel for the model operator with a = 0, w.r.t. y^c dz.

    z1, z2 are points (x..., y) of length N+1, or arrays of shape
    (m, N+1) for batched evaluation.  Raises WrongOperatorError when the
    mixed-derivative coefficient does not vanish (round-off zeros from
    reductions are accepted): no closed form exists then and the caller
    must use the finite-difference solver.
    """
    _check_commuting(model, t)
    z1 = np.atleast_2d(np.asarray(z1, dtype=float))
    z2 = np.atleast_2d(np.asarray(z2, dtype=float))
    n = model.n
    if z1.shape[-1] != n + 1 or z2.shape[-1] != n + 1:
        raise DomainError(f"points must have {n + 1} coordinates")
    x1, y1 = z1[..., :n], z1[..., n]
    x2, y2 = z2[..., :n], z2[..., n]
    gauss = (4.0 * np.pi * t) ** (-0.5 * n) * np.exp(
        -np.sum((x1 - x2) ** 2, axis=-1) / (4.0 * t)
    )
    val = gauss * bessel_heat_kernel(model.c, t, y1, y2)
    return float(val[0]) if val.shape == (1,) else val


def tensor_kernel(model, t: float, z2, xs, ys) -> np.ndarray:
    """The a = 0 kernel p(t, (xs[i], ys[j]), z2) at entry i * len(ys) + j (N = 1).

    The kernel is a Gaussian in x times the Bessel kernel in y, so the
    len(xs) Gaussians and len(ys) Bessel values give every value of the
    tensor grid xs x ys by an outer product: len(ys) scaled-Bessel
    evaluations, not len(xs) * len(ys).  Each entry is the product of the
    same two doubles that product_kernel forms at that point, with the
    grid point as either argument, so the values are bit-identical to it.
    Rejects a != 0 (WrongOperatorError) as product_kernel does.
    """
    _check_commuting(model, t)
    if model.n != 1:
        raise DomainError("tensor grids are defined for N = 1")
    z2 = np.asarray(z2, dtype=float)
    xs = np.asarray(xs, dtype=float)
    bessel = bessel_heat_kernel(model.c, t, ys, z2[1])
    gauss = (4.0 * np.pi * t) ** -0.5 * np.exp(-((xs - z2[0]) ** 2) / (4.0 * t))
    return np.outer(gauss, bessel).ravel()


@dataclass
class KernelSlice:
    """Sampled kernel values p(t, ., z2) with their sampling metadata.

    Values are densities against y^c dz (WEIGHTED_CONVENTION), the one
    convention of the package and of the CSV files.

    `weights` carries the y^c dz quadrature/cell masses of the sample
    points when the slice is integration-capable (solver columns,
    quadrature grids); probe-only slices leave it None.
    """

    t: float
    source: np.ndarray
    points: np.ndarray
    values: np.ndarray
    c: float
    weights: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.source = np.asarray(self.source, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        _check_time(self.t)
        if not (np.all(np.isfinite(self.source)) and self.source[-1] > 0.0):
            raise DomainError("KernelSlice requires a finite source with y > 0")
        if self.points.shape[0] != self.values.shape[0]:
            raise DomainError("points/values length mismatch")

    @property
    def n(self) -> int:
        return self.points.shape[1] - 1

    def clamped_values(self) -> np.ndarray:
        """Values with small negative discretization noise clamped to 0."""
        return np.maximum(self.values, 0.0)

    def mass(self) -> float:
        """Discrete integral of the slice against y^c dz."""
        if self.weights is None:
            raise DomainError("slice carries no integration weights")
        return float(np.dot(self.weights, self.values))


class _G17Tables(NamedTuple):
    """Read-only tables of _g17; the first seven are indexed by k - _K_MIN.

    `lead` and `quad` spell the 17 digits of D as plain text, four bytes
    at a time; `zeros` holds the pieces between the integer digits and
    the digits after the point.
    """

    hi: np.ndarray        # 10^(16-k) = (hi + lo) 2^shift, hi in [1, 2]
    hi_head: np.ndarray   # Dekker halves of hi: hi = hi_head + hi_tail, 26 bits or fewer
    hi_tail: np.ndarray
    lo: np.ndarray
    shift: np.ndarray
    ten_k: np.ndarray     # the smallest double >= 10^k (inf above the double range)
    exponent: np.ndarray  # b"e%+03d" % k where %g uses scientific notation, else b""
    lead: np.ndarray      # lead[10 s + d]: b"000%d" % d (s = 0) or b"00-%d" % d (s = 1), one word
    quad: np.ndarray      # quad[g]: b"%04d" % g as one uint32 word
    zeros: np.ndarray     # b"" and b"." (no digit before the point), then for -4 <= k < 0
                          # zeros[2 + 4 s - k - 1]: the sign s, "0." and -k - 1 zeros


@functools.cache
def _g17_tables() -> _G17Tables:
    """Build _g17's tables from exact integers, once per process (a few ms)."""
    ks = range(_K_MIN, _K_MAX + 1)
    ten = [1]
    while len(ten) <= 16 - _K_MIN:
        ten.append(ten[-1] * 10)
    hi, lo, shift, ten_k = [], [], [], []
    for k in ks:
        # 10^(16-k) ~ m 2^e with m a 128-bit integer, truncated where inexact
        if k <= 16:
            b = ten[16 - k].bit_length()
            m = ten[16 - k] << (128 - b) if b <= 128 else ten[16 - k] >> (b - 128)
            e = b - 128
        else:
            b = ten[k - 16].bit_length()
            m, e = (1 << (b + 127)) // ten[k - 16], -(b + 127)
        head = (m + (1 << 74)) >> 75  # m rounded to 53 bits
        hi.append(head / 2.0 ** 52)
        lo.append((m - (head << 75)) / 2.0 ** 127)
        shift.append(e + 127)
        # the smallest double >= 10^k: the correctly rounded one, stepped up if below
        if k > 308:
            x = math.inf
        elif k >= 0:
            x = float(ten[k])
            if int(x) < ten[k]:
                x = math.nextafter(x, math.inf)
        else:
            x = 1 / ten[-k]
            num, den = x.as_integer_ratio()
            if num * ten[-k] < den:
                x = math.nextafter(x, math.inf)
        ten_k.append(x)
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_head = c - (c - hi)
    g = np.arange(10000)
    quad = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    tables = _G17Tables(
        hi=hi, hi_head=hi_head, hi_tail=hi - hi_head, lo=np.array(lo),
        shift=np.array(shift, dtype=np.int32), ten_k=np.array(ten_k),
        exponent=np.array([b"" if -4 <= k < 17 else b"e%+03d" % k for k in ks], "S5"),
        lead=np.array([b"00" + sign + b"%d" % d for sign in (b"0", b"-") for d in range(10)],
                      "S4").view(np.uint32),
        quad=quad.astype(np.uint8).view(np.uint32).ravel(),
        zeros=np.array([b"", b"."] + [sign + b"0." + b"0" * z for sign in (b"", b"-")
                                      for z in range(4)], "S6"))
    for table in tables:
        table.flags.writeable = False
    return tables


def _g17_fallback(values) -> np.ndarray:
    """`b"%.17g" % v` through Python's `%`, once per distinct bit pattern of `values`."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64),
                              return_inverse=True)
    texts = [b"%.17g" % v for v in bits.view(np.float64).tolist()]
    return np.array(texts, dtype=f"S{_G17_WIDTH}")[inverse]


def _g17(values) -> np.ndarray:
    """`b"%.17g" % v` for each double v of `values` (flattened), as an S24 array.

    The bytes equal Python's for every double.  For a normal finite v,
    k = floor(log10|v|) and P = |v| 10^(16-k) lies in [10^16, 10^17); P
    is formed as a double-double (Dekker's exact product of the mantissa
    with the leading half of 10^(16-k), plus the trailing half), with an
    absolute error below 2^-45, and rounded to the 17-digit integer D.
    D is written as 20 bytes of text, the sign and first digit from `lead`
    and four groups of four digits from `quad`; its trailing zeros are
    stripped once with np.strings.rstrip.  %g's layout is cut from that
    text: in fixed notation (-4 <= k < 17) the integer part is digits
    0..k and, for k < 0, a `zeros` entry `[-]0.0..0`; in scientific
    notation it is digit 0 and `e+XX` follows.  A '.' and the stripped
    digits after the integer part follow when any remain.  Values
    the product cannot settle go to _g17_fallback, Python's `%`: zero,
    subnormals, inf and NaN, a fraction of P within 2^-40 of 1/2 (the
    exact ties of the 18th digit among them), and D outside [10^16, 10^17).
    """
    v = np.asarray(values, dtype=float).ravel()
    tab = _g17_tables()
    a = np.abs(v)
    fast = (a >= _TINY) & (a <= _HUGE)  # NaN fails both
    a[~fast] = 1.0
    m, e = np.frexp(a)  # |v| = m 2^e, m in [1/2, 1)
    k = np.floor((e - 1) * _LOG10_2).astype(np.int32)  # floor(log10 2^(e-1)), exact here
    k += a >= tab.ten_k[k + (1 - _K_MIN)]
    i = k - _K_MIN
    # P = |v| 10^(16-k) = m (hi + lo) 2^(e+shift); m hi exactly as prod + err (Dekker)
    prod = m * tab.hi[i]
    c = _SPLIT * m
    m_head = c - (c - m)
    m_tail = m - m_head
    hi_head, hi_tail = tab.hi_head[i], tab.hi_tail[i]
    err = ((m_head * hi_head - prod) + m_head * hi_tail + m_tail * hi_head) + m_tail * hi_tail
    scale = e + tab.shift[i]
    p_big = np.ldexp(prod, scale)  # an integer once P >= 2^53
    p_whole = np.floor(p_big)
    p_rest = (p_big - p_whole) + np.ldexp(m * tab.lo[i] + err, scale)
    carry = np.floor(p_rest)
    frac = p_rest - carry
    digits = p_whole.astype(np.int64) + carry.astype(np.int64)
    digits += frac > 0.5
    fast &= (np.abs(frac - 0.5) > _TIE_GUARD) & (digits >= 10 ** 16) & (digits < 10 ** 17)
    digits[~fast] = 10 ** 16

    # 20 bytes per value: "00", '0' or '-', then the 17 digits of D.  %g's text is
    # text[3 - neg:cut] (sign and integer digits), then '.' and the stripped digits
    # from cut on if any remain; for -4 <= k < 0 it is [-]0.0..0 and the stripped digits
    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)
    cut = 4 + np.where(fixed & ~small, k, 0)  # where the digits after the point start
    neg = (v < 0).astype(np.int32)
    top, low = np.divmod(digits, 10 ** 8)
    top, low = top.astype(np.int32), low.astype(np.int32)
    first, mid = np.divmod(top, 10 ** 8)
    words = np.empty((len(v), 5), dtype=np.uint32)
    words[:, 0] = tab.lead[first + 10 * neg]
    for j, group in enumerate((mid // 10 ** 4, mid % 10 ** 4, low // 10 ** 4, low % 10 ** 4)):
        words[:, 1 + j] = tab.quad[group]
    text = words.view("S20").ravel()
    stripped = np.strings.rstrip(text, b"0")
    whole = np.strings.slice(text, np.where(small, cut, 3 - neg), cut)
    point = np.where(small, 1 + 4 * neg - k, np.strings.str_len(stripped) > cut)
    after = np.strings.slice(stripped, np.where(small, 3, cut), 20)
    out = np.strings.add(np.strings.add(whole, tab.zeros[point]), after)
    if not fixed.all():
        out = np.strings.add(out, tab.exponent[i])
    out = out.astype(f"S{_G17_WIDTH}")
    if not fast.all():
        out[~fast] = _g17_fallback(v[~fast])
    return out


def write_csv(slices, paths) -> None:
    """Write slices[k] to the file paths[k] as `t,x1,y1,x2,y2,p,convention` rows.

    Every number is written as the bytes of `"%.17g" % v`, which
    round-trips doubles bit-exactly; _g17 formats whole columns in numpy
    and hands the values it cannot settle to Python's `%`.  The text is
    built column by column: the `x1,y1` column once per distinct `points`
    array of the call (all slices of one kernel_slices call share one),
    `t` and `x2,y2` once per slice, and `p` per CSV_CHUNK_ROWS rows, the
    unit in which rows are written.
    """
    xy_chunks = {}  # id(points) -> its x1,y1 texts per chunk; the slices keep the arrays alive
    tail = b"," + WEIGHTED_CONVENTION.encode() + b"\n"
    for slc, path in zip(slices, paths, strict=True):
        if slc.n != 1:
            raise DomainError("CSV slice format is defined for N = 1")
        starts = range(0, len(slc.values), CSV_CHUNK_ROWS)
        xy = xy_chunks.get(id(slc.points))
        if xy is None:
            xy = xy_chunks[id(slc.points)] = []
            for start in starts:
                x, y = _g17(slc.points[start:start + CSV_CHUNK_ROWS]).reshape(-1, 2).T
                xy.append(np.strings.add(np.strings.add(x, b","), y))
        head = b"%.17g," % float(slc.t)
        mid = b",%.17g,%.17g," % tuple(slc.source.tolist())
        with open(path, "wb") as fh:
            fh.write(b"t,x1,y1,x2,y2,p,convention\n")
            for start, xy_text in zip(starts, xy):
                rows = np.strings.add(np.strings.add(xy_text, mid),
                                      _g17(slc.values[start:start + CSV_CHUNK_ROWS]))
                fh.write(head + (tail + head).join(rows.tolist()) + tail)


def exact_slice(model, t: float, z2, points) -> KernelSlice:
    """Evaluate the a = 0 closed form on given sample points as a probe-only slice."""
    z2 = np.asarray(z2, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = product_kernel(model, t, points, z2[None, :])
    return KernelSlice(t=t, source=z2, points=points, values=np.atleast_1d(vals), c=model.c)
