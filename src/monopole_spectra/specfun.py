"""Series evaluators: confluent/Gauss hypergeometric and the local Heun function.

All three are plain power series around z = 0 with a hard term cap;
truncation past the cap is an error, never silent. The hypergeometric series
are summed in double precision. The Heun series (singular points
{0, 1, -1, inf}, the only configuration needed here) has one summation
path: coefficients from one generator in 30-digit decimal arithmetic, summed
in one numpy pass in double-double arithmetic (about 32 digits) over many
parameter sets and points at once. The wavefunction values (`heun_local`)
and the ODE residual checks both read their sums from it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

SERIES_CAP = 10_000
SERIES_RTOL = 1e-15


class SeriesError(ValueError):
    """Parameter-domain violation or failure of a series to converge."""


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0 and float(x) == int(x)


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Kummer confluent hypergeometric 1F1(a; b; z).

    If a is a non-positive integer the series is the exact degree-|a|
    polynomial, summed in |a|+1 terms; otherwise b must avoid non-positive
    integers and the full series is summed to relative 1e-13.
    """
    return _ratio_series(z, lambda k: (a + k) / ((b + k) * (k + 1.0)), a, b, "1F1")


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for |z| < 1, or any z when the
    series terminates (a or b a non-positive integer)."""
    poly = _is_nonpositive_int(a) or _is_nonpositive_int(b)
    if not poly and abs(z) >= 1.0:
        raise SeriesError(f"2F1 series diverges at |z| = {abs(z)} >= 1 (non-polynomial case)")
    if _is_nonpositive_int(b) and not _is_nonpositive_int(a):
        a, b = b, a  # terminate on the first parameter
    return _ratio_series(z, lambda k: (a + k) * (b + k) / ((c + k) * (k + 1.0)), a, c, "2F1")


def _ratio_series(z: float, ratio, a: float, denom_param: float, label: str) -> float:
    """Sum 1 + sum_k t_k with t_{k+1} = t_k * ratio(k) * z, guarding the
    polynomial case a = -n and the denominator-parameter poles. The
    polynomial case also sums elementwise over a numpy array z."""
    polynomial = _is_nonpositive_int(a)
    if not polynomial and _is_nonpositive_int(denom_param):
        raise SeriesError(f"{label} undefined: denominator parameter {denom_param} is a non-positive integer")
    term, tot = 1.0, 1.0
    for k in range(int(-a) if polynomial else SERIES_CAP):
        term = term * ratio(k) * z
        tot = tot + term
        if not polynomial and abs(term) <= SERIES_RTOL * abs(tot) and k > 2:
            return tot
    if polynomial:
        return tot
    raise SeriesError(f"{label} series failed to converge within {SERIES_CAP} terms at z = {z}")


# --- general Heun, singular points {0, 1, -1, inf} --------------------------

FUCHS_TOL = 1e-12
HEUN_TAIL_TOL = 1e-11
DECIMAL_DIGITS = 30


@dataclass(frozen=True)
class HeunParams:
    """Parameters of H'' + (gamma/z + delta/(z-1) + eps/(z+1)) H'
    + (lam*beta*z - q) / (z(z-1)(z+1)) H = 0.

    The Fuchs relation gamma + delta + eps = lam + beta + 1 is enforced at
    construction (it is an exact algebraic identity for every parameter set
    generated in this package).
    """

    gamma: float
    delta: float
    eps: float
    lam: float
    beta: float
    q: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if math.isnan(value):
                raise SeriesError(f"Heun parameter {name} is NaN")
        if not abs(self.fuchs_residual()) <= FUCHS_TOL:
            raise SeriesError(f"Fuchs relation violated by {self.fuchs_residual():.3e}")

    def fuchs_residual(self) -> float:
        return (self.gamma + self.delta + self.eps) - (self.lam + self.beta + 1.0)


def heun_coefficients(p: HeunParams):
    """Frobenius coefficients c_0, c_1, ... of the exponent-zero solution at
    z = 0, generated without end in decimal arithmetic at the active
    context's precision (`_accurate_sums` sets DECIMAL_DIGITS):

        (k+1)(k+gamma) c_{k+1} = (k(delta - eps) - q) c_k
                                 + (k-1+lam)(k-1+beta) c_{k-1},  c_0 = 1.
    """
    if _is_nonpositive_int(p.gamma):
        raise SeriesError(f"Heun series degenerate: gamma = {p.gamma} is a non-positive integer")
    gamma, delta, eps, lam, beta, q = (Decimal(x) for x in (p.gamma, p.delta, p.eps, p.lam, p.beta, p.q))
    c_prev, c = Decimal(0), Decimal(1)
    for k in itertools.count():
        yield c
        num_k = (k * (delta - eps) - q) * c + (k - 1 + lam) * (k - 1 + beta) * c_prev
        c_prev, c = c, num_k / ((k + 1) * (k + gamma))


def heun_local(p: HeunParams, z):
    """Local Heun solution normalized H(0) = 1, valid on |z| < 1, summed by
    `_accurate_sums`: a float for a scalar z, an array for an array of z."""
    h = _accurate_sums([p], np.ravel(z))[0, :, 0]
    return h.reshape(np.shape(z)) if np.ndim(z) else float(h[0])


# --- double-double sums ---------------------------------------------------------
#
# A double-double is an unevaluated sum hi + lo of two doubles with
# |lo| <= ulp(hi)/2, about 32 significant digits. numpy has no fused
# multiply-add, so exact products use Dekker's split of each factor into two
# 26-bit halves (Dekker, Numer. Math. 18 (1971)); sums use Knuth's error-free
# two-sum (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26 (2005)).

_SPLITTER = 134217729.0  # 2^27 + 1
_SPLIT_MAX = 2.0**996  # beyond this, _SPLITTER * x overflows
_CHUNK = 8  # terms per block of coefficients and powers
_BEYOND_SPLIT = "Heun series coefficient or power beyond 2^996, the double-double split range"


def _split(a):
    """Dekker's split a = hi + lo, each half holding at most 26 significant bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _dd_product(x_hi, x_lo, xs_hi, xs_lo, y_hi, y_lo, ys_hi, ys_lo):
    """(x_hi + x_lo)(y_hi + y_lo) as p + e, with p = fl(x_hi y_hi) and e its
    exact error (from the splits xs, ys of x_hi, y_hi) plus the cross terms:
    e = ((xs_hi ys_hi - p) + xs_hi ys_lo + xs_lo ys_hi) + xs_lo ys_lo
    + (x_hi y_lo + x_lo y_hi), summed in that order in two work arrays."""
    p = x_hi * y_hi
    e = xs_hi * ys_hi
    e -= p
    t = xs_hi * ys_lo
    e += t
    np.multiply(xs_lo, ys_hi, out=t)
    e += t
    np.multiply(xs_lo, ys_lo, out=t)
    e += t
    np.multiply(x_hi, y_lo, out=t)
    t += x_lo * y_hi
    e += t
    return p, e


def _dd_accumulate(hi, lo, p, e) -> None:
    """hi + lo += p + e in place: the two-sum of hi and p, its error plus
    lo + e, then the renormalized pair."""
    s = hi + p
    v = s - hi
    err = hi - (s - v)
    err += p - v
    err += lo + e
    np.add(s, err, out=hi)
    s -= hi
    np.add(err, s, out=lo)  # err - (hi - s)


def _dd_rows(hi, lo) -> np.ndarray:
    """The pair hi + lo renormalized (fast two-sum), with the split of its hi
    part: rows hi, lo, split hi, split lo. Values beyond the split range raise."""
    if not np.all(np.abs(hi) <= _SPLIT_MAX):
        raise SeriesError(_BEYOND_SPLIT)
    s = hi + lo
    return np.stack([s, lo - (s - hi), *_split(s)])


@functools.lru_cache(maxsize=None)
def _pow10(e: int) -> tuple[float, float]:
    """10^e as a double-double (hi, lo), from the exact rational."""
    f = Fraction(10) ** e
    hi = float(f)
    return hi, float(f - Fraction(hi))


def _dd_coefficients(k0: int, blocks) -> np.ndarray:
    """Frobenius coefficients c_k, k = k0 .. k0 + _CHUNK - 1, for each list of
    Decimal coefficients in `blocks`, as a (_CHUNK, 4, 3, len(blocks)) array:
    double-double rows (`_dd_rows`) of c_k, k c_k and k(k-1) c_k. Each c_k is
    M 10^e with an integer M of at most DECIMAL_DIGITS digits, which splits
    exactly into two doubles; c_k is their product with 10^e, and its
    integer multiples are formed from it, each with Dekker's exact product."""
    cs = [c for block in blocks for c in block]
    exps = [c.adjusted() - (DECIMAL_DIGITS - 1) for c in cs]
    if max(exps) > 300 - DECIMAL_DIGITS:  # |c_k| >= 1e300
        raise SeriesError(_BEYOND_SPLIT)
    try:
        ms = [int(c.scaleb(-e)) for c, e in zip(cs, exps)]
    except (ValueError, OverflowError):  # a NaN or infinite c_k
        raise SeriesError(_BEYOND_SPLIT) from None
    m_hi = np.array(ms, dtype=float)
    m_lo = np.array([m - int(h) for m, h in zip(ms, m_hi.tolist())], dtype=float)
    p_hi, p_lo = np.array([_pow10(e) for e in exps]).T
    p, err = _dd_product(m_hi, m_lo, *_split(m_hi), p_hi, p_lo, *_split(p_hi))
    c = _dd_rows(p.reshape(len(blocks), _CHUNK).T, err.reshape(len(blocks), _CHUNK).T)
    ks = np.arange(k0, k0 + _CHUNK, dtype=float)[:, None]
    rows = [c]
    for m in (ks, ks * (ks - 1.0)):
        # m <= k(k-1) < 2^27 is exact, with the split (m, 0)
        rows.append(_dd_rows(*_dd_product(*c, m, 0.0, m, 0.0)))
    return np.stack(rows, axis=2).transpose(1, 0, 2, 3)


def _dd_powers(z: np.ndarray):
    """Blocks of the powers of each z: the double-double rows (`_dd_rows`) of
    z^(k0-2) .. z^(k0+_CHUNK-1) as a (_CHUNK + 2, 4, len(z)) array for
    k0 = 0, _CHUNK, 2 _CHUNK, ..., one block per iteration; powers below
    z^0 are zero. A block is its first power times the fixed z^0 .. z^(_CHUNK+1)."""
    z_rows = _dd_rows(z, 0.0)
    steps = [_dd_rows(np.ones_like(z), 0.0)]
    for _ in range(_CHUNK + 1):
        steps.append(_dd_rows(*_dd_product(*steps[-1], *z_rows)))
    steps = np.stack(steps, axis=1)  # (4, _CHUNK + 2, len(z))
    block = np.zeros((_CHUNK + 2, 4, len(z)))
    block[2:] = steps[:, :_CHUNK].transpose(1, 0, 2)
    while True:
        yield block
        block = _dd_rows(*_dd_product(*block[_CHUNK], *steps)).transpose(1, 0, 2)


def _stop_test(term, h, tail_factor, quiet):
    """The stop rule on a grid: a sum stops once three successive terms of H
    fall below 1e-30 |H| and the geometric tail estimate |term| |z|/(1 - |z|)
    is below HEUN_TAIL_TOL max(|H|, 1). Returns the updated count of quiet
    terms, and where the sum stops."""
    h = np.abs(h)
    quiet = np.where(term <= 1e-30 * np.maximum(h, 1e-300), quiet + 1, 0)
    return quiet, (quiet >= 3) & (term * tail_factor <= HEUN_TAIL_TOL * np.maximum(h, 1.0))


def _accurate_sums(params, zs) -> np.ndarray:
    """(H, H', H'') for each parameter set of `params` at each z of `zs`, as a
    (len(params), len(zs), 3) array, summed in double-double arithmetic from
    coefficients computed in DECIMAL_DIGITS-digit decimal arithmetic.

    Parameter sets with widely split exponents (|delta - eps| large) cancel as
    much as ~1e6 of the peak term at |z| = 0.8, which floors a plain double
    evaluation near 1e-8; about 32 digits restore the headroom the pointwise
    residual checks need.

    The (set, z) pairs form a grid that one numpy pass over k sums, H, H'
    and H'' in turn, so each array holds one value per pair. A pair stops on
    the rule of `_stop_test`, checked from k = 9 on, and its sums are read
    then; a set leaves the grid once all its points have stopped, and a
    point once it has stopped for every set. The powers of z are shared by
    all sets; the coefficients of the sets still in the grid are generated
    _CHUNK terms at a time."""
    zs = [float(z) for z in zs]
    for z in zs:
        if abs(z) >= 1.0:
            raise SeriesError(f"Heun local series restricted to |z| < 1, got {z}")
    out = np.zeros((len(params), len(zs), 3))
    if out.size == 0:
        return out
    rows, cols = np.arange(len(params)), np.arange(len(zs))  # the sets and points still summed
    az = np.abs(np.array(zs))
    tail_factor = az / np.maximum(1.0 - az, 1e-6)
    sum_hi = np.zeros((3, len(params), len(zs)))
    sum_lo = np.zeros_like(sum_hi)
    quiet = np.zeros(sum_hi.shape[1:], dtype=np.int16)
    done = np.zeros(sum_hi.shape[1:], dtype=bool)
    powers = _dd_powers(np.array(zs))
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        series = [heun_coefficients(p) for p in params]
        for k in range(SERIES_CAP):
            j = k % _CHUNK
            if j == 0:
                coefficients = _dd_coefficients(k, [list(itertools.islice(series[s], _CHUNK)) for s in rows])
                power_block = next(powers)
            x = power_block[j:j + 3, :, cols]  # z^(k-2), z^(k-1), z^k
            for r in range(3):
                # c_k z^k, k c_k z^(k-1), k(k-1) c_k z^(k-2); sets down, points across
                p, e = _dd_product(*coefficients[j, :, r, :, None], *x[2 - r, :, None, :])
                if r == 0:
                    term = np.abs(p + e)
                _dd_accumulate(sum_hi[r], sum_lo[r], p, e)
                del p, e  # each work array is freed before the next is made
            if k <= 8:
                continue
            quiet, stop = _stop_test(term, sum_hi[0], tail_factor, quiet)
            del term
            stop &= ~done
            if not stop.any():
                continue
            set_i, z_i = np.nonzero(stop)
            out[rows[set_i], cols[z_i]] = sum_hi[:, set_i, z_i].T
            done |= stop
            keep_rows, keep_cols = ~done.all(axis=1), ~done.all(axis=0)
            if not keep_rows.any():
                break
            if keep_rows.all() and keep_cols.all():
                continue
            rows, cols, tail_factor = rows[keep_rows], cols[keep_cols], tail_factor[keep_cols]
            coefficients = coefficients[..., keep_rows]
            # one array at a time, so that at most one old copy is alive
            quiet, done = quiet[keep_rows][:, keep_cols], done[keep_rows][:, keep_cols]
            sum_hi = sum_hi.compress(keep_rows, axis=1).compress(keep_cols, axis=2)
            sum_lo = sum_lo.compress(keep_rows, axis=1).compress(keep_cols, axis=2)
        else:
            set_i, z_i = np.argwhere(~done)[0]
            raise SeriesError(f"Heun series tail above {HEUN_TAIL_TOL} after {SERIES_CAP} terms at z = {zs[cols[z_i]]}")
    return out


def heun_ode_residuals(params, zs) -> list[list[float]]:
    """Relative pointwise residuals of the defining ODE for each parameter set
    of `params` at each z of `zs`, evaluated from the double-double series
    value and its term-wise derivatives (an independent code path from the
    coefficient recurrence). All sets and points share one summation pass.
    z = 0, a singular point of the ODE, is refused before any summing."""
    if any(z == 0.0 for z in zs):
        raise SeriesError("Heun ODE residual undefined at the singular point z = 0")
    out = []
    for p, sums in zip(params, _accurate_sums(params, zs)):
        row = []
        for z, (h, h1, h2) in zip(zs, sums.tolist()):
            coef1 = p.gamma / z + p.delta / (z - 1.0) + p.eps / (z + 1.0)
            coef0 = (p.lam * p.beta * z - p.q) / (z * (z - 1.0) * (z + 1.0))
            res = h2 + coef1 * h1 + coef0 * h
            scale = abs(h2) + abs(coef1 * h1) + abs(coef0 * h)
            row.append(abs(res) / max(scale, 1e-300))
        out.append(row)
    return out
