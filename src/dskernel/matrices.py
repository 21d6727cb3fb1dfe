"""Coefficient matrices behind Dirichlet series kernels.

A coefficient matrix is the doubly-indexed array a = (a_{m,n}) defining the
kernel sum a_{m,n} m**(-s) n**(-conj(u)).  Structured variants (diagonal,
banded, rank-one, arrowhead) keep the entry accessor cheap and make the
envelope |a_{m,n}| <= C m**alpha n**alpha derivable from their rules, which
is what certifies kernel tails.  Matrices with ``order`` set are finitely
supported and their tails are computed exactly instead.

Every variant answers one vectorised protocol, so no caller branches on the
variant to sum a section of the matrix:

- ``entry(m, n)``: one entry (the deflation pivot a_{1,1}; test references).
- ``truncation(N)``: the N x N section (eigenvalue ladders, Gram models,
  membership, the classifiers in ``symmetry``, exact corner tails).
- ``column_prefix(n, N)`` / ``row_prefix(m, N)``: a_{1..N,n} and a_{m,1..N}
  (analytic symbols, exact row/column tails, deflation).
- ``partial_sum(s, u, N)``, ``tail_radius(sigma_s, sigma_u, N)`` and
  ``sigma_floors()``: the section paired with m**(-s) and n**(-conj(u)),
  the certified bound beyond it and where that bound holds
  (``kernel.kernel_eval`` and ``DirichletKernel``).
- ``abs_row_tail`` / ``abs_col_tail`` / ``abs_corner_tail``: absolute tail
  sums (``kernel.tail_bound``).

The base class sums a dense section and bounds tails by the envelope; each
structured variant overrides what its structure makes cheaper or sharper.
Variant-only prefixes (``diagonal_prefix``, ``factor_prefix``,
``coupling_prefix``, ``tail_prefix``) feed those overrides and ``structured``.

Every power m**(-s) here is ``series.powers``: one exponential of the cached
read-only log table (2**16 entries; longer tables are computed per call), a
real ``exp`` when the exponent is real, so a real point pays no complex
power and the diagonal reuses one table for its value and its mass.  Rule
prefixes are read-only views of a memo (``SequenceRule.prefix``); a variant
that edits one (tail overrides) copies it first.  ``partial_sum`` reports
the absolute mass that ``series.rounding_radius`` turns into the rounding
part of the kernel radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpecError
from .rules import CACHE_LIMIT, SequenceRule, power_tail_bound
from .series import Envelope, power_sum, powers


class CoefficientMatrix:
    """Abstract coefficient matrix; indices are 1-based as in the math.

    Subclasses provide entry, truncation and the prefix accessors; the
    defaults of the summation protocol below work from those and the
    envelope.  ``order`` is the support bound for finitely supported
    variants, None when the matrix extends forever.
    """

    envelope: Optional[Envelope]
    order: Optional[int]

    def entry(self, m: int, n: int) -> complex:
        raise NotImplementedError

    def truncation(self, N: int) -> np.ndarray:
        """Leading principal N x N section as a dense complex array."""
        raise NotImplementedError

    def column_prefix(self, n: int, N: int) -> np.ndarray:
        """Entries a_{1..N, n}."""
        raise NotImplementedError

    def row_prefix(self, m: int, N: int) -> np.ndarray:
        """Entries a_{m, 1..N}."""
        raise NotImplementedError

    # -- kernel summation protocol ------------------------------------------

    def partial_sum(self, s: complex, u: complex, N: int) -> tuple[complex, float, int]:
        """Section sum over m, n <= N, its absolute mass (which prices the
        rounding) and its count of nonzero terms (only an all-zero sum is
        exact)."""
        T = self.truncation(N)
        ps, pu = powers(s, N), powers(np.conj(u), N)
        # complex on both sides: a real vector would send the product down
        # numpy's slow mixed-type path
        value = complex(ps.astype(complex) @ T @ pu.astype(complex))
        mass = float(np.abs(ps) @ np.abs(T) @ np.abs(pu))
        return value, mass, int(np.count_nonzero(T))

    def tail_radius(self, sigma_s: float, sigma_u: float, N: int) -> float:
        """Bound on |kernel - N-section| at real parts (sigma_s, sigma_u): the
        envelope bounds the row, column and corner pieces beyond N."""
        if self.order is not None and N >= self.order:
            return 0.0
        env = self.envelope
        if env is None:
            return math.inf
        fin_s = float(np.sum(powers(sigma_s - env.alpha, N)))
        fin_u = float(np.sum(powers(sigma_u - env.alpha, N)))
        inf_s = power_tail_bound(N, sigma_s - env.alpha)
        inf_u = power_tail_bound(N, sigma_u - env.alpha)
        return env.C * (inf_s * fin_u + fin_s * inf_u + inf_s * inf_u)

    def sigma_floors(self) -> tuple[float, float]:
        """(edge, joint_edge): tail_radius needs Re s, Re u > edge and
        Re s + Re u > joint_edge; the envelope needs each above alpha + 1."""
        env = self.envelope
        if env is None or self.order is not None:
            return -math.inf, -math.inf
        return env.alpha + 1.0, -math.inf

    # -- absolute tail sums (exact for finite support, envelope otherwise) --

    def abs_row_tail(self, k: int, l: int, r: float) -> float:
        """sum_{n > l} |a_{k,n}| n**(-r)."""
        if self.order is not None:
            if l >= self.order:
                return 0.0
            row = np.abs(self.row_prefix(k, self.order)[l:])
            return float(np.sum(row * powers(r, self.order)[l:]))
        env = self.envelope
        if env is None:
            return math.inf
        return env.C * k**env.alpha * power_tail_bound(l, r - env.alpha)

    def abs_col_tail(self, k: int, l: int, r: float) -> float:
        """sum_{m > k} |a_{m,l}| m**(-r)."""
        if self.order is not None:
            if k >= self.order:
                return 0.0
            col = np.abs(self.column_prefix(l, self.order)[k:])
            return float(np.sum(col * powers(r, self.order)[k:]))
        env = self.envelope
        if env is None:
            return math.inf
        return env.C * l**env.alpha * power_tail_bound(k, r - env.alpha)

    def abs_corner_tail(self, k: int, l: int, r: float) -> float:
        """sum_{m > k, n > l} |a_{m,n}| m**(-r) n**(-r)."""
        if self.order is not None:
            if k >= self.order or l >= self.order:
                return 0.0
            T = np.abs(self.truncation(self.order)[k:, l:])
            p = powers(r, self.order)
            return float(p[k:] @ T @ p[l:])
        env = self.envelope
        if env is None:
            return math.inf
        return env.C * power_tail_bound(k, r - env.alpha) * power_tail_bound(l, r - env.alpha)


class StoredMatrix(CoefficientMatrix):
    """Finitely supported matrix held as a square complex block ``entries``."""

    entries: np.ndarray

    def _store(self, variant: str) -> np.ndarray:
        """Validate and store ``entries``; derive the envelope if none was given."""
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise SpecError(f"{variant} matrix entries must be square")
        object.__setattr__(self, "entries", e)
        if self.envelope is None:
            object.__setattr__(
                self, "envelope", Envelope(float(np.max(np.abs(e))) if e.size else 0.0, 0.0)
            )
        return e

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def entry(self, m: int, n: int) -> complex:
        if m <= self.order and n <= self.order:
            return complex(self.entries[m - 1, n - 1])
        return 0.0 + 0.0j

    def truncation(self, N: int) -> np.ndarray:
        out = np.zeros((N, N), dtype=complex)
        out[: self.order, : self.order] = self.entries[:N, :N]
        return out

    def column_prefix(self, n: int, N: int) -> np.ndarray:
        out = np.zeros(N, dtype=complex)
        if n <= self.order:
            out[: self.order] = self.entries[:N, n - 1]
        return out

    def row_prefix(self, m: int, N: int) -> np.ndarray:
        out = np.zeros(N, dtype=complex)
        if m <= self.order:
            out[: self.order] = self.entries[m - 1, :N]
        return out


@dataclass(frozen=True, eq=False)
class DenseMatrix(StoredMatrix):
    """Finitely supported matrix stored as a dense block."""

    entries: np.ndarray
    envelope: Optional[Envelope] = None

    def __post_init__(self):
        self._store("dense")


@dataclass(frozen=True, eq=False)
class BandedMatrix(StoredMatrix):
    """Dense storage with a validated bandwidth: a_{m,n} = 0 for |m-n| > k."""

    bandwidth: int
    entries: np.ndarray
    envelope: Optional[Envelope] = None

    def __post_init__(self):
        e = self._store("banded")
        if self.bandwidth < 0:
            raise SpecError("bandwidth must be >= 0")
        m, n = np.indices(e.shape)
        if np.any(e[np.abs(m - n) > self.bandwidth] != 0):
            raise SpecError("entries outside the declared band are nonzero")


@dataclass(frozen=True, eq=False)
class DiagonalMatrix(CoefficientMatrix):
    """Diagonal coefficient matrix a_{n,n} = rule(n), optionally support-masked."""

    rule: SequenceRule
    support: Optional[object] = None  # anything with .contains(n) and .indices_up_to(M)
    envelope: Optional[Envelope] = None

    def __post_init__(self):
        if self.envelope is None:
            pb = self.rule.poly_bound()
            if pb is not None:
                C, p = pb
                object.__setattr__(self, "envelope", Envelope(C, p / 2.0))

    @property
    def order(self) -> Optional[int]:
        return len(self.rule.values) if self.rule.is_finite else None

    def _on_support(self, n: int) -> bool:
        return self.support is None or self.support.contains(n)

    def entry(self, m: int, n: int) -> complex:
        if m != n or not self._on_support(n):
            return 0.0 + 0.0j
        return self.rule.value(n)

    def diagonal_prefix(self, N: int) -> np.ndarray:
        d = self.rule.prefix(N)
        if self.support is not None:
            mask = np.zeros(N, dtype=bool)
            mask[self.support.indices_up_to(N) - 1] = True
            d = np.where(mask, d, 0.0)
        return d

    def _weights(self, N: int) -> tuple[np.ndarray, np.ndarray, int]:
        """(d, |d|, nonzero count) for n <= N, read-only; the last triple of
        at most CACHE_LIMIT terms is memoised, like the rule's prefix."""
        memo = self.__dict__.get("_memo")
        if memo is not None and memo[0].size == N:
            return memo
        d = self.diagonal_prefix(N)
        ad = np.abs(d)
        d.flags.writeable = ad.flags.writeable = False
        out = (d, ad, int(np.count_nonzero(ad)))
        if N <= CACHE_LIMIT:
            object.__setattr__(self, "_memo", out)
        return out

    def truncation(self, N: int) -> np.ndarray:
        return np.diag(self.diagonal_prefix(N))

    def column_prefix(self, n: int, N: int) -> np.ndarray:
        out = np.zeros(N, dtype=complex)
        if n <= N:
            out[n - 1] = self.entry(n, n)
        return out

    def row_prefix(self, m: int, N: int) -> np.ndarray:
        return self.column_prefix(m, N)

    def partial_sum(self, s: complex, u: complex, N: int) -> tuple[complex, float, int]:
        """One series in z = s + conj(u): one power per term, which also
        weighs the mass when z is real."""
        d, ad, nnz = self._weights(N)
        z = s + np.conj(u)
        p = powers(z, N)
        mass = float(ad @ (p if z.imag == 0.0 else powers(z.real, N)))
        return power_sum(d, p), mass, nnz

    def tail_radius(self, sigma_s: float, sigma_u: float, N: int) -> float:
        """Row and column pieces are empty: the sharper single-series bound."""
        if self.order is not None and N >= self.order:
            return 0.0
        pb = self.rule.poly_bound()
        if pb is None:
            return math.inf
        C, p = pb
        return C * power_tail_bound(N, sigma_s + sigma_u - p)

    def sigma_floors(self) -> tuple[float, float]:
        """Only the joint condition Re s + Re u > p + 1 from |a_{n,n}| <= C n**p."""
        pb = self.rule.poly_bound()
        return -math.inf, pb[1] + 1.0 if pb is not None and self.order is None else -math.inf


@dataclass(frozen=True, eq=False)
class RankOneMatrix(CoefficientMatrix):
    """a_{m,n} = fhat(m) * conj(fhat(n)) for a finitely supported vector fhat."""

    fhat: np.ndarray
    envelope: Optional[Envelope] = None

    def __post_init__(self):
        f = np.asarray(self.fhat, dtype=complex).ravel()
        if f.size == 0:
            raise SpecError("rank-one factor must be non-empty")
        object.__setattr__(self, "fhat", f)
        if self.envelope is None:
            object.__setattr__(self, "envelope", Envelope(float(np.max(np.abs(f)) ** 2), 0.0))

    @property
    def order(self) -> int:
        return self.fhat.size

    def _factor(self, n: int) -> complex:
        return self.fhat[n - 1] if n <= self.fhat.size else 0.0

    def entry(self, m: int, n: int) -> complex:
        return complex(self._factor(m) * np.conj(self._factor(n)))

    def factor_prefix(self, N: int) -> np.ndarray:
        out = np.zeros(N, dtype=complex)
        out[: min(N, self.fhat.size)] = self.fhat[:N]
        return out

    def truncation(self, N: int) -> np.ndarray:
        f = self.factor_prefix(N)
        return np.outer(f, np.conj(f))

    def column_prefix(self, n: int, N: int) -> np.ndarray:
        return self.factor_prefix(N) * np.conj(self._factor(n))

    def row_prefix(self, m: int, N: int) -> np.ndarray:
        return self._factor(m) * np.conj(self.factor_prefix(N))

    def partial_sum(self, s: complex, u: complex, N: int) -> tuple[complex, float, int]:
        """The double sum factors into two single sums."""
        f = self.factor_prefix(N)
        left = power_sum(f, powers(s, N))
        right = power_sum(f, powers(u, N))
        af = np.abs(f)
        mass = float((af @ powers(s.real, N)) * (af @ powers(u.real, N)))
        return complex(left * np.conj(right)), mass, int(np.count_nonzero(f)) ** 2


@dataclass(frozen=True, eq=False)
class ArrowheadMatrix(CoefficientMatrix):
    """Arrowhead structure: k x k head, constant-column coupling, diagonal tail.

    Entries: a = [[head, c], [c*, diag(d)]] where every head row couples to
    the tail through the same sequence c_{k+l} = coupling(l) and the tail is
    diag(d_{k+l}) = diag(tail(l)).  tail_overrides carries pointwise
    replacements of tail values (used by diagonal perturbations) keyed by
    matrix index m > k.
    """

    k: int
    head: np.ndarray
    coupling: SequenceRule
    tail: SequenceRule
    envelope: Optional[Envelope] = None
    tail_overrides: tuple = ()

    def __post_init__(self):
        h = np.asarray(self.head, dtype=complex)
        if h.shape != (self.k, self.k):
            raise SpecError("head block must be k x k")
        if self.k < 1:
            raise SpecError("k must be >= 1")
        object.__setattr__(self, "head", h)
        if not self.tail.is_positive():
            raise SpecError("tail rule must be positive")
        if self.envelope is None:
            object.__setattr__(self, "envelope", self._derive_envelope())

    def _derive_envelope(self) -> Optional[Envelope]:
        cb = self.coupling.poly_bound()
        db = self.tail.poly_bound()
        if cb is None or db is None:
            return None
        head_max = float(np.max(np.abs(self.head))) if self.head.size else 0.0
        alpha = max(0.0, cb[1], db[1] / 2.0)
        C = max(head_max, cb[0], db[0])
        return Envelope(C, alpha)

    @property
    def order(self) -> Optional[int]:
        if self.tail.is_finite and self.coupling.is_finite:
            return self.k + max(len(self.tail.values), len(self.coupling.values))
        return None

    def tail_value(self, m: int) -> float:
        """Tail diagonal entry at matrix index m > k, override-aware."""
        for idx, val in self.tail_overrides:
            if idx == m:
                return val
        return complex(self.tail.value(m - self.k)).real

    def coupling_value(self, n: int) -> complex:
        """Coupling entry c_n at matrix index n > k."""
        return self.coupling.value(n - self.k)

    def tail_prefix(self, N: int) -> np.ndarray:
        """Tail diagonal d_{k+1..N} as a real array, override-aware.

        Without overrides this is a read-only view of the rule's memo; with
        them it is a copy, so an override never reaches the shared prefix.
        """
        d = self.tail.prefix(max(0, N - self.k)).real
        if self.tail_overrides:
            d = d.copy()
        for idx, val in reversed(self.tail_overrides):  # the first override of an index wins
            if self.k < idx <= N:
                d[idx - self.k - 1] = val
        return d

    def coupling_prefix(self, N: int) -> np.ndarray:
        """Coupling entries c_{k+1..N}."""
        return self.coupling.prefix(max(0, N - self.k))

    def entry(self, m: int, n: int) -> complex:
        k = self.k
        if m <= k and n <= k:
            return complex(self.head[m - 1, n - 1])
        if m <= k < n:
            return self.coupling_value(n)
        if n <= k < m:
            return complex(np.conj(self.coupling_value(m)))
        if m == n:
            return complex(self.tail_value(m))
        return 0.0 + 0.0j

    def with_tail_override(self, m: int, value: float) -> "ArrowheadMatrix":
        if m <= self.k:
            raise SpecError("tail override index must exceed k")
        overrides = tuple(o for o in self.tail_overrides if o[0] != m) + ((m, value),)
        return ArrowheadMatrix(
            self.k, self.head, self.coupling, self.tail, self.envelope, overrides
        )

    def with_head_perturbation(self, idx: int, eps: float) -> "ArrowheadMatrix":
        if not (1 <= idx <= self.k):
            raise SpecError("head perturbation index must lie in the head block")
        h = self.head.copy()
        h[idx - 1, idx - 1] -= eps
        return ArrowheadMatrix(self.k, h, self.coupling, self.tail, None, self.tail_overrides)

    def truncation(self, N: int) -> np.ndarray:
        k = self.k
        out = np.zeros((N, N), dtype=complex)
        kk = min(k, N)
        out[:kk, :kk] = self.head[:kk, :kk]
        if N > k:
            out[:k, k:] = self.coupling_prefix(N)
            out[k:, :k] = np.conj(out[:k, k:]).T
            t = np.arange(k, N)
            out[t, t] = self.tail_prefix(N)
        return out

    def column_prefix(self, n: int, N: int) -> np.ndarray:
        out = np.zeros(N, dtype=complex)
        if n <= self.k:
            out[: self.k] = self.head[:N, n - 1]
            out[self.k :] = np.conj(self.coupling_prefix(N))
        else:
            out[: self.k] = self.coupling_value(n)
            if n <= N:
                out[n - 1] = self.tail_value(n)
        return out

    def row_prefix(self, m: int, N: int) -> np.ndarray:
        out = np.conj(self.column_prefix(m, N))  # the tail is real
        if m <= self.k:
            out[: self.k] = self.head[m - 1, :N]
        return out

    def partial_sum(self, s: complex, u: complex, N: int) -> tuple[complex, float, int]:
        """Head block plus the two rank-one coupling strips and the tail diagonal."""
        k, kk = self.k, min(self.k, N)
        ps, pu = powers(s, N), powers(np.conj(u), N)
        rs, ru = np.abs(ps), np.abs(pu)
        head = self.head[:kk, :kk]
        total = complex(ps[:kk] @ head @ pu[:kk])
        mass = float(rs[:kk] @ np.abs(head) @ ru[:kk])
        nnz = int(np.count_nonzero(head))
        if N > k:
            c = self.coupling_prefix(N)
            d = self.tail_prefix(N)
            ac = np.abs(c)
            total += complex(np.sum(ps[:kk]) * power_sum(c, pu[k:]))
            total += complex(power_sum(np.conj(c), ps[k:]) * np.sum(pu[:kk]))
            total += power_sum(d, ps[k:] * pu[k:])
            mass += float(np.sum(rs[:kk]) * (ac @ ru[k:]) + (ac @ rs[k:]) * np.sum(ru[:kk]))
            mass += float(np.abs(d) @ (rs[k:] * ru[k:]))
            nnz += 2 * kk * int(np.count_nonzero(c)) + int(np.count_nonzero(d))
        return total, mass, nnz


@dataclass(frozen=True, eq=False)
class DeflatedMatrix(CoefficientMatrix):
    """b_{m,n} = a_{m,n} - a_{m,1} a_{1,n} / a_{1,1}: first symbol deflated away.

    This is the coefficient matrix of the kernel restricted to functions
    vanishing at +infinity; its first row and column are exactly zero and it
    stays formally PSD whenever the parent is (a rank-one Cholesky downdate).
    """

    parent: CoefficientMatrix

    def __post_init__(self):
        a11 = complex(self.parent.entry(1, 1))
        if a11 == 0:
            raise SpecError("deflation needs a_{1,1} != 0")
        object.__setattr__(self, "_a11", a11)

    @property
    def order(self) -> Optional[int]:
        return self.parent.order

    @property
    def envelope(self) -> Optional[Envelope]:
        env = self.parent.envelope
        if env is None:
            return None
        a11 = abs(self._a11)
        return Envelope(env.C + env.C**2 / a11, env.alpha)

    def entry(self, m: int, n: int) -> complex:
        p = self.parent
        return p.entry(m, n) - p.entry(m, 1) * p.entry(1, n) / self._a11

    def truncation(self, N: int) -> np.ndarray:
        T = self.parent.truncation(N)
        return T - np.outer(T[:, 0], T[0, :]) / self._a11

    def column_prefix(self, n: int, N: int) -> np.ndarray:
        p = self.parent
        return p.column_prefix(n, N) - p.column_prefix(1, N) * (p.entry(1, n) / self._a11)

    def row_prefix(self, m: int, N: int) -> np.ndarray:
        p = self.parent
        return p.row_prefix(m, N) - p.row_prefix(1, N) * (p.entry(m, 1) / self._a11)

    def partial_sum(self, s: complex, u: complex, N: int) -> tuple[complex, float, int]:
        """The parent's sum minus the product of its first column and row sums."""
        p = self.parent
        col, row = p.column_prefix(1, N), p.row_prefix(1, N)
        base, base_mass, base_nnz = p.partial_sum(s, u, N)
        col_mass = float(np.abs(col) @ powers(s.real, N))
        row_mass = float(np.abs(row) @ powers(u.real, N))
        value = complex(base - power_sum(col, powers(s, N)) * power_sum(row, powers(np.conj(u), N)) / self._a11)
        return value, base_mass + col_mass * row_mass / abs(self._a11), max(base_nnz, 2)
