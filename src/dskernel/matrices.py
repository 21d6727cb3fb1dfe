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
  membership, the classifiers in ``symmetry``), a new array that its
  caller may overwrite (``kernel.hermitian_section`` does).
- ``column_prefix(n, N)`` / ``row_prefix(m, N)``: a_{1..N,n} and a_{m,1..N}
  (analytic symbols, deflation).
- ``partial_sum(s, u, N)``, ``tail_radius(sigma_s, sigma_u, N)`` and
  ``sigma_floors()``: the section paired with m**(-s) and n**(-conj(u))
  with a bound on its rounding, the certified bound beyond it and where
  that bound holds (``kernel.kernel_eval`` and ``DirichletKernel``).
- ``nonzero_entries(N)``: the 1-based (m, n) and values of the section's
  nonzero entries, row by row, which decides what carries a term (supports,
  finite tails, the ``homogeneous`` sums); O(N) for a diagonal, O(N k) for
  an arrowhead, the stored block for a dense or banded matrix, each marked
  by ``sparse_view``; the others form the dense section, cut at the order.
- ``psd_structure(N)``: the N-section as a ``SectionStructure`` (arrowhead,
  diagonal or rank-one prefixes) from which ``kernel.psd_check`` decides
  its rungs above order 256 without building it; None for the variants
  without one.

Every accessor gives the N-section's numbers bit for bit: a rule's value is
its prefix entry, and products and quotients are numpy's array arithmetic.

The base class sums a dense section and bounds tails by the envelope; each
structured variant overrides what its structure makes cheaper or sharper.
Variant-only prefixes (``diagonal_prefix``, ``factor_prefix``,
``coupling_prefix``, ``tail_prefix``) feed those overrides and ``structured``.
An ``AdmissibleSupport`` masks a diagonal to its members; ``homogeneous``
reads the same support for the translate spans.

Every power m**(-s) here is ``series.powers``: one exponential of the cached
read-only log table (2**16 entries; longer tables are computed per call), a
real ``exp`` when the exponent is real, so a real point pays no complex
power and the diagonal reuses one table for its value and its mass.  Rule
prefixes are read-only views of a memo (``SequenceRule.prefix``), and a
rule's ``power_law`` and ``poly_bound`` are formed once, when it is made:
``sigma_floors`` and ``tail_radius`` read them, and an explicit rule's
values are scanned for its bound only then.  Every
term of a ``partial_sum`` is priced at its own log m and log n: a single
series (a diagonal, a rank-one or deflated factor, an arrowhead's head sums)
is a ``series.direct_sum``, a two-sided sum of BLAS products is priced from
its log-weighted mass.  A diagonal with an unmasked constant or power rule,
and the strips and tail of an arrowhead whose coupling and tail rules are
constant, are Hurwitz-type sums sum_{n=a}^{N} n**-z:
``series.partial_zeta`` encloses them in O(|z|) work, so their sections are
never built.  Such closed-form pieces are combined as ``ValueWithBound``
balls, whose arithmetic prices the rounding that joins them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpecError
from .rules import SequenceRule
from .series import (Envelope, ValueWithBound, ball_product, direct_sum, exponent_sum, log_table, partial_zeta,
                     power_sum, power_tail_bound, powers, rounding_radius)

#: rows at a time in which a section is deflated, symmetrised and factored (``kernel.psd_check``)
BLOCK = 256


def _two_sided_rounding(mass, s: complex, u: complex, N: int) -> float:
    """Rounding bound of a two-sided sum over m, n <= N by BLAS products: chains of at most 2N + 8 roundings.

    ``mass(X, Y)`` is the matrix of the sums of |a_{m,n}| X_{i,m} Y_{j,n} over the terms.  At x = |m**(-s)|
    and y = |n**(-conj(u))| it is their absolute mass, and each term is priced at its own log m and log n by
    the log-weighted mass |s| mass(x log m, y) + |u| mass(x, y log n).
    """
    x, y, L = powers(s.real, N), powers(u.real, N), log_table(N)
    M = mass(np.array([x, x * L]), np.array([y, y * L]))
    return rounding_radius(float(M[0, 0]), abs(s) * float(M[1, 0]) + abs(u) * float(M[0, 1]), 2 * N + 8)


def _series(lam: np.ndarray, z: complex, coef: Optional[np.ndarray] = None) -> ValueWithBound:
    """``series.direct_sum`` of sum_n c_n exp(-lambda_n z) as a ball."""
    return ValueWithBound(*direct_sum(lam, z, coef)[:2])


def _power_sum_upper(beta: float, N: int) -> float:
    """An upper bound on sum_{n<=N} n**-beta (``partial_zeta``: O(beta) work for beta > 1)."""
    value, radius = partial_zeta(beta, 0.0, 1, N)
    return value.real + radius


@dataclass(frozen=True)
class SectionStructure:
    """The leading N x N section described by its prefixes (``CoefficientMatrix.psd_structure``).

    ``kind`` names the structure, and the ladder method that reads it:

    - ``"arrowhead-schur"``: [[head, 1 c^T], [conj(c) 1^T, diag(d)]], the
      k x k ``head`` as stored, every head row coupled to the tail through
      the same c (``vector``, length N - k), the real tail d >= 0
      (``diagonal``);
    - ``"diagonal-exact"``: diag(d), d (``diagonal``) as stored;
    - ``"rank-one-exact"``: f f*, f (``vector``) of length N.

    Unused fields are empty arrays.
    """

    kind: str
    head: np.ndarray
    vector: np.ndarray
    diagonal: np.ndarray


_NONE = np.zeros(0)


class CoefficientMatrix:
    """Abstract coefficient matrix; indices are 1-based as in the math.

    Subclasses provide entry, truncation and the prefix accessors; the
    defaults of the summation protocol below work from those and the
    envelope.  ``order`` is the support bound for finitely supported
    variants, None when the matrix extends forever.
    """

    envelope: Optional[Envelope]
    order: Optional[int]

    #: whether ``nonzero_entries`` costs O(its nonzeros), not the dense N-section
    sparse_view = False

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

    def psd_structure(self, N: int) -> Optional[SectionStructure]:
        """The N-section's structure for ``kernel.psd_check``; None when only the dense section decides."""
        return None

    # -- kernel summation protocol ------------------------------------------

    def partial_sum(self, s: complex, u: complex, N: int) -> tuple[complex, float]:
        """Section sum over m, n <= N and a bound on its rounding error; even
        a lone term is a table power, a few ulps off, so only an all-zero
        section is exact."""
        T = self.truncation(N)
        # complex on both sides: a real vector would send the product down
        # numpy's slow mixed-type path
        value = complex(powers(s, N).astype(complex) @ T @ powers(np.conj(u), N).astype(complex))
        A = np.abs(T)
        return value, _two_sided_rounding(lambda X, Y: X @ A @ Y.T, s, u, N) if np.any(T) else 0.0

    def nonzero_entries(self, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-based (m, n) and the values of the nonzero entries of the N-section, in row-major order."""
        N = N if self.order is None else min(N, self.order)  # nothing lies past a finite support
        T = self.truncation(N).ravel()
        i = np.flatnonzero(T)
        m, n = np.divmod(i, N)
        m += 1
        n += 1
        return m, n, T[i]

    def tail_radius(self, sigma_s: float, sigma_u: float, N: int) -> float:
        """Bound on |kernel - N-section| at real parts (sigma_s, sigma_u): the
        envelope bounds the row, column and corner pieces beyond N."""
        if self.order is not None and N >= self.order:
            return 0.0
        env = self.envelope
        if env is None:
            return math.inf
        fin_s, fin_u = (_power_sum_upper(sigma - env.alpha, N) for sigma in (sigma_s, sigma_u))
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


class StoredMatrix(CoefficientMatrix):
    """Finitely supported matrix held as a square complex block ``entries``."""

    entries: np.ndarray
    sparse_view = True

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

    def nonzero_entries(self, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m, n = np.nonzero(self.entries[:N, :N])  # the stored block only, whatever N
        return m + 1, n + 1, self.entries[m, n]

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


@dataclass(frozen=True)
class AdmissibleSupport:
    """Support set of a diagonal sequence, given by kind.

    kinds:
      all        every positive integer
      powers     powers base**j, j >= 0
      generated  all products of the listed generators (including 1)
      explicit   exactly the listed integers
    """

    kind: str
    base: int = 2
    generators: tuple = ()
    elements: tuple = ()

    def __post_init__(self):
        if self.kind not in ("all", "powers", "generated", "explicit"):
            raise SpecError(f"unknown support kind {self.kind!r}")
        if self.kind == "powers" and self.base < 2:
            raise SpecError("powers support needs base >= 2")
        if self.kind == "generated" and not self.generators:
            raise SpecError("generated support needs generators")
        if self.kind == "generated" and min(self.generators) < 2:
            raise SpecError("generated support needs generators >= 2")
        if self.kind == "explicit" and not self.elements:
            raise SpecError("explicit support needs elements")

    def indices_up_to(self, M: int) -> np.ndarray:
        """1-based support members <= M, ascending."""
        if self.kind == "all":
            return np.arange(1, M + 1)
        if self.kind == "explicit":
            return np.array(sorted({e for e in self.elements if 1 <= e <= M}), dtype=int)
        # multiply out the generators: every member is a product of powers
        members = [1] if M >= 1 else []
        for g in {self.base} if self.kind == "powers" else set(self.generators):
            grown = []
            for x in members:
                while x <= M:
                    grown.append(x)
                    x *= g
            members = grown
        return np.unique(np.array(members, dtype=int))


@dataclass(frozen=True, eq=False)
class DiagonalMatrix(CoefficientMatrix):
    """Diagonal coefficient matrix a_{n,n} = rule(n), optionally support-masked."""

    rule: SequenceRule
    support: Optional[AdmissibleSupport] = None
    envelope: Optional[Envelope] = None
    sparse_view = True

    def __post_init__(self):
        if self.support is not None and self.support.kind == "all":  # masks nothing: the unmasked paths
            object.__setattr__(self, "support", None)
        if self.envelope is None:
            pb = self.rule.poly_bound()
            if pb is not None:
                C, p = pb
                object.__setattr__(self, "envelope", Envelope(C, p / 2.0))

    @property
    def order(self) -> Optional[int]:
        return len(self.rule.values) if self.rule.is_finite else None

    def entry(self, m: int, n: int) -> complex:
        if m != n or self.support is not None and n not in self.support.indices_up_to(n):
            return 0.0 + 0.0j
        return self.rule.value(n)

    def diagonal_prefix(self, N: int) -> np.ndarray:
        d = self.rule.prefix(N)
        if self.support is not None:
            mask = np.zeros(N, dtype=bool)
            mask[self.support.indices_up_to(N) - 1] = True
            d = np.where(mask, d, 0.0)
        return d

    def truncation(self, N: int) -> np.ndarray:
        return np.diag(self.diagonal_prefix(N))

    def column_prefix(self, n: int, N: int) -> np.ndarray:
        out = np.zeros(N, dtype=complex)
        if n <= N:
            out[n - 1] = self.entry(n, n)
        return out

    def row_prefix(self, m: int, N: int) -> np.ndarray:
        return self.column_prefix(m, N)

    def nonzero_entries(self, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d = self.diagonal_prefix(N)  # the support's members n <= N with a_{n,n} != 0
        i = np.flatnonzero(d)
        return i + 1, i + 1, d[i]

    def psd_structure(self, N: int) -> SectionStructure:
        return SectionStructure("diagonal-exact", _NONE.reshape(0, 0), _NONE, self.diagonal_prefix(N))

    def partial_sum(self, s: complex, u: complex, N: int) -> tuple[complex, float]:
        """One series in z = s + conj(u), a ``series.direct_sum`` with
        each term priced at (|s| + |u|) log n.  An unmasked rule c n**p
        sums as c sum_n n**-(z - p) by ``partial_zeta``."""
        law = self.rule.power_law() if self.support is None else None
        if law is not None:
            c, p = law
            return ball_product(*partial_zeta(*exponent_sum(s, u.conjugate(), -p), 1, N), c)
        return direct_sum(log_table(N), s + np.conj(u), self.diagonal_prefix(N), abs(s) + abs(u))[:2]

    def tail_radius(self, sigma_s: float, sigma_u: float, N: int) -> float:
        """Row and column pieces are empty: the sharper single-series bound."""
        rule = self.rule
        if rule.is_finite and N >= len(rule.values):
            return 0.0
        pb = rule.poly_bound()
        return math.inf if pb is None else pb[0] * power_tail_bound(N, sigma_s + sigma_u - pb[1])

    def sigma_floors(self) -> tuple[float, float]:
        """Only the joint condition Re s + Re u > p + 1 from |a_{n,n}| <= C n**p; none for a finite rule."""
        pb = None if self.rule.is_finite else self.rule.poly_bound()
        return -math.inf, -math.inf if pb is None else pb[1] + 1.0


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
        return complex(self.row_prefix(m, n)[n - 1])  # numpy's array product, as the section's

    def factor_prefix(self, N: int) -> np.ndarray:
        out = np.zeros(N, dtype=complex)
        out[: min(N, self.fhat.size)] = self.fhat[:N]
        return out

    def truncation(self, N: int) -> np.ndarray:
        f = self.factor_prefix(N)
        return np.outer(f, np.conj(f))

    def psd_structure(self, N: int) -> SectionStructure:
        return SectionStructure("rank-one-exact", _NONE.reshape(0, 0), self.factor_prefix(N), _NONE)

    def column_prefix(self, n: int, N: int) -> np.ndarray:
        return self.factor_prefix(N) * np.conj(self._factor(n))

    def row_prefix(self, m: int, N: int) -> np.ndarray:
        return self._factor(m) * np.conj(self.factor_prefix(N))

    def partial_sum(self, s: complex, u: complex, N: int) -> tuple[complex, float]:
        """The double sum factors into two single sums, multiplied as balls."""
        f = self.fhat[:N]
        logs = log_table(f.size)
        total = _series(logs, s, f) * _series(logs, np.conj(u), np.conj(f))
        return complex(total.value), total.error_radius


@dataclass(frozen=True, eq=False)
class ArrowheadMatrix(CoefficientMatrix):
    """Arrowhead structure: k x k head, constant-column coupling, diagonal tail.

    Entries: a = [[head, c], [c*, diag(d)]] where every head row couples to
    the tail through the same sequence c_{k+l} = coupling(l) and the tail is
    diag(d_{k+l}) = diag(tail(l)).
    """

    k: int
    head: np.ndarray
    coupling: SequenceRule
    tail: SequenceRule
    envelope: Optional[Envelope] = None
    sparse_view = True

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
        """Tail diagonal entry at matrix index m > k."""
        return complex(self.tail.value(m - self.k)).real

    def coupling_value(self, n: int) -> complex:
        """Coupling entry c_n at matrix index n > k."""
        return self.coupling.value(n - self.k)

    def tail_prefix(self, N: int) -> np.ndarray:
        """Tail diagonal d_{k+1..N} as a real array, a read-only view of the rule's memo."""
        return self.tail.prefix(max(0, N - self.k)).real

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

    def psd_structure(self, N: int) -> Optional[SectionStructure]:
        """The arrowhead prefixes; None below order k, where the section is a block of the head."""
        if N < self.k:
            return None
        return SectionStructure("arrowhead-schur", self.head, self.coupling_prefix(N), self.tail_prefix(N))

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

    def nonzero_entries(self, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The head rows (head block, then the coupling columns), then the
        tail rows (the k coupling columns, then the diagonal), in O(N k)."""
        k, kk = self.k, min(self.k, N)
        c = self.coupling_prefix(N)
        head = np.concatenate([self.head[:kk, :kk], np.broadcast_to(c, (kk, c.size))], axis=1)
        rows = np.concatenate([np.broadcast_to(np.conj(c)[:, None], (c.size, k)), self.tail_prefix(N)[:, None]], axis=1)
        on_head, on_rows = head != 0, rows != 0  # one mask each gives the indices and gathers the values
        m, n = np.nonzero(on_head)
        i, j = np.nonzero(on_rows)
        mt = i + k + 1
        return (np.concatenate([m + 1, mt]), np.concatenate([n + 1, np.where(j < k, j + 1, mt)]),
                np.concatenate([head[on_head], rows[on_rows]]))

    def partial_sum(self, s: complex, u: complex, N: int) -> tuple[complex, float]:
        """Head block plus the two rank-one coupling strips and the tail diagonal.

        Up to order k the section is a block of the head, summed as a dense one.  For coupling and tail rules
        whose ``power_law`` is a constant c and d (exponent 0), the strips and the tail are c P(s) H(conj u),
        conj(c) H(s) P(conj u) and d H(s + conj u), P(z) = sum_{n<=k} n**-z and H(z) = sum_{k<n<=N} n**-z, both
        ``partial_zeta``, all balls: no power beyond k is formed.  Otherwise the
        pieces share one table of powers on each side and are priced as one two-sided sum.
        """
        k, ub = self.k, complex(np.conj(u))
        if N <= k:
            return super().partial_sum(s, u, N)
        laws = self.coupling.power_law(), self.tail.power_law()
        if None not in laws and laws[0][1] == laws[1][1] == 0.0:
            (c, _), (d, _) = laws
            P_s, P_u = (ValueWithBound(*partial_zeta(z, 0.0, 1, k)) for z in (s, ub))

            def H(*parts) -> ValueWithBound:
                return ValueWithBound(*partial_zeta(*exponent_sum(*parts), k + 1, N))

            total = ValueWithBound.fsum([ValueWithBound(*super().partial_sum(s, u, k)), P_s * c * H(ub),
                                         c.conjugate() * H(s) * P_u, d.real * H(s, ub)])
            return complex(total.value), total.error_radius
        ps, pu = powers(s, N), powers(ub, N)
        c, d = self.coupling_prefix(N), self.tail_prefix(N)
        value = (complex(ps[:k] @ self.head @ pu[:k]) + ps[:k].sum() * power_sum(c, pu[k:])
                 + power_sum(np.conj(c), ps[k:]) * pu[:k].sum() + power_sum(d, ps[k:] * pu[k:]))
        A, ac, ad = np.abs(self.head), np.abs(c), np.abs(d)

        def mass(X, Y) -> np.ndarray:
            return (X[:, :k] @ A @ Y[:, :k].T + np.outer(X[:, :k].sum(1), Y[:, k:] @ ac)
                    + np.outer(X[:, k:] @ ac, Y[:, :k].sum(1)) + (X[:, k:] * ad) @ Y[:, k:].T)

        return value, _two_sided_rounding(mass, s, u, N)  # the tail rule is positive: never an all-zero sum


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
        return complex(self.column_prefix(n, m)[m - 1])  # numpy's array arithmetic, as the section's

    def truncation(self, N: int) -> np.ndarray:
        T = self.parent.truncation(N).astype(complex, copy=False)
        column, row = T[:, 0].copy(), T[0, :].copy()
        for i in range(0, N, BLOCK):  # in place, so no outer product of order N is held
            T[i:i + BLOCK] -= np.outer(column[i:i + BLOCK], row) / self._a11
        return T

    def column_prefix(self, n: int, N: int) -> np.ndarray:
        p = self.parent
        return p.column_prefix(n, N) - p.column_prefix(1, N) * p.entry(1, n) / self._a11

    def row_prefix(self, m: int, N: int) -> np.ndarray:
        p = self.parent
        return p.row_prefix(m, N) - p.entry(m, 1) * p.row_prefix(1, N) / self._a11

    def partial_sum(self, s: complex, u: complex, N: int) -> tuple[complex, float]:
        """The parent's sum minus the product of its first column and row sums
        (each a ``series.direct_sum``) over a_{1,1}, as balls."""
        p, logs = self.parent, log_table(N)
        product = _series(logs, s, p.column_prefix(1, N)) * _series(logs, np.conj(u), p.row_prefix(1, N))
        total = ValueWithBound(*p.partial_sum(s, u, N)) - product / self._a11
        return complex(total.value), total.error_radius
