"""Exact discrete chain of correlated pointer detectors.

One detector sits at every grid step.  Their pointers start in a jointly
correlated Gaussian whose precision is four times the kernel matrix, and the
detector at step k receives an impulsive kick that shifts its pointer by the
system's coupling observable.  Inserting the coupling eigenprojectors at
every step turns each time-ordered superoperator into a plain number along a
pair of eigenvalue histories, so all pointer Gaussian integrals can be done
analytically and the chain becomes an exact finite computation.

Every chain state is one double path sum over ket/bra history pairs, which
``_conditional`` evaluates.  Pair (a, b), with D = Xa - Xb and S = Xa + Xb,
has the exponent e_ab = -D.A.D/2 - S.M.S/2 + h.S: the decoherence weight
of the window's kernel matrix A plus the log likelihood ratio of the read
record against its prior: M = G^T P G and h = G^T P z for a delayed readout
z, with P its prior's precision and G = A_{read, window} (pair (a, b) shifts
its mean to G S); M = A_ww - A_wu A_uu^-1 A_uw and h = 2Mx for raw pointers x
(u the unread detectors after the window w); M = 0 and h = 0 with nothing read
(the reduced, open-system state).  Ket and bra histories couple only
through C = A - M, so the sum first adds up the histories that agree on the
steps C couples and pairs only those groups: m^(2u) group pairs for m
coupling levels and u such steps, plus O(P k^2) for P histories over k
steps.  For a delayed readout these are the unread steps (none at delay 0,
a pure state); for raw pointers, the last L read steps of a kernel of
bandwidth L (none for a Markov kernel or at the grid's end).  On an
exponential kernel the raw pointers' C is rank one, and its certified
Taylor levels take P (N + 1) in place of P^2.  The reduced state couples
every step and keeps one group per history.

``reduced_states`` may instead carry that sum forward in time in one step
loop with one of two memories: for a kernel of finite bandwidth L, exactly,
over the last L ket/bra eigenvalue index pairs (the memory window); for an
exponential kernel, whose matrix is AR(1), as Taylor levels in the pair's
one scalar memory term, truncated at the least depth whose proved error
bound is under 1e-14 (the discrete hierarchy of the hierarchical equations
of motion).  The path sum stays the reference route.

Conventions fixed here and mirrored bit-for-bit by the trajectory solver:
within one step the free unitary acts first and the detector kick acts at
the step's right endpoint; windows are left-endpoint, {k : t_k < t}.

Path enumeration prunes branches whose amplitude is exactly zero (this is
what keeps commuting models O(d) wide at any depth) and refuses, rather than
truncates, when the surviving branch count would exceed PATH_BUDGET or the
pair sums would evaluate more than PAIR_BUDGET group-pair exponents.

All values are immutable after construction; enumeration and pairwise
accumulation are pure, so callers may partition the history index space
across workers and merge partial Hermitian sums in any associative order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, PathBudgetExceeded, SingularWindow
from .kernels import CONDITION_CAP, INVERSE_RTOL, KernelMatrix, TimeGrid
from .noise import GaussianDensity, NoiseRecord
from .quantum import (
    CouplingEigensystem,
    DensityOperator,
    ModelSpec,
    eigendecompose_coupling,
    free_step,
)

#: Most surviving histories one walk may hold.
PATH_BUDGET = 2 ** 20

#: Most group-pair exponents one call may evaluate, summed over its pair sums.
PAIR_BUDGET = 2 ** 30

#: Most complex entries the memory-window transfer's block array may hold
#: (16 MiB): m^(2(L+1)) d x d blocks for m coupling levels and bandwidth L.
BLOCK_BUDGET = 2 ** 20

#: Most negative finite float: the floor of every group's largest exponent.
_FLOAT_MIN = float(np.finfo(float).min)

#: Pair blocks are accumulated in row chunks of this many groups to bound
#: peak memory at large group counts.
_PAIR_CHUNK = 1024

#: Cap on the transfer's exponent bound B (see _transfer_work).
_EXPONENT_CAP = 600.0

#: Deepest Taylor level the hierarchy (see _truncation_bounds) and the raw
#: pointers' rank-one levels (see _rank_one_levels) may carry.
DEPTH_CAP = 40

#: Trace-norm error the hierarchy's proved bound must keep every state under.
_TRUNCATION_TOL = 1e-14

#: Scales s * Dmax of the weighted level norm that _truncation_bounds tries;
#: the best on the benchmark's kernels lie at 0.0125 to 0.4.
_LEVEL_SCALES = 2.0 ** -np.arange(1, 8)

_LEVELS = np.arange(DEPTH_CAP + 2)
_LAG = _LEVELS[:, None] - _LEVELS[None, :]
#: [1 / (i - j)!] on and below the diagonal, 0 above it.
_INV_LAG_FACTORIAL = np.array([[1.0 / math.factorial(i - j) if i >= j else 0.0
                                for j in _LEVELS] for i in _LEVELS])
#: [C(i, j)], 0 above the diagonal.
_BINOMIALS = np.array([[math.comb(i, j) for j in _LEVELS] for i in _LEVELS], dtype=float)


@dataclass(frozen=True)
class PathEnsemble:
    """All surviving eigenvalue histories over a window.

    ``amplitudes[p]`` is the unnormalized state vector obtained by applying,
    for each step of the window, the free unitary followed by the projector
    selected by history p.  Summing amplitudes over histories recovers the
    freely evolved state (projector completeness).
    """

    histories: np.ndarray       # (paths, steps) int8 indices into eigenvalues
    amplitudes: np.ndarray      # (paths, dim) complex
    eigenvalues: np.ndarray     # (levels,) distinct coupling eigenvalues
    eigenvalue_sequences: np.ndarray  # (paths, steps) float

    @property
    def count(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class ConditionalState:
    """Post-readout state with the log readout density of its record."""

    rho: DensityOperator
    log_weight: float


def _walk_paths(model: ModelSpec, grid: TimeGrid, steps: int, eig: CouplingEigensystem):
    """Walk the history tree one step at a time, yielding the surviving
    (amplitudes, histories) after 0, 1, ..., steps steps.

    Raises PathBudgetExceeded before a branching step whose branch count
    would pass PATH_BUDGET; exact zero-amplitude branches are dropped.
    """
    U = free_step(model, grid.epsilon)
    m = eig.count
    amps = model.initial_state[None, :].astype(complex)
    hist = np.zeros((1, 0), dtype=np.int8)
    yield amps, hist
    for _ in range(steps):
        if amps.shape[0] * m > PATH_BUDGET:
            raise PathBudgetExceeded(
                f"{amps.shape[0]} surviving paths x {m} levels exceeds the path budget "
                f"{PATH_BUDGET}; reduce the step count or Hilbert dimension")
        evolved = amps @ U.T
        branches = np.stack([evolved @ eig.projectors[a].T for a in range(m)], axis=1)
        new_amps = branches.reshape(-1, model.dim)
        new_hist = np.concatenate(
            [np.repeat(hist, m, axis=0),
             np.tile(np.arange(m, dtype=np.int8), amps.shape[0])[:, None]], axis=1)
        alive = np.einsum("pi,pi->p", new_amps, new_amps.conj()).real > 0.0
        amps = new_amps[alive]
        hist = new_hist[alive]
        yield amps, hist


def build_paths(model: ModelSpec, grid: TimeGrid, window: range) -> PathEnsemble:
    """Enumerate the eigenvalue histories over ``window`` with their vector
    amplitudes, by walking the history tree to the window's end."""
    eig = eigendecompose_coupling(model)
    for amps, hist in _walk_paths(model, grid, len(window), eig):
        pass
    return PathEnsemble(histories=hist, amplitudes=amps,
                        eigenvalues=eig.eigenvalues,
                        eigenvalue_sequences=eig.eigenvalues[hist.astype(int)])


def _check_pairs(pairs: int) -> None:
    if pairs > PAIR_BUDGET:
        raise PathBudgetExceeded(
            f"{pairs} path pairs exceed the pair budget {PAIR_BUDGET}; "
            "reduce the step count or Hilbert dimension")


def _group_labels(paths: PathEnsemble, support: range) -> tuple[np.ndarray, np.ndarray]:
    """Dense labels grouping the histories that agree on the steps
    ``support``, in lexicographic order of their eigenvalue indices there
    (first step most significant, the order of np.unique over rows), and each
    group's first history.

    Each np.unique sorts one int64 key per history: the running label times
    m^w plus the base-m code of the next w = 42 // bits(m) support steps.
    Labels stay under the path count, at most PATH_BUDGET = 2^20, and
    m^w <= 2^42, so no key passes 2^63.
    """
    m = paths.eigenvalues.size
    width = 42 // m.bit_length()
    label = np.zeros(paths.count, dtype=np.int64)
    first = np.zeros(1, dtype=np.int64)
    for lo in range(support.start, support.stop, width):
        cols = paths.histories[:, lo:min(lo + width, support.stop)].astype(np.int64)
        code = label * m ** cols.shape[1] + cols @ m ** np.arange(cols.shape[1] - 1, -1, -1)
        _, first, label = np.unique(code, return_index=True, return_inverse=True)
    return label, first


def _rank_one_levels(vec: np.ndarray, dev: np.ndarray, c: float):
    """Yield, for N = 0 .. DEPTH_CAP, the level

        phi_N = (c^N / N!)^(1/2) sum_a dev_a^N vec_a

    and the log of a bound on the trace of the levels past N,
    sum_(n>N) phi_n phi_n^dag: with x = c max_a dev_a^2,
    ||phi_n||^2 <= x^n/n! (sum_a ||vec_a||)^2, and
    sum_(n>N) x^n/n! <= e^x x^(N+1) / (N+1)! (Lagrange), so the trace is at
    most (sum_a ||vec_a||)^2 e^x x^(N+1) / (N+1)!.
    """
    x = c * float(np.max(dev * dev))
    log_mass = 2.0 * math.log(float(np.sum(np.linalg.norm(vec, axis=1)))) + x
    log_x = math.log(x) if x > 0.0 else -math.inf
    for n in range(DEPTH_CAP + 1):
        yield vec.sum(axis=0), log_mass + (n + 1) * log_x - math.lgamma(n + 2)
        vec = vec * (math.sqrt(c / (n + 1)) * dev)[:, None]


def _conditional(paths: PathEnsemble, A_w: np.ndarray, M: np.ndarray, h: np.ndarray,
                 support: range, rank_one: tuple[float, np.ndarray] | None = None
                 ) -> tuple[DensityOperator, float]:
    """The one pair sum behind every path-sum chain state,

        num = sum_ab exp(e_ab) |v_a><v_b|,   e_ab = -D.A_w.D/2 - S.M.S/2 + h.S,

    over the histories Xs of ``paths`` with amplitudes v; returns the
    normalized state and log trace(num).  e_ab = e_a + e_b + Xa.C.Xb with
    e_a = -Xa.(A_w + M).Xa/2 + h.Xa and C = A_w - M.  Only what C couples
    is summed pairwise.

    Groups.  C is PSD and, by the caller's formulas, vanishes outside the
    steps ``support``: with nothing read it is A_w (support: the whole
    window); for a delayed readout (read block r, unread block u of the
    window) it is the Schur complement [[0, 0], [0, A_uu - A_ur A_rr^-1 A_ru]]
    (support: the unread steps, none at delay 0); for raw pointers it is
    A_wu A_uu^-1 A_uw, u the unread detectors past the window, whose rows
    vanish off the last L window steps of a kernel of bandwidth L (support:
    those steps, none for a Markov kernel or at the grid's end).  So
    Xa.C.Xb = Ka.C_SS.Kb with K = X restricted to the support, and histories
    that agree there (one group g, see _group_labels) are summed first,

        psi_g = sum_(a in g) exp(e_a - s_g) v_a,   s_g = max_(a in g) e_a,
        num = sum_gg' exp(s_g + s_g' + K_g.C_SS.K_g') |psi_g><psi_g'|,

    and the cross term is formed as K.A_SS - K.M_SS.  On the whole window
    each history is its own group (K = X, s_a = e_a, psi_a = v_a), so there
    the sum is the ungrouped one bit for bit.  It
    takes m^(2u) group pairs for m coupling levels and u support steps,
    plus O(P k^2) for the P histories' own exponents; the cross term is
    built one row chunk at a time, so no array spans all group pairs.

    Rank-one levels.  When the caller passes ``rank_one`` = (c, a) with
    C = c a a^T, c > 0 (raw pointers on an exponential kernel), put
    s = X.a, mu the midpoint of s's range and e~_a = e_a + c mu (s_a - mu).
    Then e_ab = e~_a + e~_b + c mu^2 + c (s_a - mu)(s_b - mu), and expanding
    the last factor's exponential,

        num = exp(c mu^2) sum_n phi_n phi_n^dag,
        phi_n = (c^n / n!)^(1/2) sum_a (s_a - mu)^n exp(e~_a) v_a,

    every term PSD.  The levels up to the least depth N whose tail bound
    (_rank_one_levels) is under _TRUNCATION_TOL times the trace of the levels
    kept are summed, at work P (N + 1).  The dropped tail is PSD, so that
    certifies, per record, a state within 2 _TRUNCATION_TOL in trace norm
    and a log trace within _TRUNCATION_TOL.  The levels run only when such an
    N <= DEPTH_CAP exists with P (N + 1) < P^2; otherwise the group sum runs.

    One shift.  The group-pair weight matrix W_gg' = exp(s_g) exp(s_g')
    exp(K_g.C_SS.K_g') is PSD: the first two factors form the rank-one
    PSD matrix of the positive vector exp(s), the Gram matrix
    [K_g.C_SS.K_g'] is PSD because C_SS, a principal block of C, is, and
    its entrywise exponential, the sum of its entrywise powers over n!, is
    PSD by the Schur product theorem, as is the entrywise product of the
    two.  So |W_gg'| <= (W_gg W_g'g')^(1/2), the largest diagonal entry
    bounds every pair, and one shift, the largest s_g + s_g + K_g.C_SS.K_g,
    keeps every exponent at most 0; each exp(e_a - s_g) is at most 1 too.
    The levels shift by the largest e~_a.
    A history whose exponent is -inf has weight 0 and adds nothing to its
    group; a NaN or +inf exponent, or every one at -inf, ends in
    DegenerateState before any group is summed.
    """
    Xs, amps = paths.eigenvalue_sequences, paths.amplitudes
    lo, hi = support.start, support.stop
    if hi - lo < Xs.shape[1]:
        group, first = _group_labels(paths, support)
        K = Xs[first, lo:hi]
    else:  # on the whole window distinct histories are distinct groups
        K, group = Xs, np.arange(Xs.shape[0])
    (P, d), g = amps.shape, K.shape[0]
    if rank_one is None:
        _check_pairs(g * g)
    XA, XM = Xs @ A_w, Xs @ M
    path_log = -0.5 * np.einsum("pk,pk->p", Xs, XA + XM) + Xs @ h
    if not -np.inf < path_log.max() < np.inf:  # a NaN, a +inf, or every one at -inf
        raise DegenerateState("a chain history has exponent outside the float range; the "
                              "record values are out of the range this path sum can "
                              "represent")
    if rank_one is not None:
        c, a = rank_one
        s = Xs @ a
        mu = 0.5 * (float(s.max()) + float(s.min()))
        num = np.zeros((d, d), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            tilde = path_log + c * mu * (s - mu)
            top = float(tilde.max())
            levels = _rank_one_levels(np.exp(tilde - top)[:, None] * amps, s - mu, c)
            for depth, (phi, log_tail) in zip(range(P - 1), levels):  # P (N + 1) < P^2
                num += np.outer(phi, phi.conj())
                trace = float(np.trace(num).real)
                if 0.0 < trace < np.inf and log_tail <= math.log(_TRUNCATION_TOL * trace):
                    _check_pairs(P * (depth + 1))
                    return (DensityOperator.from_matrix(num),
                            math.log(trace) + 2.0 * top + c * mu * mu)
        _check_pairs(g * g)
    # A finite floor, so that a history at -inf, even in a group of them, gets
    # exp(-inf - s_g) = 0 and adds nothing; finite exponents are all above it.
    top = np.full(g, _FLOAT_MIN)
    np.maximum.at(top, group, path_log)
    psi = np.zeros((g, d), dtype=complex)
    np.add.at(psi, group, np.exp(path_log - top[group])[:, None] * amps)
    # On the whole window K is Xs and its products are the ones formed above.
    KA, KM = (XA, XM) if K is Xs else (K @ A_w[lo:hi, lo:hi], K @ M[lo:hi, lo:hi])
    cross = KA - KM
    num = np.zeros((d, d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        shift = float(np.max(2.0 * top + np.einsum("gk,gk->g", cross, K))) if g else 0.0
        for row in range(0, g, _PAIR_CHUNK):
            end = min(row + _PAIR_CHUNK, g)
            W = np.exp(top[row:end, None] + top[None, :] + cross[row:end] @ K.T - shift)
            num += psi[row:end].T @ (W @ psi.conj())
    trace = float(np.trace(num).real)
    if not 0.0 < trace < np.inf:
        raise DegenerateState(f"chain state has weight {trace}; the record values "
                              "are out of the range this path sum can represent")
    return DensityOperator.from_matrix(num), float(np.log(trace)) + shift


def _exponent_increment(row: np.ndarray, ket: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """Step k's share of the pair exponent -(Xa - Xb).A(Xa - Xb)/2,

        -A_kk D_k^2 / 2 - D_k sum_{l=1..w} A_{k,k-l} D_{k-l},   D = Xa - Xb,

    for every ket history (row of ``ket``) against every bra history (row of
    ``bra``); both hold eigenvalues at steps k - w .. k, step k last, and
    ``row`` is A[k, k - w .. k].  Summed over k = 0 .. n - 1 the increments
    give the exponent of the leading n-step block of A exactly.
    """
    past = row[:-1]
    d_now = ket[:, -1][:, None] - bra[:, -1][None, :]
    d_past = (ket[:, :-1] @ past)[:, None] - (bra[:, :-1] @ past)[None, :]
    return -d_now * (d_past + 0.5 * row[-1] * d_now)


def _bandwidth(entries: np.ndarray) -> int:
    """Largest |i - j| with a nonzero entry of a symmetric matrix (0 when it
    is diagonal or zero)."""
    nz = entries != 0.0
    idx = np.arange(nz.shape[0])
    last = np.where(nz.any(axis=1), nz.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), idx)
    return int(np.max(last - idx, initial=0))


def _transfer_work(eig: CouplingEigensystem, A: KernelMatrix, dim: int,
                   steps: int) -> tuple[int, int | None]:
    """Bandwidth L of the whole-grid kernel matrix and the work
    steps * m^(2L+2) * d^2 of the memory-window transfer over the grid, or
    None in place of the work when the transfer may not run: its block
    array would pass BLOCK_BUDGET entries, or its local exponent bound

        B = Dmax^2 max_k sum_{j < k <= i, i - j <= L} |A_ij|

    passes _EXPONENT_CAP, with Dmax the spread of the coupling eigenvalues.
    The sum at k is over the corner coupling the steps before k to the
    steps from k on; its nonzero entries lie on the L lower diagonals, so
    B takes O(nL).

    Why B <= 600 is safe.  Write D = Xa - Xb for a history pair.  After k
    steps its weight is exp(-D.A_k.D/2), with A_k the leading k x k block
    of A.  A_k is PSD, so the weight is at most 1 (at most
    exp(PSD_RTOL ||A|| |D|^2 / 2) for an A that passed its check only
    within the PSD_RTOL slack, since interlacing keeps A_k's smallest
    eigenvalue above A's).  Steps k .. k' - 1 multiply it by their summed
    increments, exp(-D'.A'.D'/2 - D'.A_c.D), with D' on the new steps, A'
    the trailing block over them (PSD, with the same slack) and A_c the
    block coupling them to the earlier steps.  A_c is nonzero only in the
    corner summed at k, so the factor is at most e^B however long the run.
    Hence (i) no factor exceeds e^600 ~ 3.8e260 < 1.8e308 and no weight
    exceeds 1, so nothing overflows; (ii) a weight that underflows below
    the smallest normal float 2.2e-308 could return to at most
    2.2e-308 * e^600 ~ 8.5e-48, far under 1e-16, so no weight the transfer
    drops would have mattered.  The bound spans one window, not the grid,
    and the diagonal pairs keep weight 1, so the reduced states need no
    renormalization.  The Markov kernel has L = 0 and B = 0.
    """
    band = _bandwidth(A.entries)
    m = eig.count
    blocks = m ** (2 * band + 2) * dim * dim
    if blocks > BLOCK_BUDGET:
        return band, None
    # cut[k] - cut[k - 1] adds the entries A[j + lag, j] whose corners start
    # at k = j + 1 and drops those whose corners ended at k - 1 = j + lag.
    cut = np.zeros(A.size + 1)
    for lag in range(1, band + 1):
        mass = np.abs(np.diagonal(A.entries, -lag))
        cut[1:mass.size + 1] += mass
        cut[lag + 1:] -= mass
    spread = float(np.ptp(eig.eigenvalues))
    if not spread * spread * float(np.max(np.cumsum(cut))) <= _EXPONENT_CAP:
        return band, None
    return band, steps * blocks


def _shift(a: float, size: int) -> np.ndarray:
    """Lower-triangular [a^(i-j) / (i-j)!] over levels 0 .. size - 1: row i
    holds the coefficients of (y + a)^i / i! in the basis y^j / j!."""
    return a ** np.maximum(_LAG[:size, :size], 0) * _INV_LAG_FACTORIAL[:size, :size]


def _taylor_matrix(delta: float, c: float, r: float, size: int) -> np.ndarray:
    """The hierarchy's step matrix T^delta on levels 0 .. size - 1: entry
    (n, l) is the coefficient of y^l / l! in

        exp(-c delta^2 / 2) r^n exp(-delta y) (y + c delta)^n / n!,

    that is exp(-c delta^2 / 2) diag(r^n) B(c delta) X(-delta), with
    B = _shift and X(b)_jl = C(l, j) b^(l-j) the product with exp(b y) in
    the basis y^l / l!.  T^-delta = (-1)^(n+l) T^delta, and T^0 = diag(r^n).
    """
    expand = (_BINOMIALS[:size, :size] * (-delta) ** np.maximum(_LAG[:size, :size], 0)).T
    return (np.exp(-0.5 * c * delta * delta) * r ** _LEVELS[:size, None]) * (
        _shift(c * delta, size) @ expand)


def _truncation_bounds(eig: CouplingEigensystem, A: KernelMatrix,
                       steps: int) -> np.ndarray | None:
    """Proved bound, for each depth N = 0 .. DEPTH_CAP, on the error that
    truncating the Taylor hierarchy at level N leaves in any one history
    pair's weight over ``steps`` steps; None when A has no AR(1) structure.

    Notation (see _transfer_states).  A_ij = c r^|i-j| with 0 <= r <= 1.  A
    pair of histories has eigenvalue differences D_k; its memory term is
    y_0 = 0, y_(k+1) = r (y_k + c D_k), its weight after k steps is
    w_k = exp(-D.A_k.D / 2) over the leading k x k block A_k, and its exact
    levels are u_k^(n) = w_k y_k^n / n!.  A step with delta = D_k maps them
    by the infinite matrix T^delta of _taylor_matrix; the hierarchy keeps
    levels n, l <= N only.

    1. Linearity.  The truncated matrix levels are the sums over pairs
       (a, b) of the truncated scalar recursion run along the pair's D
       sequence, times |v_a><v_b| with v_a the path amplitude.  So the
       level-0 matrix errs by sum_ab e_ab |v_a><v_b|, whose trace norm is at
       most max|e_ab| (sum_a ||v_a||)^2 <= P max|e_ab|, by Cauchy-Schwarz
       with sum_a ||v_a||^2 = 1 (complete projectors, unitary steps) and P
       the surviving path count, which never falls from step to step.
    2. Exact levels.  A_k is PSD (AR(1) blocks are), so w_k <= 1; and
       |y_k| <= Y = c Dmax sum_(j=1..steps-1) r^j for every step k < steps,
       Dmax the spread of the coupling eigenvalues.  So |u^(l)| <= Y^l / l!.
    3. Residual.  Step k takes the exact levels to the exact levels; the
       truncated map misses tau^(n) = exp(-c delta^2/2) r^n w_k R(y_k), with
       R the part of degree > N of exp(-delta y) (y + c delta)^n / n!.  The
       coefficients of exp(|delta| y) (y + c |delta|)^n / n! dominate those
       in modulus, so with x = |delta| Y
           |tau^(n)| <= exp(-c delta^2/2) r^n
                        sum_(i<=n) Y^i/i! (c|delta|)^(n-i)/(n-i)! E_(N-i)(x),
       where E_m(x) = sum_(j>m) x^j/j! <= e^x x^(m+1)/(m+1)! (Lagrange).
    4. Propagation.  The error vector e_k over levels 0 .. N starts at
       e_0 = 0 (y_0 = 0 makes every level above 0 vanish) and obeys
       e_(k+1) = T_N^delta e_k - tau_k.  In the norm |v|_s = max_n |v_n| / s^n
       for any s > 0, |e_k|_s <= tau_s sum_(j<k) g_s^j, with tau_s the
       largest |tau|_s over steps and differences and g_s the largest
       induced norm max_n sum_(l<=N) |T_nl| s^(l-n) over the differences.
       g_s >= 1, since T^0 = diag(r^n), so the sum grows with k and the
       bound for k = steps covers every earlier step; |e^(0)| <= |e|_s.
       Any s gives a bound: the least over the fixed scan
       s = _LEVEL_SCALES / Dmax is returned.  (T^delta and T^-delta differ
       only in the signs (-1)^(n+l), so |delta| > 0 suffices, and delta = 0
       leaves tau = 0.)
    5. Normalization.  tr of the exact level 0 is 1, so a level-0 error of
       trace norm eta moves the normalized state by at most 2 eta / (1 - eta)
       (see _path_capacity).

    The bound covers truncation in exact arithmetic; rounding adds a few
    ulps per step, as in the memory-window transfer.

    The sums over a step's pairs and levels are products of fixed
    (DEPTH_CAP + 1)-square matrices, so the bound takes O(m^2 DEPTH_CAP^3)
    and never reads t.  Numbers past the float range end in an inf or nan
    bound, which certifies nothing.
    """
    if A.ar1 is None:
        return None
    c, r = A.ar1
    x = eig.eigenvalues.tolist()
    gaps = sorted({abs(a - b) for a in x for b in x} - {0.0})  # the distinct |delta| > 0
    size = DEPTH_CAP + 1
    if not gaps:
        return np.zeros(size)
    upper = _LAG[:size, :size] <= 0  # [n, N]: n <= N
    with np.errstate(all="ignore"):
        Y = c * gaps[-1] * np.sum(r ** np.arange(1, steps))
        weights = (_LEVEL_SCALES / gaps[-1])[:, None] ** _LEVELS[:size]  # [s, n] = s^n
        tail_free = _shift(Y, size)[:, 0]  # Y^i / i!
        tau = np.zeros((size, size))  # [n, N]
        norm = np.ones((_LEVEL_SCALES.size, size))  # [s, N]
        for delta in gaps:
            T = np.abs(_taylor_matrix(delta, c, r, size))
            rows = np.cumsum(T * weights[:, None, :], axis=2) / weights[:, :, None]
            norm = np.maximum(norm, np.where(upper, rows, 0.0).max(axis=1))
            xd = delta * Y
            tail = _shift(xd, size + 1)[1:, :size].T  # [i, N] = xd^(N+1-i) / (N+1-i)!
            res = (np.exp(xd - 0.5 * c * delta * delta) * r ** _LEVELS[:size, None]) * (
                (_shift(c * delta, size) * tail_free) @ tail)
            tau = np.maximum(tau, np.where(upper, res, 0.0))
        tau_s = np.max(tau[None] / weights[:, :, None], axis=1)
        log_norm = np.log(norm)
        growth = np.where(log_norm > 0, np.expm1(steps * log_norm) / np.expm1(log_norm), steps)
        return np.fmin.reduce(np.where(tau_s > 0, tau_s * growth, 0.0), axis=0)


def _path_capacity(bounds: np.ndarray) -> list[float]:
    """Entry N: the log of the path count below which some depth <= N keeps
    every normalized state within _TRUNCATION_TOL in trace norm.  With P
    surviving paths and eta = P bounds[N], the state moves by at most
    2 eta / (1 - eta), under tol when eta < tol / (2 + tol); a nan bound
    certifies nothing.  Nondecreasing, so _certified_depth bisects it.
    """
    with np.errstate(divide="ignore"):
        need = math.log(_TRUNCATION_TOL / (2.0 + _TRUNCATION_TOL)) - np.log(bounds)
    return np.maximum.accumulate(np.where(np.isnan(need), -np.inf, need)).tolist()


def _certified_depth(capacity: list[float], log_paths: float) -> int | None:
    """Least depth certified for exp(log_paths) surviving paths, or None when
    no depth up to DEPTH_CAP is."""
    depth = bisect.bisect_right(capacity, log_paths)
    return depth if depth < len(capacity) else None


def _transfer_states(model: ModelSpec, A: KernelMatrix, grid: TimeGrid,
                     eig: CouplingEigensystem, band: int, steps: int,
                     depth: int | None = None) -> list[DensityOperator]:
    """Reduced states after 1 .. steps steps, carrying the double path sum
    forward in time in one of two memory representations.

    Memory window (depth None).  The pair weight
    exp(-(Xa - Xb).A(Xa - Xb)/2) couples only steps at most ``band`` apart,
    so the sum can be carried in one d x d block per choice of ket and bra
    eigenvalue indices at the last ``band`` steps (the window, oldest
    first).  Each step multiplies every split block by the step's exponent
    increment and sums out the index pair that leaves the window; the sum of
    all blocks is the unnormalized reduced state.

    Taylor levels 0 .. depth (A.ar1 = (c, r)).  For A_ij = c r^|i-j| a
    pair's exponent gains -c delta^2/2 - delta y_k at step k, with delta
    its eigenvalue difference there and y_(k+1) = r (y_k + c delta), so the
    sum is carried as the levels rho^(n) = sum_pairs w y^n/n! |v_a><v_b|.
    Each step maps pair (alpha, beta)'s split of the levels by the fixed
    matrix T^(x_alpha - x_beta) of _taylor_matrix and sums the pairs;
    rho^(0) is the unnormalized reduced state.  Levels above ``depth`` are
    dropped, with the error bounded in _truncation_bounds.

    Either way each step applies the free unitary on both sides and splits
    every block by the step's projectors P_a . P_b in two matrix products.
    """
    U = free_step(model, grid.epsilon)
    m, d = eig.count, model.dim
    # Rows (a, i) of P_a U and columns (b, j) of U^dag P_b, so one step's
    # unitary and split of every block are two matrix products.
    left = (eig.projectors @ U).reshape(m * d, d)
    right = (U.conj().T @ eig.projectors).transpose(1, 0, 2).reshape(d, m * d)
    rho0 = np.outer(model.initial_state, model.initial_state.conj())
    if depth is None:
        E = A.submatrix(range(steps))
        blocks = rho0[:, None, None, :]  # (d, ket window, bra window, d)
        window = np.zeros((1, 0))  # eigenvalues along each window, oldest first
    else:
        size = depth + 1
        x = eig.eigenvalues
        # Column (alpha, beta, l) of row n holds T^(x_alpha - x_beta)_nl.
        mixing = np.stack([_taylor_matrix(xa - xb, *A.ar1, size) for xa in x for xb in x],
                          axis=1).reshape(size, m * m * size)
        blocks = np.zeros((d, size, d), dtype=complex)  # (d, level, d)
        blocks[:, 0] = rho0
    states = []
    for k in range(steps):
        split = ((left @ blocks.reshape(d, -1)).reshape(-1, d) @ right).reshape(m, d, -1, m, d)
        if depth is None:
            r, w = window.shape
            blocks = split.reshape(m, d, r, r, m, d).transpose(1, 2, 0, 3, 4, 5).reshape(
                d, r * m, r * m, d)
            window = np.hstack([np.repeat(window, m, axis=0),
                                np.tile(eig.eigenvalues, r)[:, None]])
            blocks *= np.exp(_exponent_increment(E[k, k - w:k + 1], window, window))[..., None]
            if w == band:
                blocks = blocks.reshape(d, m, r, m, r, d).sum(axis=(1, 3))
                window = window[:r, 1:]
            rho = blocks.sum(axis=(1, 2))
        else:
            levels = mixing @ split.transpose(0, 3, 2, 1, 4).reshape(m * m * size, d * d)
            blocks = levels.reshape(size, d, d).transpose(1, 0, 2)
            rho = blocks[:, 0]
        states.append(DensityOperator.from_matrix(rho))
    return states


def reduced_states(model: ModelSpec, A: KernelMatrix, grid: TimeGrid,
                   t: float) -> list[DensityOperator]:
    """Open-system states at every grid time in (0, t]: entry k - 1 is the
    pointer-averaged chain at time k * epsilon.

    Integrating out every pointer cancels the Gaussian prior and leaves the
    double path sum with decoherence weights exp(-(Xa - Xb).A(Xa - Xb)/2).
    Three routes evaluate it: the one pair sum (_conditional, nothing read)
    on every prefix of one walk over the history tree, which is exact, and
    _transfer_states, which carries the sum forward either over the last L
    steps of a bandwidth-L kernel (exact; it may run when _transfer_work
    allows it, at work n * m^(2L+2) * d^2) or, for an exponential kernel,
    as Taylor levels 0 .. N (at work n * m^2 * (N+1)^2 * d^2, when some
    N <= DEPTH_CAP is certified by _truncation_bounds for the surviving
    paths and its (N+1) d^2 level entries fit BLOCK_BUDGET).  The path sum
    costs sum_k P_k^2 * k, since each of the P_k^2 pairs after k steps (P_k
    surviving paths) also costs a k-long exponent row, and past the path
    budget, or once sum_k P_k^2 up to t passes the pair budget, it cannot
    run; the walk checks both as it goes, so a grid no route can run is
    refused at the step the pair budget passes.  N is first set for all m^n
    histories surviving.
    When a transfer may run, the walk covers the whole grid, prices itself
    as it goes and stops once it costs more than the cheaper transfer; after
    k of the grid's n steps P_k m^(n-k) bounds the paths that survive the
    grid, which may lower N.  The choice reads only the model, that walk
    and the whole-grid A, never t, so every t takes the same route and
    depth.
    """
    eig = eigendecompose_coupling(model)
    steps = len(grid.window_before(t))
    n, m, d = grid.n_steps, eig.count, model.dim
    band, band_work = _transfer_work(eig, A, d, n)
    bounds = _truncation_bounds(eig, A, n)
    # Only depths whose (N + 1) d^2 level entries fit the block budget.
    capacity = [] if bounds is None else _path_capacity(bounds)[:BLOCK_BUDGET // (d * d)]

    def cheaper(log_paths: float) -> tuple[int | None, int | None]:
        """The depth of the levels (None for the window) and the work of the
        cheaper transfer, for at most exp(log_paths) surviving paths."""
        depth = _certified_depth(capacity, log_paths)
        levels = None if depth is None else n * m * m * (depth + 1) ** 2 * d * d
        if levels is not None and (band_work is None or levels < band_work):
            return depth, levels
        return None, band_work

    depth, work = cheaper(n * math.log(m))  # every history surviving
    prefixes, pairs, cost = [], 0, 0.0
    try:
        # The walk checks both budgets as it goes, before any pair sum.
        walk = _walk_paths(model, grid, steps if work is None else n, eig)
        next(walk)  # the empty history
        for k, (amps, hist) in enumerate(walk, 1):
            if k <= steps:
                prefixes.append((amps, hist))
                pairs += amps.shape[0] ** 2
                _check_pairs(pairs)
            cost += amps.shape[0] ** 2 * k
            if work is not None:
                # P_k m^(n-k) bounds the paths that survive the whole grid.
                depth, work = cheaper(math.log(amps.shape[0]) + (n - k) * math.log(m))
                if cost > work:
                    break
    except PathBudgetExceeded:
        if work is None:
            raise
        cost = np.inf
    if work is not None and cost > work:
        return _transfer_states(model, A, grid, eig, band, steps, depth)
    return [_conditional(PathEnsemble(hist, amps, eig.eigenvalues,
                                      eig.eigenvalues[hist.astype(int)]),
                         A.submatrix(range(k)), np.zeros((k, k)), np.zeros(k), range(k))[0]
            for k, (amps, hist) in enumerate(prefixes, 1)]


def _guarded(window: range, block: np.ndarray) -> GaussianDensity:
    """GaussianDensity of a k x k block B of the pointer state, or SingularWindow unless
    cond(B) <= CONDITION_CAP (eigvalsh finds B's least eigenvalue lam to ~k u cond(B))
    and the factor L has max |LL^T - B| < INVERSE_RTOL lam.  Then ||LL^T - B||_2 < d lam,
    d = k INVERSE_RTOL: each solve or log det it serves is exact for a matrix within 1 +- d
    of B in every direction, so log det S errs by at most k d / (1 - d), and a correction
    step with an exact residual cuts a solve's error (A_uu norm) by d / (1 - d).
    """
    density = GaussianDensity(window, block)
    eigs = np.linalg.eigvalsh(block)
    lam = np.min(eigs, initial=np.inf)
    cond = np.max(eigs, initial=0.0) / lam if lam > 0 else np.inf
    if not (cond <= CONDITION_CAP and density.residual < INVERSE_RTOL * lam):
        raise SingularWindow(f"a {len(window)}-step pointer block has condition number "
                             f"{cond:.3e}; the guard needs at most {CONDITION_CAP:.0e} and a "
                             f"factor residual under {INVERSE_RTOL:.0e} lam")
    return density


def conditional_state_pointer(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                              record: NoiseRecord) -> ConditionalState:
    """State conditioned on raw pointers x read on the window w = [0, t).

    The detectors u after w stay unread but correlated, so the read pointers
    have prior N(0, S^-1 / 4), S = A_ww - A_wu A_uu^-1 A_uw (A_ww if u is empty);
    the pair terms are M = S and h = 2Sx, and the state is generically mixed.
    y = 2Sx has prior N(0, S) and S^-1 y = 2x, so log p(x) = log N(y; 0, S) +
    log det 2S = -x.y + (log det S - k log(pi/2)) / 2 needs no solve.  The gain
    A_uu^-1 A_uw takes one correction step, and S and y are summed, in extended
    precision, keeping the digits that cancel between A_ww and A_wu A_uu^-1 A_uw.

    The unread detectors couple ket and bra histories only through
    C = A_ww - S = A_wu A_uu^-1 A_uw, and _conditional sums only what C
    couples.  Its rows and columns vanish off the window steps that A_uw
    couples to u: by the kernel's exact zeros (a tabulated kernel's last L
    steps, none for a Markov kernel or at the grid's end), never by a
    threshold on rounding, and exactly in floating point too, since a zero
    column of A_uw has a zero column of the gain.  Those steps are the
    pair sum's support, with m^(2L) group pairs.  On an exponential kernel,
    A_ij = c r^|i-j| (A.ar1 = (c, r)), and u nonempty, C is rank one: for
    unread i >= k and read j < k, A_ij = c r^(i-k) r^(k-j), so
    A_uw = A_uu[:, :1] a^T with a_j = r^(k-j); hence A_uu^-1 A_uw = e_1 a^T
    and C = A_wu e_1 a^T = A_wu[:, 0] a^T = c a a^T, since A_jk = c a_j.
    _conditional then sums its certified rank-one levels.
    """
    window = grid.window_before(t)
    if record.kind != "pointer" or record.window != window:
        raise ValueError("expected a pointer record on the window [0, t)")
    unread = range(window.stop, A.window.stop)  # empty at the grid's end, where S = A_ww
    A_w, A_uu, A_uw = A.submatrix(window), A.submatrix(unread), A.block(unread, window)
    unread_density = _guarded(unread, A_uu)
    gain = unread_density.precision_apply(A_uw).astype(np.longdouble)
    gain += unread_density.precision_apply((A_uw - A_uu @ gain).astype(float))
    S = (A_w - A_uw.T @ gain).astype(float)
    density = _guarded(window, S)
    y = 2.0 * (S.astype(np.longdouble) @ record.values)
    log_prior = float(-(record.values @ y)) + 0.5 * (
        density.log_det - len(window) * np.log(0.5 * np.pi))
    paths = build_paths(model, grid, window)
    coupled = np.flatnonzero(A_uw.any(axis=0))
    support = range(int(coupled[0]) if coupled.size else len(window), len(window))
    rank_one = None
    if A.ar1 is not None and unread:
        c, r = A.ar1
        rank_one = (c, r ** np.arange(len(window), 0, -1))
    rho, log_trace = _conditional(paths, A_w, S, y.astype(float), support, rank_one)
    return ConditionalState(rho=rho, log_weight=log_prior + log_trace)


def delayed_state(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                  delay: float, record: NoiseRecord) -> ConditionalState:
    """State at time t when each readout is collected ``delay`` after its
    own step, so only the record on [0, t - delay) has been read; the
    chain's one state conditioned on the kernel-smeared readout record.

    The record's prior marginal has covariance equal to the read-window
    submatrix of A, and history pair (a, b) shifts it by G (Xa + Xb) with
    G = A_{read, window}.  With delay 0 the whole window is read and the
    state is pure for every record; with delay t nothing is read and it is
    the reduced state.  In between it equals the zero-delay state averaged
    over the still-unread components under the full readout density.
    log_weight is the log readout density of the record.  M = G^T P G and
    h = G^T P z take one precision solve per window step, independent of the
    trajectory solver's direct exponents; an empty read gives M = 0, h = 0.
    """
    grid.steps_of(delay)  # validates that the delay sits on the grid
    if delay < 0 or delay > t:
        raise ValueError("delay must lie in [0, t]")
    window = grid.window_before(t)
    read = grid.window_before(t - delay)
    if record.kind != "readout" or record.window != read:
        raise ValueError("expected a readout record on the window [0, t - delay)")
    paths = build_paths(model, grid, window)
    density = GaussianDensity(window=read, covariance=A.submatrix(read))
    G = A.block(read, window)
    M, h = G.T @ density.precision_apply(G), G.T @ density.precision_apply(record.values)
    rho, log_trace = _conditional(paths, A.submatrix(window), M, h,
                                  range(len(read), len(window)))
    return ConditionalState(rho=rho, log_weight=density.logpdf(record.values) + log_trace)
