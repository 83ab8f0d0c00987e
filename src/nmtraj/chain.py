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

``reduced_states`` carries that sum forward in time in one step loop
whenever it may, with one of two memories, and the first that may run
wins: for an exponential kernel, whose matrix is AR(1), Taylor levels in
the pair's one scalar memory term, truncated at the least depth whose
proved error bound is under 1e-14 (the discrete hierarchy of Tanimura and
Kubo); else, for a kernel of finite bandwidth L, exactly, the last L
ket/bra eigenvalue index pairs (the memory window).  The depth's bound and
the window's guards read only the kernel, the coupling's spread, the step
count and the dimension, never a walk or t, so they route long grids.  The
path sum runs only when neither may, and stays the reference route.

Conventions fixed here (_step_split) and shared by the trajectory solver's
walk: within one step the free unitary acts first and the detector kick acts
at the step's right endpoint; windows are left-endpoint, {k : t_k < t}.

Path enumeration prunes branches whose amplitude is exactly zero (this is
what keeps commuting models O(d) wide at any depth) and refuses, rather than
truncates, when the surviving branch count would exceed PATH_BUDGET or the
pair sums would evaluate more than PAIR_BUDGET group-pair exponents.

All values are immutable after construction; enumeration and pairwise
accumulation are pure, so callers may partition the history index space
across workers and merge partial Hermitian sums in any associative order.
"""

from __future__ import annotations

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

#: Cap on the transfer's exponent bound B (see _window_may_run).
_EXPONENT_CAP = 600.0

#: Deepest Taylor level the hierarchy (see _truncation_bounds) and the raw
#: pointers' rank-one levels (see _rank_one_levels) may carry; 42 certifies
#: the default qubit's exponential kernel on 2000 steps.
DEPTH_CAP = 42

#: Trace-norm error the hierarchy's proved bound must keep every state under.
_TRUNCATION_TOL = 1e-14

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
    freely evolved state (projector completeness).  The eigenvalue
    sequences are ``eigenvalues[histories]``.
    """

    histories: np.ndarray       # (paths, steps) int8 indices into eigenvalues
    amplitudes: np.ndarray      # (paths, dim) complex
    eigenvalues: np.ndarray     # (levels,) distinct coupling eigenvalues

    @property
    def count(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class ConditionalState:
    """Post-readout state with the log readout density of its record."""

    rho: DensityOperator
    log_weight: float


def _step_split(model: ModelSpec, grid: TimeGrid, eig: CouplingEigensystem) -> np.ndarray:
    """One step on every branch: rows (a, i) of P_a U, the free unitary first
    and then the kick's projector onto coupling level a, as one m d x d
    matrix."""
    U = free_step(model, grid.epsilon)
    return (eig.projectors @ U).reshape(eig.count * model.dim, model.dim)


def _walk_paths(model: ModelSpec, grid: TimeGrid, steps: int, eig: CouplingEigensystem):
    """Walk the history tree one step at a time, yielding the surviving
    (amplitudes, histories, parents) after 0, 1, ..., steps steps.
    ``parents[p]`` is the row, in the previous yield, of history p without
    its last step (empty for the empty history).

    Raises PathBudgetExceeded before a branching step whose branch count
    would pass PATH_BUDGET; exact zero-amplitude branches are dropped.
    """
    split = _step_split(model, grid, eig)
    m = eig.count
    amps = model.initial_state[None, :].astype(complex)
    hist = np.zeros((1, 0), dtype=np.int8)
    yield amps, hist, np.zeros(0, dtype=np.intp)
    for _ in range(steps):
        if amps.shape[0] * m > PATH_BUDGET:
            raise PathBudgetExceeded(
                f"{amps.shape[0]} surviving paths x {m} levels exceeds the path budget "
                f"{PATH_BUDGET}; reduce the step count or Hilbert dimension")
        # Branch (p, a), row p m + a, is P_a U applied to history p.
        branches = (amps @ split.T).reshape(-1, model.dim)
        alive = np.flatnonzero(np.einsum("pi,pi->p", branches, branches.conj()).real > 0.0)
        parents, level = divmod(alive, m)
        amps = branches[alive]
        hist = np.hstack([hist[parents], level.astype(np.int8)[:, None]])
        yield amps, hist, parents


def build_paths(model: ModelSpec, grid: TimeGrid, window: range) -> PathEnsemble:
    """Enumerate the eigenvalue histories over ``window`` with their vector
    amplitudes, by walking the history tree to the window's end."""
    eig = eigendecompose_coupling(model)
    for amps, hist, _ in _walk_paths(model, grid, len(window), eig):
        pass
    return PathEnsemble(histories=hist, amplitudes=amps, eigenvalues=eig.eigenvalues)


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

    with C_SS formed as (A_w - M)_SS before its one product with K.  On the
    whole window each history is its own group (K = X, s_a = e_a,
    psi_a = v_a), so there the sum is the ungrouped one bit for bit.  It
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
    Xs, amps = paths.eigenvalues[paths.histories], paths.amplitudes
    lo, hi = support.start, support.stop
    if hi - lo < Xs.shape[1]:
        group, first = _group_labels(paths, support)
        K = Xs[first, lo:hi]
    else:  # on the whole window distinct histories are distinct groups
        K, group = Xs, np.arange(Xs.shape[0])
    (P, d), g = amps.shape, K.shape[0]
    if rank_one is None:
        _check_pairs(g * g)
    # One P x k product beside Xs at a time: this one, then the cross term's.
    path_log = -0.5 * np.einsum("pk,pk->p", Xs, Xs @ (A_w + M)) + Xs @ h
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
    cross = K @ (A_w - M)[lo:hi, lo:hi]
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


def _window_may_run(eig: CouplingEigensystem, A: KernelMatrix, dim: int) -> bool:
    """Whether the memory-window transfer may run on the whole-grid kernel
    matrix A, of bandwidth L = A.bandwidth: its block array of m^(2L+2) d^2
    entries fits BLOCK_BUDGET, and its local exponent bound

        B = Dmax^2 max_k sum_{j < k <= i, i - j <= L} |A_ij|

    is at most _EXPONENT_CAP, with Dmax the spread of the coupling eigenvalues.
    The sum at k is over the corner coupling the steps before k to the
    steps from k on; its nonzero entries lie on the L lower diagonals, each
    one kernel value |A.column[lag]|, so B takes O(nL).

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
    band = A.bandwidth
    if eig.count ** (2 * band + 2) * dim * dim > BLOCK_BUDGET:
        return False
    # cut[k] - cut[k - 1] adds the entries A[j + lag, j] whose corners start
    # at k = j + 1 and drops those whose corners ended at k - 1 = j + lag.
    cut = np.zeros(A.size + 1)
    for lag in range(1, band + 1):
        mass = abs(A.column[lag])
        cut[1:A.size - lag + 1] += mass
        cut[lag + 1:] -= mass
    spread = float(np.ptp(eig.eigenvalues))
    return spread * spread * float(np.max(np.cumsum(cut))) <= _EXPONENT_CAP


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


def _truncation_bounds(c: float, r: float, spread: float, steps: int,
                       dim: int) -> np.ndarray:
    """Proved bound, for each depth N = 0 .. DEPTH_CAP, on the trace-norm
    error that truncating the Taylor hierarchy at level N leaves in each
    normalized reduced state after 1 .. ``steps`` steps, for the kernel
    A_ij = c r^|i-j| (0 <= r <= 1), coupling eigenvalues of spread
    Dmax = ``spread`` and Hilbert dimension d = ``dim``.  It reads nothing
    else: no path count, no history and no t.

    Notation (see _transfer_states).  Over the history pairs (a, b), with
    eigenvalue differences D_j, the exact levels after k steps are
    rho^(n)_k = sum_ab w y^n/n! |v_a><v_b|, with w = exp(-D.A_k.D/2) over
    the leading k x k block A_k and y = c sum_(j<k) r^(k-j) D_j.  u_k is the
    vector of all levels, and one step maps it by the infinite matrix S
    whose blocks are T^(x_alpha - x_beta) of _taylor_matrix times the split
    P_alpha U . U^dag P_beta.  The hierarchy runs u~_(k+1) = Pi S u~_k from
    u~_0 = u_0, with Pi dropping the levels above N.

    1. Classical noise.  A is PSD, so exp(-D.A.D/2) = E exp(i xi.D) for
       xi ~ N(0, A), a stationary Gaussian Markov chain with variance c and
       lag-one correlation r: Kubo's stochastic Liouville picture, from which
       Tanimura and Kubo derive the hierarchy.  Let F_k(z) be the average of
       the kicked evolution psi -> exp(i xi_j X) U psi over its first k steps,
       given the next noise value xi_k = z; it is a density operator at every
       z.  Given xi_k = z, sum_(j<k) xi_j D_j is Gaussian with mean z y/c and
       variance D.A_k.D - y^2/c, so by the Hermite generating function
           F_k(z) = sum_n i^n c^(-n/2) He_n(z / sqrt(c)) rho^(n)_k.
    2. The level norm.  Let ||u||^2 = sum_n n! c^-n ||u^(n)||_HS^2.  The
       He_n(z / sqrt(c)) / sqrt(n!) are orthonormal under z ~ N(0, c), so
       ||u|| is the root mean square over z of ||F(z)||_HS (Parseval); for
       the exact levels it is at most 1.
    3. The step contracts.  F_(k+1)(z) averages exp(i xi_k X) U F_k(xi_k)
       U^dag exp(-i xi_k X) over xi_k given xi_(k+1) = z (xi is Markov in
       both directions): a unitary conjugation at each value, which keeps
       ||F||_HS, then the Mehler conditional expectation, diag(r^n) on the
       Hermite levels.  Both contract the mean square.  On the levels of one
       pair, with any y, this map gives w' = w exp(-c delta^2/2 - delta y)
       and y' = r (y + c delta), as S does, and such levels span a dense
       set, so S is this map: ||S|| <= 1, and Pi is an orthogonal projection
       in this norm.
    4. Telescoping.  e_k = u_k - u~_k has e_0 = 0 and
       e_(k+1) = (1 - Pi) u_(k+1) + Pi S e_k, so
       ||e_k|| <= sum_(j=1..k) ||(1 - Pi) u_j||.  Level 0 has weight 1, so the
       level-0 error has trace norm at most sqrt(d) ||e_k||.
    5. Cauchy.  With a_j = c r^(k-j), y = a.D, so for complex s,
       f(s) = sum_n s^n rho^(n)_k = sum_ab w exp(s y) |v_a><v_b| is the noise
       average of V psi_0 psi_0^dag W^dag, with V and W the evolutions kicked
       by exp(i xi_j X) exp(s a_j X) and exp(i xi_j X) exp(-s* a_j X).  The
       norms of those two factors multiply to at most exp(|s| a_j Dmax), so
       ||f(s)||_1 <= exp(|s| Y_k) with Y_k = c Dmax sum_(i=1..k) r^i, and on
       the circle |s| = n / Y_k,
           ||rho^(n)_k||_HS <= ||rho^(n)_k||_1 <= (e Y_k / n)^n.
    6. The tail.  Hence ||(1 - Pi) u_k||^2 <= sum_(l>N) t_l with
       t_l = l! (e^2 x_k / l^2)^l, x_k = Y_k^2 / c.  The ratio
       t_(l+1) / t_l = e^2 x_k / (l + 1) (1 + 1/l)^(-2l) falls with l, so
       with q its value at l = N + 1 the sum is at most t_(N+1) / (1 - q)
       when q < 1, and no bound otherwise.
    7. Normalization.  tr rho^(0)_k = 1, so a level-0 error of trace norm
       eta = sqrt(d) sum_(k=1..steps) ||(1 - Pi) u_k|| moves every
       normalized state by at most 2 eta / (1 - eta), which is returned
       (inf when eta >= 1).

    The bound covers truncation in exact arithmetic; rounding adds a few
    ulps per step, as in the memory-window transfer.  It takes O(steps
    DEPTH_CAP) and is evaluated in logs, so an underflowing r^k or a zero
    spread gives x_k = 0 (depth 0) and a value past the float range gives
    inf (no depth), with no floating-point warning.
    """
    levels = _LEVELS[1:].astype(float)  # l = N + 1
    with np.errstate(all="ignore"):
        memory = np.cumsum(r ** np.arange(1, steps + 1))  # Y_k / (c Dmax), k = 1 .. steps
        log_x = np.log(c) + 2.0 * np.log(spread * memory)[:, None]  # log(Y_k^2 / c)
        log_t = np.cumsum(np.log(levels)) + levels * (2.0 + log_x - 2.0 * np.log(levels))
        q = np.exp(2.0 + log_x - np.log(levels + 1.0) - 2.0 * levels * np.log1p(1.0 / levels))
        tails = np.where(q < 1.0, np.exp(log_t) / (1.0 - q), np.inf)
        eta = math.sqrt(dim) * np.sum(np.sqrt(tails), axis=0)
        return np.where(eta < 1.0, 2.0 * eta / (1.0 - eta), np.inf)


def _certified_depth(c: float, r: float, spread: float, steps: int, dim: int) -> int | None:
    """Least depth N <= DEPTH_CAP whose truncation bound (_truncation_bounds)
    is under _TRUNCATION_TOL and whose (N + 1) dim^2 level entries fit
    BLOCK_BUDGET, or None when there is none."""
    fits = _truncation_bounds(c, r, spread, steps, dim)[:BLOCK_BUDGET // (dim * dim)]
    certified = np.flatnonzero(fits < _TRUNCATION_TOL)
    return int(certified[0]) if certified.size else None


def _transfer_states(model: ModelSpec, A: KernelMatrix, grid: TimeGrid,
                     eig: CouplingEigensystem, steps: int,
                     depth: int | None = None) -> list[DensityOperator]:
    """Reduced states after 1 .. steps steps, carrying the double path sum
    forward in time in one of two memory representations.

    Memory window (depth None).  The pair weight
    exp(-(Xa - Xb).A(Xa - Xb)/2) couples only steps at most L = A.bandwidth
    apart, so the sum can be carried in one d x d block per choice of ket and
    bra eigenvalue indices at the last L steps (the window, oldest first).
    Each step multiplies every split block by the step's exponent increment
    and sums out the index pair that leaves the window; the sum of all
    blocks is the unnormalized reduced state.

    Taylor levels 0 .. depth (A.ar1 = (c, r)).  For A_ij = c r^|i-j| a
    pair's exponent gains -c delta^2/2 - delta y_k at step k, with delta
    its eigenvalue difference there and y_(k+1) = r (y_k + c delta), so the
    sum is carried as the levels rho^(n) = sum_pairs w y^n/n! |v_a><v_b|.
    Each step maps pair (alpha, beta)'s split of the levels by the fixed
    matrix T^(x_alpha - x_beta) of _taylor_matrix and sums the pairs;
    rho^(0) is the unnormalized reduced state.  Levels above ``depth`` are
    dropped; _truncation_bounds proves, from the step's contraction in a
    weighted level norm, how far that moves every state.

    Either way each step applies the free unitary on both sides and splits
    every block by the step's projectors P_a . P_b in two matrix products.
    """
    m, d = eig.count, model.dim
    # Rows (a, i) of P_a U and columns (b, j) of U^dag P_b, so one step's
    # unitary and split of every block are two matrix products.
    left = _step_split(model, grid, eig)
    right = left.conj().T
    rho0 = np.outer(model.initial_state, model.initial_state.conj())
    if depth is None:
        band = A.bandwidth
        # Row k of A over steps k - w .. k is lags[band - w:], kept contiguous.
        lags = A.column[band::-1].copy()
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
            blocks *= np.exp(_exponent_increment(lags[band - w:], window, window))[..., None]
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
    The first of three routes that may run evaluates it:

    1. the Taylor levels 0 .. N of _transfer_states, for an exponential
       kernel whose least certified depth N <= DEPTH_CAP (_certified_depth,
       from the kernel's (c, r), the coupling's spread, n and d) exists;
    2. the exact memory window of _transfer_states over the last L steps of
       a bandwidth-L kernel, when _window_may_run allows it;
    3. the exact pair sum (_conditional, nothing read) on every prefix of
       one walk over the history tree to t, the reference route.  The walk
       checks the path budget and the running pair count sum_k P_k^2 as it
       goes, before any pair sum, so a grid no route can run is refused at
       the step a budget passes.

    The rule reads only the model and the whole-grid A, never a walk or t,
    so every t takes the same route and depth.  Both transfers are linear in
    the step count; the path sum gathers a k x k block for each prefix, so it
    costs n^3 / 3 even at one path.  Where both transfers may run, the
    window is never cheaper by more than microseconds, so the levels go
    first.
    """
    eig = eigendecompose_coupling(model)
    steps = len(grid.window_before(t))
    depth = None if A.ar1 is None else _certified_depth(
        *A.ar1, float(np.ptp(eig.eigenvalues)), grid.n_steps, model.dim)
    if depth is not None or _window_may_run(eig, A, model.dim):
        return _transfer_states(model, A, grid, eig, steps, depth)
    prefixes, pairs = [], 0
    walk = _walk_paths(model, grid, steps, eig)
    next(walk)  # the empty history
    for amps, hist, _ in walk:
        pairs += amps.shape[0] ** 2
        _check_pairs(pairs)
        prefixes.append((amps, hist))
    return [_conditional(PathEnsemble(hist, amps, eig.eigenvalues),
                         A.submatrix(range(k)), np.zeros((k, k)), np.zeros(k), range(k))[0]
            for k, (amps, hist) in enumerate(prefixes, 1)]


def _guarded(window: range, block: np.ndarray) -> GaussianDensity:
    """GaussianDensity of a k x k block B of the pointer state, or SingularWindow unless
    cond(B) <= CONDITION_CAP (eigvalsh finds B's least eigenvalue lam to ~k u cond(B))
    and the factor L has max |LL^T - B| < INVERSE_RTOL lam.  Then ||LL^T - B||_2 < d lam,
    d = k INVERSE_RTOL: each solve it serves is exact for a matrix within 1 +- d of B in
    every direction, and a correction step with an exact residual cuts a solve's error
    (A_uu norm) by d / (1 - d).  S is only guarded: its log det comes from _log_det.
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


def _log_det(S: np.ndarray) -> float:
    """log det S of a positive definite S from the pivots of its Cholesky factor,
    computed in S's own precision (numpy has no extended-precision LAPACK, and
    there np.dot runs faster than @)."""
    L = np.zeros_like(S)
    for j in range(len(S)):
        L[j, j] = np.sqrt(S[j, j] - np.dot(L[j, :j], L[j, :j]))
        L[j + 1:, j] = (S[j + 1:, j] - np.dot(L[j + 1:, :j], L[j, :j])) / L[j, j]
    return 2.0 * float(np.sum(np.log(np.diagonal(L))))


def conditional_state_pointer(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                              record: NoiseRecord) -> ConditionalState:
    """State conditioned on raw pointers x read on the window w = [0, t).

    The detectors u after w stay unread but correlated, so the read pointers
    have prior N(0, S^-1 / 4), S = A_ww - A_wu A_uu^-1 A_uw (A_ww if u is empty);
    the pair terms are M = S and h = 2Sx, and the state is generically mixed.
    y = 2Sx has prior N(0, S) and S^-1 y = 2x, so log p(x) = log N(y; 0, S) +
    log det 2S = -x.y + (log det S - k log(pi/2)) / 2 needs no solve.  The gain
    A_uu^-1 A_uw takes one correction step; S and y are summed, and log det S is
    factored, in extended precision, which keeps the digits that cancel between
    A_ww and A_wu A_uu^-1 A_uw and avoids a float factor's cond(S)-sized rounding.

    The unread detectors couple ket and bra histories only through
    C = A_ww - S = A_wu A_uu^-1 A_uw, and _conditional sums only what C
    couples.  Its rows and columns vanish off the last L = A.bandwidth window
    steps (none for a Markov kernel or at the grid's end): column j of A_uw
    holds the lags k - j and up, all exact zeros of the kernel past L, never
    a threshold on rounding, and a zero column of A_uw has a zero column of
    the gain in floating point too.  Those steps are the pair sum's support,
    with m^(2L) group pairs.  On an exponential kernel,
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
    S_ext = A_w - A_uw.T @ gain
    S = S_ext.astype(float)
    _guarded(window, S)
    y = 2.0 * (S.astype(np.longdouble) @ record.values)
    k = len(window)
    log_prior = float(-(record.values @ y)) + 0.5 * (_log_det(S_ext) - k * np.log(0.5 * np.pi))
    paths = build_paths(model, grid, window)
    support = range(max(0, k - A.bandwidth) if unread else k, k)
    rank_one = None
    if A.ar1 is not None and unread:
        c, r = A.ar1
        rank_one = (c, r ** np.arange(k, 0, -1))
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
