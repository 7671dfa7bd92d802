"""Standardness diagnostics: truncated real-valued generator, optimal
two-by-two couplings, the exact backward metric recursion, and the
decreasing sequence of expected coupling distances (alpha).

The generator maps a one-sided symbol past (present included) to

    R = sum_{n >= 0} 3^{-n} x_{-n},

truncated at depth D (coordinates at lags 0..D retained) with
truncation error at most sum_{n > D} 3^{-n} = 3^{-D} / 2.  For a
pair of pasts the metric recursion propagates the expected generator
distance under the optimal one-step coupling of the two conditional
laws; alpha_p is that distance averaged over two independent stationary
pasts.  The filtration is standard exactly when alpha_p -> 0.
:class:`CouplingEngine` holds the tables, deepened on demand, together
with the stationary law that alpha and the anchor integrals integrate
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .kernels import CapExceededError, Kernel, lift, marginal, stationary_ctx_vector
from .rng import _trial_blocks, index_sampler, stream_rng

MAX_TABLE_LENGTH = 8

DEFAULT_DEPTH = 6
_TIE = 4 * np.finfo(float).eps  # lambda_sign's tie width, per unit of cost


@lru_cache(maxsize=MAX_TABLE_LENGTH)
def generator_table(depth: int) -> np.ndarray:
    """R_D for every (depth+1)-bit word, indexed by integer code; built
    once per depth and read-only.

    The terms are added from lag 0 to lag D, one rounding each, as a
    plain left-to-right loop would: builtin sum() compensates its
    rounding since Python 3.12, so it would give other last bits
    there."""
    words = np.arange(1 << (depth + 1))
    vals = np.zeros(words.size)
    for n in range(depth + 1):
        vals += 3.0 ** (-n) * ((words >> n) & 1)
    vals.flags.writeable = False
    return vals


# ---------------------------------------------------------------------------
# Optimal two-by-two couplings


def lambda_sign(costs: np.ndarray):
    """Orientation of the optimal coupling for a 2x2 transport cost:
    -1 when s = c00 + c11 - c01 - c10 <= 4 eps sum |c|, so ties up to
    the rounding of the costs favor the monotone table, else +1.  The
    transport polytope of two Bernoulli laws is a segment, and a linear
    cost is minimized at an endpoint: the monotone table of
    :func:`coupling_table` for -1, the antitone table for +1.

    Broadcasts over costs of shape (2, 2, ...), returning int8 -1/+1 of
    the trailing shape (an int8 scalar for one 2x2 table)."""
    s = costs[0, 0] + costs[1, 1] - costs[0, 1] - costs[1, 0]
    scale = np.abs(costs).sum(axis=(0, 1))
    return np.where(s <= _TIE * scale, -1, 1).astype(np.int8)[()]


def coupling_table(f, g, orientation) -> np.ndarray:
    """The extreme coupling table of Bernoulli(1-f) and Bernoulli(1-g)
    for a fixed orientation: monotone (-1) puts the minima on the
    diagonal, antitone (+1) on the anti-diagonal.

    Broadcasts over arrays of (f, g, orientation): entry [i, j] of the
    result, of shape (2, 2, ...), is Lambda(i, j) of each triple."""
    d00 = np.minimum(f, g)
    mono = np.array([[d00, f - d00], [g - d00, 1.0 - f - g + d00]])
    anti = np.array(
        [
            [f + g - 1.0, np.minimum(f, 1.0 - g)],
            [np.minimum(1.0 - f, g), 1.0 - f - g],
        ]
    )
    table = np.where(orientation == -1, mono, anti)
    return np.maximum(table, 0.0)  # clip float dust at the boundary


# ---------------------------------------------------------------------------
# Exact metric recursion


@dataclass(frozen=True)
class MetricTable:
    """Expected generator distance after `depth` optimal coupling steps.

    ``values[u, v]`` is the distance between the pasts whose symbols at
    lags depth+1 .. depth+length are coded by u and v (the recursion has
    already averaged out the most recent `depth` symbols).  For kernels
    of finite order k with length >= max(k, generator depth - depth),
    every entry is exact: the conditioning contexts never run off the
    stored word.  It depends only on the low e bits of u and v (e_p in
    :func:`rho_step`), so `values` and `orientation` are stored at
    2^e x 2^e, and an L-bit code c reads them at ``c & mask``.
    """

    depth: int
    length: int
    values: np.ndarray  # shape (2^e, 2^e), e <= length
    orientation: np.ndarray | None  # lambda used to step *into* this table

    @property
    def mask(self) -> int:
        """The low bits of an L-bit code that index the table."""
        return self.values.shape[0] - 1

    @cached_property
    def flip(self) -> np.ndarray | None:
        """The antitone entries of `orientation` as a bool table over the
        L-bit pair code (u << length) | v, built once; None when the table
        has no antitone entry, so a coupled step into it keeps u = w."""
        if self.orientation is None:
            return None
        antitone = lift(self.orientation, self.length).ravel() == 1
        return antitone if antitone.any() else None


def _base_table(depth: int, length: int) -> MetricTable:
    """Depth-0 table: plain |R_D(x) - R_D(y)| on length-`length` words.

    Requires length >= D + 1 (D = `depth`) so no generator coordinate
    falls outside the stored word."""
    if length < depth + 1:
        raise ValueError("table length must cover the generator depth + 1")
    r = lift(generator_table(depth), length)
    values = np.abs(r[:, None] - r[None, :])
    values.flags.writeable = False
    return MetricTable(0, length, values, None)


def rho_step(kernel: Kernel, table: MetricTable) -> MetricTable:
    """One backward step of the metric recursion.

    For each pair of contexts (u, v) the new value is the average of
    the four successor distances under the optimal coupling: the
    :func:`coupling_table` of the two conditional laws at the orientation
    :func:`lambda_sign` picks for those distances.  The successor at
    symbol a of context u is (u << 1 | a) truncated to `length` bits,
    which stays a true context because length >= kernel memory.

    `table` must come from the recursion (:func:`metric_tables`, or
    :func:`rho_step` applied to such a table), stored at the low bits of
    each context its entries depend on.  The step computes the 2^e_p x
    2^e_p table; read at `length` bits, every entry is the one the
    full-size step gives.
    """
    length = table.length
    if length < kernel.memory:
        raise ValueError("table length must cover the kernel memory")
    depth = table.depth + 1
    # T_p depends on the low e_p = max(L - p, m, 1) bits of each context u:
    # T_{p-1} at the successors (u << 1 | a) needs e_{p-1} - 1 bits of u,
    # and the kernel at u its memory m.  T_0 is stored at L bits.
    bits = max(length - depth, kernel.memory, 1)
    succ0 = (np.arange(1 << bits) << 1) & table.mask
    succ = np.stack([succ0, succ0 | 1])
    # costs[a, b, u, v]: distance between the successors at symbols a, b.
    costs = table.values[succ[:, None, :, None], succ[None, :, None, :]]
    f = kernel.prob0_over(bits)
    orientation = lambda_sign(costs)
    coupling = coupling_table(f[:, None], f[None, :], orientation)
    values = np.sum(coupling * costs, axis=(0, 1))
    values.flags.writeable = False
    return MetricTable(depth, length, values, orientation)


def metric_tables(
    kernel: Kernel, p_max: int, depth: int = DEFAULT_DEPTH
) -> list[MetricTable]:
    """Tables T_0 .. T_{p_max} for generator depth D = `depth`; T_p holds
    the depth-p distances."""
    if not 1 <= depth <= MAX_TABLE_LENGTH - 1:
        raise CapExceededError(
            f"generator depth must be in 1..{MAX_TABLE_LENGTH - 1}"
        )
    length = max(kernel.memory, depth + 1)
    if length > MAX_TABLE_LENGTH:
        raise CapExceededError(
            f"metric table length {length} exceeds cap {MAX_TABLE_LENGTH}"
        )
    tables = [_base_table(depth, length)]
    for _ in range(p_max):
        tables.append(rho_step(kernel, tables[-1]))
    return tables


# ---------------------------------------------------------------------------
# Coupling engine


@dataclass(frozen=True)
class CouplingEngine:
    """The metric tables of one kernel, deepened on demand, and the
    stationary law on length-L contexts, power-iterated until no entry
    moves by 1e-13 (:func:`.kernels.stationary_ctx_vector`, not exact):
    everything alpha, the anchor integrals and the coupled runs read."""

    kernel: Kernel
    depth: int  # generator depth D
    tables: list[MetricTable]  # T_0 .. T_p, appended to by table()
    pi: np.ndarray  # stationary law on length-L words

    @classmethod
    def build(
        cls, kernel: Kernel, p_max: int, depth: int = DEFAULT_DEPTH
    ) -> "CouplingEngine":
        tables = metric_tables(kernel, p_max, depth)
        pi = stationary_ctx_vector(kernel, tables[0].length)
        return cls(kernel, depth, tables, pi)

    @property
    def length(self) -> int:
        return self.tables[0].length

    def table(self, p: int) -> MetricTable:
        """T_p, computing the missing depths with :func:`rho_step`."""
        while len(self.tables) <= p:
            self.tables.append(rho_step(self.kernel, self.tables[-1]))
        return self.tables[p]

    def _table_and_pi(self, p: int):
        """T_p and the stationary law on the low bits it reads."""
        t = self.table(p)
        return t, marginal(self.pi, t.mask.bit_length())

    def alpha(self, p: int) -> float:
        t, q = self._table_and_pi(p)
        return float(np.sum(q[:, None] * q[None, :] * t.values))

    def anchor_integrals(self, p: int) -> np.ndarray:
        """integral_v -> sum_u pi(u) * T_p(u, v), all L-bit anchors v."""
        t, q = self._table_and_pi(p)
        return lift(np.sum(q[:, None] * t.values, axis=0), self.length)

    @cached_property
    def generator(self) -> np.ndarray:
        """R_D for every L-bit context, read from its low depth+1 bits."""
        return lift(generator_table(self.depth), self.length)

    @cached_property
    def prob0(self) -> np.ndarray:
        """P(0 | context) for every L-bit context."""
        return self.kernel.prob0_over(self.length)


# ---------------------------------------------------------------------------
# Alpha sequence


@dataclass(frozen=True)
class AlphaSequence:
    values: tuple[float, ...]  # alpha_0 .. alpha_{p_max}
    stderr: tuple[float, ...] | None = None


def alpha_sequence(
    kernel: Kernel, p_max: int, depth: int = DEFAULT_DEPTH
) -> AlphaSequence:
    """alpha_p = E rho_p(X, Y) over independent stationary pasts X, Y,
    summed over the metric tables against the stationary word law, so
    exact up to that law's power-iteration error (see
    :class:`CouplingEngine`)."""
    engine = CouplingEngine.build(kernel, p_max, depth)
    return AlphaSequence(tuple(engine.alpha(p) for p in range(p_max + 1)))


def pair_counts(pairs, L: int) -> np.ndarray:
    """How often each pair code (x << L) | y occurs, over an iterable of
    (x, y) blocks of L-bit context arrays; each block's codes are
    scatter-added into the 4^L counts (np.add.at)."""
    counts = np.zeros(1 << 2 * L, dtype=np.int64)
    for x, y in pairs:
        code = np.left_shift(x, L)
        code |= y
        np.add.at(counts, code, 1)
    return counts


def pair_mean_stderr(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """The mean and the standard error (ddof=1) of n >= 2 samples that
    take the value values[c] counts[c] times, c a pair code (x << L) | y.
    Both sums run over the 4^L codes, so they do not depend on the order
    of the samples."""
    n = int(counts.sum())
    mean = float(np.sum(counts * values)) / n
    dev = values - mean
    var = float(np.sum(counts * (dev * dev))) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


def alpha_sequence_mc(
    kernel: Kernel,
    p_max: int,
    trials: int,
    seed: int,
    depth: int = DEFAULT_DEPTH,
) -> AlphaSequence:
    """Monte Carlo estimate of the same sequence: sample independent
    stationary context pairs and average the table entries.

    The pairs are the trials of a one-step :func:`.rng._trial_blocks`:
    x is a block's stationary starts, the stream's next `trials` draws,
    and y the quantiles (:func:`.rng.index_sampler`) of its one column of
    uniforms, the `trials` doubles after them.  They are counted by pair code
    (:func:`pair_counts`); each table, spread over the pair codes, is
    averaged against the counts."""
    engine = CouplingEngine.build(kernel, p_max, depth)
    rng = stream_rng(seed, "alpha-mc", kernel.label)
    quantile = index_sampler(engine.pi)
    blocks = _trial_blocks(rng, engine.pi, trials, 1)
    counts = pair_counts(((x, quantile(u[:, 0])) for x, u in blocks), engine.length)
    vals, errs = [], []
    for t in engine.tables:
        mc, err = pair_mean_stderr(lift(t.values, engine.length).ravel(), counts)
        vals.append(mc)
        errs.append(err)
    return AlphaSequence(tuple(vals), tuple(errs))


def alpha_sup_bound(depth: int, p: int) -> float:
    """For context-free kernels the depth-p distance only sees symbols
    at lags >= p, so alpha_p <= sum_{n=p}^{D} 3^-n, D = `depth`.  Not
    certified for context-dependent kernels (coupled symbols need not
    agree)."""
    total = 0.0  # left to right, as generator_table adds its terms
    for n in range(p, depth + 1):
        total += 3.0 ** (-n)
    return total
