"""Standardness diagnostics: truncated real-valued generator, optimal
two-by-two couplings, the exact backward metric recursion, and the
decreasing sequence of expected coupling distances (alpha).

The generator maps a one-sided symbol past (present included) to

    R = sum_{n >= 0} 3^{-n} x_{-n},

truncated at depth D (coordinates at lags 0..D retained) with
truncation error at most 3^{-D} / 2.  For a
pair of pasts the metric recursion propagates the expected generator
distance under the optimal one-step coupling of the two conditional
laws; alpha_p is that distance averaged over two independent stationary
pasts.  The filtration is standard exactly when alpha_p -> 0.
:class:`CouplingEngine` holds the tables, deepened on demand, together
with the stationary law that alpha and the anchor integrals integrate
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .kernels import CapExceededError, Kernel, stationary_ctx_vector
from .rng import sample_index, stream_rng
from .words import int_to_word, word_str

MAX_TABLE_LENGTH = 8

DEFAULT_DEPTH = 6


@dataclass(frozen=True)
class GeneratorConfig:
    depth: int = DEFAULT_DEPTH

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_TABLE_LENGTH - 1:
            raise CapExceededError(
                f"generator depth must be in 1..{MAX_TABLE_LENGTH - 1}"
            )

    @property
    def truncation_error(self) -> float:
        """Sup over pasts of |R - R_D| = sum_{n > D} 3^-n = 3^-D / 2."""
        return 3.0 ** (-self.depth) / 2.0


def truncated_generator(word_int: int, depth: int) -> float:
    """R_D of the past whose present symbol is bit 0 of word_int; lags
    0..depth contribute with weights 3^-lag."""
    total = 0.0  # left to right, as generator_table adds its terms
    for n in range(depth + 1):
        total += 3.0 ** (-n) * ((word_int >> n) & 1)
    return total


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


@dataclass(frozen=True)
class Coupling2x2:
    """Joint law on {0,1}^2 with marginals (f, 1-f) and (g, 1-g)."""

    f: float
    g: float
    table: np.ndarray  # shape (2, 2); table[i, j] = Lambda(i, j)
    orientation: int  # -1 monotone (mass on diagonal), +1 antitone

    def cost(self, costs: np.ndarray) -> float:
        return float(np.sum(self.table * costs))


def lambda_sign(costs: np.ndarray):
    """Orientation of the optimal coupling for a 2x2 transport cost:
    -1 when c00 + c11 <= c01 + c10 (ties favor the monotone table).

    Broadcasts over costs of shape (2, 2, ...), returning int8 -1/+1 of
    the trailing shape (an int8 scalar for one 2x2 table)."""
    s = costs[0, 0] + costs[1, 1] - costs[0, 1] - costs[1, 0]
    return np.where(s <= 0, -1, 1).astype(np.int8)[()]


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


def optimal_coupling(f: float, g: float, costs: np.ndarray) -> Coupling2x2:
    """Minimum-cost coupling of Bernoulli(1-f) and Bernoulli(1-g)
    (f, g are the probabilities of symbol 0).

    The transport polytope is a segment; a linear cost is minimized at
    an endpoint, which is the monotone table for orientation -1 and the
    antitone table for orientation +1.
    """
    orient = int(lambda_sign(costs))
    return Coupling2x2(f, g, coupling_table(f, g, orient), orient)


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
    stored word.

    ``rho_tilde(x, y)`` exposes the distance between full pasts coded up
    to the present: the most recent `depth` symbols of x and y are
    irrelevant (already averaged), so it reads values[x >> depth, y >> depth].
    """

    depth: int
    length: int
    values: np.ndarray  # shape (2^length, 2^length)
    orientation: np.ndarray | None  # lambda used to step *into* this table

    @cached_property
    def flip(self) -> np.ndarray | None:
        """The antitone entries of `orientation` as a bool table over the
        pair code (u << length) | v, built once; None when the table has
        no antitone entry, so a coupled step into it keeps u = w."""
        if self.orientation is None:
            return None
        antitone = self.orientation.ravel() == 1
        return antitone if antitone.any() else None

    def rho_tilde(self, x_int: int, y_int: int) -> float:
        """Distance for pasts coded with the present at bit 0."""
        return float(self.values[x_int >> self.depth, y_int >> self.depth])

    def dump(self) -> str:
        size = 1 << self.length
        lines = []
        for u in range(size):
            su = word_str(int_to_word(u, self.length))
            for v in range(size):
                sv = word_str(int_to_word(v, self.length))
                lines.append(f"{su} {sv} {self.values[u, v]:.17g}")
        return "\n".join(lines) + "\n"


def _base_table(config: GeneratorConfig, length: int) -> MetricTable:
    """Depth-0 table: plain |R_D(x) - R_D(y)| on length-`length` words.

    Requires length >= depth + 1 so no generator coordinate falls
    outside the stored word."""
    if length < config.depth + 1:
        raise ValueError("table length must cover the generator depth + 1")
    gen = generator_table(config.depth)
    r = gen[np.arange(1 << length) & ((1 << (config.depth + 1)) - 1)]
    values = np.abs(r[:, None] - r[None, :])
    values.flags.writeable = False
    return MetricTable(0, length, values, None)


def _effective_length(depth: int, length: int, memory: int) -> int:
    """Bits e_p = max(L - p, m, 1) of each context that the depth-p table
    of the recursion depends on.

    T_0 reads the low D + 1 <= L bits.  A step reads the previous table
    at the successors (u << 1 | a), which needs e_{p-1} - 1 bits of u,
    and the kernel at u, which needs its memory m."""
    return max(length - depth, memory, 1)


def rho_step(kernel: Kernel, table: MetricTable) -> MetricTable:
    """One backward step of the metric recursion.

    For each pair of contexts (u, v) the new value is the average of
    the four successor distances under the optimal coupling: the
    :func:`coupling_table` of the two conditional laws at the orientation
    :func:`lambda_sign` picks for those distances.  The successor at
    symbol a of context u is (u << 1 | a) truncated to `length` bits,
    which stays a true context because length >= kernel memory.

    `table` must come from the recursion (:func:`metric_tables`, or
    :func:`rho_step` applied to such a table): its entries then depend
    only on the low :func:`_effective_length` bits of each context.  The
    step therefore reads the top-left 2^e_{p-1} block, computes the
    2^e_p x 2^e_p block, and tiles values and orientation out to
    `length` bits; every entry is the one the full-size step gives.
    """
    length = table.length
    if length < kernel.memory:
        raise ValueError("table length must cover the kernel memory")
    depth = table.depth + 1
    bits = _effective_length(depth, length, kernel.memory)
    old_mask = (1 << _effective_length(table.depth, length, kernel.memory)) - 1
    succ0 = (np.arange(1 << bits) << 1) & old_mask
    succ = np.stack([succ0, succ0 | 1])
    # costs[a, b, u, v]: distance between the successors at symbols a, b.
    costs = table.values[succ[:, None, :, None], succ[None, :, None, :]]
    f = kernel.prob0_over(bits)
    orientation = lambda_sign(costs)
    coupling = coupling_table(f[:, None], f[None, :], orientation)
    values = np.sum(coupling * costs, axis=(0, 1))
    reps = (1 << (length - bits),) * 2
    values = np.tile(values, reps)
    values.flags.writeable = False
    return MetricTable(depth, length, values, np.tile(orientation, reps))


def metric_tables(
    kernel: Kernel, p_max: int, config: GeneratorConfig = GeneratorConfig()
) -> list[MetricTable]:
    """Tables T_0 .. T_{p_max}; T_p holds the depth-p distances."""
    length = max(kernel.memory, config.depth + 1)
    if length > MAX_TABLE_LENGTH:
        raise CapExceededError(
            f"metric table length {length} exceeds cap {MAX_TABLE_LENGTH}"
        )
    tables = [_base_table(config, length)]
    for _ in range(p_max):
        tables.append(rho_step(kernel, tables[-1]))
    return tables


# ---------------------------------------------------------------------------
# Coupling engine


@dataclass(frozen=True)
class CouplingEngine:
    """The metric tables of one kernel, deepened on demand, and the exact
    stationary law on length-L contexts: everything alpha, the anchor
    integrals and the coupled runs read."""

    kernel: Kernel
    config: GeneratorConfig
    tables: list[MetricTable]  # T_0 .. T_p, appended to by table()
    pi: np.ndarray  # stationary law on length-L words

    @classmethod
    def build(
        cls, kernel: Kernel, p_max: int, config: GeneratorConfig = GeneratorConfig()
    ) -> "CouplingEngine":
        tables = metric_tables(kernel, p_max, config)
        pi = stationary_ctx_vector(kernel, tables[0].length)
        return cls(kernel, config, tables, pi)

    @property
    def length(self) -> int:
        return self.tables[0].length

    def table(self, p: int) -> MetricTable:
        """T_p, computing the missing depths with :func:`rho_step`."""
        while len(self.tables) <= p:
            self.tables.append(rho_step(self.kernel, self.tables[-1]))
        return self.tables[p]

    def alpha(self, p: int) -> float:
        outer = self.pi[:, None] * self.pi[None, :]
        return float(np.sum(outer * self.table(p).values))

    def anchor_integrals(self, p: int) -> np.ndarray:
        """integral_v -> sum_u pi(u) * rho_tilde_p(u, v), all anchors v."""
        return np.sum(self.pi[:, None] * self.table(p).values, axis=0)

    def generator_values(self, ctx) -> np.ndarray:
        """Truncated generator of L-bit contexts."""
        return self.generator.take(ctx)

    @cached_property
    def generator(self) -> np.ndarray:
        """R_D for every L-bit context, read from its low depth+1 bits."""
        mask = (1 << (self.config.depth + 1)) - 1
        return generator_table(self.config.depth)[np.arange(1 << self.length) & mask]

    @cached_property
    def prob0(self) -> np.ndarray:
        """P(0 | context) for every L-bit context."""
        return self.kernel.prob0_over(self.length)


# ---------------------------------------------------------------------------
# Alpha sequence


@dataclass(frozen=True)
class AlphaSequence:
    values: tuple[float, ...]  # alpha_0 .. alpha_{p_max}
    mode: str  # "exact" | "monte-carlo"
    stderr: tuple[float, ...] | None = None

    def alpha(self, p: int) -> float:
        return self.values[p]


def alpha_sequence(
    kernel: Kernel,
    p_max: int,
    config: GeneratorConfig = GeneratorConfig(),
) -> AlphaSequence:
    """alpha_p = E rho_p(X, Y) over independent stationary pasts X, Y,
    computed exactly from the metric tables and the stationary word law."""
    engine = CouplingEngine.build(kernel, p_max, config)
    return AlphaSequence(tuple(engine.alpha(p) for p in range(p_max + 1)), "exact")


def alpha_sequence_mc(
    kernel: Kernel,
    p_max: int,
    trials: int,
    seed: int,
    config: GeneratorConfig = GeneratorConfig(),
) -> AlphaSequence:
    """Monte Carlo estimate of the same sequence: sample independent
    stationary context pairs and average the table entries."""
    engine = CouplingEngine.build(kernel, p_max, config)
    rng = stream_rng(seed, "alpha-mc", kernel.label)
    # Code x * size + y of each sampled pair (x, y) of contexts, to index
    # the flattened tables.
    size = engine.pi.size
    flat = sample_index(rng, engine.pi, trials) * size
    flat += sample_index(rng, engine.pi, trials)
    samples = np.empty(trials)
    vals, errs = [], []
    for t in engine.tables:
        np.take(t.values.ravel(), flat, out=samples)
        vals.append(float(samples.mean()))
        errs.append(float(samples.std(ddof=1) / np.sqrt(trials)))
    return AlphaSequence(tuple(vals), "monte-carlo", tuple(errs))


def alpha_sup_bound(config: GeneratorConfig, p: int) -> float:
    """For context-free kernels the depth-p distance only sees symbols
    at lags >= p, so alpha_p <= sum_{n=p}^{D} 3^-n.  Not certified for
    context-dependent kernels (coupled symbols need not agree)."""
    total = 0.0  # left to right, as generator_table adds its terms
    for n in range(p, config.depth + 1):
        total += 3.0 ** (-n)
    return total
