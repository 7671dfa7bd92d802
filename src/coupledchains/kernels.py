"""Process kernels: conditional laws, memory-decay coefficients, lower
envelopes and stationary word laws.

Every kernel is one :class:`Kernel` of finite memory ``m``: the
conditional probability of the next symbol depends only on the last ``m``
symbols of the past (older symbols are zero-padded away), and is held
exactly, as a rational table over the 2^m contexts.  A truncated
long-memory kernel is such an order-m chain like any other.  All "exact"
quantities are computed by exhaustive enumeration over those contexts.
Finite memory also fixes the renewal regime: gamma_p = 0 for p >= m, so
every kernel's memory decay is summable.
:func:`lift`, :func:`push` and :func:`marginal` hold the package's
context-code arithmetic (most recent symbol at bit 0).
:func:`stationary_ctx_vector` and :func:`gamma_profile` solve once per
Kernel object and argument, into the object's own ``_memo`` dict; the
stationary law is returned read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .words import as_word, int_to_word, parse_word, word_str, word_to_int

MAX_MEMORY_DEPTH = 16
MAX_WORD_LENGTH = 16

_STATIONARY_TOL = 1e-13
_STATIONARY_MAX_ITER = 200_000


class CapExceededError(ValueError):
    """An enumeration would exceed the desk-scale size caps."""


@dataclass(frozen=True)
class Kernel:
    """Binary kernel of finite memory m: P(0 | past) depends only on the
    last m symbols of the past.

    The exact table is ``numerators[c] / denominator`` = P(0 | context
    with integer code c), over all 2^m codes; :attr:`prob0_table` is its
    float view.  ``label`` names the kernel in every random stream
    derived for it.  Build kernels with :func:`IIDKernel`,
    :func:`MarkovKernel` or :func:`LongMemoryKernel`.
    """

    memory: int
    label: str
    numerators: tuple[int, ...]
    denominator: int

    @cached_property
    def prob0_table(self) -> np.ndarray:
        """P(0 | context) as floats, each exact entry rounded once."""
        d = self.denominator
        table = np.array([n / d for n in self.numerators])
        table.flags.writeable = False
        return table

    def prob0_over(self, length: int) -> np.ndarray:
        """P(0 | context) for every `length`-bit context code; bits
        beyond the memory do not matter."""
        return lift(self.prob0_table, length)

    @cached_property
    def _memo(self) -> dict:
        """Solved results of this object, by function name and arguments."""
        return {}


def _once_per_kernel(solve):
    """Run solve(kernel, ...) once per Kernel object and arguments; a
    solve that raises keeps nothing."""
    @functools.wraps(solve)
    def memoized(kernel: Kernel, *args, **kwargs):
        key = (solve.__name__, *args, *kwargs.items())
        if key not in kernel._memo:
            kernel._memo[key] = solve(kernel, *args, **kwargs)
        return kernel._memo[key]
    return memoized


def _as_fraction(x: float) -> Fraction:
    """Exact rational for a float parameter, interpreted as the decimal
    number it prints as (str gives the shortest round-trip repr, so a
    parameter written as 0.7 means 7/10, not its binary neighbour); inf
    and nan raise ValueError."""
    return Fraction(str(x))


def _over_common_denominator(terms: list[Fraction]) -> tuple[list[int], int]:
    d = math.lcm(*(f.denominator for f in terms))
    return [f.numerator * (d // f.denominator) for f in terms], d


def IIDKernel(p0: float) -> Kernel:
    """Context-free kernel: P(0 | anything) = p0."""
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"p0 must lie strictly in (0,1), got {p0}")
    f = _as_fraction(float(p0))
    return Kernel(0, f"iid(p0={p0})", (f.numerator,), f.denominator)


def MarkovKernel(order: int, probs: tuple[float, ...]) -> Kernel:
    """Order-k kernel given by the full table of P(0 | last k symbols).

    ``probs[c]`` is P(0 | context with integer code c); use
    ``MarkovKernel.from_table`` to build one from words.
    """
    _check_markov_order(order)
    if len(probs) != 1 << order:
        raise ValueError(
            f"need {1 << order} entries for order {order}, got {len(probs)}"
        )
    for p in probs:
        if not 0.0 < p < 1.0:
            raise ValueError(f"conditional probability {p} not in (0,1)")
    nums, d = _over_common_denominator([_as_fraction(float(p)) for p in probs])
    return Kernel(order, f"markov(order={order})", tuple(nums), d)


def _check_markov_order(order: int) -> None:
    if order < 1:
        raise ValueError("markov order must be >= 1")
    if order > MAX_MEMORY_DEPTH:
        raise CapExceededError(f"markov order {order} exceeds cap {MAX_MEMORY_DEPTH}")


def _markov_from_table(order: int, table: Mapping) -> Kernel:
    """Order-k kernel from a mapping of every length-k context (a word,
    or a 0/1 string written oldest symbol first) to P(0 | context).  A
    bad key is quoted as written; a missing context is named oldest
    symbol first."""
    _check_markov_order(order)  # before sizing the table by it
    probs = [None] * (1 << order)
    for key, p in table.items():
        try:
            word = parse_word(key) if isinstance(key, str) else as_word(key)
        except ValueError as exc:
            raise ValueError(f"markov table key {key!r}: {exc}") from exc
        if len(word) != order:
            raise ValueError(f"markov table key {key!r} has {len(word)} "
                             f"symbols, not the order {order}")
        probs[word_to_int(word)] = float(p)
    if None in probs:
        missing = word_str(int_to_word(probs.index(None), order))
        raise ValueError(f"markov table of order {order} misses the "
                         f"context {missing!r}")
    return MarkovKernel(order, tuple(probs))


MarkovKernel.from_table = _markov_from_table


def LongMemoryKernel(c: float, weights: tuple[float, ...]) -> Kernel:
    """Additive long-memory kernel, truncated at depth len(weights):

        P(0 | past) = c + sum_p weights[p-1] * 1(x_{-p} = 0),

    with symbols beyond the truncation depth (and beyond the available
    context) zero-padded, hence counted as 0.  The truncated object *is*
    the kernel, an ordinary chain of order len(weights); there is no
    hidden infinite tail.
    """
    weights = tuple(float(t) for t in weights)
    if len(weights) > MAX_MEMORY_DEPTH:
        raise CapExceededError(
            f"truncation depth {len(weights)} exceeds cap {MAX_MEMORY_DEPTH}"
        )
    if c <= 0.0:
        raise ValueError("base probability c must be positive")
    if any(t < 0.0 for t in weights):
        raise ValueError("weights must be nonnegative")
    (base, *lags), d = _over_common_denominator(
        [_as_fraction(c)] + [_as_fraction(t) for t in weights]
    )
    if base + sum(lags) >= d:  # exact: the numerators are integers
        raise ValueError("c + sum(weights) must stay below 1")
    # After lag p the table covers all p-bit codes; the half with bit p-1
    # clear (symbol 0 at lag p) gains that lag's weight.
    nums = [base]
    for weight in lags:
        nums = [n + weight for n in nums] + nums
    return Kernel(len(weights), f"long_memory(c={c}, depth={len(weights)})",
                  tuple(nums), d)


def builtin_kernels() -> dict[str, Kernel]:
    return {
        "iid-half": IIDKernel(0.5),
        "markov1-demo": MarkovKernel.from_table(1, {(0,): 0.7, (1,): 0.4}),
        "long-memory-demo": LongMemoryKernel(0.3, (0.2, 0.1)),
    }


# ---------------------------------------------------------------------------
# Memory-decay coefficients


@dataclass(frozen=True)
class GammaProfile:
    """Decay coefficients gamma_0..gamma_{p_max}, each exact up to one
    final rounding."""

    values: tuple[float, ...]

    def __post_init__(self):
        for g in self.values:
            if not 0.0 <= g < 1.0:
                raise ValueError(f"gamma value {g} outside [0,1)")
        for a, b in zip(self.values, self.values[1:]):
            if b > a + 1e-12:
                raise ValueError("gamma values must be non-increasing")

    def gamma(self, p: int) -> float:
        """gamma_p, zero beyond the tabulated range (finite-memory kernels)."""
        return self.values[p] if p < len(self.values) else 0.0


@_once_per_kernel
def gamma_profile(kernel: Kernel, p_max: int) -> GammaProfile:
    """Worst-case relative change of the conditional law when pasts agree
    on the last p symbols.  Exact by enumeration over all context pairs
    in rational arithmetic (one rounding at the end); zero for p at or
    beyond the kernel memory."""
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    m = kernel.memory
    if m > MAX_MEMORY_DEPTH:
        raise CapExceededError(f"memory {m} exceeds cap {MAX_MEMORY_DEPTH}")
    # Ratios of exact probabilities are ratios of their numerators: int64
    # below 2^31, where they convert to float exactly and products of two
    # fit, else Python ints.
    d = kernel.denominator
    p0 = np.array(kernel.numerators, dtype=np.int64 if d < 1 << 31 else object)
    probs = np.stack([p0, d - p0])
    values = []
    for p in range(p_max + 1):
        if p >= m:
            values.append(0.0)
            continue
        # Contexts sharing their low p bits (a column of this view) form
        # one comparison group.
        groups = probs.reshape(2, -1, 1 << p)
        lo, hi = groups.min(axis=1).ravel(), groups.max(axis=1).ravel()
        # Rounding a/b is monotone: the worst ratio has the least float
        # value, and ties are compared exactly, by cross-multiplying.
        ratio = lo / hi
        a, b = 1, 1
        for i in np.flatnonzero(ratio == ratio.min()):
            if lo[i] * b < a * hi[i]:
                a, b = int(lo[i]), int(hi[i])
        values.append(float(1 - Fraction(a, b)))
    return GammaProfile(tuple(values))


def lower_envelope(kernel: Kernel, i: int, z: Iterable[int]) -> float:
    """Infimum of P(i | x) over all pasts x extending the word z."""
    if i not in (0, 1):
        raise ValueError("symbol must be 0 or 1")
    z = as_word(z)
    table = kernel.prob0_table if i == 0 else 1.0 - kernel.prob0_table
    # The pasts extending z have the codes z + k 2^p cut to m bits, p = |z|.
    step = 1 << min(len(z), kernel.memory)
    return float(table[word_to_int(z) & (table.size - 1)::step].min())


# ---------------------------------------------------------------------------
# Context-code arithmetic and stationary word laws


def lift(table: np.ndarray, bits: int) -> np.ndarray:
    """A table stored on the low bits of each axis, read at `bits` bits:
    entry [c, d, ..] is table[c & mask, d & mask, ..], mask = len(table) - 1."""
    low = np.arange(1 << bits) & (table.shape[0] - 1)
    return table[np.ix_(*[low] * table.ndim)]


def push(law: np.ndarray, step: np.ndarray) -> np.ndarray:
    """One step of a law over the L-bit contexts of k chains (k axes):
    the mass at (c_1, .., c_k) moves to ((c_i << 1 | a_i) & (2^L - 1))_i
    with weight step[a_1, .., a_k][c_1, .., c_k], summed over the k top
    bits the shift drops."""
    k, half = law.ndim, law.shape[0] // 2
    moved = (step * law).reshape((2,) * k + (2, half) * k)
    moved = moved.sum(axis=tuple(range(k, 3 * k, 2)))  # the top bits
    order = [axis for i in range(k) for axis in (k + i, i)]  # (c_i low, a_i)
    return moved.transpose(order).reshape(law.shape)


def marginal(law: np.ndarray, bits: int) -> np.ndarray:
    """A law over the contexts of k chains (k axes) summed onto the low
    `bits` bits of each context; for bits >= 1 the high parts are added
    in index order, as ``np.bincount`` adds them.  At bits = 0 (the
    one-entry stationary law of a memoryless kernel) numpy sums the
    whole law pairwise."""
    rest = law.shape[0] >> bits
    return law.reshape((rest, 1 << bits) * law.ndim).sum(
        axis=tuple(range(0, 2 * law.ndim, 2)))


@_once_per_kernel
def stationary_ctx_vector(kernel: Kernel, length: int) -> np.ndarray:
    """Stationary distribution over integer-coded words of the given
    length, by power iteration on the word shift chain, stopped once no
    entry moves by _STATIONARY_TOL in a sweep; read-only."""
    if length > MAX_WORD_LENGTH:
        raise CapExceededError(f"word length {length} exceeds cap {MAX_WORD_LENGTH}")
    s = max(kernel.memory, length, 1)
    size = 1 << s
    p0 = kernel.prob0_over(s)
    step = np.array([p0, 1.0 - p0])
    pi = np.full(size, 1.0 / size)
    for _ in range(_STATIONARY_MAX_ITER):
        pi, old = push(pi, step), pi
        if np.abs(pi - old).max() < _STATIONARY_TOL:
            break
    else:
        raise CapExceededError(
            f"stationary law of {kernel.label} not converged within "
            f"{_STATIONARY_MAX_ITER} power-iteration sweeps"
        )
    if abs(pi.sum() - 1.0) > 1e-12:
        raise RuntimeError("stationary law does not sum to 1")
    if s != length:  # marginalize onto the most recent `length` symbols
        pi = marginal(pi, length)
    pi.flags.writeable = False
    return pi
