"""Workload definitions: the experiment configs each workload runs.

Every config is generated here from the workload seed; the program only
ever sees these generated JSON files.  The seed changes the random
streams (each config's ``seed`` field), never the kernels or the sizes,
so the work done, and hence the timings, are the same for every seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

# Builtin demo kernels, restated here so the oracles do not read them
# from the program (see kernels.builtin_kernels).
BUILTIN_KERNELS = {
    "iid-half": {"variant": "iid", "p0": 0.5},
    "markov1-demo": {"variant": "markov", "order": 1,
                     "table": {"0": 0.7, "1": 0.4}},
    "long-memory-demo": {"variant": "long_memory", "c": 0.3,
                         "weights": [0.2, 0.1]},
}

MARKOV1_DEMO = {"variant": "builtin", "name": "markov1-demo"}
LONG_MEMORY_DEMO = {"variant": "builtin", "name": "long-memory-demo"}

# Additive long-memory kernels of depth 14 (gamma) and 12 (audit and
# reconstruct).  The weights decay slowly, so gamma_p stays positive
# out to the full depth and every lag matters.
LONG_MEMORY_14 = {
    "variant": "long_memory",
    "c": 0.25,
    "weights": [0.08, 0.06, 0.05, 0.04, 0.03, 0.03, 0.02,
                0.02, 0.02, 0.015, 0.015, 0.01, 0.01, 0.005],
}
LONG_MEMORY_12 = {
    "variant": "long_memory",
    "c": 0.3,
    "weights": [0.1, 0.08, 0.06, 0.05, 0.04, 0.03,
                0.02, 0.02, 0.01, 0.01, 0.01, 0.01],
}
# Order-3 Markov kernel; keys are contexts written oldest symbol first.
MARKOV_3 = {
    "variant": "markov",
    "order": 3,
    "table": {"000": 0.7, "001": 0.45, "010": 0.6, "011": 0.35,
              "100": 0.65, "101": 0.4, "110": 0.55, "111": 0.3},
}

# The message of the known fault kept in serial-long-memory: vershik and
# extend need the exact stationary word law, which the program refuses
# to compute for long-memory kernels although a truncated one is an
# ordinary finite-order chain.
LONG_MEMORY_FAULT = (
    "config error: stationary word law is exact only for iid/markov kernels"
)


@dataclass(frozen=True)
class Invocation:
    """One experiment run: ``python -m coupledchains.harness <kind>``."""

    name: str
    kind: str
    config: dict
    known_fault: str | None = None  # stderr of an invocation that fails today
    reference: str | None = None  # exact vershik run a monte-carlo run is checked against

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.kind, "--config", config_path, "--out", out_dir]


def config_seed(seed: int, name: str) -> int:
    """Seed of one config, derived from the workload seed and its name."""
    return zlib.crc32(f"{seed}/{name}".encode()) & 0x7FFFFFFF


def _inv(seed, name, kind, kernel, **params):
    flags = {k: params.pop(k) for k in ("known_fault", "reference")
             if k in params}
    config = {"kind": kind, "kernel": kernel, "seed": config_seed(seed, name),
              **params}
    return Invocation(name, kind, config, **flags)


def serial_long_memory(seed: int) -> list[Invocation]:
    """Per-symbol loops, exact rationals and the quadratic reset-chain DP."""
    return [
        _inv(seed, "gamma-lm14", "gamma", LONG_MEMORY_14, p_max=4,
             tail={"kind": "eventually-zero"}),
        _inv(seed, "audit-lm12", "audit", LONG_MEMORY_12, steps=1_000_000),
        # N = -4 is short enough that replay mismatches occur; N = -600
        # makes the house-of-cards DP about as costly as the burn-ins.
        _inv(seed, "reconstruct-lm12", "reconstruct", LONG_MEMORY_12,
             n_list=[-4, -600], k=2, trials=200),
        _inv(seed, "vershik-lmdemo", "vershik", LONG_MEMORY_DEMO, p_max=8,
             depth=6, mode="exact", known_fault=LONG_MEMORY_FAULT),
        _inv(seed, "extend-lmdemo", "extend", LONG_MEMORY_DEMO, n=-6,
             trials=100_000, depth=6, known_fault=LONG_MEMORY_FAULT),
    ]


def vectorized_coupled(seed: int) -> list[Invocation]:
    """numpy stepping across 10^5..10^6 trials, metric tables, big arrays."""
    return [
        _inv(seed, "reconstruct-m3", "reconstruct", MARKOV_3,
             n_list=[-3, -8], k=2, trials=1_000_000),
        _inv(seed, "extend-m3", "extend", MARKOV_3, n=-6, trials=1_000_000,
             depth=7),
        _inv(seed, "stitch-m1", "stitch", MARKOV1_DEMO,
             deltas=[0.2, 0.1, 0.05, 0.02, 0.01, 0.005], trials=100_000,
             depth=7),
        _inv(seed, "vershik-exact-m3", "vershik", MARKOV_3, p_max=40, depth=7,
             mode="exact"),
        _inv(seed, "vershik-mc-m3", "vershik", MARKOV_3, p_max=16, depth=7,
             mode="monte-carlo", trials=1_000_000,
             reference="vershik-exact-m3"),
    ]


WORKLOADS = {
    "serial-long-memory": serial_long_memory,
    "vectorized-coupled": vectorized_coupled,
}

# Wall seconds of one round on the 2-core machine the benchmark was sized
# on, and the in-process passes in each round.  A run of S seconds does
# max(2, round(S / ROUND_SECONDS)) rounds: a fixed count, so two versions
# of the program are always compared on the same number of repetitions.
# In-process passes are cheap next to the CLI pass, so they are repeated
# to give the median more samples.
ROUND_SECONDS = {
    "serial-long-memory": 27.5,
    "vectorized-coupled": 25.5,
}
IN_PROCESS_PASSES = {
    "serial-long-memory": 4,
    "vectorized-coupled": 3,
}


def kernel_spec(spec: dict) -> dict:
    """Resolve a builtin kernel reference to its explicit parameters."""
    if spec["variant"] == "builtin":
        return BUILTIN_KERNELS[spec["name"]]
    return spec
