"""Command-line harness: JSON experiment configs, deterministic seeding,
CSV + manifest emission.

CSV is the stable format: LF line endings, '.' decimal separator, reals
at 17 significant digits (round-trip exact for doubles).  The pretty
table (--pretty) is for terminals and carries no stability promise.

One subcommand per experiment kind (gamma, audit, reconstruct, vershik,
extend, stitch); flags --config PATH, --seed N (overrides the config),
--out DIR.  Exit codes: 0 success, 1 verdict failure, 2 config error
(a count out of its bounds among them), 3 internal error (with a
traceback).
The renewal regime that gamma reports comes from the kernel: its finite
memory m makes gamma_p = 0 for p >= m, so the regime is always
diverges-certified.  A gamma `tail` may say the same (`eventually-zero`)
or nothing (`unknown`); any other tail contradicts the kernel.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, get_args, get_origin

from . import __version__
from .extension import generator_error_check, stitch_blocks
from .innovation import AUDIT_LEVEL, AUDIT_MIN_SAMPLES, _audit
from .kernels import (
    IIDKernel,
    Kernel,
    LongMemoryKernel,
    MarkovKernel,
    builtin_kernels,
    gamma_profile,
)
from .reconstruction import disagreement_experiment, simulate_path
from .vershik import (
    DEFAULT_DEPTH,
    CouplingEngine,
    alpha_sequence,
    alpha_sequence_mc,
    alpha_sup_bound,
)
from .words import parse_word, word_str

_REQUIRED = object()
# The JSON name of each field type.
_TYPE_NAMES = {int: "integer", float: "finite number", str: "string", dict: "object",
               list[int]: "list of integers", list[float]: "list of finite numbers",
               dict[str, float]: "object of finite numbers"}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is(value, typ) -> bool:
    """Whether a JSON value has type `typ` (int, float, str, dict, list or
    a typed list or object such as list[int]): a float is any finite
    number, integer or not, and no type takes a bool."""
    if isinstance(value, bool):
        return False
    if typ is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    origin, args = get_origin(typ), get_args(typ)
    if origin is None:
        return isinstance(value, typ)
    entries = value.values() if isinstance(value, dict) else value
    return _is(value, origin) and all(_is(v, args[-1]) for v in entries)


@dataclass(frozen=True)
class Field:
    """One field of a config object: its type, its default (none if the
    field is required; a None default also takes null), bounds on an
    integer or each integer entry, the strings it takes, and whether a
    string or list must be non-empty."""

    type: object
    default: object = _REQUIRED
    lo: int | None = None
    hi: int | None = None
    choices: tuple[str, ...] = ()
    nonempty: bool = False


_DEPTH = Field(int, DEFAULT_DEPTH)
# Upper bounds on the counts that size a loop or an array, so that a
# config asking for endless work is rejected before any work starts:
# trials, audit steps and depths p_max (gamma keeps one value per depth),
# and a lower bound on window starts N.
MAX_TRIALS, MAX_STEPS, MAX_P, MIN_N = 10**9, 10**8, 10**4, -10**4
# Every field of every config object: the parameters of each experiment
# kind, the fields of each kernel variant and those of each gamma tail
# kind.  gamma's p_max defaults to a depth worked out from the kernel,
# and extend's anchor to the empty word, which pads to all zeros.  A
# standard error needs two trials, the audit's tests need 100 samples,
# and a window [N; 0] starts at or before time 0.  The generator depth,
# the markov order and the probabilities are checked where the metric
# tables or the kernel are built.
FIELDS = {
    "experiment": {
        "gamma": {"p_max": Field(int, None, lo=0, hi=MAX_P),
                  "tail": Field(dict, {"kind": "unknown"})},
        "audit": {"steps": Field(int, 100_000, lo=AUDIT_MIN_SAMPLES, hi=MAX_STEPS)},
        "reconstruct": {"n_list": Field(list[int], [-10], lo=MIN_N, hi=0, nonempty=True),
                        "k": Field(int, 2, lo=0),
                        "trials": Field(int, 10_000, lo=2, hi=MAX_TRIALS)},
        "vershik": {"p_max": Field(int, 8, lo=0, hi=MAX_P), "depth": _DEPTH,
                    "mode": Field(str, "exact", choices=("exact", "monte-carlo")),
                    "trials": Field(int, 100_000, lo=2, hi=MAX_TRIALS)},
        "extend": {"n": Field(int, -6, lo=MIN_N, hi=0),
                   "trials": Field(int, 100_000, lo=2, hi=MAX_TRIALS),
                   "depth": _DEPTH, "anchor": Field(str, None, nonempty=True)},
        "stitch": {"deltas": Field(list[float], [0.2, 0.1, 0.05], nonempty=True),
                   "trials": Field(int, 10_000, lo=2, hi=MAX_TRIALS), "depth": _DEPTH},
    },
    "kernel": {
        "builtin": {"name": Field(str)},
        "iid": {"p0": Field(float)},
        "markov": {"order": Field(int), "table": Field(dict[str, float])},
        "long_memory": {"c": Field(float), "weights": Field(list[float])},
    },
    # Tails have no fields.  Every other tail family is positive at every
    # lag, against gamma_p = 0 for p >= m.
    "tail": {"eventually-zero": {}, "unknown": {}},
}
KINDS = tuple(FIELDS["experiment"])


def check(obj: str, name, given: dict, tag: str | None = None) -> None:
    """Check the config object `given` against its entry FIELDS[obj][name]:
    it holds only that entry's fields and `tag`, the key naming the
    entry, it holds every required field, and each value has its
    field's type, bounds and strings."""
    entry = FIELDS[obj].get(name) if _is(name, str) else None
    if entry is None:
        raise ConfigError(f"unknown {obj} {tag or 'kind'} {name!r}")
    unknown = sorted(set(given) - {tag, *entry})
    if unknown:
        raise ConfigError(f"unknown {name} {obj} field(s): {', '.join(unknown)}")
    for key, f in entry.items():
        what = f"{name} {obj} field {key!r}"
        if key not in given and f.default is _REQUIRED:
            raise ConfigError(f"{what} is missing")
        value = given.get(key)
        if key not in given or value is None and f.default is None:
            continue
        if not _is(value, f.type) or f.nonempty and not value:
            typ = ("non-empty " if f.nonempty else "") + _TYPE_NAMES[f.type]
            raise ConfigError(f"{what} must be a JSON {typ}, got {value!r}")
        if f.choices and value not in f.choices:
            raise ConfigError(f"{what} must be one of {f.choices}, got {value!r}")
        ints = value if isinstance(value, list) else [value]
        if f.lo is not None and min(ints) < f.lo:
            raise ConfigError(f"{what} must be >= {f.lo}, got {value!r}")
        if f.hi is not None and max(ints) > f.hi:
            raise ConfigError(f"{what} must be <= {f.hi}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    kernel: dict
    seed: int
    out: str = "."
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check("experiment", self.kind, self.params)
        # The random streams read the seed as 64 bits (rng.stream_rng).
        if not _is(self.seed, int) or not 0 <= self.seed < 1 << 64:
            raise ConfigError(
                f"seed must be an integer in [0, 2^64), got {self.seed!r}"
            )

    @property
    def settings(self) -> dict:
        """Every parameter of the kind: the config's values over the defaults."""
        fields = FIELDS["experiment"][self.kind]
        return {**{key: f.default for key, f in fields.items()}, **self.params}


def load_config(path: str, kind: str, seed_override=None, out_override=None):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    cfg_kind = raw.get("kind", kind)
    if cfg_kind != kind:
        raise ConfigError(
            f"{path}: config kind {cfg_kind!r} does not match subcommand {kind!r}"
        )
    spec = raw.get("kernel")
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: missing 'kernel' object")
    seed = seed_override if seed_override is not None else raw.get("seed")
    out = raw.get("out", ".")
    if not _is(out, str):
        raise ConfigError(f"{path}: 'out' must be a JSON string, got {out!r}")
    if out_override is not None:
        out = out_override
    params = {
        k: v for k, v in raw.items() if k not in ("kind", "kernel", "seed", "out")
    }
    return ExperimentConfig(kind, spec, seed, str(out), params)


def build_kernel(spec: dict) -> Kernel:
    check("kernel", spec.get("variant"), spec, "variant")
    variant = spec["variant"]
    if variant == "builtin":
        kernels = builtin_kernels()
        if spec["name"] not in kernels:
            raise ConfigError(f"unknown builtin kernel {spec['name']!r}")
        return kernels[spec["name"]]
    try:
        if variant == "iid":
            return IIDKernel(spec["p0"])
        if variant == "markov":
            return MarkovKernel.from_table(spec["order"], spec["table"])
        return LongMemoryKernel(spec["c"], tuple(spec["weights"]))
    except ValueError as exc:
        raise ConfigError(f"invalid kernel spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Experiment runners: each returns (header, rows, verdicts).  The fields
# of the row types of reconstruction and extension are in CSV column
# order, so such a row is written as its astuple.


def _run_gamma(kernel, config):
    p = config.settings
    tail = {"kind": "unknown", **p["tail"]}
    if _is(tail["kind"], str) and tail["kind"] not in FIELDS["tail"]:
        raise ConfigError(
            f"tail {tail['kind']!r} contradicts the kernel: {kernel.label} "
            f"has gamma_p = 0 for p >= {kernel.memory}"
        )
    check("tail", tail["kind"], tail, "kind")
    p_max = p["p_max"] if p["p_max"] is not None else max(kernel.memory, 4)
    prof = gamma_profile(kernel, p_max)
    header = ("p", "gamma_p", "certified")
    rows = [(i, g, "exact") for i, g in enumerate(prof.values)]
    # Finite memory m means gamma_p = 0 for p >= m: the partial products
    # of the renewal series end up constant and positive, so it diverges.
    verdicts = [("regime", "diverges-certified", True)]
    return header, rows, verdicts


def _run_audit(kernel, config):
    # The audit reads the innovations once, as the path is simulated
    # block by block, so the run never holds the whole path.
    sample = simulate_path(kernel, config.settings["steps"], config.seed)
    report = _audit((w for w, _, _ in sample.blocks()), sample.steps)
    header = ("statistic", "value", "threshold", "verdict")
    rows = [
        ("cdf_sup_distance", report.ks_stat, report.dkw_bound,
         "ok" if report.uniform_ok else "fail"),
        ("max_lag_correlation", report.max_lag_corr, report.corr_bound,
         "ok" if report.max_lag_corr <= report.corr_bound else "fail"),
        ("pair_chi2_pvalue", report.chi2_pvalue, AUDIT_LEVEL,
         "ok" if report.chi2_pvalue > AUDIT_LEVEL else "fail"),
    ]
    verdicts = [(name, v, v == "ok") for name, _, _, v in rows]
    return header, rows, verdicts


def _run_reconstruct(kernel, config):
    p = config.settings
    header = ("N", "K", "trials", "freq", "stderr", "dp_bound", "verdict")
    rows, verdicts = [], []
    for n in p["n_list"]:
        r = disagreement_experiment(kernel, n, p["k"], p["trials"], config.seed)
        rows.append(astuple(r))
        verdicts.append((f"N={n}", r.verdict, r.verdict == "within-bound"))
    return header, rows, verdicts


def _run_vershik(kernel, config):
    p = config.settings
    if p["mode"] == "exact":
        seq = alpha_sequence(kernel, p["p_max"], p["depth"])
    else:
        seq = alpha_sequence_mc(kernel, p["p_max"], p["trials"], config.seed,
                                p["depth"])
    header = ("p", "alpha", "mode", "stderr", "bound")
    rows = []
    for i, a in enumerate(seq.values):
        stderr = seq.stderr[i] if seq.stderr else ""
        bound = alpha_sup_bound(p["depth"], i) if kernel.memory == 0 else ""
        rows.append((i, a, p["mode"], stderr, bound))
    decayed = seq.values[-1] <= seq.values[0] or len(seq.values) == 1
    verdicts = [("alpha_decay", "ok" if decayed else "flat", decayed)]
    return header, rows, verdicts


def _run_extend(kernel, config):
    p = config.settings
    n = p["n"]
    engine = CouplingEngine.build(kernel, -n + 1, p["depth"])
    try:
        anchor = parse_word(p["anchor"] or "")  # zero-padded to length L
    except ValueError as exc:
        raise ConfigError(f"extend experiment field 'anchor': {exc}") from exc
    r = generator_error_check(engine, n, anchor, p["trials"], config.seed)
    header = ("N", "anchor", "mc_estimate", "stderr", "exact_value",
              "tolerance", "verdict")
    rows = [astuple(r)]
    verdicts = [("generator_gap", r.verdict, r.verdict == "match")]
    return header, rows, verdicts


def _run_stitch(kernel, config):
    p = config.settings
    deltas = tuple(float(d) for d in p["deltas"])
    report = stitch_blocks(kernel, deltas, p["trials"], config.seed, p["depth"])
    header = ("j", "N_j", "M_j", "K_j", "delta_j", "alpha_used", "anchor",
              "exceed_freq", "stderr", "verdict")
    rows = [astuple(r) for r in report.rows]
    verdicts = [(f"block_{r.j}", r.verdict, r.verdict == "ok") for r in report.rows]
    verdicts.append(
        ("stitched_u_audit", "ok" if report.audit.passed else "fail",
         report.audit.passed)
    )
    return header, rows, verdicts


_RUNNERS = {
    "gamma": _run_gamma,
    "audit": _run_audit,
    "reconstruct": _run_reconstruct,
    "vershik": _run_vershik,
    "extend": _run_extend,
    "stitch": _run_stitch,
}


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):  # word
        return word_str(value)
    return str(value)


def emit_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    return "".join(",".join(map(format_value, row)) + "\n" for row in (header, *rows))


def emit_pretty(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    table = [[format_value(v) for v in row] for row in (header, *rows)]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    out = []
    for i, row in enumerate(table):
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"


def run_experiment(config: ExperimentConfig) -> tuple[int, tuple, list]:
    """Run one experiment and write CSV + manifest; return the exit code
    together with the header and rows written."""
    kernel = build_kernel(config.kernel)
    header, rows, verdicts = _RUNNERS[config.kind](kernel, config)
    out_dir = Path(config.out)
    csv_path = out_dir / f"{config.kind}.csv"
    manifest = {
        "kind": config.kind,
        "kernel": config.kernel,
        "seed": config.seed,
        "params": config.params,
        "version": __version__,
        "outputs": [csv_path.name],
        "verdicts": [
            {"check": name, "result": str(result), "passed": bool(ok)}
            for name, result, ok in verdicts
        ],
    }
    outputs = {csv_path: emit_csv(header, rows),
               out_dir / "manifest.json":
               json.dumps(manifest, indent=2, sort_keys=True) + "\n"}
    written = []
    try:
        for path in outputs:  # both outputs or neither
            if path.exists() and not path.is_file():
                raise ConfigError(f"cannot write {path}: it exists and is not a file")
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, text in outputs.items():
            written.append(path)
            path.write_bytes(text.encode())
    except OSError as exc:  # a full disk, say: remove what was written
        for path in written:
            path.unlink(missing_ok=True)
        raise ConfigError(f"cannot write into 'out' {config.out!r}: {exc}") from exc
    failed = [name for name, _, ok in verdicts if not ok]
    if failed:
        print(f"verdict failure: {', '.join(failed)}", file=sys.stderr)
        return 1, header, rows
    return 0, header, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coupledchains",
        description="Coupling and filtration experiments for binary chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--pretty", action="store_true",
                        help="also print a human-readable table")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.command, args.seed, args.out)
        code, header, rows = run_experiment(config)
        if args.pretty:
            print(emit_pretty(header, rows), end="")
        return code
    # ConfigError and CapExceededError are ValueErrors; a MemoryError is
    # a count within its bound that is still too large to allocate.
    except (ValueError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
