"""Command-line front end: analytic tables, seeded simulations, circuit
audits/exports, and MAC benchmarks, all emitting machine-readable CSV/JSON.

Every subcommand is a pure function of its arguments (seeds included), so
repeated runs produce byte-identical output files.  Exit codes: 0 success,
2 usage error, 3 config-parse error, 4 resource limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .circuit import (
    VARIANT_CORRECTED,
    VARIANT_FIGURE,
    VARIANTS,
    audit_preparation_circuit,
    build_preparation_circuit,
    export_circuit,
    qubits_per_user,
    register_to_qudit,
    run_circuit,
)
from .game import (
    MAX_N,
    REGIMES,
    GameConfig,
    analytic_probabilities,
    classical_probabilities,
    phase_for_regime,
    strategy_matrix,
)
from .mac import ConfigFormatError, compare_policies, load_run_spec
from .qudit import (
    SITE_CAP,
    ResourceLimitError,
    apply_local_strategy,
    dump_nonzero,
    prepare_entangled,
    sample_counts,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_RESOURCE = 4

CIRCUIT_SIZES = (2, 4, 8)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _json_text(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _resolve_phase(parser: argparse.ArgumentParser, args) -> tuple[int, str]:
    if args.p is not None:
        return args.p, "custom"
    if args.regime is not None:
        return phase_for_regime(args.regime, args.n), args.regime
    parser.error("one of --p or --regime is required")


def _add_phase_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=None,
                     help="explicit phase parameter (overrides --regime)")
    sub.add_argument("--regime", choices=REGIMES, default=None,
                     help="named phase regime: enhance-optimum (p=n(n-1)/2) or avoid-worst (p=1)")


def format_outcome(outcome) -> str:
    return "-".join(str(int(c)) for c in outcome)


def cmd_probs(parser: argparse.ArgumentParser, args) -> int:
    if not 2 <= args.n <= MAX_N:
        parser.error(f"--n must lie in [2, {MAX_N}]")
    phase, regime = _resolve_phase(parser, args)
    quantum = analytic_probabilities(GameConfig(args.n, phase))
    classical = classical_probabilities(args.n)
    ratio = (quantum.p_all_distinct / classical.p_all_distinct
             if classical.p_all_distinct else None)
    record = {
        "n": args.n,
        "phase": phase,
        "regime": regime,
        "classical": dataclasses.asdict(classical),
        "quantum": dataclasses.asdict(quantum),
        "enhancement_ratio": ratio,
    }
    if args.format == "json":
        _emit(_json_text(record), args.out)
    else:
        rows = [
            ("n", args.n),
            ("phase", phase),
            ("regime", regime),
            ("classical_all_distinct", classical.p_all_distinct),
            ("quantum_all_distinct", quantum.p_all_distinct),
            ("classical_all_same", classical.p_all_same),
            ("quantum_all_same", quantum.p_all_same),
            ("support_size", quantum.support_size),
            ("per_outcome_prob", quantum.per_outcome_prob),
            ("enhancement_ratio", ratio),
        ]
        text = "metric,value\n" + "".join(f"{k},{v!r}\n" if isinstance(v, float)
                                          else f"{k},{v}\n" for k, v in rows)
        _emit(text, args.out)
    return EXIT_OK


def _final_state(n: int, phase: int, engine: str):
    config = GameConfig(n, phase)
    if engine == "qudit":
        state = prepare_entangled(config)
    else:
        gates = build_preparation_circuit(config, VARIANT_CORRECTED)
        state = register_to_qudit(run_circuit(gates, n * qubits_per_user(n)))
    return apply_local_strategy(state, strategy_matrix(n))


def cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    if args.engine == "qudit" and not 2 <= args.n <= SITE_CAP:
        parser.error(f"engine qudit supports 2 <= n <= {SITE_CAP}")
    if args.engine == "circuit" and args.n not in CIRCUIT_SIZES:
        parser.error(f"engine circuit supports n in {CIRCUIT_SIZES}")
    if args.shots < 0:
        parser.error("--shots must be non-negative")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.dump_state and args.out is None:
        parser.error("--dump-state requires --out")
    phase, _ = _resolve_phase(parser, args)
    state = _final_state(args.n, phase, args.engine)
    rng = np.random.default_rng(args.seed)
    counts = sample_counts(state, rng, args.shots)
    if args.format == "json":
        record = {
            "n": args.n,
            "phase": phase,
            "engine": args.engine,
            "seed": args.seed,
            "shots": args.shots,
            "counts": {format_outcome(t): c for t, c in counts.items()},
        }
        _emit(_json_text(record), args.out)
    else:
        lines = ["outcome,count,frequency"]
        for outcome, count in counts.items():
            freq = count / args.shots if args.shots else 0.0
            lines.append(f"{format_outcome(outcome)},{count},{freq!r}")
        _emit("\n".join(lines) + "\n", args.out)
    if args.dump_state:
        dump_path = Path(args.out).with_suffix(Path(args.out).suffix + ".state.txt")
        with open(dump_path, "w", encoding="utf-8", newline="\n") as fh:
            dump_nonzero(state, fh)
    return EXIT_OK


def cmd_audit_circuit(parser: argparse.ArgumentParser, args) -> int:
    if args.n not in CIRCUIT_SIZES:
        parser.error(f"--n must be one of {CIRCUIT_SIZES}")
    phase, _ = _resolve_phase(parser, args)
    audit = audit_preparation_circuit(GameConfig(args.n, phase), args.variant)
    record = {"n": args.n, "phase": phase, "variant": args.variant}
    record.update(audit.to_dict())
    _emit(_json_text(record), args.out)
    return EXIT_OK


def cmd_export_circuit(parser: argparse.ArgumentParser, args) -> int:
    if args.n not in CIRCUIT_SIZES:
        parser.error(f"--n must be one of {CIRCUIT_SIZES}")
    phase, _ = _resolve_phase(parser, args)
    config = GameConfig(args.n, phase)
    gates = build_preparation_circuit(config, args.variant)
    width = args.n * qubits_per_user(args.n)
    header = (f"# preparation circuit: n={args.n} phase={phase} "
              f"variant={args.variant} width={width}\n")
    _emit(header + export_circuit(gates), args.out)
    return EXIT_OK


def cmd_mac(parser: argparse.ArgumentParser, args) -> int:
    path = Path(args.config)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    config, policies = load_run_spec(document)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    comparison = compare_policies(config, policies)
    summary_path = comparison.write(args.out)
    for kind, ratio in comparison.all_distinct_ratios().items():
        shown = "n/a" if ratio is None else f"{ratio:.4f}"
        print(f"all-distinct ratio {kind}/classical-uniform: {shown}")
    print(f"summary: {summary_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmg",
        description="Entangled minority-game channel allocation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    probs = sub.add_parser("probs", help="analytic quantum vs classical outcome probabilities")
    probs.add_argument("--n", type=int, required=True)
    _add_phase_options(probs)
    probs.add_argument("--format", choices=("csv", "json"), default="json")
    probs.add_argument("--out", default=None)
    probs.set_defaults(func=cmd_probs, parser=probs)

    simulate = sub.add_parser("simulate", help="prepare, apply strategies, and measure repeatedly")
    simulate.add_argument("--n", type=int, required=True)
    _add_phase_options(simulate)
    simulate.add_argument("--shots", type=int, required=True)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--engine", choices=("qudit", "circuit"), default="qudit")
    simulate.add_argument("--format", choices=("csv", "json"), default="csv")
    simulate.add_argument("--out", default=None)
    simulate.add_argument("--dump-state", action="store_true",
                          help="also write the pre-measurement state to <out>.state.txt")
    simulate.set_defaults(func=cmd_simulate, parser=simulate)

    audit = sub.add_parser("audit-circuit", help="audit a preparation circuit against the target state")
    audit.add_argument("--n", type=int, required=True)
    _add_phase_options(audit)
    audit.add_argument("--variant", choices=VARIANTS, default=VARIANT_FIGURE)
    audit.add_argument("--out", default=None)
    audit.set_defaults(func=cmd_audit_circuit, parser=audit)

    export = sub.add_parser("export-circuit", help="write a preparation circuit as a plain-text gate list")
    export.add_argument("--n", type=int, required=True)
    _add_phase_options(export)
    export.add_argument("--variant", choices=VARIANTS, default=VARIANT_CORRECTED)
    export.add_argument("--out", default=None)
    export.set_defaults(func=cmd_export_circuit, parser=export)

    mac = sub.add_parser("mac", help="run the slotted-MAC policy comparison from a JSON run spec")
    mac.add_argument("config", help="JSON file mirroring CellConfig plus a 'policies' list")
    mac.add_argument("--out", default="mac_run",
                     help="output prefix; writes <out>.json and <out>.csv")
    mac.add_argument("--seed", type=int, default=None, help="override the run-spec seed")
    mac.set_defaults(func=cmd_mac, parser=mac)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args.parser, args)
    except ConfigFormatError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
