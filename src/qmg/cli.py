"""Command-line front end: analytic tables, seeded simulations, circuit
audits/exports, and MAC benchmarks, all emitting machine-readable CSV/JSON.

Every subcommand is a pure function of its arguments (seeds included), so
repeated runs produce byte-identical output files.  Exit codes: 0 success,
2 usage or output error, 3 config-parse error, 4 resource limit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
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
    REGIMES,
    GameConfig,
    InvalidConfigError,
    outcome_statistics,
    phase_for_regime,
    strategy_matrix,
)
from .mac import (
    TOPOLOGY_MESH,
    ConfigFormatError,
    compare_policies,
    digit_text,
    key_numbers,
    load_run_spec,
    write_rows,
)
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


@contextlib.contextmanager
def _outputs(*paths):
    """Yield one text stream per path, stdout for None; files appear complete or
    not at all.  Temporaries beside the targets are opened before any work,
    moved onto them once every stream is done, and deleted on any exception,
    KeyboardInterrupt included.  Symlinks are written through; an existing
    target that is not a regular file (a directory, a FIFO, /dev/null) is
    refused, and so is one named twice, whose temporary already exists."""
    suffix, streams, temps = f".{os.getpid()}.tmp", [], []
    try:
        for path in paths:
            if path is not None and os.path.exists(path) and not os.path.isfile(path):
                raise OSError(f"{path} is not a regular file")
            if path is not None:
                temps.append(open(os.path.realpath(path) + suffix, "x", encoding="utf-8",
                                  newline="\n"))
            streams.append(sys.stdout if path is None else temps[-1])
        yield streams
        for fh in temps:
            fh.close()
        for fh in temps:
            os.replace(fh.name, fh.name.removesuffix(suffix))
    finally:
        for fh in temps:
            fh.close()
            Path(fh.name).unlink(missing_ok=True)


def _json_text(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _seed64(text: str) -> int:
    if (value := _non_negative_int(text)) >= 2**64:
        raise argparse.ArgumentTypeError(f"must be below 2**64, got {value}")
    return value


def _game(parser: argparse.ArgumentParser, args) -> tuple[GameConfig, str]:
    """The game a command plays, and its phase's label: "custom" or the regime."""
    label = args.regime if args.p is None else "custom"
    if label is None:
        parser.error("one of --p or --regime is required")
    phase = phase_for_regime(label, args.n) if args.p is None else args.p
    return GameConfig(args.n, phase), label


def cmd_probs(parser: argparse.ArgumentParser, args) -> int:
    game, regime = _game(parser, args)
    with _outputs(args.out) as (stream,):
        quantum = outcome_statistics(game.n, game.phase)
        classical = outcome_statistics(game.n)
        record = {
            "n": game.n,
            "phase": game.phase,
            "regime": regime,
            "classical": dataclasses.asdict(classical),
            "quantum": dataclasses.asdict(quantum),
            "enhancement_ratio": quantum.p_all_distinct / classical.p_all_distinct,
        }
        if args.format == "json":
            text = _json_text(record)
        else:  # the record's values, a law's statistics named <law>_<statistic> without p_
            rows = [(f"{key}_{name.removeprefix('p_')}" if name else key, v) for key, value in record.items()
                    for name, v in (value.items() if isinstance(value, dict) else [("", value)])]
            text = "metric,value\n" + "".join(f"{k},{v!r}\n" if isinstance(v, float)
                                              else f"{k},{v}\n" for k, v in rows)
        stream.write(text)
    return EXIT_OK


def _final_state(game: GameConfig, engine: str):
    if engine == "qudit":
        state = prepare_entangled(game)
    else:
        gates = build_preparation_circuit(game, VARIANT_CORRECTED)
        state = register_to_qudit(run_circuit(gates, game.n * qubits_per_user(game.n)), game.n)
    return apply_local_strategy(state, strategy_matrix(game.n))


def _write_histogram(stream, n: int, rows: np.ndarray, record: dict, fmt: str) -> None:
    """Write the sampler's (flat index, count) rows as CSV lines after the header, or
    as the ``"counts"`` of the JSON ``record``.  A row's head is its outcome label, such
    as "2-0-1", the base-n digits of its flat index, user 0 first; the labels have one
    width, so their sorted order, JSON's key order, is the rows' increasing order."""
    counts, inverse = key_numbers(rows[:, 1])  # the counts are at most the shots
    if fmt == "csv":
        opening, closing = "outcome,count,frequency\n", ""
        tails = [f",{c},{c / record['shots']!r}\n" for c in counts.tolist()]
    else:  # the record's text split where its counts go: "counts" sorts first
        opening, closing = _json_text({**record, "counts": {}}).split("{}")
        opening += '{\n    "' if len(rows) else "{}"
        # a row's tail closes its label and opens the next; the last row's closes the object
        tails = [f'": {c},\n    "' for c in counts.tolist()]
        tails += [f'": {c}\n  }}' for c in rows[-1:, 1].tolist()]
        inverse[-1:] = len(counts)
    stream.write(opening)
    write_rows(stream, lambda text, start: digit_text(text, rows[start:start + len(text), 0], n, ord("-")),
               2 * n - 1, tails, inverse)
    stream.write(closing)


def cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    if not 2 <= args.n <= SITE_CAP:  # the n**n outcomes both engines sample
        parser.error(f"simulate supports 2 <= n <= {SITE_CAP}")
    if args.dump_state and args.out is None:
        parser.error("--dump-state requires --out")
    game, _ = _game(parser, args)
    paths = [args.out] + ([f"{args.out}.state.txt"] if args.dump_state else [])
    with _outputs(*paths) as streams:
        state = _final_state(game, args.engine)
        rows = sample_counts(state, np.random.default_rng(args.seed), args.shots)
        record = {"n": args.n, "phase": game.phase, "engine": args.engine, "seed": args.seed, "shots": args.shots}
        _write_histogram(streams[0], args.n, rows, record, args.format)
        if args.dump_state:
            dump_nonzero(state, streams[1])
    return EXIT_OK


def cmd_audit_circuit(parser: argparse.ArgumentParser, args) -> int:
    game, _ = _game(parser, args)
    with _outputs(args.out) as (stream,):
        audit = audit_preparation_circuit(game, args.variant)
        record = {"n": args.n, "phase": game.phase, "variant": args.variant}
        record.update(audit.to_dict())
        stream.write(_json_text(record))
    return EXIT_OK


def cmd_export_circuit(parser: argparse.ArgumentParser, args) -> int:
    game, _ = _game(parser, args)
    with _outputs(args.out) as (stream,):
        gates = build_preparation_circuit(game, args.variant)
        width = args.n * qubits_per_user(args.n)
        stream.write(f"# preparation circuit: n={args.n} phase={game.phase} "
                     f"variant={args.variant} width={width}\n" + export_circuit(gates))
    return EXIT_OK


def cmd_mac(parser: argparse.ArgumentParser, args) -> int:
    path = Path(args.config)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, too long or deep
        raise ConfigFormatError(f"{path}: {exc}") from exc
    config, policies = load_run_spec(document)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    prefix = Path(args.out)
    suffixes = (".json",) if config.topology == TOPOLOGY_MESH else (".json", ".csv")
    finals = [Path(f"{prefix}{suffix}") for suffix in suffixes]
    if any(out.resolve() == path.resolve() for out in finals):
        parser.error(f"--out {args.out} would overwrite the run spec {path}")
    created = [d for d in (prefix.parent, *prefix.parent.parents) if not d.exists()]
    try:
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with _outputs(*finals) as (summary, *csv):  # star runs only write a slot CSV
            comparison = compare_policies(config, policies, *csv)
            summary.write(_json_text(comparison.to_dict()))
    except BaseException:
        for directory in created:  # deepest first: a failed run leaves no new directory
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    print(f"{'policy':>26} {'throughput':>11} {'collisions':>11} {'all-distinct':>13} "
          f"{'all-same':>10} {'energy':>8}")
    for policy, m in comparison.runs:
        print(f"{policy:>26} {m.throughput:>11.4f} {m.collision_rate:>11.4f} "
              f"{m.all_distinct_rate:>13.6f} {m.all_same_rate:>10.6f} {m.energy_proxy:>8.3f}")
    for kind, ratio in comparison.all_distinct_ratios().items():
        shown = "n/a" if ratio is None else f"{ratio:.4f}"
        print(f"all-distinct ratio {kind}/classical-uniform: {shown}")
    print(f"summary: {finals[0]}")
    return EXIT_OK


def _game_command(sub, name: str, help: str, func) -> argparse.ArgumentParser:
    """A subcommand playing one game, with its size, phase and output; the caller adds its own flags."""
    command = sub.add_parser(name, help=help)
    command.add_argument("--n", type=int, required=True)
    command.add_argument("--p", type=_non_negative_int, default=None,
                         help="explicit phase parameter (overrides --regime)")
    command.add_argument("--regime", choices=REGIMES, default=None,
                         help="named phase regime: enhance-optimum (p=n(n-1)/2) or avoid-worst (p=1)")
    command.add_argument("--out", default=None)
    command.set_defaults(func=func, parser=command)
    return command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmg",
        description="Entangled minority-game channel allocation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    probs = _game_command(sub, "probs", "analytic quantum vs classical outcome probabilities", cmd_probs)
    probs.add_argument("--format", choices=("csv", "json"), default="json")

    simulate = _game_command(sub, "simulate", "prepare, apply strategies, and measure repeatedly", cmd_simulate)
    simulate.add_argument("--shots", type=_non_negative_int, required=True)
    simulate.add_argument("--seed", type=_non_negative_int, default=0)
    simulate.add_argument("--engine", choices=("qudit", "circuit"), default="qudit")
    simulate.add_argument("--format", choices=("csv", "json"), default="csv")
    simulate.add_argument("--dump-state", action="store_true",
                          help="also write the pre-measurement state to <out>.state.txt")

    audit = _game_command(sub, "audit-circuit", "audit a preparation circuit against the target state",
                          cmd_audit_circuit)
    audit.add_argument("--variant", choices=VARIANTS, default=VARIANT_FIGURE)

    export = _game_command(sub, "export-circuit", "write a preparation circuit as a plain-text gate list",
                           cmd_export_circuit)
    export.add_argument("--variant", choices=VARIANTS, default=VARIANT_CORRECTED)

    mac = sub.add_parser("mac", help="run the slotted-MAC policy comparison from a JSON run spec")
    mac.add_argument("config", help="JSON file mirroring CellConfig plus a 'policies' list")
    mac.add_argument("--out", default="mac_run",
                     help="output prefix; writes <out>.json and, for star runs, <out>.csv")
    mac.add_argument("--seed", type=_seed64, default=None, help="override the run-spec seed")
    mac.set_defaults(func=cmd_mac, parser=mac)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args.parser, args)
    except InvalidConfigError as exc:
        args.parser.error(str(exc))
    except ConfigFormatError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
