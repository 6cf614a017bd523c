"""Command-line interface: run, sweep, analyze, and destruction subcommands.

All subcommands share the same flags: `--config` points at a key=value
file (defaults apply when omitted), `--set key=value` overrides single
fields, `--seed` overrides the base seed, and `--out` names the output
directory. Only `sweep` takes `--jobs`, which bounds its worker pool;
`analyze` reads one log per forked worker, on as many workers as there
are CPUs or logs, whichever is fewer, and after the last one writes
all of its outputs or none; a failed write also removes the empty
directories it made. `-v` and `-vv` set the level of the `swarmnet`
logger. Exit codes: 0 on success, 1 for configuration problems, 2 for
runtime failures.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import suppress
from itertools import takewhile
from pathlib import Path

from . import interaction, io
from .config import load_config
from .errors import ConfigurationError, SwarmnetError
from .experiment import ExperimentConfig, available_cpus, ordered_map, run_cell, run_sweep
from .topology import label

log = logging.getLogger("swarmnet")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="key=value config file (defaults if omitted)")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: out)")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        dest="overrides", default=[],
                        help="override one config field (repeatable)")
    common.add_argument("--seed", metavar="N", type=int, default=None,
                        help="override base_seed")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (-v info, -vv debug)")

    parser = argparse.ArgumentParser(
        prog="swarmnet",
        description="Swarm optimization runs with interaction-network analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common],
                   help="execute one run of a single configured topology")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="execute the full topology x repetition matrix")
    p_sweep.add_argument("--jobs", metavar="N", type=int, default=available_cpus(),
                         help="worker processes (default: the CPUs this "
                              "process may run on, here %(default)s)")
    p_analyze = sub.add_parser("analyze", parents=[common],
                               help="recompute metrics from saved logs")
    p_analyze.add_argument("logdir", help="directory containing selection logs")
    p_destr = sub.add_parser("destruction", parents=[common],
                             help="emit the destruction surface of one log")
    p_destr.add_argument("logfile", help="path to one selection log CSV")
    return parser


def _load(args) -> ExperimentConfig:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"base_seed={args.seed}")
    return load_config(args.config, overrides)


def cmd_run(args) -> int:
    config = _load(args)
    if len(config.topologies) != 1:
        raise ConfigurationError(
            "run executes a single cell; configure exactly one topology "
            f"(got {len(config.topologies)})"
        )
    result = run_cell(config, config.topologies[0], repetition=0,
                      threads=available_cpus())
    io.write_cell(args.out, result)
    record = result.record
    status = (
        f"converged at {result.trace.converged_at}"
        if record.converged else "reached t_max"
    )
    print(
        f"{record.function_id.value} {record.label}: "
        f"final fitness {io.fmt(record.final_fitness)}, "
        f"mean ID {io.fmt(record.mean_id)}, {status} "
        f"after {len(result.log)} iterations"
    )
    return 0


def cmd_sweep(args) -> int:
    config = _load(args)
    out = Path(args.out)
    _, summaries = run_sweep(config, out, jobs=args.jobs)
    io.write_replacing(out / "summary.csv", io.write_summary, summaries)
    for row in summaries:
        print(
            f"{row.function_id.value} {label(row.topology_kind, row.k)}: "
            f"mean ID {io.fmt(row.mean_id)} "
            f"({io.fmt(row.id_ci_low)}, {io.fmt(row.id_ci_high)}), "
            f"mean final fitness {io.fmt(row.mean_final_fitness)}"
        )
    print(f"summary written to {out / 'summary.csv'}")
    return 0


def _destruction_rows(logf, windows):
    """Clipped-window destruction curves of the final-iteration network."""
    total = len(logf)
    clipped = sorted(set(interaction.clip_windows(windows, total)))
    nets = [interaction.build_network(logf, total, w) for w in clipped]
    return list(zip(clipped, interaction.destruction_curves(nets)))


def _analyze_log(path, config):
    """ID series and final destruction rows of one log file."""
    logf = io.read_interaction_log(path)
    series = interaction.diversity_series(
        logf, config.windows, config.id_sample_stride
    )
    return series, _destruction_rows(logf, config.windows)


def cmd_analyze(args) -> int:
    config = _load(args)
    log_dir = Path(args.logdir)
    if not log_dir.is_dir():
        raise SwarmnetError(f"log directory not found: {log_dir}")
    files = io.find_log_files(log_dir)
    if not files:
        raise SwarmnetError(f"no logs found under {log_dir}")
    out = Path(args.out)
    # A log's outputs go to its directory's mirror under --out, so no two
    # logs may share a directory; check them all before writing anything.
    first = {}
    for path in files:
        other = first.setdefault(path.parent, path)
        if other != path:
            raise SwarmnetError(
                f"logs {other} and {path} would both write to "
                f"{out / path.parent.relative_to(log_dir)}"
            )
    # Write nothing until every log is analyzed, so a bad log leaves no
    # partial tree; each worker holds one log at a time, and the first log
    # in sorted order that fails is the error raised. Then every file is
    # written before any is renamed into place, so a failed write leaves
    # none of them either.
    with ordered_map(min(available_cpus(), len(files))) as analyze:
        analyzed = list(analyze(_analyze_log, files, [config] * len(files)))
    dests = [out / path.parent.relative_to(log_dir) for path in files]
    outputs = []
    for dest, ((iters, values), rows) in zip(dests, analyzed):
        outputs += [(dest / "diversity.csv", io.write_diversity_series, iters, values),
                    (dest / "destruction.csv", io.write_destruction_surface, rows)]
    made = []  # the directories made here, --out too if it was missing, parents first
    try:
        for dest in dests:
            made += reversed(list(takewhile(lambda d: not d.exists(), (dest, *dest.parents))))
            dest.mkdir(parents=True, exist_ok=True)
        io.write_all_replacing(outputs)
    except BaseException:
        for directory in reversed(made):  # deepest first; one not empty stays
            with suppress(OSError):
                directory.rmdir()
        raise
    for path, dest in zip(files, dests):
        log.info("analyzed %s -> %s", path, dest)
    print(f"analyzed {len(files)} log(s) into {out}")
    return 0


def cmd_destruction(args) -> int:
    config = _load(args)
    logf = io.read_interaction_log(args.logfile)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_replacing(out / "destruction.csv", io.write_destruction_surface,
                       _destruction_rows(logf, config.windows))
    print(f"destruction surface written to {out / 'destruction.csv'}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
    "destruction": cmd_destruction,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # On the package's logger: basicConfig, which gives the records a
    # handler, does nothing when the root logger already has one.
    log.setLevel((logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)])
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        log.error("configuration error: %s", exc)
        return 1
    except SwarmnetError as exc:
        log.error("%s", exc)
        return 2
    except Exception:
        log.exception("unexpected failure")
        return 2


if __name__ == "__main__":
    sys.exit(main())
