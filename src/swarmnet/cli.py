"""Command-line interface: run, sweep, and analyze subcommands.

All subcommands share the same flags: `--config` points at a key=value
file (defaults apply when omitted), `--set key=value` overrides single
fields, and `--out` names the output directory. Only `sweep` takes
`--jobs`, which bounds its forked workers. `analyze` takes one log file, or
a directory whose logs it reads one per forked worker, on as many
workers as there are CPUs or logs, whichever is fewer. Each set of files
a command writes, such as a cell's three or all of analyze's, goes
through io.write_all_replacing, whole or not at all. `-v` and `-vv` set
the level of the `swarmnet` logger. Exit codes: 0 on success, 1 for
configuration problems, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import locale  # noqa: F401 -- else argparse's gettext imports it inside main
import logging
import sys
from pathlib import Path

from . import interaction, io
from .config import load_config
from .errors import ConfigurationError, SwarmnetError
from .experiment import available_cpus, ordered_map, run_cell, run_sweep
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
    p_analyze.add_argument("logs", metavar="LOG_OR_DIR",
                           help="one selection log, or a directory searched for them")
    return parser


def cmd_run(args) -> int:
    config = load_config(args.config, args.overrides)
    if len(config.topologies) != 1:
        raise ConfigurationError(
            "run executes a single cell; configure exactly one topology "
            f"(got {len(config.topologies)})"
        )
    record = run_cell(config, config.topologies[0], 0, args.out, threads=available_cpus())
    t_s = record.converged_at
    status = (f"reached t_max after {config.params.t_max}" if t_s is None else
              f"converged at {t_s} after {t_s + config.params.delta_window}")
    print(f"{record.function_id.value} {record.label}: "
          f"final fitness {io.fmt(record.final_fitness)}, "
          f"mean ID {io.fmt(record.mean_id)}, {status} iterations")
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.overrides)
    out = Path(args.out)
    _, summaries = run_sweep(config, out, jobs=args.jobs)
    io.write_all_replacing([(out / "summary.csv", io.write_summary, summaries)])
    for row in summaries:
        print(
            f"{row.function_id.value} {label(row.topology_kind, row.k)}: "
            f"mean ID {io.fmt(row.mean_id)} "
            f"({io.fmt(row.id_ci_low)}, {io.fmt(row.id_ci_high)}), "
            f"mean final fitness {io.fmt(row.mean_final_fitness)}"
        )
    print(f"summary written to {out / 'summary.csv'}")
    return 0


def _analyze_log(path, config):
    """ID series of one log file, and the clipped-window destruction rows
    of its final-iteration network."""
    logf = io.read_interaction_log(path)
    series = interaction.diversity_series(
        logf, config.windows, config.id_sample_stride
    )
    total = len(logf)
    clipped = sorted(set(interaction.clip_windows(config.windows, total)))
    nets = [interaction.build_network(logf, total, w) for w in clipped]
    return series, list(zip(clipped, interaction.destruction_curves(nets)))


def cmd_analyze(args) -> int:
    config = load_config(args.config, args.overrides)
    # A directory is searched for logs; any other path is read as one log,
    # whose outputs go straight into --out.
    source = Path(args.logs)
    if source.is_dir():
        log_dir, files = source, io.find_log_files(source)
        if not files:
            raise SwarmnetError(f"no logs found under {log_dir}")
    else:
        log_dir, files = source.parent, [source]
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
    # Each log's files are written under .part names as its result arrives,
    # while the workers read later logs, and renamed only once all are
    # written: a bad log or a failed write leaves no file, and the first log
    # in sorted order that fails is the error raised. Zipping the results
    # first lets the map, and its workers, end when its last result is read.
    dests = [out / path.parent.relative_to(log_dir) for path in files]
    with ordered_map(min(available_cpus(), len(files))) as analyze:
        analyzed = analyze(_analyze_log, files, [config] * len(files))
        io.write_all_replacing(
            item for ((iters, values), rows), dest in zip(analyzed, dests) for item in (
                (dest / "diversity.csv", io.write_diversity_series, iters, values),
                (dest / "destruction.csv", io.write_destruction_surface, rows)))
    for path, dest in zip(files, dests):
        log.info("analyzed %s -> %s", path, dest)
    print(f"analyzed {len(files)} log(s) into {out}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
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
