"""Config parsing, file round-trips, and CLI subcommand checks."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmnet
from swarmnet import cli, experiment, io, pso
from swarmnet.benchmarks import FunctionId
from swarmnet.cli import main
from swarmnet.config import (
    FIELDS,
    apply_overrides,
    build_config,
    load_config,
    parse_config_file,
)
from swarmnet.errors import ConfigurationError, InputError
from swarmnet.experiment import ExperimentConfig, TopologySpec, run_cell
from swarmnet.interaction import interaction_diversity
from swarmnet.pso import InteractionLog
from swarmnet.topology import TopologyKind

TINY = """
# control setup
function = sphere
dimension = 3
swarm_size = 8
t_max = 25
delta_window = 10
topologies = ring
windows = 4,8
repetitions = 2
id_sample_stride = 5
base_seed = 11
"""


def _python(args: list[str], **env_vars: str) -> str:
    """Standard output of `python args` with this swarmnet importable."""
    package_root = str(Path(swarmnet.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _tree(out):
    """Every file under out, by relative path, with its bytes."""
    return {path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


_run_cell = experiment.run_cell


def _run_cell_failing_at_global_1(config, spec, repetition, threads=1):
    if spec.kind is TopologyKind.GLOBAL and repetition == 1:
        raise InputError("global repetition 1 failed")
    return _run_cell(config, spec, repetition, threads=threads)


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


@pytest.fixture
def pool_workers(monkeypatch):
    """The max_workers of each process pool `ordered_map` builds."""
    workers = []
    pool = experiment.ProcessPoolExecutor

    def spy(max_workers, **kwargs):
        workers.append(max_workers)
        return pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", spy)
    return workers


@pytest.fixture
def root_logging_at_warning():
    """Logging configured before `main` runs, as a program may do: the root
    logger has handlers (pytest's), so `basicConfig` does nothing, and its
    level is WARNING. Both levels `main` may change are put back after."""
    root, package = logging.getLogger(), logging.getLogger("swarmnet")
    levels = root.level, package.level
    assert root.handlers
    root.setLevel(logging.WARNING)
    yield
    root.setLevel(levels[0])
    package.setLevel(levels[1])


class TestConfigParsing:
    def test_empty_config_gives_paper_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n")
        cfg = load_config(path)
        assert cfg.params.swarm_size == 100
        assert cfg.params.t_max == 10000
        assert cfg.params.epsilon == 1e-5
        assert cfg.params.delta_window == 500
        assert cfg.params.c1 == cfg.params.c2 == 2.05
        assert cfg.objective.dimension == 1000
        assert cfg.objective.group_size == 50
        assert cfg.repetitions == 30
        assert cfg.windows == (10, 25, 50, 75, 100)
        k_regular = [TopologySpec(TopologyKind.K_REGULAR, k)
                     for k in (5, 6, 7, 8, 9, 10, 20, 30, 40, 50, 60, 70, 80, 90)]
        assert cfg.topologies == (TopologySpec(TopologyKind.RING),
                                  TopologySpec(TopologyKind.VON_NEUMANN),
                                  *k_regular, TopologySpec(TopologyKind.GLOBAL))

    def test_defaults_equal_library_defaults(self):
        # dataclass equality compares every field, the derived chi included
        assert load_config() == build_config({}) == ExperimentConfig()

    def test_readme_config_example_lists_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n# experiment.cfg\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "experiment.cfg"
        path.write_text(block)
        assert parse_config_file(path).keys() == FIELDS.keys()
        load_config(path)

    def test_no_file_means_defaults(self):
        cfg = load_config(None, ["dimension=10"])
        assert cfg.objective.dimension == 10
        assert cfg.params.swarm_size == 100

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# full line comment\nswarm_size = 50  # trailing\n\n")
        assert parse_config_file(path) == {"swarm_size": "50"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("swarm_speed = 9\n")
        with pytest.raises(ConfigurationError, match="swarm_speed"):
            parse_config_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            parse_config_file(tmp_path / "absent.cfg")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"function = f2\xff\n")
        with pytest.raises(ConfigurationError, match=r"bad\.cfg: not UTF-8 text"):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_utf8_file_loads_under_ascii_locale(self, tmp_path):
        # Files are UTF-8 whatever the locale's encoding is.
        path = tmp_path / "cafe.cfg"
        path.write_bytes("dimension = 7  # caf\u00e9\n".encode("utf-8"))
        code = ("import locale, sys; from swarmnet.config import load_config; "
                "print(locale.getpreferredencoding(False), "
                "load_config(sys.argv[1]).objective.dimension)")
        out = _python(["-c", code, str(path)], LC_ALL="C", LANG="C", PYTHONUTF8="0")
        encoding, dimension = out.split()
        assert encoding != "UTF-8"  # the locale really is not UTF-8
        assert dimension == "7"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("swarm_size 50\n")
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config_file(path)

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigurationError, match="t_max"):
            build_config({"t_max": "soon"})

    def test_bad_function_lists_options(self):
        with pytest.raises(ConfigurationError, match="function"):
            build_config({"function": "f3"})

    def test_override_precedence(self, tiny_config):
        cfg = load_config(tiny_config, ["swarm_size=12", "base_seed=3"])
        assert cfg.params.swarm_size == 12
        assert cfg.base_seed == 3

    def test_override_validation(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            apply_overrides({}, ["swarm_size:9"])
        with pytest.raises(ConfigurationError, match="unknown field"):
            apply_overrides({}, ["swarm_speed=9"])

    def test_infeasible_parity_rejected(self):
        with pytest.raises(ConfigurationError, match="even"):
            build_config({
                "swarm_size": "99",
                "topologies": "k_regular:5",
                "dimension": "4",
                "function": "sphere",
            })

    def test_topology_entries(self):
        cfg = build_config({"topologies": "ring,von_neumann,k_regular:6,global",
                            "swarm_size": "12", "dimension": "4",
                            "function": "sphere"})
        kinds = [spec.kind for spec in cfg.topologies]
        assert kinds == [TopologyKind.RING, TopologyKind.VON_NEUMANN,
                         TopologyKind.K_REGULAR, TopologyKind.GLOBAL]
        assert cfg.topologies[2].k == 6

    @pytest.mark.parametrize("field, value", [
        ("windows", "10,,25"),
        ("windows", "10,25,"),
        ("windows", ",10"),
        ("windows", " "),
        ("topologies", "ring,,global"),
        ("topologies", "ring,global,"),
        ("topologies", ""),
    ])
    def test_empty_list_item_rejected(self, field, value, tmp_path, caplog):
        with pytest.raises(ConfigurationError, match=f"field '{field}': empty item"):
            load_config(None, [f"{field}={value}"])
        out = tmp_path / "out"
        assert main(["run", "--set", f"{field}={value}", "--out", str(out)]) == 1
        assert f"field '{field}': empty item" in caplog.text
        assert not out.exists()

    def test_bad_topology_entries(self):
        for entry in ("k_regular", "k_regular:x", "ring:2", "torus"):
            with pytest.raises(ConfigurationError, match="topologies"):
                build_config({"topologies": entry})

    def test_defaults_cover_every_key(self):
        cfg = build_config({})
        assert cfg.objective.function_id is FunctionId.F2
        assert cfg.base_seed == 1
        assert cfg.id_sample_stride == 1


class TestRoundTrips:
    def _result(self, tiny_config):
        cfg = load_config(tiny_config)
        return run_cell(cfg, cfg.topologies[0], 0)

    def test_log_round_trip(self, tiny_config, tmp_path):
        result = self._result(tiny_config)
        path = tmp_path / "log.csv"
        io.write_interaction_log(path, result.log)
        back = io.read_interaction_log(path)
        assert np.array_equal(back.choices, result.log.choices)

    def test_trace_round_trip(self, tiny_config, tmp_path):
        result = self._result(tiny_config)
        path = tmp_path / "trace.csv"
        io.write_run_trace(path, result.trace)
        iters, f_g, f_d = io.read_run_trace(path)
        assert list(iters) == list(range(1, len(result.log) + 1))
        assert np.array_equal(f_g, result.trace.global_best_fitness)
        assert np.array_equal(f_d, result.trace.fitness_improvement)

    def test_diversity_round_trip(self, tiny_config, tmp_path):
        result = self._result(tiny_config)
        path = tmp_path / "diversity.csv"
        io.write_diversity_series(path, result.id_iterations, result.id_values)
        iters, values = io.read_diversity_series(path)
        assert np.array_equal(iters, result.id_iterations)
        assert np.array_equal(values, result.id_values)

    def test_malformed_log_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"iteration,particle,best_neighbor\r\n1,0,1\r\n1,1,zero\r\n")
        with pytest.raises(InputError, match=r"bad\.csv:3"):
            io.read_interaction_log(path)

    def test_incomplete_log_rejected(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_bytes(b"iteration,particle,best_neighbor\r\n2,0,1\r\n2,1,0\r\n")
        with pytest.raises(InputError, match=r"partial\.csv:2: expected iteration 1, "
                                             r"particle 0, got \(2, 0, 1\)$"):
            io.read_interaction_log(path)

    def test_duplicate_log_row_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_bytes(b"iteration,particle,best_neighbor\r\n1,0,1\r\n1,0,1\r\n1,1,0\r\n")
        with pytest.raises(InputError, match=r"dup\.csv:3: expected iteration 1, "
                                             r"particle 1, got \(1, 0, 1\)$"):
            io.read_interaction_log(path)

    def test_self_selection_rejected(self, tmp_path):
        path = tmp_path / "self.csv"
        path.write_bytes(b"iteration,particle,best_neighbor\r\n1,0,1\r\n1,1,1\r\n")
        with pytest.raises(InputError, match=r"self\.csv:3: particle 1 selects itself"):
            io.read_interaction_log(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_bytes(b"a,b,c\r\n1,0,1\r\n")
        with pytest.raises(InputError, match=r"h\.csv:1: expected header"):
            io.read_interaction_log(path)

    def test_float_formatting_round_trips(self):
        for value in (0.1, 1e-300, 7.0 / 12.0, 1.0000000000000002):
            assert float(io.fmt(value)) == value


class TestCliCommands:
    def test_run_writes_cell_files(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(tiny_config), "--out", str(out)])
        assert code == 0
        assert (out / "log.csv").is_file()
        assert (out / "trace.csv").is_file()
        assert (out / "diversity.csv").is_file()
        assert "final fitness" in capsys.readouterr().out

    def test_run_requires_single_topology(self, tiny_config, tmp_path):
        code = main([
            "run", "--config", str(tiny_config),
            "--set", "topologies=ring,global",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1

    @pytest.mark.parametrize("args,message", [
        (["--set", "base_seed=-1"], "base_seed must be >= 0, got -1"),
        (["--set", "function=f2", "--set", "domain_seed=-3"],
         "domain_seed must be >= 0, got -3"),
        (["--set", "domain_seed=-3"], "domain_seed must be >= 0, got -3"),
    ])
    def test_negative_seed_is_a_configuration_error(self, tiny_config, tmp_path,
                                                    caplog, args, message):
        # numpy's SeedSequence refuses negative seeds; validation names them first.
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), *args, "--out", str(out)]) == 1
        assert caplog.messages == [f"configuration error: {message}"]
        assert not out.exists()

    def test_run_seed_flag_changes_result(self, tiny_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_b), "--set", "base_seed=99"]) == 0
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_c), "--set", "base_seed=99"]) == 0
        a = (out_a / "trace.csv").read_bytes()
        b = (out_b / "trace.csv").read_bytes()
        c = (out_c / "trace.csv").read_bytes()
        assert a != b
        assert b == c

    def test_seed_is_not_a_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--seed", "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("c1=nan", "c1=nan, c2=2.05"),
        ("c2=inf", "c1=2.05, c2=inf"),
    ])
    def test_non_finite_acceleration_is_a_configuration_error(
            self, tiny_config, tmp_path, caplog, override, message):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--set", override,
                     "--out", str(out)]) == 1
        assert caplog.messages == [
            f"configuration error: constriction requires finite c1 and c2, got {message}"
        ]
        assert not out.exists()

    def test_sweep_layout_and_summary(self, tiny_config, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--config", str(tiny_config),
            "--set", "topologies=ring,global",
            "--out", str(out),
        ])
        assert code == 0
        rows = io.read_summary(out / "summary.csv")
        assert [(r.topology_kind, r.k) for r in rows] == [
            (TopologyKind.RING, 2), (TopologyKind.GLOBAL, 7),
        ]
        for label in ("ring_2", "global_7"):
            for rep in (0, 1):
                cell = out / "sphere" / label / f"rep_{rep}"
                assert (cell / "log.csv").is_file()
                assert (cell / "trace.csv").is_file()
                assert (cell / "diversity.csv").is_file()

    def test_sweep_tree_does_not_depend_on_jobs(self, tmp_path, monkeypatch):
        # 100 particles at d=700 are above the size where a run splits its
        # rows over threads. With two CPUs, --jobs 1 gives each cell two
        # threads and --jobs 2 gives each of the two workers one; a 1-cell
        # sweep at --jobs 2 runs in this process, on both CPUs.
        monkeypatch.setattr(experiment, "available_cpus", lambda: 2)
        splits = []
        rows = pso._Workspace.rows

        def spy(work, fn):
            splits.append(len(work.bounds))
            return rows(work, fn)

        monkeypatch.setattr(pso._Workspace, "rows", spy)
        settings = ["function=f2", "dimension=700", "swarm_size=100",
                    "t_max=6", "topologies=ring", "windows=2,4",
                    "id_sample_stride=3"]
        trees = []
        for jobs, reps in (("1", "2"), ("2", "2"), ("2", "1")):
            out = tmp_path / f"jobs{jobs}_reps{reps}"
            args = ["sweep", "--jobs", jobs, "--out", str(out),
                    "--set", f"repetitions={reps}"]
            for item in settings:
                args += ["--set", item]
            assert main(args) == 0
            trees.append(_tree(out))
        assert len(trees[0]) == 7
        assert trees[0] == trees[1]
        # the 1-cell sweep's cell files are those of rep 0 above
        summary = Path("summary.csv")
        assert len(trees[2]) == 4 and summary in trees[2]
        assert all(trees[0][path] == data for path, data in trees[2].items()
                   if path != summary)
        assert set(splits) == {2}

    def test_sweep_jobs_defaults_to_available_cpus(self, tiny_config, tmp_path, monkeypatch,
                                                   pool_workers):
        monkeypatch.setattr(cli, "available_cpus", lambda: 2)
        assert main(["sweep", "--config", str(tiny_config),
                     "--out", str(tmp_path / "out")]) == 0
        assert pool_workers == [2]

    def test_sweep_forks_at_most_one_worker_per_cell(self, tiny_config, tmp_path,
                                                     pool_workers):
        argv = ["sweep", "--config", str(tiny_config)]
        # tiny_config holds 2 cells: a pool of 2 at --jobs 4
        assert main([*argv, "--jobs", "4", "--out", str(tmp_path / "two")]) == 0
        assert pool_workers == [2]
        # 1 cell: no pool at all
        assert main([*argv, "--jobs", "2", "--set", "repetitions=1",
                     "--out", str(tmp_path / "one")]) == 0
        assert pool_workers == [2]

    def test_sweep_verbose_logs_each_cell_in_map_order(self, tiny_config, tmp_path,
                                                        capsys, caplog):
        caplog.set_level(logging.INFO)
        argv = ["sweep", "--jobs", "2", "--config", str(tiny_config),
                "--set", "topologies=global,ring", "--set", "repetitions=3"]
        assert main([*argv, "--out", str(tmp_path / "quiet")]) == 0
        quiet = capsys.readouterr().out.replace(str(tmp_path / "quiet"), "OUT")
        caplog.clear()
        assert main([*argv, "-v", "--out", str(tmp_path / "loud")]) == 0
        loud = capsys.readouterr().out.replace(str(tmp_path / "loud"), "OUT")
        progress = [(r.levelno, r.getMessage()) for r in caplog.records
                    if r.name == "swarmnet.experiment"]
        assert progress == [
            (logging.INFO, f"cell {label} rep {rep} written ({done} of 6)")
            for done, (label, rep) in enumerate(
                [(lb, r) for lb in ("global_7", "ring_2") for r in range(3)], start=1)
        ]
        assert loud == quiet
        assert _tree(tmp_path / "loud") == _tree(tmp_path / "quiet")

    def test_verbose_holds_when_logging_is_already_configured(
            self, tiny_config, tmp_path, caplog, root_logging_at_warning):
        argv = ["--config", str(tiny_config), "--set", "topologies=global,ring", "-v"]
        sweep, analyzed = tmp_path / "sweep", tmp_path / "analyzed"
        assert main(["sweep", "--jobs", "2", *argv, "--out", str(sweep)]) == 0
        assert main(["analyze", str(sweep), *argv, "--out", str(analyzed)]) == 0
        cells = [(label, rep) for label in ("global_7", "ring_2") for rep in range(2)]
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, f"cell {label} rep {rep} written ({done} of 4)")
            for done, (label, rep) in enumerate(cells, start=1)
        ] + [
            (logging.INFO, f"analyzed {sweep / cell / 'log.csv'} -> {analyzed / cell}")
            for cell in (Path("sphere", label, f"rep_{rep}") for label, rep in cells)
        ]

    def test_failed_sweep_keeps_finished_cells(self, tiny_config, tmp_path, monkeypatch):
        argv = ["sweep", "--jobs", "2", "--config", str(tiny_config),
                "--set", "topologies=ring,global", "--set", "repetitions=3"]
        clean = tmp_path / "clean"
        assert main([*argv, "--out", str(clean)]) == 0
        # Forked workers inherit the patched module global.
        monkeypatch.setattr(experiment, "run_cell", _run_cell_failing_at_global_1)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        partial = _tree(out)
        cells = {path.parent for path in partial}
        # Map order yields global rep 1's failure only after every earlier
        # cell has finished; global rep 2 may have run beside it.
        finished = {Path("sphere", label, f"rep_{rep}")
                    for label, rep in [("ring_2", 0), ("ring_2", 1),
                                       ("ring_2", 2), ("global_7", 0)]}
        assert finished <= cells <= finished | {Path("sphere/global_7/rep_2")}
        expected = _tree(clean)
        assert partial == {cell / name: expected[cell / name] for cell in cells
                           for name in ("log.csv", "trace.csv", "diversity.csv")}
        analyzed = tmp_path / "analyzed"
        assert main(["analyze", str(out), "--config", str(tiny_config),
                     "--out", str(analyzed)]) == 0
        assert {path.parent for path in _tree(analyzed)} == cells

    def test_analyze_reproduces_online_series(self, tiny_config, tmp_path):
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(run_out)]) == 0
        analyzed = tmp_path / "post"
        code = main([
            "analyze", str(run_out), "--config", str(tiny_config),
            "--out", str(analyzed),
        ])
        assert code == 0
        online = (run_out / "diversity.csv").read_bytes()
        offline = (analyzed / "diversity.csv").read_bytes()
        assert online == offline
        assert (analyzed / "destruction.csv").is_file()
        # The log file itself gives the same outputs as its directory.
        one = tmp_path / "one"
        assert main(["analyze", str(run_out / "log.csv"), "--config", str(tiny_config),
                     "--out", str(one)]) == 0
        assert _tree(one) == _tree(analyzed)

    def test_analyze_star_log(self, tmp_path, capsys):
        logdir = tmp_path / "logs"
        logdir.mkdir()
        io.write_interaction_log(
            logdir / "log.csv",
            InteractionLog(np.array([[1, 0, 0, 0]])),
        )
        code = main([
            "analyze", str(logdir), "--set", "windows=1",
            "--set", "id_sample_stride=1", "--out", str(tmp_path / "m"),
        ])
        assert code == 0
        iters, values = io.read_diversity_series(
            tmp_path / "m" / "diversity.csv"
        )
        assert list(iters) == [1]
        assert values[0] == pytest.approx(7.0 / 12.0, abs=1e-12)

    def test_analyze_empty_directory_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["analyze", str(empty)]) == 2

    def test_analyze_two_logs_in_one_directory_exits_two(self, tmp_path, caplog):
        # Both logs would write out/diversity.csv and out/destruction.csv.
        logdir = tmp_path / "logs"
        logdir.mkdir()
        log = InteractionLog(np.array([[1, 0, 0], [2, 2, 1]]))
        io.write_interaction_log(logdir / "a.csv", log)
        io.write_interaction_log(logdir / "b.csv", log)
        out = tmp_path / "out"
        assert main(["analyze", str(logdir), "--out", str(out)]) == 2
        assert not out.exists()
        assert str(logdir / "a.csv") in caplog.text
        assert str(logdir / "b.csv") in caplog.text

    def test_analyze_bad_log_leaves_no_partial_tree(self, tmp_path):
        logdir = tmp_path / "logs"
        (logdir / "a").mkdir(parents=True)
        (logdir / "b").mkdir()
        io.write_interaction_log(
            logdir / "a" / "log.csv", InteractionLog(np.array([[1, 0, 0], [2, 2, 1]]))
        )
        (logdir / "b" / "log.csv").write_bytes(
            b"iteration,particle,best_neighbor\r\n1,0,0\r\n1,1,0\r\n1,2,0\r\n"
        )
        out = tmp_path / "out"
        assert main(["analyze", str(logdir), "--set", "windows=1",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_analyze_cut_write_leaves_no_output_file(self, tmp_path, monkeypatch):
        # The second log's write fails part-way: the first log's files,
        # written whole by then, are not renamed into place either.
        write_destruction = io.write_destruction_surface
        written = []

        def second_cut_short(path, curves):
            written.append(path)
            if len(written) == 1:
                return write_destruction(path, curves)
            Path(path).write_text("t_w,thresh")
            raise OSError("No space left on device")

        monkeypatch.setattr(io, "write_destruction_surface", second_cut_short)
        logdir = tmp_path / "logs"
        for name in ("a", "b"):
            (logdir / name).mkdir(parents=True)
            io.write_interaction_log(logdir / name / "log.csv",
                                     InteractionLog(np.array([[1, 0, 0], [2, 2, 1]])))
        out = tmp_path / "out"
        assert main(["analyze", str(logdir), "--set", "windows=1",
                     "--out", str(out)]) == 2
        assert [p.parent.name for p in written] == ["a", "b"]
        assert [p for p in out.rglob("*") if not p.is_dir()] == []
        # nor the directories it made: --out too, since it made that
        assert not out.exists()
        # A --out that was there stays, as does a directory holding a file.
        (out / "a").mkdir(parents=True)
        (out / "a" / "keep.txt").write_text("kept")
        written.clear()
        assert main(["analyze", str(logdir), "--set", "windows=1",
                     "--out", str(out)]) == 2
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
            "a", "a/keep.txt"]

    def test_analyze_tree_does_not_depend_on_worker_count(self, tmp_path, monkeypatch,
                                                          caplog, pool_workers):
        logdir = tmp_path / "logs"
        names = [f"run{k}" for k in range(5)]
        rng = np.random.default_rng(3)
        for name in names:  # 30 iterations of 6 particles
            choices = rng.integers(0, 5, size=(30, 6))
            choices += choices >= np.arange(6)  # no particle selects itself
            (logdir / name).mkdir(parents=True)
            io.write_interaction_log(logdir / name / "log.csv", InteractionLog(choices))
        argv = ["analyze", str(logdir), "--set", "windows=2,5,40",
                "--set", "id_sample_stride=3"]
        trees = []
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "available_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main([*argv, "--out", str(out)]) == 0
            trees.append(_tree(out))
        assert pool_workers == [3]
        assert len(trees[0]) == 2 * len(names)
        assert trees[0] == trees[1]

        # Two bad logs, one in the middle of the sorted order: at either
        # worker count, the earlier one is the error and nothing is written.
        middle = logdir / "run2" / "log.csv"
        middle.write_bytes(middle.read_bytes()[:-3])
        last = logdir / "run4" / "log.csv"
        last.write_bytes(last.read_bytes()[:-3])
        messages = []
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "available_cpus", lambda cpus=cpus: cpus)
            caplog.clear()
            out = tmp_path / f"bad{cpus}"
            assert main([*argv, "--out", str(out)]) == 2
            assert not out.exists()
            messages.append(caplog.messages)
        assert pool_workers == [3, 3]
        assert len(messages[0]) == 1
        assert messages[0][0].startswith(f"{middle}:181: ")  # its last line
        assert messages[1] == messages[0]

    def test_analyze_refuses_a_log_with_lf_line_ends(self, tmp_path, caplog):
        # A log that opens with the header's text is found whatever its
        # line ends, so one that ends its lines in \n is refused, not skipped.
        logdir = tmp_path / "logs"
        (logdir / "a").mkdir(parents=True)
        (logdir / "b").mkdir()
        log = InteractionLog(np.array([[1, 0, 0], [2, 2, 1]]))
        io.write_interaction_log(logdir / "a" / "log.csv", log)
        lf = logdir / "b" / "log.csv"
        io.write_interaction_log(lf, log)
        lf.write_bytes(lf.read_bytes().replace(b"\r\n", b"\n"))
        out = tmp_path / "out"
        assert main(["analyze", str(logdir), "--set", "windows=1",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert len(caplog.messages) == 1
        assert caplog.messages[0].startswith(f"{lf}:1: expected header line ")

    def test_analyze_skips_csv_that_is_not_text(self, tmp_path, caplog):
        logdir = tmp_path / "logs"
        logdir.mkdir()
        io.write_interaction_log(
            logdir / "log.csv", InteractionLog(np.array([[1, 0, 0]]))
        )
        (logdir / "junk.csv").write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00\x01")
        out = tmp_path / "out"
        assert main(["analyze", str(logdir), "--set", "windows=1",
                     "--out", str(out)]) == 0
        assert (out / "diversity.csv").is_file()
        assert "unexpected failure" not in caplog.text

    def test_analyze_of_non_utf8_log_exits_two(self, tmp_path, caplog):
        path = tmp_path / "log.csv"
        path.write_bytes(b"iteration,particle,best_neighbor\r\n1,0,1\r\n1,1,\xff\r\n")
        assert main(["analyze", str(path), "--out", str(tmp_path / "d")]) == 2
        # The bad byte is a field that is not digits, on the line it is in.
        assert caplog.messages == [
            f"{path}:3: expected 1-18 digits per field, got ['1', '1', '\ufffd']"]

    def test_unreadable_log_exits_two(self, tmp_path, caplog):
        # A path that is not there is read as one log, and cannot be.
        for path in (tmp_path / "missing.csv", tmp_path / "missing"):
            caplog.clear()
            out = tmp_path / "d"
            assert main(["analyze", str(path), "--out", str(out)]) == 2
            assert caplog.messages == [f"{path}: cannot read (No such file or directory)"]
            assert "Traceback" not in caplog.text
            assert not out.exists()

    def test_analyze_reads_a_log_file_strictly(self, tmp_path, caplog):
        # A directory search skips a CSV that is not a log; named, it is an error.
        path = tmp_path / "notes.csv"
        path.write_bytes(b"a,b\r\n1,2\r\n")
        out = tmp_path / "out"
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        assert len(caplog.messages) == 1
        assert caplog.messages[0].startswith(f"{path}:1: expected header line ")
        assert not out.exists()

    def test_jobs_is_a_sweep_flag(self, tmp_path, capsys):
        logfile = tmp_path / "log.csv"
        for argv in (["run"], ["analyze", str(tmp_path)], ["analyze", str(logfile)]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--jobs", "2", "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_sweep_jobs_below_one_exits_one(self, tiny_config, tmp_path):
        for jobs in ("0", "-2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--jobs", jobs, "--config", str(tiny_config),
                         "--out", str(out)]) == 1
            assert not out.exists()

    def test_self_selecting_log_exits_two(self, tmp_path):
        logdir = tmp_path / "logs"
        logdir.mkdir()
        (logdir / "log.csv").write_bytes(
            b"iteration,particle,best_neighbor\r\n1,0,0\r\n1,1,0\r\n1,2,0\r\n"
        )
        assert main(["analyze", str(logdir), "--out", str(tmp_path / "a")]) == 2
        assert main(["analyze", str(logdir / "log.csv"), "--out", str(tmp_path / "d")]) == 2

    def test_destruction_surface(self, tiny_config, tmp_path):
        # One log in a directory with another: analyzing the directory
        # would write both logs' outputs to one place, the file alone not.
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(run_out)]) == 0
        io.write_interaction_log(run_out / "other.csv",
                                 InteractionLog(np.array([[1, 0, 0], [2, 2, 1]])))
        out = tmp_path / "surface"
        code = main([
            "analyze", str(run_out / "log.csv"),
            "--config", str(tiny_config), "--out", str(out),
        ])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["destruction.csv", "diversity.csv"]
        lines = (out / "destruction.csv").read_text().splitlines()
        assert lines[0] == "t_w,threshold,component_count"
        windows = {int(line.split(",")[0]) for line in lines[1:]}
        assert windows == {4, 8}

    def test_destruction_is_not_a_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["destruction", str(tmp_path / "log.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'destruction'" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_infeasible_topology_exits_one(self, tmp_path):
        code = main([
            "sweep", "--set", "swarm_size=99", "--set", "topologies=k_regular:5",
            "--set", "function=sphere", "--set", "dimension=3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_repeated_topology_exits_one(self, tiny_config, tmp_path, caplog):
        out = tmp_path / "o"
        code = main(["sweep", "--config", str(tiny_config),
                     "--set", "topologies=ring,ring", "--out", str(out)])
        assert code == 1
        assert "topology ring_2 is listed more than once" in caplog.text
        assert not out.exists()

    def test_summary_round_trip(self, tiny_config, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
        rows = io.read_summary(out / "summary.csv")
        again = tmp_path / "again.csv"
        io.write_summary(again, rows)
        assert again.read_bytes() == (out / "summary.csv").read_bytes()


class TestOfflineOnlineEquivalence:
    def test_recomputed_diversity_identical(self, tiny_config, tmp_path):
        cfg = load_config(tiny_config)
        result = run_cell(cfg, cfg.topologies[0], 0)
        path = tmp_path / "log.csv"
        io.write_interaction_log(path, result.log)
        back = io.read_interaction_log(path)
        total = len(back)
        value = interaction_diversity(
            back, total, tuple(min(w, total) for w in cfg.windows)
        ).id_value
        assert value == result.id_values[-1]


@pytest.mark.parametrize("command", ["run", "sweep", "analyze"])
def test_command_imports_no_module_while_it_runs(tmp_path, tiny_config, command):
    # Every module a command needs comes with `import swarmnet.cli`, so no
    # command pays an import (scipy above all) inside its timed part.
    assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "r")]) == 0
    argv = {
        "run": ["run"],
        "sweep": ["sweep", "--jobs", "1"],
        "analyze": ["analyze", str(tmp_path / "r")],
    }[command] + ["--config", str(tiny_config), "--out", str(tmp_path / "o")]
    code = ("import json, sys\n"
            "import swarmnet.cli\n"
            "before = set(sys.modules)\n"
            "rc = swarmnet.cli.main(sys.argv[1:])\n"
            "print(json.dumps([rc, sorted(set(sys.modules) - before)]))\n")
    rc, imported = json.loads(_python(["-c", code, *argv]).splitlines()[-1])
    assert rc == 0
    assert imported == []


def test_scipy_is_imported_only_above_the_t_table():
    # numpy.random is loaded before a sweep forks its workers, and scipy
    # not at all until an interval needs more than 100 degrees of freedom.
    code = ("import sys\n"
            "import numpy as np\n"
            "import swarmnet.cli\n"
            "from swarmnet.experiment import _confidence_interval\n"
            "def scipy_loaded():\n"
            "    return any(name.startswith('scipy') for name in sys.modules)\n"
            "print('numpy.random' in sys.modules, scipy_loaded())\n"
            "_confidence_interval(np.arange(101.0))\n"
            "print(scipy_loaded())\n"
            "_confidence_interval(np.arange(102.0))\n"
            "print(scipy_loaded())\n")
    out = _python(["-c", code])
    assert out.split() == ["True", "False", "False", "True"]
