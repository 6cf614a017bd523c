"""Config parsing, file round-trips, and CLI subcommand checks."""

import numpy as np
import pytest

from swarmnet import experiment, io, pso
from swarmnet.benchmarks import FunctionId
from swarmnet.cli import main
from swarmnet.config import (
    apply_overrides,
    build_config,
    load_config,
    parse_config_file,
)
from swarmnet.errors import ConfigurationError, InputError
from swarmnet.experiment import run_cell
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


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


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
        assert len(cfg.topologies) == 17

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
        path.write_text(
            "iteration,particle,best_neighbor\n1,0,1\n1,1,zero\n"
        )
        with pytest.raises(InputError, match=r"bad\.csv:3"):
            io.read_interaction_log(path)

    def test_incomplete_log_rejected(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("iteration,particle,best_neighbor\n2,0,1\n2,1,0\n")
        with pytest.raises(InputError, match="missing event"):
            io.read_interaction_log(path)

    def test_duplicate_log_row_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "iteration,particle,best_neighbor\n1,0,1\n1,0,1\n1,1,0\n"
        )
        with pytest.raises(InputError, match="duplicate"):
            io.read_interaction_log(path)

    def test_self_selection_rejected(self, tmp_path):
        path = tmp_path / "self.csv"
        path.write_text(
            "iteration,particle,best_neighbor\n1,0,1\n1,1,1\n"
        )
        with pytest.raises(InputError, match=r"self\.csv:3: particle 1 selects itself"):
            io.read_interaction_log(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n1,0,1\n")
        with pytest.raises(InputError, match="header"):
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

    def test_run_seed_flag_changes_result(self, tiny_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_b), "--seed", "99"]) == 0
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_c), "--seed", "99"]) == 0
        a = (out_a / "trace.csv").read_bytes()
        b = (out_b / "trace.csv").read_bytes()
        c = (out_c / "trace.csv").read_bytes()
        assert a != b
        assert b == c

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
        # threads and --jobs 2 gives each of the two workers one.
        monkeypatch.setattr(experiment, "available_cpus", lambda: 2)
        splits = []
        rows = pso._Workspace.rows

        def spy(work, fn):
            splits.append(len(work.bounds))
            return rows(work, fn)

        monkeypatch.setattr(pso._Workspace, "rows", spy)
        settings = ["function=f2", "dimension=700", "swarm_size=100",
                    "t_max=6", "topologies=ring", "repetitions=2",
                    "windows=2,4", "id_sample_stride=3"]
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            args = ["sweep", "--jobs", jobs, "--out", str(out)]
            for item in settings:
                args += ["--set", item]
            assert main(args) == 0
            trees.append({
                path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()
            })
        assert len(trees[0]) == 7
        assert trees[0] == trees[1]
        assert set(splits) == {2}

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

    def test_destruction_of_non_utf8_log_exits_two(self, tmp_path, caplog):
        path = tmp_path / "log.csv"
        path.write_bytes(b"iteration,particle,best_neighbor\r\n1,0,1\r\n1,1,\xff\r\n")
        assert main(["destruction", str(path), "--out", str(tmp_path / "d")]) == 2
        assert f"{path}: not UTF-8 text" in caplog.text
        assert "unexpected failure" not in caplog.text

    def test_sweep_jobs_below_one_exits_one(self, tiny_config, tmp_path):
        for jobs in ("0", "-2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--jobs", jobs, "--config", str(tiny_config),
                         "--out", str(out)]) == 1
            assert not out.exists()

    def test_self_selecting_log_exits_two(self, tmp_path):
        logdir = tmp_path / "logs"
        logdir.mkdir()
        (logdir / "log.csv").write_text(
            "iteration,particle,best_neighbor\n1,0,0\n1,1,0\n1,2,0\n"
        )
        assert main(["analyze", str(logdir), "--out", str(tmp_path / "a")]) == 2
        assert main(["destruction", str(logdir / "log.csv"),
                     "--out", str(tmp_path / "d")]) == 2

    def test_destruction_surface(self, tiny_config, tmp_path):
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(run_out)]) == 0
        out = tmp_path / "surface"
        code = main([
            "destruction", str(run_out / "log.csv"),
            "--config", str(tiny_config), "--out", str(out),
        ])
        assert code == 0
        lines = (out / "destruction.csv").read_text().splitlines()
        assert lines[0] == "t_w,threshold,component_count"
        windows = {int(line.split(",")[0]) for line in lines[1:]}
        assert windows == {4, 8}

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_infeasible_topology_exits_one(self, tmp_path):
        code = main([
            "sweep", "--set", "swarm_size=99", "--set", "topologies=k_regular:5",
            "--set", "function=sphere", "--set", "dimension=3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

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
