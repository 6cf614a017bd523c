"""One workload invocation in a fresh interpreter: set-up, then the CLI.

    python3 perfbench/child.py SPEC.json

`run.py` writes the spec: the source tree to import swarmnet from, the
config overrides, the CLI argv, where to write the result, and, for a traced invocation, where to write spans. Set-up is
what every CLI invocation pays before its command runs: importing
`swarmnet.cli`, loading the config, and building the objective and the
topologies. The timed part is `swarmnet.cli.main(argv)`. After it, the
calibration kernel measures the machine's speed in this same process.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    t0 = time.perf_counter()
    import swarmnet
    import swarmnet.cli
    t_import = time.perf_counter()
    src = Path(spec["src"]).resolve()
    if src not in Path(swarmnet.__file__).resolve().parents:
        print(f"swarmnet imported from {swarmnet.__file__}, not {src}", file=sys.stderr)
        return 3

    from swarmnet.benchmarks import make_objective
    from swarmnet.config import load_config
    from swarmnet.topology import build_topology

    config = load_config(None, spec["overrides"])
    make_objective(config.objective)
    for topo in config.topologies:
        build_topology(topo.kind, config.params.swarm_size, topo.k)
    t_setup = time.perf_counter()

    tracer = None
    if spec["trace_dir"]:
        from tracer import Tracer
        tracer = Tracer(spec["trace_dir"])
        tracer.install()

    t1 = time.perf_counter()
    rc = swarmnet.cli.main(spec["argv"])
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.dump()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # After main and the memory reading, so it changes neither.
    import calibrate
    kernel_s = calibrate.machine_seconds()
    Path(spec["result"]).write_text(json.dumps({
        "rc": rc,
        "pid": os.getpid(),
        "import_s": t_import - t0,
        "setup_s": t_setup - t0,
        "wall_s": t2 - t1,
        "peak_rss_mb": peak_rss_mb,
        "kernel_s": kernel_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
