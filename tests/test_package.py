"""The package surface that the README and the benchmark's tracer name."""

import importlib
import importlib.util
import re
from pathlib import Path

import swarmnet

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    # By path: the tracer lives outside the package and imports nothing
    # from swarmnet, so only this check ties its targets to the code.
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    missing = []
    for layer, attr in _load_tracer().TARGETS:
        owner = importlib.import_module(f"swarmnet.{layer}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"swarmnet.{layer}.{attr}")
    assert not missing, f"perfbench --trace 1 would fail on {missing}"


def test_exports_resolve():
    for name in swarmnet.__all__:
        assert hasattr(swarmnet, name), name


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "import swarmnet as sn" in code
    exec(compile(code, "README.md", "exec"), {})
    id_value, areas = capsys.readouterr().out.split(" ", 1)
    assert 0.0 <= float(id_value) < 1.0
    assert areas.startswith("(")
