import functools
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_benchmark_tracer_targets_resolve():
    # the benchmark times these names from outside the package; a rename or
    # removal in dropfresh would otherwise break it without failing a test here
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, names in tracer.TARGETS.items():
        module = importlib.import_module(f"dropfresh.{module_name}")
        for name in names:
            target = functools.reduce(getattr, name.split("."), module)
            assert callable(target), f"dropfresh.{module_name}.{name}"
