"""API quality gates: documentation, export hygiene, dependencies.

Every public module, class, and function in the library must carry a
docstring, every name exported via ``__all__`` must resolve, every
paper artifact has one entry point (its registered ``Experiment``), and
the whole package must import on the standard library alone — the kind
of checks a release pipeline runs.
"""

import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.experiments
from repro.experiments.registry import builtin_registry


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(iter_modules())


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=lambda module: module.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module.__name__} lacks a module docstring"


def _documented_in_hierarchy(cls, method_name):
    """True if the method has a docstring anywhere in the MRO.

    Overrides of a documented base method inherit its contract (the same
    convention documentation generators follow).
    """
    for ancestor in cls.__mro__:
        method = vars(ancestor).get(method_name)
        if method is not None and getattr(method, "__doc__", None) \
                and method.__doc__.strip():
            return True
    return False


@pytest.mark.parametrize("module", ALL_MODULES,
                         ids=lambda module: module.__name__)
def test_public_members_documented(module):
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented at home
        if not (member.__doc__ and member.__doc__.strip()):
            undocumented.append(name)
            continue
        if inspect.isclass(member):
            for method_name, method in vars(member).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if not _documented_in_hierarchy(member, method_name):
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, \
        f"{module.__name__}: undocumented public API: {undocumented}"


@pytest.mark.parametrize("module", [m for m in ALL_MODULES
                                    if hasattr(m, "__all__")],
                         ids=lambda module: module.__name__)
def test_dunder_all_resolves(module):
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ has dead names: {missing}"


def test_experiment_modules_keep_no_module_level_twins():
    # The registered Experiment's params are the only defaults: a
    # module-level run()/check_shape() beside it could drift from them.
    registry = builtin_registry()
    twins = []
    for name in registry.names():
        module = sys.modules[type(registry.get(name)).__module__]
        twins += [f"{module.__name__}.{attr}"
                  for attr in ("run", "check_shape") if hasattr(module, attr)]
    assert not twins, f"module-level twins of registered experiments: {twins}"


def test_experiments_package_exports_no_runners():
    runners = sorted(name for name in vars(repro.experiments)
                     if name.startswith("run_"))
    assert not runners, f"repro.experiments re-exports runners: {runners}"


def test_telemetry_takes_only_the_options_a_caller_sets():
    # One bucket layout and fixed window/annotation bounds: the knobs no
    # caller set are module constants, not options.
    from repro.telemetry import (Histogram, MetricsRegistry, Telemetry,
                                 TelemetryConfig, TimeSeries)
    assert TelemetryConfig._fields == ("trace_sample", "window_ms",
                                       "tail_capacity")
    removed = {"buckets", "max_windows", "max_annotations", "tracing"}
    for target in (Histogram, MetricsRegistry.histogram, TimeSeries,
                   Telemetry):
        assert not removed & set(inspect.signature(target).parameters), \
            target


#: Refuses every import from outside the standard library, then imports
#: every module and builds the experiment registry.
_STDLIB_ONLY_PROBE = """
import importlib, pkgutil, sys

class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "repro" and top not in sys.stdlib_module_names:
            raise ImportError(f"third-party import: {name}")

sys.meta_path.insert(0, StdlibOnly())
import repro
for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    importlib.import_module(info.name)
from repro.experiments.registry import builtin_registry
assert builtin_registry().names()
"""


def test_package_runs_on_the_standard_library_alone():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = subprocess.run([sys.executable, "-c", _STDLIB_ONLY_PROBE],
                           env=env, capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
