"""Every public function of the package, at module level or in a class
body (methods, properties, class methods), is one that a run executes,
or the allowlist names it with its reason.  The run is one profiled
`cheegerdef run` per catalogued scenario, in a fresh interpreter whose
profile is installed before `import cheegerdef`, so calls made while
the modules load count too.  Test oracles live in tests/oracles.py.
"""

import functools
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap

import pytest

import cheegerdef
from cheegerdef.scenarios import list_scenarios

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402

PACKAGE = os.path.dirname(os.path.abspath(cheegerdef.__file__))
MODULES = ("_kernels", "cheeger", "gmanifold", "lie_core", "scenarios",
           "tensor_calc", "verify", "cli", "config")
ALLOWED = {
    "_kernels.oracle_block": "the benchmark's warm-up calls it (perfbench/workloads.py)",
    "lie_core.list_groups": "the group tests run over the catalogue it lists",
    "cheeger.MetricVariant.reference_matrix": "the benchmark traces it "
                                              "(perfbench/layertrace.py)",
    "cheeger.MetricVariant.matrix": "the benchmark traces it (perfbench/layertrace.py)",
    "scenarios.Scenario.code": "the benchmark's warm-up passes it to the kernels "
                               "(perfbench/workloads.py)",
    "cheeger.MetricVariant.label": "only failure paths read it, to name the variant",
}

# prints the (file, first line, name) of every package function entered
SCRIPT = textwrap.dedent("""
    import json, os, sys

    called = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(sys.argv[1]):
            called.add((os.path.basename(code.co_filename), code.co_firstlineno,
                        code.co_name))

    sys.setprofile(profile)
    from cheegerdef import cli
    codes = [cli.main(["run", path]) for path in sys.argv[2:]]
    sys.setprofile(None)
    print(json.dumps({"codes": codes, "called": sorted(called)}))
""")


def _functions(attr):
    """The functions behind a class attribute: a plain function, the
    function of a static or class method, or a property's accessors."""
    if isinstance(attr, (staticmethod, classmethod)):
        attr = attr.__func__
    if isinstance(attr, property):
        return [f for f in (attr.fget, attr.fset, attr.fdel) if f is not None]
    if isinstance(attr, functools.cached_property):
        return [attr.func]
    return [attr] if inspect.isfunction(attr) else []


def public_functions(short):
    """(name, function) of each public function that a module defines,
    methods named Class.method."""
    mod = importlib.import_module(f"cheegerdef.{short}")
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if not attr.startswith("_"):
                    for fn in _functions(value):
                        yield f"{name}.{attr}", fn


def uncalled(called) -> set[str]:
    """The public functions and methods each module defines that no run
    entered."""
    out = set()
    for short in MODULES:
        for name, fn in public_functions(short):
            code = fn.__code__
            key = (os.path.basename(code.co_filename), code.co_firstlineno, code.co_name)
            if key not in called:
                out.add(f"{short}.{name}")
    return out


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    """Functions entered by runs of every scenario at the benchmark's
    default_suite sizes, with a list key (the l grid) parsed too."""
    tmp = tmp_path_factory.mktemp("reach")
    paths = []
    for sid in list_scenarios():
        path = tmp / f"{sid}.cfg"
        path.write_text(workloads.config_text(workloads.WORKLOADS["default_suite"], sid, 42,
                                              str(tmp)) + "l_grid = 0.2 0.1 0.05 0.025\n",
                        encoding="utf-8")
        paths.append(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(PACKAGE), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, PACKAGE, *paths], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0] * len(paths)
    return {tuple(k) for k in out["called"]}


def test_every_public_function_is_called_by_a_run(called):
    missing = uncalled(called) - set(ALLOWED)
    assert not missing, f"public functions no run calls: {sorted(missing)}"


def test_allowlist_names_only_uncalled_functions(called):
    stale = set(ALLOWED) - uncalled(called)
    assert not stale, f"allowlist entries that a run calls or that are gone: {sorted(stale)}"


def test_planted_public_function_fails_the_guard(called, monkeypatch):
    # negative control: a public function that nothing calls
    from cheegerdef import verify

    def unreached_helper():
        return None

    unreached_helper.__module__ = verify.__name__
    monkeypatch.setattr(verify, "unreached_helper", unreached_helper, raising=False)
    assert uncalled(called) - set(ALLOWED) == {"verify.unreached_helper"}


def test_planted_method_fails_the_guard(called, monkeypatch):
    # negative control: a public method that nothing calls
    from cheegerdef.tensor_calc import SamplePlan

    def unreached_method(self):
        return None

    monkeypatch.setattr(SamplePlan, "unreached_method", unreached_method, raising=False)
    assert uncalled(called) - set(ALLOWED) == {"tensor_calc.SamplePlan.unreached_method"}
