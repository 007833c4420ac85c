"""Every module-level public function of ambrose is reached by a CLI scenario
or a benchmark workload operation, so that no dead API accumulates in src.

One process runs every scenario at one point, with its parameter variants,
and the orbit-match operation of perfbench/workloads.py under
sys.setprofile, which records each Python code object that is called. The
constants that are built once per process are built again inside that
window, so that their constructors count as reached only if a run reaches
them."""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import ambrose
from ambrose import chart_calculus, cli, lie_core
from test_benchmark_layers import layer_names
from test_total_space import count_calls

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# each run with its exit code
RUNS = [
    ("--scenario singer --fixture round_sphere2", 0),
    ("--scenario singer --fixture berger_sphere", 0),
    ("--scenario singer --fixture berger_sphere --param connection=metric", 0),
    ("--scenario singer --fixture hyperbolic_plane", 0),
    ("--scenario singer --fixture round_sphere3", 0),
    ("--scenario adapt --fixture berger_sphere", 0),
    ("--scenario check-lh-triple --fixture hopf_monopole --param perturb=bump", 1),
    ("--scenario check-lh-triple --fixture hopf_monopole --param perturb=parallel", 0),
    ("--scenario check-ls-triple --fixture hopf_monopole", 0),
    ("--scenario total-space --fixture hopf_monopole --param alpha=bump", 1),
    ("--scenario total-space --fixture hopf_monopole --param alpha=parallel", 0),
    ("--scenario total-space --fixture trivial_bundle_flat --param algebra=su(2)+u(1)", 0),
    ("--scenario identities --fixture berger_sphere", 0),
    ("--scenario identities --fixture flat_torus", 0),
    ("--scenario selftest", 0),
]

# functions that no run reaches, kept on purpose; the BENCHMARK.json
# per-layer callables are exempt as well
EXEMPT: dict[str, str] = {}


# the caches of the constants built once per process
CACHES = (cli.build_parser, lie_core.algebra_by_name, lie_core._so_frame_rep)


def public_functions() -> dict[str, object]:
    """Code object of each module-level public function, by module.name; of
    the function a cache or memo wraps, for a wrapped one."""
    out = {}
    for info in pkgutil.iter_modules(ambrose.__path__):
        mod = importlib.import_module(f"ambrose.{info.name}")
        for name, obj in vars(mod).items():
            fn = inspect.unwrap(obj)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                out[f"{info.name}.{name}"] = fn.__code__
    return out


def test_every_public_function_is_reached(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(record)
    try:
        for built_once in CACHES:
            built_once.cache_clear()
        for argv, _ in RUNS:
            codes.append(cli.main([*argv.split(), "--points", "1"]))
        workloads.WORKLOADS["orbit-match"].run(3)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in RUNS]
    functions = public_functions()
    assert len(EXEMPT) <= 4
    # an exemption that no longer names an unreached function is stale
    assert [name for name in EXEMPT if functions[name] in called] == []
    exempt = set(EXEMPT) | set(layer_names())
    assert sorted(name for name, code in functions.items()
                  if code not in called and name not in exempt) == []


def test_no_run_calls_fd_array(monkeypatch, capsys):
    """Every derivative a scenario takes comes from Taylor jets: no run
    differentiates by finite differences."""
    fd = count_calls(monkeypatch, chart_calculus.fd_array)
    codes = [cli.main([*argv.split(), "--points", "1"]) for argv, _ in RUNS]
    capsys.readouterr()
    assert codes == [code for _, code in RUNS]
    assert fd == []
