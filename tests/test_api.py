import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import traceinv
from traceinv import sampling

# search_f0 and decide_factorization accept workers for callers and ignore it;
# the three sampling functions and their loop contract blocks on that many threads
TAKE_WORKERS = {
    "traceinv.search.search_f0",
    "traceinv.moments.decide_factorization",
    "traceinv.sampling.mc_moment",
    "traceinv.sampling.concentration_experiment",
    "traceinv.sampling.entropy_slope_experiment",
    "traceinv.sampling._trace_blocks",
    "traceinv.sampling._read_run",
}
# (callable, keyword): options fixed at their one value in use, so no longer parameters
FIXED_OPTIONS = [
    ("traceinv.search.search_f0", "max_optima"),
    ("traceinv.search.search_f0_connected", "max_optima"),
    ("traceinv.search.search_f0_connected", "prune"),
    ("traceinv.search.cayley_delta", "f0_max"),
    ("traceinv.moments.cumulant_consistency", "pmax"),
    ("traceinv.moments.factorization_verdict", "pmax"),
]
# the per-sample API: every sampled question goes through mc_moment or an experiment
REMOVED = [
    "DenseTensor", "sample_tensor", "evaluate_trace", "renyi_entropy", "regularized_entropy", "sphere_min_sample",
    # the process-wide contraction pools: each Monte Carlo call opens and shuts its own
    "_pool", "_POOLS",
]


def _defined_callables():
    """(qualified name, callable) of every function, class and method defined in traceinv."""
    for info in pkgutil.iter_modules(traceinv.__path__):
        module = importlib.import_module(f"traceinv.{info.name}")
        for name, obj in vars(module).items():
            if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):  # callables without a signature
        return {}


def test_every_export_is_checked():
    # getattr over dir, not vars: the sampling names are loaded on first access
    exported = {getattr(traceinv, name) for name in dir(traceinv) if not name.startswith("_")}
    assert {obj for obj in exported if callable(obj)} <= {obj for _, obj in _defined_callables()}


def test_only_the_kept_keywords_take_workers():
    takers = {name for name, obj in _defined_callables() if "workers" in _parameters(obj)}
    assert takers == TAKE_WORKERS


def test_fixed_options_are_not_parameters():
    params = {name: _parameters(obj) for name, obj in _defined_callables()}
    assert [(name, kw) for name, kw in FIXED_OPTIONS if kw in params[name]] == []


def test_removed_names_stay_removed():
    assert [name for name in REMOVED if hasattr(traceinv, name) or hasattr(sampling, name)] == []


# a fresh process that builds graphs, then prints the modules that importing
# and building added (site may have loaded some before) and checks the exact
# layer's lazy names; then, through the command line, it generates one graph
# and refuses a malformed file, prints the modules loaded after that (the
# command line's records are plain classes too, so no dataclasses, inspect or
# typing) and checks the sampling names
_NO_SAMPLING = """
import json, os, sys, tempfile
before = set(sys.modules)
import traceinv
graphs = [traceinv.random_graph(3, 4, seed=1), traceinv.cyclic(3, {0}, 2), traceinv.melonic(3, [(0, 0)])]
json.dumps(traceinv.family_of(graphs).to_json_dict())
json.dumps(traceinv.families.generate_from_spec({"kind": "fig7"}).to_json_dict())
added = sys.modules.keys() - before
built = [name for name in ("numpy", "dataclasses", "inspect", "typing", "traceinv.search", "traceinv.moments",
                           "traceinv.sampling") if name in added]
listed = set(traceinv._LAZY) <= set(dir(traceinv))
from traceinv import gaussian_moment
print(json.dumps([built, listed, traceinv.search_f0 is traceinv.search.search_f0,
                  gaussian_moment is traceinv.moments.gaussian_moment]))
from traceinv import cli
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "out.json")
    assert cli.main(["generate", "cyclic", "--D", "3", "--M", "1", "--k", "2", "--out", out]) == 0
    bad = os.path.join(tmp, "bad.json")
    with open(bad, "w") as fh:
        fh.write('{"D": 3, "sigma": [[1, 2]]}')
    assert cli.main(["analyze", bad]) == 2
loaded = [name for name in ("numpy", "scipy", "traceinv.sampling") if name in sys.modules]
loaded += [name for name in ("dataclasses", "inspect", "typing") if name in sys.modules.keys() - before]
print(json.dumps([loaded, traceinv.mc_moment is traceinv.sampling.mc_moment, hasattr(traceinv, "sample_tensor")]))
"""


def _run_fresh(code):
    """code's stdout, run in a fresh interpreter that imports this checkout's traceinv."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(traceinv.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_building_and_generating_load_neither_numpy_nor_sampling():
    lines = _run_fresh(_NO_SAMPLING).splitlines()
    assert json.loads(lines[0]) == [[], True, True, True]
    assert json.loads(lines[-1]) == [[], True, False]


_MATRIX_FORM = """
import json, sys
import traceinv
print(json.dumps([traceinv.graphs.matrix_form(traceinv.cyclic(3, {0}, 2)), "numpy" in sys.modules]))
"""


def test_matrix_form_loads_no_numpy():
    assert json.loads(_run_fresh(_MATRIX_FORM)) == [[1, [2]], False]


# the annealed command reads its coefficients from moments, next to the
# limit moments, and never imports the sampler
_ANNEALED = """
import contextlib, io, json, sys
from traceinv import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["annealed", "--regime", "gamma", "--mu", "1", "--lambda", "2", "--D", "3", "--k", "2"])
print(json.dumps([code, "traceinv.sampling" in sys.modules]))
"""


def test_annealed_loads_no_sampling():
    assert json.loads(_run_fresh(_ANNEALED)) == [0, False]
    assert traceinv.annealed_coefficients is traceinv.moments.annealed_coefficients


def test_readme_library_example_runs():
    # nothing else runs it, so a renamed keyword in it would pass unseen
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")) as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    _run_fresh(section.split("```python\n", 1)[1].split("```", 1)[0])
