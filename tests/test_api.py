import importlib
import inspect
import pkgutil

import traceinv

# the two public keywords kept for callers; both are accepted and ignored
TAKE_WORKERS = {"traceinv.search.search_f0", "traceinv.moments.decide_factorization"}


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


def _takes_workers(obj) -> bool:
    try:
        return "workers" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # callables without a signature
        return False


def test_every_export_is_checked():
    exported = {obj for name, obj in vars(traceinv).items() if not name.startswith("_") and callable(obj)}
    assert exported <= {obj for _, obj in _defined_callables()}


def test_only_the_kept_keywords_take_workers():
    takers = {name for name, obj in _defined_callables() if _takes_workers(obj)}
    assert takers == TAKE_WORKERS
