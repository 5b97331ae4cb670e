"""Near-exact representations for parametric preference models.

Measures how far a model's observed choices sit from the exact axioms
(mixture linearity, independence, additivity across states, homogeneity,
stationarity) and builds the benchmark representation each theorem
promises, verifying the advertised closeness bound on a sampled grid.

The exports resolve lazily (PEP 562): a name loads only the modules up to
the one that defines it, so the numpy-free ones (core, timepref) stay light.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("core", "timepref", "risk", "uncertainty")  # numpy-free first


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        return [n for m in _MODULES for n in __getattr__(m).__all__]
    if not name.startswith("__"):
        for m in _MODULES:
            mod = __getattr__(m)
            if name in mod.__all__:
                return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
