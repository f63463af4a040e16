"""The defaulted parameters of the package's public functions and methods.

A parameter keeps a default only if a caller outside the tests sets it:
a wire param of a map family, a search parameter that the CLI or the bench
sets, a message a caller names, or the CLI entry point's argv.  One that only
tests set is a module constant instead.  DEFAULTED is the census; it fails
until a new default has its row, and until a removed one loses it.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import wignerlab

# "module.qualname" of a public function or method: its defaulted parameters
DEFAULTED = {
    "classify.classify": ("preimage_hint",),
    "cli.main": ("argv",),
    "maps.block_embed": ("threshold",),
    "maps.entrywise_abs": ("basis",),
    "maps.proper_subspace_map": ("alpha0",),
    "maps.wigner_map": ("antiunitary",),
    "verify.check_inclusion_lemma": ("n_samples", "seed"),
    "verify.check_injective": ("n_samples", "refine_steps", "seed"),
    "verify.check_isometry": ("n_samples", "refine_steps", "seed"),
    "verify.check_noncontractive": ("n_samples", "refine_steps", "seed"),
    "verify.check_nonexpansive": ("n_samples", "refine_steps", "seed"),
    "verify.check_orthogonality_preserving": ("n_samples", "seed"),
}


def _public_functions():
    """(module name, function) of every top-level function and method of a
    top-level class of wignerlab whose name has no leading underscore."""
    for info in pkgutil.iter_modules(wignerlab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"wignerlab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield info.name, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # staticmethod, classmethod
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield info.name, member


def test_the_census_of_defaulted_public_parameters():
    found = {
        (f"{module}.{fn.__qualname__}", param.name)
        for module, fn in _public_functions()
        for param in inspect.signature(fn).parameters.values()
        if param.default is not param.empty
    }
    expected = {(fn, param) for fn, params in DEFAULTED.items() for param in params}
    assert sorted(found) == sorted(expected)
    assert len(found) == 22
