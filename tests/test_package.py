"""Tests for the package surface: each public name is declared once, in its
module's __all__, and the package exports their union."""
import importlib
import pathlib

import cspursuit
from cspursuit.cli import build_parser

MODULES = ("errors", "core", "sparsity", "pursuit", "analysis", "mimo",
           "oracle", "experiments")


def _module_alls():
    return {name: importlib.import_module(f"cspursuit.{name}").__all__
            for name in MODULES}


def test_module_all_names_resolve_to_the_package_objects():
    for module_name, names in _module_alls().items():
        module = importlib.import_module(f"cspursuit.{module_name}")
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"
            assert getattr(cspursuit, name) is getattr(module, name)


def test_each_name_in_one_module_all():
    homes = {}
    for module_name, names in _module_alls().items():
        for name in names:
            homes.setdefault(name, []).append(module_name)
    assert {n: m for n, m in homes.items() if len(m) > 1} == {}


def test_package_all_is_the_union():
    alls = _module_alls()
    union = [name for module_name in MODULES for name in alls[module_name]]
    assert cspursuit.__all__ == ["__version__"] + union
    assert len(set(cspursuit.__all__)) == len(cspursuit.__all__)


def _names_sharing_an_object(named):
    groups = {}
    for name, obj in named:
        groups.setdefault(id(obj), []).append(name)
    return [names for names in groups.values() if len(names) > 1]


def test_no_second_names():
    # one name per object in the package, one name per subcommand
    assert _names_sharing_an_object(
        (name, getattr(cspursuit, name)) for name in cspursuit.__all__) == []
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert _names_sharing_an_object(sub.choices.items()) == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cspursuit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(cspursuit.__all__)


def test_simulation_api_imports_from_package():
    from cspursuit import run_frame_sequence, simulate_frames
    from cspursuit.mimo import run_frame_sequence as rf, simulate_frames as sf
    assert (simulate_frames, run_frame_sequence) == (sf, rf)


def test_explicit_reexports_still_import():
    from cspursuit.core import ChunkSupport
    from cspursuit.sparsity import ChunkSupport as from_sparsity
    assert from_sparsity is ChunkSupport


def test_no_value_is_built_unchecked():
    # every value type is built through its checked constructor
    src = pathlib.Path(cspursuit.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py"))
            if "object.__new__" in p.read_text()] == []
