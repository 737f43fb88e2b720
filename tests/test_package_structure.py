"""How the package's source is laid out: module sizes and the names the
benchmark's tracer binds.

Each process that imports the package with no bytecode cache compiles every
module, and CPython 3.11's parser doubles its token array past 8,192 tokens.
graded_core at 9,350 tokens compiled at a 3.68 MB peak (tracemalloc), and at
1.80 MB with 4,599 once its data model and its regrading moved out to
graded_objects and regrading; that peak sets part of each benchmark
process's peak RSS.  bench/tracing.py wraps the functions it lists under
each layer wherever the package binds them, and refuses to start when one
is not found in its layer's module, so moving a function out of a module
breaks `bench/run.py --trace 1` unless the old module still binds it.
"""

import importlib
import importlib.util
import pathlib
import tokenize

import pytest

import gradedsupport

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(pathlib.Path(gradedsupport.__file__).parent.glob("*.py"))

# CPython 3.11's parser step: the token array doubles past this many tokens
TOKEN_STEP = 8192


def source_tokens(path):
    """The tokens of a source file, comments and non-logical newlines
    excluded."""
    with open(path, "rb") as f:
        return sum(1 for tok in tokenize.tokenize(f.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


def tracer_module():
    """bench/tracing.py, loaded from its file under a private name."""
    spec = importlib.util.spec_from_file_location(
        "_bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "graded_core.py",
                                         "graded_objects.py", "regrading.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_stays_under_the_parser_step(path):
    assert source_tokens(path) < TOKEN_STEP


def test_every_traced_function_resolves_in_its_layer():
    tracing = tracer_module()
    for layer, funcs in tracing.LAYERS.items():
        home = importlib.import_module(f"gradedsupport.{layer}")
        for func in funcs:
            owner, _, name = func.rpartition(".")
            if owner:  # a classmethod, read from the class's own dict
                assert isinstance(vars(getattr(home, owner)).get(name),
                                  classmethod), f"{layer}.{func}"
            else:
                assert callable(getattr(home, name, None)), f"{layer}.{func}"
    # the tracer's own lookup finds a binding for every listed function
    bindings = tracing.Tracer()._bind()
    bound = {(getattr(owner, "__name__", None), attr)
             for owner, attr, _, _ in bindings}
    for layer, funcs in tracing.LAYERS.items():
        for func in funcs:
            if "." not in func:
                assert (f"gradedsupport.{layer}", func) in bound
