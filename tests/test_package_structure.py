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

Each process also pays for the standard-library modules the package pulls
in.  Its value records are plain classes on _record.Record, not dataclasses:
importing dataclasses loads inspect, ast, dis, tokenize and more, and each
@dataclass compiles its generated methods.  Dropping them took an import of
gradedsupport.cli from 36 to 25 new modules, 25 to 10 ms with bytecode
cached, and 1.1 MB off the importing process's peak RSS (0.7 to 1.0 MB off
each benchmark worker's); a fresh interpreter checks that none of those
five modules comes back.

A public function or method that is not exported and that nothing in the
package or bench/ refers to serves only the tests; an AST scan finds such
definitions, and a short list with one reason each keeps the rest.
"""

import ast
import importlib
import importlib.util
import pathlib
import subprocess
import sys
import tokenize

import pytest

import gradedsupport

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the directory that holds the package under test
PACKAGE_ROOT = pathlib.Path(gradedsupport.__file__).resolve().parent.parent
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


# heavy standard-library modules that importing the package must not load
NOT_IMPORTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_package_and_cli_loads_no_heavy_stdlib_module():
    # -S: no site hooks, so only the package's own imports count
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE_ROOT)!r}); "
            "import gradedsupport, gradedsupport.cli; "
            f"print(sorted(set({NOT_IMPORTED!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


# Public definitions that no caller outside tests/ needs, kept on purpose.
TEST_ONLY_KEPT = {
    "exactlin.RationalField.sub": "the two fields share one interface",
    "exactlin.PrimeField.sub": "the two fields share one interface",
    "exactlin.Matrix.identity": "a constructor next to Matrix.zero",
    "regrade_maps.WindowedMap.identity":
        "a constructor next to WindowedMap.from_function",
}


def public_definitions():
    """(name, is_method) of every public module-level function and method
    in the package, as 'module.function' or 'module.Class.method'."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                found = [(node.name, False)]
            elif isinstance(node, ast.ClassDef):
                found = [(f"{node.name}.{item.name}", True)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for name, is_method in found:
                if not name.rpartition(".")[2].startswith("_"):
                    yield f"{path.stem}.{name}", is_method


def references():
    """The names read in the package and in bench/, and the attribute
    names, the last dotted part of a string (bench/tracing.py binds its
    functions by name) counted as an attribute."""
    names, attrs = set(), set()
    for path in SOURCES + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                attrs.add(node.value.rpartition(".")[2])
    return names, attrs


def test_every_public_definition_has_a_caller_outside_the_tests():
    # a method is called as an attribute; a function by its name too
    names, attrs = references()
    definitions = dict(public_definitions())
    assert set(TEST_ONLY_KEPT) <= set(definitions)
    unused = []
    for qualified, is_method in definitions.items():
        name = qualified.rpartition(".")[2]
        if qualified in TEST_ONLY_KEPT:
            continue
        if not is_method and hasattr(gradedsupport, name):
            continue  # exported
        if name not in attrs and (is_method or name not in names):
            unused.append(qualified)
    assert not unused, f"no caller outside tests/: {', '.join(unused)}"
