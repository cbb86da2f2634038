"""Every function the package ships is reached by a command, or is named
by the benchmark in ``perfbench/``.

One subprocess installs ``sys.setprofile`` before it imports the package,
so that import-time calls and the first call of a cached function count,
and then runs every command family through ``cli.main``, plus
``python -m okubo_e8.checks``.  The code objects it saw are compared with
every ``def`` an ``ast`` walk finds in ``src/okubo_e8``: a ``def`` is
known by its file and its line, which for a decorated function is the
line of its first decorator (as ``co_firstlineno`` reports it).  Special
methods (``__x__``) are exempt.  A function that only a test calls
belongs in that test.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from okubo_e8.lattice import lattice_to_fixture
from okubo_e8.orders import conductor_lattice, dump_structure_constants, structure_constants

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "okubo_e8"
PERFBENCH_DIR = ROOT / "perfbench"

#: functions and classes no command reaches that the benchmark names:
#: (module file, qualified name) -> why it stays
PERFBENCH_EXEMPT = {
    ("lattice.py", "hnf_snf"): "a span of perfbench/tracer.py",
    ("exact.py", "ComplexQuad"):
        "perfbench/micro.py times its multiply, perfbench/tracer.py counts it",
    ("okubomatrix.py", "HermTraceless3.rows"):
        "perfbench/micro.py reads the ComplexQuad entries it multiplies",
    ("exact.py", "QuadExt.rat"): "perfbench/micro.py reads the parts it checks",
    ("orders.py", "dump_structure_constants"): "perfbench/fixtures.py writes dumps",
    ("lattice.py", "lattice_to_fixture"): "perfbench/fixtures.py writes fixtures",
}

#: the profiled run: argv lists for ``cli.main`` with their exit codes;
#: {name} stands for the path of an input file written beforehand
COMMANDS = [
    (["verify", "all", "--format", "json"], 0),
    (["verify", "para-closure", "--constants", "{para}"], 0),
    (["verify", "para-closure", "--constants", "{para_bad}"], 1),
    (["verify", "okubo-obstruction"], 0),
    (["verify", "okubo-obstruction", "--constants", "{okubo}"], 0),
    (["lattice", "invariants", "--fixture", "{fixture}"], 0),
    (["lattice", "invariants", "--fixture", "{fixture_bad}"], 2),
    (["verify", "shells", "--max", "5"], 0),
    (["verify", "catalog", "--name", "hurwitz"], 0),
    (["verify", "all", "--max", "3"], 2),
]

#: runs in the subprocess with argv [package_dir, commands_json]
DRIVER = r"""
import contextlib, io, json, runpy, sys

package_dir, commands = sys.argv[1], json.loads(sys.argv[2])
codes = {}

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in codes:
            codes[id(code)] = code

sys.setprofile(profile)
from okubo_e8 import cli

exits = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        exits.append(cli.main(argv))
with contextlib.redirect_stdout(io.StringIO()):
    runpy.run_module("okubo_e8.checks", run_name="__main__")
sys.setprofile(None)

reached = sorted({(code.co_filename[len(package_dir) + 1:], code.co_firstlineno)
                  for code in codes.values()
                  if code.co_filename.startswith(package_dir + "/")})
print(json.dumps({"exits": exits, "reached": reached}))
"""


def shipped_defs(sources: dict[str, str]) -> dict[tuple[str, int], str]:
    """(file, line) -> qualified name of every ``def`` in ``sources``
    (file name -> text) whose name is not a special method; the line is
    that of the first decorator, if there is one."""
    out = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not re.fullmatch(r"__\w+__", child.name):
                    line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out[(file, line)] = name
                walk(child, file, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, prefix + child.name + ".")
            else:
                walk(child, file, prefix)

    for file, text in sources.items():
        walk(ast.parse(text, filename=file), file, "")
    return out


def unreached(defs: dict[tuple[str, int], str], reached) -> dict[tuple[str, int], str]:
    """The entries of ``defs`` whose (file, line) is not in ``reached``."""
    seen = {tuple(pair) for pair in reached}
    return {key: name for key, name in defs.items() if key not in seen}


def exempted(file: str, name: str) -> bool:
    """Whether the table exempts the function ``name`` of ``file``: the
    table names it, or a class or function that encloses it."""
    parts = name.split(".")
    return any((file, ".".join(parts[:k])) in PERFBENCH_EXEMPT
               for k in range(1, len(parts) + 1))


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """The exit codes and the reached (file, line) pairs of one run of
    COMMANDS under the profiler; the inputs are written first."""
    tmp = tmp_path_factory.mktemp("reach")
    para = dump_structure_constants(structure_constants("para"))
    lines = para.splitlines()
    lines[0] = "0 0 0 1/2 0/1"  # a half coefficient: para-closure fails
    fixture = lattice_to_fixture(conductor_lattice())
    inputs = {
        "para": para,
        "para_bad": "\n".join(lines) + "\n",
        "okubo": dump_structure_constants(structure_constants("okubo")),
        "fixture": fixture,
        "fixture_bad": fixture.replace('"gram"', '"grams"', 1),
    }
    paths = {}
    for key, text in inputs.items():
        paths[key] = tmp / key
        paths[key].write_text(text)
    commands = [[arg.format(**paths) for arg in argv] for argv, _ in COMMANDS]
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(PACKAGE_DIR), json.dumps(commands)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def defs():
    return shipped_defs({p.name: p.read_text() for p in sorted(PACKAGE_DIR.glob("*.py"))})


def test_commands_end_as_intended(profiled):
    assert profiled["exits"] == [code for _, code in COMMANDS]


def test_every_shipped_function_is_reached(profiled, defs):
    left = sorted(f"{file}:{line} {name}"
                  for (file, line), name in unreached(defs, profiled["reached"]).items()
                  if not exempted(file, name))
    assert not left, "no command reaches " + ", ".join(left)


@pytest.mark.parametrize("entry", sorted(PERFBENCH_EXEMPT), ids="{0[0]}:{0[1]}".format)
def test_exemption_is_current(profiled, defs, entry):
    """An entry names a function or class that exists, of which something
    is still unreached, and which the text of a perfbench file names."""
    file, name = entry
    names = set(defs.values()) | {n.rsplit(".", 1)[0] for n in defs.values()}
    assert name in names, f"{file} defines no {name}"
    left = unreached(defs, profiled["reached"])
    assert any(f == file and (n == name or n.startswith(name + "."))
               for (f, _), n in left.items()), f"{name} is reached: drop its exemption"
    word = re.compile(rf"\b{re.escape(name.rsplit('.', 1)[-1])}\b")
    assert any(word.search(p.read_text()) for p in PERFBENCH_DIR.glob("*.py")), \
        f"no perfbench file names {name}"


def test_checker_sees_an_unreached_def():
    """A synthetic module run under the same kind of profiler: the decorated
    function it calls counts as reached, the property it never reads does
    not."""
    source = ("import functools\n"
              "def used():\n    return 1\n"
              "@functools.lru_cache\n"
              "def cached():\n    return 2\n"
              "class K:\n"
              "    def __init__(self):\n        pass\n"
              "    @property\n"
              "    def dead(self):\n        return 3\n")
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == "m.py":
            reached.add(("m.py", frame.f_code.co_firstlineno))

    namespace = {}
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exec(compile(source, "m.py", "exec"), namespace)
        namespace["used"](), namespace["cached"](), namespace["K"]()
    finally:
        sys.setprofile(previous)
    found = shipped_defs({"m.py": source})
    assert found == {("m.py", 2): "used", ("m.py", 4): "cached", ("m.py", 10): "K.dead"}
    assert unreached(found, reached) == {("m.py", 10): "K.dead"}
    assert exempted("exact.py", "ComplexQuad.norm")
    assert not exempted("exact.py", "QuadExt.norm")
