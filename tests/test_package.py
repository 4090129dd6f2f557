"""What the package loads: the CLI imports only the modules a verb calls,
and the package surface resolves its names on first use."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import motzkinrow

# run one CLI call in a fresh interpreter; its loaded modules go to stderr
_CALL = ("import sys\n"
         "from motzkinrow.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(*sorted(sys.modules), sep='\\n', file=sys.stderr)\n"
         "sys.exit(code)\n")


def loaded_modules(*argv):
    proc = subprocess.run([sys.executable, "-c", _CALL, *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


# every verb reads words or counts them
_BASE = {"motzkinrow", *(f"motzkinrow.{m}" for m in (
    "cli", "config", "errors", "bigcomb", "word"))}


@pytest.mark.parametrize("argv, added", [
    (("rank", "()"), ("rowindex",)),
    (("merge", "(0)()()", "2"), ("nav", "rowindex")),
    (("add", "()0000(0)", "(0)0000"), ("blockops", "rowindex")),
    (("audit", "paper_examples"), ("nav", "blockops", "verify", "rowindex")),
    (("seq", "motzkin", "5"), ("nav",)),
    (("control-points", "5"), ("nav",)),
])
def test_a_verb_loads_only_the_modules_it_calls(argv, added):
    modules = loaded_modules(*argv)
    assert {m for m in modules if m.split(".")[0] == "motzkinrow"} == (
        _BASE | {f"motzkinrow.{m}" for m in added})
    assert not {"dataclasses", "inspect"} & modules


def test_addendum_loads_only_the_word_layer():
    modules = loaded_modules("addendum", "--max-range", "3")
    assert {m for m in modules if m.split(".")[0] == "motzkinrow"} == {
        "motzkinrow", *(f"motzkinrow.{m}" for m in (
            "cli", "config", "errors", "word"))}


def test_the_oracle_loads_no_counting_table_rank_move_or_audit():
    # the enumerator is ground truth for rank and the nav moves only while
    # it shares no code with them
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from motzkinrow import enumerate_range, regenerate_addendum\n"
         "assert len(enumerate_range(10)) == 1353\n"
         "regenerate_addendum(5)\n"
         "print(*sorted(sys.modules), sep='\\n')\n"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split())
    assert "motzkinrow.word" in modules
    assert not {f"motzkinrow.{m}" for m in (
        "bigcomb", "rowindex", "nav", "blockops", "verify")} & modules


def test_only_bigcomb_reads_the_counting_table():
    # the table's layout and growth rule are private to one module, so a
    # change to how it counts (a cap, a walk past a depth) is made there
    table = re.compile(r"\bcompletion_columns\b|\b_columns\b")
    readers = [path.name for path in
               sorted(Path(motzkinrow.__file__).parent.glob("*.py"))
               if table.search(path.read_text())]
    assert readers == ["bigcomb.py"]


def test_star_import_binds_exactly_all():
    names = {}
    exec("from motzkinrow import *", names)
    del names["__builtins__"]
    assert sorted(names) == motzkinrow.__all__
    assert set(dir(motzkinrow)) >= set(motzkinrow.__all__)


def test_submodules_resolve_as_attributes():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import motzkinrow\n"
         "print(motzkinrow.verify.__name__)\n"
         "from motzkinrow import config\n"
         "print(config.__name__)\n"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["motzkinrow.verify", "motzkinrow.config"]


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        motzkinrow.nosuch
    assert not hasattr(motzkinrow, "__wrapped__")
