"""The README's examples are a contract: each `$ cosmetic ...` command
prints exactly the lines under it, and the "Library use" block runs as a
doctest."""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

import pytest

from cosmetic.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_BLOCK = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)


def _examples(text):
    # (argv, expected stdout) per "$ cosmetic" line of a plain block: the
    # lines up to the next "$ " line or the block's end, trailing blank
    # lines dropped.
    examples = []
    for language, body in _BLOCK.findall(text):
        if language:
            continue
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            if chunk.startswith("$ cosmetic "):
                command, _, output = chunk.partition("\n")
                examples.append((shlex.split(command)[2:],
                                 output.rstrip("\n") + "\n"))
    return examples


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def _library_failures(text):
    (body,) = [body for language, body in _BLOCK.findall(text)
               if language == "python"]
    test = doctest.DocTestParser().get_doctest(body, {}, "README", "README.md",
                                               0)
    runner = doctest.DocTestRunner()
    runner.run(test, out=lambda _: None)
    return runner.failures, len(test.examples)


EXAMPLES = _examples(README)


def test_the_readme_shows_every_command_family():
    commands = {argv[0] for argv, _ in EXAMPLES}
    assert commands == {"dedekind", "casson", "congruence", "homology",
                        "classify", "enumerate", "replicate-theorem",
                        "census"}
    assert len(README.splitlines()) <= 200


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_each_command_example_prints_its_shown_output(argv, expected):
    assert _stdout(argv) == expected


def test_the_library_block_runs_as_a_doctest():
    failures, examples = _library_failures(README)
    assert examples >= 8 and failures == 0


@pytest.mark.parametrize("old, new", [
    ("-1/14\n", "-1/15\n"),
    ("1 of 6 pairs survive.", "2 of 6 pairs survive."),
    ("_seifert,1,any,3,3,\n", "_seifert,1,any,3,3,\nreducible,2,1,1,2,\n"),
], ids=["dedekind", "enumerate-footer", "theorem-extra-row"])
def test_an_edited_example_fails(old, new):
    edited = README.replace(old, new, 1)
    assert edited != README
    failing = [argv for argv, expected in _examples(edited)
               if _stdout(argv) != expected]
    assert len(failing) == 1


def test_an_edited_library_example_fails():
    edited = README.replace("[(2, 3), (7, 8), (12, 13)]", "[(2, 3)]")
    assert edited != README
    assert _library_failures(edited)[0] == 1
