"""The README states what the program does: its library quick start runs
as written and gives the numbers its comments state, and its command
synopsis, CSV headers, config example and ``iondec scales`` example are
the program's own."""
import argparse
import contextlib
import io
import re
from pathlib import Path

import pytest

from iondec import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")

# the small run of each subcommand whose header the README's table states
HEADER_RUNS = {name: [name, "--n-ions", "5"] for name in
               ("scales", "equilibrium", "continuum", "sums", "decohere", "scaling")}
HEADER_RUNS["adiabatic"] = ["adiabatic", "--theta-end", "10"]


def _blocks(language=""):
    """The fenced code blocks of the README in ``language``."""
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, re.S | re.M)
    return [body for lang, body in fences if lang == language]


def _synopsis():
    """subcommand -> {flag: shown value} from the README's synopsis block,
    whose lines start ``iondec <subcommand>`` and may continue indented."""
    block, = (b for b in _blocks() if b.startswith("iondec "))
    commands = {}
    for line in re.sub(r"\n\s+", " ", block).splitlines():
        name = line.split()[1]
        commands[name] = dict(re.findall(r"\[(--[\w-]+) ([^\]]+)\]", line))
    return commands


def _subparsers():
    parser = cli._build_parser()
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _shown_matches(action, shown):
    """Whether the README's value for a flag states its default: the
    metavar N or the choices for a flag that overrides the config, else
    the default, first among the choices where it has them."""
    if action.default is None:
        return shown == ("|".join(action.choices) if action.choices else "N")
    if action.choices:
        choices = shown.split("|")
        return choices[0] == action.default and sorted(choices) == sorted(action.choices)
    return action.type(shown) == action.default


def test_library_quick_start_runs_and_gives_its_stated_numbers():
    blocks = _blocks("python")
    assert len(blocks) == 1
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), scope)
    # "scales.d0 ~ 13.7 um" and "0.1 s", to the digits stated
    assert scope["scales"].d0 == pytest.approx(13.7e-6, abs=0.05e-6)
    assert scope["report"].t_d == pytest.approx(0.1, abs=0.005)
    assert out.getvalue().startswith(repr(scope["report"].t_d) + " ")


def test_synopsis_names_every_subcommand():
    assert sorted(_synopsis()) == sorted(_subparsers())


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_synopsis_states_each_flag_and_its_default(name):
    shown = _synopsis()[name]
    actions = {a.option_strings[-1]: a for a in _subparsers()[name]._actions
               if a.option_strings and a.dest not in ("help", "config", "out")}
    assert sorted(shown) == sorted(actions)
    for flag, action in actions.items():
        assert _shown_matches(action, shown[flag]), (flag, shown[flag], action.default)


def test_header_table_names_every_subcommand():
    rows = dict(re.findall(r"^\| `(\w+)` \|[^|]*\| `([^`]+)` \|$", TEXT, re.M))
    assert sorted(rows) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("name", sorted(HEADER_RUNS))
def test_stated_csv_header_is_the_one_printed(name, capsys):
    stated, = re.findall(rf"^\| `{name}` \|[^|]*\| `([^`]+)` \|$", TEXT, re.M)
    assert cli.main(HEADER_RUNS[name]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    assert stated == header


def test_config_example_is_the_preset():
    block, = _blocks("ini")
    assert block == cli.BA_EXAMPLE


def test_scales_example_is_what_the_command_prints(capsys):
    block, = (b for b in _blocks() if b.startswith("$ iondec scales\n"))
    assert cli.main(["scales"]) == 0
    assert block.removeprefix("$ iondec scales\n") == capsys.readouterr().out
