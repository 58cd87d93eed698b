"""Every flag a subcommand accepts is read by it and changes what it does.

A flag that parses but is never consulted, or is consulted and then
thrown away, promises behaviour the command does not have.  Each case
below runs a command on a tiny instance twice, without and with one
flag, and checks that the command read the flag and that its output
(stdout, exit code, and the line count of every file it wrote) changed.
``INVARIANT`` lists the flags whose contract is the opposite: they must
be read, and must not change a byte (other tests pin that).
"""

import argparse
import contextlib
import io
import os

import pytest

from repro import cli

# command -> (base argv, [(context argv, flag argv), ...]).  The flag
# run is compared with the base + context run.
CASES = {
    "label": (
        ["label", "--size", "8", "--faults", "6", "--seed", "3"],
        [
            ([], ["--size", "9"]),
            ([], ["--faults", "7"]),
            ([], ["--seed", "4"]),
            ([], ["--definition", "2a"]),
            ([], ["--torus"]),
            ([], ["--clustered"]),
            ([], ["--backend", "distributed"]),
            ([], ["--verify"]),
            ([], ["--svg", "o.svg"]),
            ([], ["--no-art"]),
            (["--backend", "distributed"], ["--fault-schedule", "3:0,0"]),
            (["--backend", "distributed"], ["--drop-prob", "0.3"]),
            (["--backend", "distributed"], ["--dup-prob", "0.3"]),
            (
                ["--backend", "distributed", "--drop-prob", "0.3"],
                ["--channel-seed", "99"],
            ),
            ([], ["--trace-out", "t.jsonl"]),
            ([], ["--metrics-out", "m.json"]),
            ([], ["--spans-out", "s.json"]),
            ([], ["--stats-out", "st.json"]),
            (
                ["--backend", "distributed", "--trace-out", "t.jsonl"],
                ["--log-level", "debug"],
            ),
        ],
    ),
    "fig5": (
        ["fig5", "--size", "10", "--trials", "2", "--f-max", "10", "--f-step", "5"],
        [
            ([], ["--size", "11"]),
            ([], ["--trials", "3"]),
            ([], ["--seed", "1"]),
            ([], ["--definition", "2a"]),
            ([], ["--torus"]),
            ([], ["--f-max", "15"]),
            ([], ["--f-step", "10"]),
            ([], ["--jobs", "2"]),
        ],
    ),
    "route": (
        ["route", "--size", "10", "--faults", "12", "--seed", "0", "--pairs", "20"],
        [
            ([], ["--size", "11"]),
            ([], ["--faults", "9"]),
            ([], ["--seed", "2"]),
            ([], ["--definition", "2a"]),
            ([], ["--torus"]),
            ([], ["--clustered"]),
            ([], ["--pairs", "21"]),
        ],
    ),
    "density": (
        ["density", "--size", "8", "--trials", "1", "--densities", "0.1"],
        [
            ([], ["--size", "9"]),
            ([], ["--trials", "2"]),
            ([], ["--seed", "1"]),
            ([], ["--densities", "0.2"]),
        ],
    ),
    "partition": (
        ["partition", "--size", "10", "--faults", "5", "--seed", "1"],
        [
            ([], ["--size", "11"]),
            ([], ["--faults", "4"]),
            ([], ["--seed", "2"]),
            ([], ["--clustered"]),
        ],
    ),
}

#: Flags that must not change the output: the worker count of a
#: Figure-5 sweep.
INVARIANT = {("fig5", "--jobs")}


def _subparsers():
    parser = cli.build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


class _Recording(argparse.Namespace):
    """A namespace that notes every attribute the command looks up."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _run(argv):
    """Run one command; returns (reads, observed output)."""
    parsed = cli.build_parser().parse_args(argv)
    args = _Recording(**vars(parsed))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli._COMMANDS[parsed.command](args)
    files = {}
    for name in sorted(os.listdir(".")):
        with open(name, encoding="utf-8") as fh:
            files[name] = sum(1 for _ in fh)
        os.unlink(name)
    return args._reads, (rc, out.getvalue(), files)


def test_cases_cover_every_flag():
    parsers = _subparsers()
    for command, (_, variants) in CASES.items():
        accepted = {
            opt
            for action in parsers[command]._actions
            if action.option_strings and action.dest != "help"
            for opt in action.option_strings
            if opt.startswith("--")
        }
        listed = {flag[0] for _, flag in variants}
        assert listed == accepted, command


@pytest.mark.parametrize(
    "command,context,flag",
    [
        pytest.param(command, context, flag, id=f"{command} {flag[0]}")
        for command, (_, variants) in CASES.items()
        for context, flag in variants
    ],
)
def test_flag_is_read_and_acts(tmp_path, monkeypatch, command, context, flag):
    monkeypatch.chdir(tmp_path)
    base = CASES[command][0] + context
    _, before = _run(base)
    reads, after = _run(base + flag)
    assert flag[0][2:].replace("-", "_") in reads  # argparse's dest
    if (command, flag[0]) in INVARIANT:
        assert after == before
    else:
        assert after != before
