"""tools/cli_digest.py hashes what the project's byte-identical claims compare."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
cli_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digest)

GROUPS = {"a": [["one"], ["two", "x"]], "b": [["three"]]}


def stub(changed=None):
    """A stand-in for ``hypervol.cli.main``: echoes its arguments on
    stdout and stderr, and prints one extra line for the ``changed`` one."""
    def main(argv):
        print(" ".join(argv))
        sys.stderr.write(f"err {len(argv)}\n")
        if argv == changed:
            print("differs")
        return len(argv)
    return main


def test_same_outputs_give_the_same_digests():
    first = cli_digest.digests(GROUPS, stub())
    assert first == cli_digest.digests(GROUPS, stub())
    assert list(first) == ["a", "b", "all"]
    assert len(set(first.values())) == 3


def test_a_changed_output_changes_its_group_and_the_total():
    base = cli_digest.digests(GROUPS, stub())
    other = cli_digest.digests(GROUPS, stub(changed=["two", "x"]))
    assert other["b"] == base["b"]
    assert other["a"] != base["a"] and other["all"] != base["all"]


def test_exit_code_and_stderr_count():
    def quiet(argv):
        return 0

    def loud(argv):
        sys.stderr.write("warning\n")
        return 0

    groups = {"a": [["one"]]}
    digest = cli_digest.digests(groups, quiet)["a"]
    assert cli_digest.digests(groups, loud)["a"] != digest
    assert cli_digest.digests(groups, lambda argv: 1)["a"] != digest


def test_commands_read_the_perfbench_inputs():
    groups = cli_digest.commands()
    assert list(groups) == ["sweep", "forms", "ideal", "check", "ratio", "ladder"]
    assert len(groups["forms"]) == 31 and len(groups["check"]) == 55
    assert groups["sweep"][0][:3] == ["sweep", "--n-list", "3,4,5"]
    assert len(groups["sweep"][0][4].split(",")) == 31
