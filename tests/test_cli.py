"""Usage checks on the CLI's arguments, and the commands it offers.

A value below its floor, or a network no profile names, is a usage
error: argparse's exit 2 with the argument named, before any run
starts or any history file is touched.  A ``simulate`` campaign needs
a deployer and at least one attacher, so its floor is 2 users.
``analyze`` runs whole location groups of four: a remainder that could
never fill its contract is trimmed, and the point records the users
actually run.  ``postmortem`` refuses a file that is not a bundle with
exit 2 too, as ``bench`` does a history it cannot read or a run index
it does not hold: exit 1 is the perf gate's "regression found".  The
README lists exactly the commands the parser has.
"""

import json
import pathlib
import re

import pytest

from repro.__main__ import main

README = pathlib.Path(__file__).parents[1] / "README.md"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["simulate", "goerli", "0"], "argument users: must be at least 2, got 0"),
        (["simulate", "goerli", "1"], "argument users: must be at least 2, got 1"),
        (["simulate", "goerli", "-3"], "argument users: must be at least 2, got -3"),
        (["simulate", "nosuch", "4"], "argument network: invalid choice: 'nosuch'"),
        # The whole goerli campaign must not run before the bad name is seen.
        (["analyze", "--networks", "goerli", "nosuch"], "argument --networks: invalid choice: 'nosuch'"),
        (["analyze", "--users", "0"], "argument --users: must be at least 1, got 0"),
        (["analyze", "--users", "-5"], "argument --users: must be at least 1, got -5"),
        (["analyze", "--sample-every", "0"], "argument --sample-every: must be at least 1, got 0"),
        (["analyze", "--sample-every", "-1"], "argument --sample-every: must be at least 1, got -1"),
        (["analyze", "--batch-size", "1"], "argument --batch-size: must be at least 2, got 1"),
        (["analyze", "--batch-size", "-4"], "argument --batch-size: must be at least 2, got -4"),
    ],
)
def test_value_below_floor_is_a_usage_error(argv, message, tmp_path, capsys):
    bench = tmp_path / "bench.json"
    if argv[0] == "analyze":
        argv = argv + ["--bench", str(bench)]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not bench.exists()


def test_smallest_campaign_runs(capsys):
    assert main(["simulate", "eth-devnet", "2"]) == 0
    assert "eth-devnet: 2 users" in capsys.readouterr().out


def test_analyze_runs_whole_groups_and_records_them(tmp_path, capsys):
    # 6 users are one full location group of four plus a remainder that
    # could never fill its contract; both families run the whole group.
    bench = tmp_path / "bench.json"
    assert main(["analyze", "--users", "6", "--bench", str(bench)]) == 0
    assert capsys.readouterr().out.count("users=4: ") == 2
    families = json.loads(bench.read_text())["runs"][-1]["families"].values()
    points = [point for family in families for point in family["points"]]
    assert [(point["users"], point["validation_problems"]) for point in points] == [(4, []), (4, [])]


@pytest.mark.parametrize(
    "content",
    [None, "not json {", "[]", json.dumps({"version": 99})],
    ids=["missing", "not-json", "json-array", "wrong-version"],
)
def test_postmortem_refuses_what_is_not_a_bundle(content, tmp_path, capsys):
    path = tmp_path / "postmortem-001.json"
    if content is not None:
        path.write_text(content)
    assert main(["postmortem", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read bundle" in captured.err


def _two_run_history(path):
    from repro.obs.regress import append_run

    for sha in ("sha0", "sha1"):
        meta = {"git_sha": sha, "seed": 1, "users": [16], "networks": ["goerli"], "host": "h"}
        append_run(path, meta, {})
    return path


@pytest.mark.parametrize(
    "argv",
    [["--before", "7"], ["--after", "2"], ["--before", "-3"], ["--after", "-3"]],
    ids=["before-7", "after-2", "before-minus-3", "after-minus-3"],
)
def test_bench_diff_index_out_of_range_is_a_usage_error(argv, tmp_path, capsys):
    bench = _two_run_history(tmp_path / "bench.json")
    assert main(["bench", "diff", "--bench", str(bench)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[0]} {argv[1]} is out of range" in captured.err


def test_bench_diff_in_range_indices_still_compare(tmp_path, capsys):
    bench = _two_run_history(tmp_path / "bench.json")
    assert main(["bench", "diff", "--bench", str(bench), "--before", "0", "--after", "-1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("action", ["list", "diff"])
@pytest.mark.parametrize(
    "content", ["not json {", "[]", '"runs"'], ids=["not-json", "json-array", "json-string"]
)
def test_bench_refuses_what_is_not_a_history(action, content, tmp_path, capsys):
    bench = tmp_path / "bench.json"
    bench.write_text(content)
    assert main(["bench", action, "--bench", str(bench)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read bench history" in captured.err


def test_readme_lists_exactly_the_parsers_commands(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    # The usage line may wrap before the choices, never inside them.
    choices = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
    block = README.read_text().split("A CLI wraps the common flows:", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^python -m repro ([a-z-]+)", block, re.M)
    assert sorted(listed) == sorted(choices.split(","))
