"""Range checks on the CLI's count, stride and depth arguments.

A value below its floor is a usage error: argparse's exit 2 with the
flag named, before any run starts or any history file is touched.
The chapter-5 campaigns (``simulate``, ``compare``) need a deployer
and at least one attacher, so their floor is 2 users.
"""

import pytest

from repro.__main__ import main


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["simulate", "goerli", "0"], "argument users: must be at least 2, got 0"),
        (["simulate", "goerli", "1"], "argument users: must be at least 2, got 1"),
        (["simulate", "goerli", "-3"], "argument users: must be at least 2, got -3"),
        (["compare", "-2"], "argument users: must be at least 2, got -2"),
        (["compare", "1"], "argument users: must be at least 2, got 1"),
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
