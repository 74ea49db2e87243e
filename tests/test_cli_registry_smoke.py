"""CLI smoke: every registered experiment runs at the ``fast`` fidelity
profile through its auto-generated subcommand, and the emitted JSON
round-trips through ``report.read_json`` with the provenance block intact.

The experiments share the registry's process-wide suite-context cache,
so the parametrized sweep builds models/programs once.
"""

import pytest

from repro import cli
from repro.experiments import report
from repro.experiments.registry import REGISTRY, load_all
from repro.experiments.results import ExperimentResult

ALL_EXPERIMENTS = sorted(load_all().names())


def test_every_harness_is_registered():
    figures = {f"fig{n:02d}" for n in (3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17)}
    racks = {"fig13-sweep", "fig15-rack", "fig16-rack", "fig17-rack"}
    tables = {"table1", "table2"}
    assert figures | racks | tables | {"dse"} <= set(ALL_EXPERIMENTS)


def test_list_shows_every_experiment(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_EXPERIMENTS:
        assert name in out


@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_fast_profile_runs_and_round_trips(name, tmp_path, capsys):
    target = tmp_path / f"{name}.json"
    assert cli.main(["run", name, "--fast", "--json", str(target)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {target}" in out

    table = report.read_json(target)
    assert isinstance(table, report.ResultTable)
    assert len(table) >= 1
    assert table.experiment == name

    provenance = table.provenance
    assert provenance["profile"] == "fast"
    assert provenance["wall_time_s"] >= 0
    assert provenance["git"]
    assert provenance["python"]

    # Lossless round-trip: re-serialising the parsed document reproduces
    # the original provenance block byte for byte.
    result = ExperimentResult.read_json(target)
    again = result.write_json(tmp_path / f"{name}.again.json")
    retable = report.read_json(again)
    assert retable == table
    assert retable.provenance == provenance
    assert retable.params == table.params


def test_rejected_flag_combination_is_a_usage_error(capsys):
    """A ``ConfigurationError`` from the run (here: a chunk size the
    default engine cannot use) exits 2 with a one-line error, not a
    traceback."""
    assert cli.main(["run", "fig13", "--fast", "--chunk-requests", "100"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("repro fig13: error:")
    assert "chunk_requests" in lines[0]
    assert captured.out == ""
