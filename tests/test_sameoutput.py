"""The same-output script: a subset of its manifest against this tree, its
records of a solve, a replay and a scenario-by-scenario replay, and its
diff."""

import subprocess
import sys
import time
from pathlib import Path

import sameoutput

SCRIPT = Path(sameoutput.__file__).resolve()


def test_the_tree_gives_the_same_output_as_itself():
    names = ["tiny 0", "tiny 7", "zero-capacity facility 0", "desk 7", "7x140",
             "replay 16385 seed 5", "outcomes tiny 13"]
    started = time.perf_counter()
    done = subprocess.run([sys.executable, str(SCRIPT), "--against", str(SCRIPT.parents[1]),
                           "--only", *names], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "7 records, every record identical\n"), \
        done.stderr
    assert time.perf_counter() - started < 5.0


def test_the_manifest_records_the_search_and_the_diff_names_what_moved():
    record = {"nodes": 152, "objective": "17558.455063465233", "transported": 3,
              "screened": 53}
    [(name, ours)] = sameoutput.manifest(["7x140"]).items()
    assert {key: ours[key] for key in record} == record
    assert '"seconds"' not in ours["solution"]
    moved = {name: {**ours, "nodes": 153, "solution": ours["solution"] + " "},
             "tiny 0": ours}
    assert sameoutput.diff(moved, {name: ours}) == [
        "7x140: solution; nodes: 152 -> 153", "tiny 0: missing"]


def test_the_replay_records_hold_csv_digests_and_one_outcome_digest_per_mode():
    records = sameoutput.manifest(["replay 1 seed 1", "replay 1 seed 5", "outcomes tiny 13"])
    one, five, outcomes = records.values()
    assert one["exit"] == five["exit"] == [0, 0]
    # the seed moves the draws, so both CSVs
    assert one["rho_csv"] != five["rho_csv"] and one["simulate_csv"] != five["simulate_csv"]
    assert sorted(outcomes) == ["per-scenario-reallocation", "reduced-consistent"]
    assert all(len(digest) == 64 for record in records.values()
               for key, digest in record.items() if key != "exit")
