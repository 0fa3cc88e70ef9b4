"""The same-output script: a subset of its manifest against this tree, and
its diff."""

import subprocess
import sys
import time
from pathlib import Path

import sameoutput

SCRIPT = Path(sameoutput.__file__).resolve()


def test_the_tree_gives_the_same_output_as_itself():
    names = ["tiny 0", "tiny 7", "zero-capacity facility 0", "desk 7", "7x140"]
    started = time.perf_counter()
    done = subprocess.run([sys.executable, str(SCRIPT), "--against", str(SCRIPT.parents[1]),
                           "--only", *names], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "5 instances, every record identical\n"), \
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
