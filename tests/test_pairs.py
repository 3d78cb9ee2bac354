"""tools/pairs.py turns every run that gives no usable result into its
Failed error, which main reports with exit 1, instead of a traceback."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
SPEC = importlib.util.spec_from_file_location("pairs_tool", TOOL)
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)


def _good():
    metrics = {name: {"value": 0.5, "unit": "s"} for name in pairs.BETTER}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


def _tree(tmp_path, last_line, code=0):
    """A tree whose perfbench/run.py prints one line, then last_line, and exits with code."""
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text(
        textwrap.dedent(
            f"""\
            import sys
            print("starting")
            print({last_line!r})
            sys.exit({code})
            """
        )
    )
    return tmp_path


def _without(key, *path):
    result = _good()
    inner = result
    for step in path:
        inner = inner[step]
    del inner[key]
    return json.dumps(result)


def test_a_correct_result_is_returned(tmp_path):
    assert pairs.run_once(_tree(tmp_path, json.dumps(_good())), "exact-scan", 0.1) == _good()


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        "[1]",
        "7",
        json.dumps({**_good(), "correct": False}),
        _without("wall_s", "metrics"),
        _without("value", "metrics", "cpu_s"),
        _without("unit", "metrics", "setup_s"),
        _without("failed"),
        _without("attempted"),
        json.dumps({**_good(), "metrics": []}),
        json.dumps({**_good(), "metrics": {"wall_s": {"value": "1", "unit": "s"}}}),
    ],
    ids=[
        "not-json", "list", "number", "incorrect", "no-metric", "no-value", "no-unit",
        "no-failed", "no-attempted", "metrics-list", "string-value",
    ],
)
def test_a_line_that_is_no_result_fails(tmp_path, line):
    with pytest.raises(pairs.Failed, match="exact-scan"):
        pairs.run_once(_tree(tmp_path, line), "exact-scan", 0.1)


def test_a_nonzero_exit_fails(tmp_path):
    with pytest.raises(pairs.Failed, match="exited 3"):
        pairs.run_once(_tree(tmp_path, json.dumps(_good()), code=3), "exact-scan", 0.1)
