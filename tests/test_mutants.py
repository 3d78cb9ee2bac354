"""The mutant list of tools/mutants.py still matches the source. The mutants
themselves run in their own CI job, since each takes a whole suite run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def test_every_mutated_text_occurs_once():
    spec = importlib.util.spec_from_file_location("mutants_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.misplaced(module.MUTANTS) == []
