"""The mutant catalogue stays in step with the source it plants faults in."""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def test_names_are_unique():
    names = [mutant["name"] for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant["name"] for mutant in MUTANTS])
def test_each_mutant_text_occurs_once_and_its_killers_exist(mutant):
    # the runner replaces the text once; if the code it names moves or goes,
    # this fails rather than the catalogue silently planting nothing
    source = (ROOT / "src" / "degtree" / mutant["file"]).read_text()
    assert source.count(mutant["text"]) == 1, mutant["text"]
    assert mutant["replacement"] != mutant["text"]
    assert mutant["killers"]
    for killer in mutant["killers"]:
        path, *scopes = killer.split("::")
        test = (ROOT / path).read_text()
        for scope in scopes:
            name = scope.split("[")[0]
            assert f"class {name}:" in test or f"def {name}(" in test, killer
