"""Plant each mutant of ``tests/mutants.py`` in a copy of the package and
report which tests kill it.

For each mutant this copies ``src/``, ``tests/`` and ``pyproject.toml``
(pytest's settings) to a temporary directory, replaces the mutant's text
once, and runs there, against the mutated copy:

1. the tests the catalogue expects to kill it;
2. tier-1 without the golden-file and md5-pin tests, which kill nearly
   every mutant that changes output and so hide which other tests see it.

It prints each run's failed tests, and exits 1 if any mutant survived
its expected tests.  Usage, from the repository root::

    python tools/mutants.py                      # every mutant
    python tools/mutants.py sattolo_bounds       # one or more by name
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# tests left out of the second run: goldens and md5 pins (test_mutants.py,
# which checks the catalogue against the unmutated source, is left out too)
UNPINNED = "not golden and not pinned_output_md5"


def catalogue() -> list[dict]:
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def failed_tests(copy: Path, args: list[str]) -> list[str]:
    # The node ids of the tests that failed or erred, run in copy with its
    # src first on the path.  A run that pytest could not carry out (a test
    # id not found, say) kills nothing; it is reported.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    lines = result.stdout.splitlines()
    if result.returncode not in (0, 1):
        print(f"  pytest {' '.join(args)} exited {result.returncode}: {(lines or [result.stderr])[-1]}")
        return []
    return [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]


def run(mutant: dict) -> bool:
    """Plant mutant in a copy, print its kills, and return whether an expected test killed it."""
    with tempfile.TemporaryDirectory(prefix="degtree-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "degtree" / mutant["file"]
        source = target.read_text()
        if source.count(mutant["text"]) != 1:
            print(f"{mutant['name']}: text found {source.count(mutant['text'])} times in {mutant['file']}, not once")
            return False
        target.write_text(source.replace(mutant["text"], mutant["replacement"]))
        expected = failed_tests(copy, mutant["killers"])
        print(f"{mutant['name']} ({mutant['file']}): {len(expected)} of the expected tests failed")
        for test in expected:
            print(f"  {test}")
        others = failed_tests(copy, ["-k", UNPINNED, "--ignore", "tests/test_mutants.py"])
        print(f"  tier-1 without goldens and md5 pins: {len(others)} failed")
        for test in others:
            print(f"    {test}")
        return bool(expected)


def main(argv: list[str] | None = None) -> int:
    mutants = catalogue()
    parser = argparse.ArgumentParser(description="Run the mutant catalogue against a copy of the package.")
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    if unknown := set(args.names).difference(m["name"] for m in mutants):
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")
    chosen = [m for m in mutants if not args.names or m["name"] in args.names]
    survivors = [m["name"] for m in chosen if not run(m)]
    print(f"survived: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
