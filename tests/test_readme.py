"""The README names tests as the checks behind its contracts; these tests keep
those names pointing at tests that exist."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_DIRS = [ROOT / "tests", ROOT / "perfbench" / "tests"]
_PATH = re.compile(r"\b(?:perfbench/)?tests/[\w/]+\.py\b")
_NAME = re.compile(r"\btest_\w+")


def cited(text: str) -> tuple[set, set]:
    """The test file paths and the test names that ``text`` cites."""
    paths = set(_PATH.findall(text))
    return paths, set(_NAME.findall(_PATH.sub("", text)))


def defined_tests() -> set:
    """Every test function name and test module name in the test directories."""
    names = set()
    for path in (p for d in TEST_DIRS for p in d.glob("*.py")):
        names.add(path.stem)
        names.update(node.name for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"))
    return names


def test_citation_scanner_finds_paths_and_names():
    paths, names = cited("see `tests/test_a.py` and `test_b_c[eval_mix-x]`, "
                         "perfbench/tests/test_d.py; tests_e, attest_f")
    assert paths == {"tests/test_a.py", "perfbench/tests/test_d.py"}
    assert names == {"test_b_c"}


def test_readme_cites_only_existing_tests():
    paths, names = cited((ROOT / "README.md").read_text())
    assert sorted(p for p in paths if not (ROOT / p).is_file()) == []
    assert sorted(names - defined_tests()) == []


def test_each_memory_contract_names_a_test():
    """Every paragraph and top-level item of the README's Memory section
    names a test, or a test file, that checks it."""
    memory = (ROOT / "README.md").read_text().split("\n## Memory\n", 1)[1].split("\n## ", 1)[0]
    paragraphs = [p for p in re.split(r"\n\s*\n|\n(?=- )", memory) if p.strip()]
    assert len(paragraphs) >= 10
    assert [p for p in paragraphs if not any(cited(p))] == []
