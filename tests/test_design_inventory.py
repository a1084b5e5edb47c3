"""DESIGN.md §3 names exactly the modules that exist.

Each row of the system-inventory table names a package directory and the
``*.py`` modules in it.  Every named module must exist, and every module
of the package must be named; a subpackage's modules belong to the
package unless the subpackage has a row of its own.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def inventory_rows():
    """``{package dir: named module paths}`` from DESIGN.md §3."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 3. System inventory", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3:
            continue
        package = re.fullmatch(r"`(src/repro/(?:\w+/)*)`", cells[1])
        if package:
            named = re.findall(r"`([\w/]+\.py)`", cells[2])
            rows[package.group(1)] = set(named)
    return rows


ROWS = inventory_rows()


def test_every_package_has_a_row():
    packages = {
        p.parent.relative_to(ROOT).as_posix() + "/"
        for p in (ROOT / "src" / "repro").glob("*/__init__.py")
    }
    assert packages <= set(ROWS), sorted(packages - set(ROWS))


@pytest.mark.parametrize("package", sorted(ROWS))
def test_row_names_exactly_the_package_modules(package):
    root = ROOT / package
    nested = [ROOT / other for other in ROWS if other != package]
    modules = {
        p.relative_to(root).as_posix()
        for p in root.rglob("*.py")
        if p.name != "__init__.py"
        and not any(n in p.parents for n in nested if root in n.parents)
    }
    named = ROWS[package]
    assert sorted(named - modules) == [], "named but missing"
    assert sorted(modules - named) == [], "not named"
