"""Source scans that keep one spelling of an idiom in the package."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "isekf"

# "every entry is finite" spelled as a reduction; saturation._all_finite is
# the one screen of the numeric modules, and math.isfinite that of a float
_FINITE_REDUCTION = re.compile(r"isfinite\(.*\)\.all\(\)|\ball\(np\.isfinite\(")
# svgplot checks its series on its own: it imports nothing of the numeric core
_EXEMPT_FILES = {"svgplot.py"}


def _offenders(text: str):
    """(line number, line) of each finiteness reduction in a module's text.
    _all_finite's own body (np.isfinite, then np.count_nonzero) and
    _Lanes.step's per-lane masks (fail(np.isfinite(...), ...) and the row
    reductions .all(axis=1)) do not match."""
    return [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())
            if _FINITE_REDUCTION.search(line)]


def test_the_scan_sees_each_spelling():
    for line in ("if not np.isfinite(x).all():", "if not np.all(np.isfinite(x)):",
                 "if not all(np.isfinite(v).all() for v in out):",
                 "ok = np.isfinite(np.linalg.norm(P)).all()"):
        assert _offenders(line), line
    for line in ("fail(np.isfinite(x), 'state map produced non-finite values', self.x)",
                 "if (over & ~np.isfinite(innov_s).all(axis=1)).any():",
                 "if not _all_finite(x):", "if not math.isfinite(r):"):
        assert not _offenders(line), line


def test_every_finiteness_screen_of_the_package_goes_through_one_helper():
    modules = sorted(p for p in SRC.glob("*.py") if p.name not in _EXEMPT_FILES)
    assert {"filters.py", "saturation.py", "scenario.py", "stability.py"} <= {
        p.name for p in modules}
    found = {p.name: _offenders(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}
