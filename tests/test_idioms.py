"""Source scans that keep one spelling of an idiom in the package."""

import ast
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


# the filtered covariance P - K S K^T, written once: in filters._innovation_gain
_FILTERED_COVARIANCE = re.compile(r"\bK\.dot\(S\)\.dot\(K\.T\)|\bK\s*@\s*S\s*@\s*K\.T\b")
_COVARIANCE_HOME = "_innovation_gain"


def _covariance_offenders(text: str):
    """(line number, line) of each K S K^T product of a module's text
    outside the body of a function named _innovation_gain.  _Lanes.step's
    stacked form (np.matmul(np.matmul(K, S), K.swapaxes(-1, -2))) does not
    match."""
    home = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and node.name == _COVARIANCE_HOME]
    return [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())
            if _FILTERED_COVARIANCE.search(line) and not any(i + 1 in r for r in home)]


def test_the_covariance_scan_sees_each_spelling():
    for line in ("P_new = _symmetrize(P - K.dot(S).dot(K.T))",
                 "P_filt = _symmetrize(P - K @ S @ K.T)", "X = K@S@K.T"):
        assert _covariance_offenders(line), line
    for line in ("P_new = _symmetrize(P - np.matmul(np.matmul(K, S), K.swapaxes(-1, -2)))",
                 "KS = K.dot(S)", "G = K @ S"):
        assert not _covariance_offenders(line), line
    home = f"def {_COVARIANCE_HOME}(P, C, R):\n    return K, S, P - K.dot(S).dot(K.T)\n"
    assert not _covariance_offenders(home)
    assert _covariance_offenders(home + "P_new = P - K @ S @ K.T\n") == [
        (3, "P_new = P - K @ S @ K.T")]


def test_the_filtered_covariance_is_written_once():
    found = {p.name: _covariance_offenders(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
    filters = (SRC / "filters.py").read_text(encoding="utf-8")
    assert len(_FILTERED_COVARIANCE.findall(filters)) == 1
