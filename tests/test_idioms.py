"""Source scans that keep one spelling of an idiom in the package."""

import ast
import io
import pathlib
import re
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "isekf"

# "every entry is finite" spelled as a reduction; saturation._all_finite is
# the one screen of the numeric modules, and math.isfinite that of a float
_FINITE_REDUCTION = re.compile(r"isfinite\(.*\)\.all\(\)|\ball\(np\.isfinite\(")
# svgplot checks its series on its own: it imports nothing of the numeric core
_EXEMPT_FILES = {"svgplot.py"}


def _offenders(text: str):
    """(line number, line) of each finiteness reduction in a module's text.
    _all_finite's own body (np.isfinite, then np.count_nonzero), a bare
    np.isfinite(...) mask and the row reductions np.isfinite(...).all(axis=1)
    do not match."""
    return [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())
            if _FINITE_REDUCTION.search(line)]


def test_the_scan_sees_each_spelling():
    for line in ("if not np.isfinite(x).all():", "if not np.all(np.isfinite(x)):",
                 "if not all(np.isfinite(v).all() for v in out):",
                 "ok = np.isfinite(np.linalg.norm(P)).all()"):
        assert _offenders(line), line
    for line in ("fail(np.isfinite(x), 'state map produced non-finite values', self.x)",
                 "if (over & ~np.isfinite(innov_s).all(axis=1)).any():",
                 "ok = np.isfinite(S).all(axis=(1, 2)) & np.isfinite(hx).all(axis=1)",
                 "if not _all_finite(x):", "if not math.isfinite(r):"):
        assert not _offenders(line), line


def test_every_finiteness_screen_of_the_package_goes_through_one_helper():
    modules = sorted(p for p in SRC.glob("*.py") if p.name not in _EXEMPT_FILES)
    assert {"filters.py", "saturation.py", "scenario.py", "stability.py"} <= {
        p.name for p in modules}
    found = {p.name: _offenders(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


# each per-step failure of a filter, raised in one place: the step core
# (and the bound map it calls), which _Lanes runs on its stack and re-runs
# lane by lane when the stack fails
_STEP_FAILURES = ("state map produced non-finite values", "innovation covariance not finite",
                  "measurement map produced non-finite values",
                  "update produced non-finite estimate", "clip level sigma underflowed to 0",
                  "bound map overflowed", "non-finite innovation")


def _failure_counts(texts):
    """How often each step-failure message occurs in the given module texts."""
    return {msg: sum(text.count(msg) for text in texts) for msg in _STEP_FAILURES}


def test_the_failure_scan_sees_a_second_copy():
    once = ['raise NumericalFailure("state map produced non-finite values", context=x)']
    assert _failure_counts(once)["state map produced non-finite values"] == 1
    twice = once + ['fail(ok, "state map produced non-finite values", self.x)']
    assert _failure_counts(twice)["state map produced non-finite values"] == 2


def test_each_step_failure_message_is_written_once():
    texts = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert _failure_counts(texts) == dict.fromkeys(_STEP_FAILURES, 1)


# the filtered covariance P - K S K^T, written once: in filters._innovation_gain
_FILTERED_COVARIANCE = re.compile(r"\bK\.dot\(S\)\.dot\(K\.T\)|\bK\s*@\s*S\s*@\s*K\.T\b"
                                  r"|np\.matmul\(np\.matmul\(K, S\), K\.swapaxes\(-1, -2\)\)")
_COVARIANCE_HOME = "_innovation_gain"


def _covariance_offenders(text: str):
    """(line number, line) of each K S K^T product of a module's text
    outside the body of a function named _innovation_gain, in its 2-D
    spellings or its stacked one (np.matmul(np.matmul(K, S), K.swapaxes(-1,
    -2)))."""
    home = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and node.name == _COVARIANCE_HOME]
    return [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())
            if _FILTERED_COVARIANCE.search(line) and not any(i + 1 in r for r in home)]


def test_the_covariance_scan_sees_each_spelling():
    for line in ("P_new = _symmetrize(P - K.dot(S).dot(K.T))",
                 "P_filt = _symmetrize(P - K @ S @ K.T)", "X = K@S@K.T",
                 "P_new = _symmetrize(P - np.matmul(np.matmul(K, S), K.swapaxes(-1, -2)))"):
        assert _covariance_offenders(line), line
    for line in ("KS = K.dot(S)", "G = K @ S", "KS = np.matmul(K, S)"):
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


# the lanes run the step core on their stack: the body of filters._Lanes
# holds no arithmetic of its own (no matmul product, no solve of S, no bound
# map)
_CORE_CALLS = {"matmul", "_spd_solve", "_bound_map_core"}


def _core_calls_in(text: str, cls: str = "_Lanes"):
    """(line number, call) of each np.matmul, _spd_solve or _bound_map_core
    call in the body of the classes named cls of a module's text."""
    return [(node.lineno, ast.unparse(node.func))
            for owner in ast.walk(ast.parse(text))
            if isinstance(owner, ast.ClassDef) and owner.name == cls
            for node in ast.walk(owner)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in _CORE_CALLS]


def test_the_lanes_scan_sees_each_core_call():
    body = "class _Lanes:\n    def step(self, x):\n        {}\n"
    for line in ("P = np.matmul(np.matmul(A, P), A.swapaxes(-1, -2))",
                 "K = _spd_solve(S, CP, 'innovation covariance')",
                 "K = filters._spd_solve(S, CP, 'S')", "sat = _bound_map_core(sat, v, lam, gam)",
                 "x = x + matmul(K, v)"):
        assert _core_calls_in(body.format(line)), line
    for line in ("x, P = _predict(model, x, P, u)", "sat = _sat_step(sat, innov, lam, gam)",
                 "x = x + _matvec(K, v)", "return self._rerun(y, u)"):
        assert not _core_calls_in(body.format(line)), line
    # outside the class, the core's own functions make these calls
    assert not _core_calls_in("def _predict(x):\n    return np.matmul(x, x)\n")


def test_the_lanes_make_no_step_arithmetic_of_their_own():
    text = (SRC / "filters.py").read_text(encoding="utf-8")
    assert "class _Lanes" in text
    assert _core_calls_in(text) == []


# the bound map, written once: saturation._bound_map_core's one multiply-add
# on the stacked state [sigma; epsilon].  A per-layer coefficient product or
# a sigma + epsilon sum in code (strings and comments are not scanned) is a
# second copy of it.
_PER_LAYER = re.compile(r"\b(?:lambda1|lambda2|gamma1|gamma2) \*(?!\*)"
                        r"|\bsigma\w* \+ (?:\w+ \. )*eps\w*")
_BOUND_MAP_HOME = "_bound_map_core"


def _code_lines(text: str):
    """(line number, code) of each line of a module, its tokens joined by
    single spaces, without strings and comments."""
    lines = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.STRING, tokenize.COMMENT) or not tok.string.strip():
            continue
        lines.setdefault(tok.start[0], []).append(tok.string)
    return [(i, " ".join(toks)) for i, toks in sorted(lines.items())]


def _bound_map_offenders(text: str):
    """(line number, code) of each per-layer bound-map term of a module's
    code outside the body of a function named _bound_map_core."""
    home = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and node.name == _BOUND_MAP_HOME]
    return [(i, code) for i, code in _code_lines(text)
            if _PER_LAYER.search(code) and not any(i in r for r in home)]


def test_the_bound_map_scan_sees_each_spelling():
    for line in ("sigma = params.lambda1 * sigma + params.gamma1 * shaping_term(eps)",
                 "eps = coef.lambda2*eps + coef.gamma2*innov**2", "g = gamma1 *x",
                 "finite = np.isfinite(sigma + epsilon)", "ok = _all_finite(sigma+eps)",
                 "total = sat.sigma + sat.epsilon", "s = sigma_out + eps_out"):
        assert _bound_map_offenders(line + "\n"), line
    for line in ("lam = np.concatenate((self.lambda1, self.lambda2))",
                 "sat = lam * sat + gam * np.concatenate((shape, innov * innov), -1)",
                 "x = lambda1 ** 2", "sat = np.concatenate((sigma, epsilon))",
                 "# lambda1 * sigma + gamma1 * eps * exp(-eps)",
                 '"""sigma + eps, lambda1 * sigma"""'):
        assert not _bound_map_offenders(line + "\n"), line
    home = f"def {_BOUND_MAP_HOME}(sigma, eps, innov, params):\n    return params.lambda1 * sigma\n"
    assert not _bound_map_offenders(home)
    assert _bound_map_offenders(home + "s = sigma + eps\n") == [(3, "s = sigma + eps")]


def test_the_bound_map_is_written_once():
    found = {p.name: _bound_map_offenders(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_no_hot_path_clamps_epsilon():
    # the bound map evaluates the unclamped _shaping on eps >= +0, which
    # SaturationState checks at entry; shaping_term, the clamped public
    # helper, is called nowhere in the package
    calls = [(p.name, i) for p in sorted(SRC.glob("*.py"))
             for i, code in _code_lines(p.read_text(encoding="utf-8"))
             if re.search(r"\bshaping_term \(", code) and not code.startswith("def ")]
    assert calls == []


# a dataclass whose __post_init__ checks its fields is frozen, so a checked
# object changes only by being built again (dataclasses.replace), which runs
# the checks again
def _is_dataclass(decorator) -> bool:
    fn = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)) == "dataclass"


def _declares(decorator, arg: str, value: bool) -> bool:
    return isinstance(decorator, ast.Call) and any(
        kw.arg == arg and isinstance(kw.value, ast.Constant) and kw.value.value is value
        for kw in decorator.keywords)


def _unfrozen_checked_classes(text: str):
    """Name of each class of a module's text that is a dataclass, defines
    __post_init__ and is not declared frozen=True."""
    return [node.name for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                    for f in node.body)
            and any(_is_dataclass(d) and not _declares(d, "frozen", True)
                    for d in node.decorator_list)]


def test_the_frozen_dataclass_scan_sees_each_spelling():
    body = "class C:\n    x: int = 0\n\n    def __post_init__(self):\n        pass\n"
    for head in ("@dataclass\n", "@dataclass()\n", "@dataclass(frozen=False)\n",
                 "@dataclasses.dataclass(eq=False)\n", "@dataclasses.dataclass\n"):
        assert _unfrozen_checked_classes(head + body) == ["C"], head
    for text in ("@dataclass(frozen=True)\n" + body,
                 "@dataclasses.dataclass(eq=False, frozen=True)\n" + body,
                 "@dataclass\nclass C:\n    x: int = 0\n", body):
        assert _unfrozen_checked_classes(text) == [], text


def test_every_checked_dataclass_of_the_package_is_frozen():
    found = {p.name: _unfrozen_checked_classes(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


# a dataclass with an array field is eq=False, and so equals only itself:
# the generated == compares the fields as tuples, which asks an array
# comparison for its truth value, and a frozen class's generated hash
# hashes the arrays
def _array_classes_with_value_equality(text: str):
    """Name of each class of a module's text that is a dataclass, has a
    field annotated with ndarray (np.ndarray, Optional[np.ndarray], ...)
    and is not declared eq=False."""
    return [node.name for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(f, ast.AnnAssign) and "ndarray" in ast.unparse(f.annotation)
                    for f in node.body)
            and any(_is_dataclass(d) and not _declares(d, "eq", False)
                    for d in node.decorator_list)]


def test_the_array_equality_scan_sees_each_spelling():
    body = "class C:\n    n: int\n    x: {}\n"
    for head, annotation in (("@dataclass\n", "np.ndarray"),
                             ("@dataclass(frozen=True)\n", "np.ndarray"),
                             ("@dataclass(eq=True)\n", "ndarray"),
                             ("@dataclasses.dataclass(frozen=True)\n", "Optional[np.ndarray]")):
        assert _array_classes_with_value_equality(head + body.format(annotation)) == ["C"]
    for text in ("@dataclass(eq=False)\n" + body.format("np.ndarray"),
                 "@dataclass(frozen=True, eq=False)\n" + body.format("Optional[np.ndarray]"),
                 "@dataclass(frozen=True)\n" + body.format("float"),
                 body.format("np.ndarray")):
        assert _array_classes_with_value_equality(text) == [], text


def test_every_dataclass_holding_arrays_equals_only_itself():
    found = {p.name: _array_classes_with_value_equality(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_discrete_riccati_loop_is_written_once():
    # stability._dare_steps is the one loop; _dare_flow, certify and the
    # discrete bound check read its steps
    text = (SRC / "stability.py").read_text(encoding="utf-8")
    assert text.count("_stationary(P, np.linalg.norm(P_next - P))") == 1


# the observer's R^-1, computed once: _require_noise_covariances stores it
# as Rinv on NonlinearModel and LinearSystem, and every other site reads it
_R_SOLVES = {"_spd_inverse", "_spd_solve"}
_R_OWNERS = {"sys", "model", "self", "obj"}
_R_INVERSE_HOME = "_require_noise_covariances"


def _r_inverse_offenders(text: str):
    """(line number, call) of each _spd_inverse or _spd_solve call of a
    module's text whose first argument is an observer's R (sys.R, model.R,
    self.R, obj.R) outside the body of _require_noise_covariances.  A
    helper that takes R as an argument (gain_identity_residuals) does not
    match."""
    tree = ast.parse(text)
    home = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == _R_INVERSE_HOME]
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in _R_SOLVES
            and node.args and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "R" and isinstance(node.args[0].value, ast.Name)
            and node.args[0].value.id in _R_OWNERS
            and not any(node.lineno in r for r in home)]


def test_the_r_inverse_scan_sees_each_spelling():
    for line in ('Rinv = _spd_inverse(sys.R, "R")', 'CtRinv = sys.C.T @ _spd_inverse(sys.R, "R")',
                 'K = _spd_solve(model.R, C @ P, "R").T', "X = _spd_solve(self.R, B, 'R')",
                 'Rinv = filters._spd_inverse(obj.R, "R")'):
        assert _r_inverse_offenders(line), line
    for line in ('Rinv = _spd_inverse(R, "R")', 'Qinv = _spd_inverse(sys.Q, "Q")',
                 'K = _spd_solve(S, CP, "innovation covariance").T', "CtRinv = sys.C.T.dot(sys.Rinv)",
                 'Pinv = _spd_inverse(sys.R_t, "R_t")'):
        assert not _r_inverse_offenders(line), line
    home = f'def {_R_INVERSE_HOME}(obj):\n    Rinv = _spd_inverse(obj.R, "R")\n'
    assert not _r_inverse_offenders(home)
    assert _r_inverse_offenders(home + 'Rinv = _spd_inverse(sys.R, "R")\n') == [
        (3, "_spd_inverse(sys.R, 'R')")]


def test_an_observers_r_is_inverted_once():
    found = {p.name: _r_inverse_offenders(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
