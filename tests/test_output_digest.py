"""scripts/output_digest.py, the digest of the package's deterministic
outputs that a change is compared against its parent with."""

import importlib.util
import os

from isekf.harness import cli_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _output_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", os.path.join(ROOT, "scripts", "output_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_certify_section_is_the_certify_stdout(capsys):
    lines = _output_digest().certify_lines()
    assert cli_main(["certify", os.path.join(ROOT, "linear.cfg")]) == 0
    stdout = capsys.readouterr().out
    assert lines == [f"certify linear.cfg | {line}" for line in stdout.splitlines()]
    assert len(lines) > 10
