import doctest
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_runs_as_a_doctest():
    # the ">>>" block under "Library quick start", taken out of its fence,
    # which doctest would otherwise read as part of the last expected output
    section = (ROOT / "README.md").read_text().split(
        "## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(
        block, {}, "README quick start", "README.md", 0)
    out = []
    failed, attempted = doctest.DocTestRunner().run(test, out=out.append)
    assert (failed, attempted) == (0, 6), "".join(out)
