"""The README's quick start and config block run as written and give the numbers they promise."""

import pathlib
import re

import pytest

from optexec.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_library_quick_start():
    scope = {}
    exec(compile(_quick_start(), str(README), "exec"), scope)
    sol, surface, res = scope["sol"], scope["surface"], scope["res"]
    # "9.8026..., 0.2": the rate is 0.2 up to the root finder's rounding
    assert sol.rate == pytest.approx(0.2, rel=1e-9)
    assert sol.value == pytest.approx(9.8026, abs=5e-5)
    # "same number from the PDE": criterion 4's 400x400 tolerance
    assert 100.0 * surface.value_at(1.0, 0.1) == pytest.approx(sol.value, rel=1e-2)
    # "same number again, within noise": criterion 6's three standard errors
    assert abs(res.mean_utility - sol.value) <= 3.0 * res.std_error


def test_config_file_block_runs_as_written(tmp_path):
    # the documented block, comments after values included, is a working config
    section = README.read_text(encoding="utf-8").split("### Config file", 1)[1]
    match = re.search(r"```ini\n(.*?)```", section, re.S)
    assert match, "no ini block under 'Config file'"
    path = tmp_path / "readme.ini"
    path.write_text(match.group(1))
    out = tmp_path / "run"
    assert main(["twap", "--config", str(path), "--output", str(out)]) == 0
    assert (out / "summary.json").exists()
