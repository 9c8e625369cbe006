import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def test_ci_smoke_step_is_the_script():
    # every smoke check lives in tools/smoke.sh, which runs locally too; the step only installs and calls it
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = [s for s in re.split(r"\n(?= *- (?:name|uses):)", workflow) if "tools/smoke.sh" in s]
    assert len(steps) == 1
    run = steps[0].split("run: |\n", 1)[1].split()
    assert run == ["python", "-m", "pip", "install", "-e", ".", "bash", "tools/smoke.sh"]
    if shutil.which("bash") is None:
        pytest.skip("bash is not installed")
    subprocess.run(["bash", "-n", str(ROOT / "tools" / "smoke.sh")], check=True)
