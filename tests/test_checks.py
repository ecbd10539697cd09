"""tests/checks.py and the CI workflow that runs its checks stay in step."""

import re

from .checks import CHECKS, ROOT


def test_workflow_runs_every_check_exactly_once():
    # importing tests.checks in the tier-1 job, which installs no click, shows it needs none
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    named = re.findall(r"run: python -m tests\.checks (\S+)$", text, re.MULTILINE)
    assert sorted(named) == sorted(CHECKS)
