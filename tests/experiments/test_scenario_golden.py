"""Byte-identity gate: ``scenarios run NAME --intervals 4 --json``.

``golden/scenario_<name>_intervals4.json`` is the ``--json`` artifact of::

    PYTHONPATH=src python -m repro.cli scenarios run NAME --intervals 4 \
        --json PATH

with its wall-clock fields (``timings`` and each variant's ``run_s``)
dropped and the rest written back as the artifact writes it (sorted
keys, two-space indent).  ``surviving_failures`` covers failure
injection with an online-learning scheduler, ``follow_the_sun_8dc``
tariffs and the hierarchical scheduler at 8 DCs x 3,000 VMs.
Regenerate a golden only after an intentional change of decisions or
physics, and commit the diff with its reason.
"""

import json
import pathlib

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def without_timings(text: str) -> str:
    """The artifact minus its wall-clock fields, in the artifact's format."""
    data = json.loads(text)
    data.pop("timings")
    for variant in data["variants"].values():
        variant["kpis"].pop("run_s")
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", ["surviving_failures", "follow_the_sun_8dc"])
def test_scenario_artifact_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.json"
    assert main(["scenarios", "run", name, "--intervals", "4", "--quiet",
                 "--json", str(path)]) == 0
    golden = GOLDEN_DIR / f"scenario_{name}_intervals4.json"
    assert without_timings(path.read_text()) == golden.read_text()
