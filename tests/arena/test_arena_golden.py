"""Byte-identity gate: the seed-0 arena leaderboard artifact.

``golden/arena_seed0_draws2_intervals8_all.json`` is the ``--json``
artifact of::

    PYTHONPATH=src python -m repro.cli arena run --seed 0 --draws 2 \
        --intervals 8 --policies all --json PATH

Its ``timings`` are empty (wall-clock stays out of the artifact), so it
compares byte for byte: every policy's decisions and KPIs, the invariant
audit and the stepping parity of both draws.  Regenerate it with that
command only after an intentional change of decisions or physics, and
commit the diff with its reason.
"""

import pathlib

from repro.cli import main

GOLDEN = (pathlib.Path(__file__).parent / "golden"
          / "arena_seed0_draws2_intervals8_all.json")
ARGS = ["arena", "run", "--seed", "0", "--draws", "2", "--intervals", "8",
        "--policies", "all", "--quiet"]


def test_arena_artifact_matches_golden(tmp_path):
    path = tmp_path / "arena.json"
    assert main(ARGS + ["--json", str(path)]) == 0
    assert path.read_bytes() == GOLDEN.read_bytes()
