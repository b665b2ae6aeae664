"""Pinned ML decisions: a small ``ml_large_fleet`` ``bf_ml`` run, exactly.

The ``bf_ml`` scheduler ranks every candidate host with the Table I
models (M5P for PM CPU and RT, k-NN for SLA), so any change in how those
models compute a prediction, down to the last bit, can move a VM.  The
Figure 4 golden covers BF-ML rounds only to the printed precision; this
test pins the placement after every round and the run's money figures
to the exact float.

The golden was recorded before prediction moved to array routing (M5P)
and duplicate-row folding (k-NN).  Regenerate with::

    PYTHONPATH=src python tests/experiments/test_ml_decisions.py

only after an intentional change of decisions, and commit the diff with
the reason.
"""

import json
import pathlib
from dataclasses import replace

from repro.experiments.catalog import ml_large_fleet_spec
from repro.experiments.engine import run_scenario

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ml_large_fleet_bf_ml.json"

#: Exact KPIs pinned next to the placements.
PINNED_KPIS = ("avg_eur_per_hour", "profit_eur", "revenue_eur",
               "energy_cost_eur", "migration_penalty_eur", "avg_sla",
               "n_migrations")


def record():
    """Placements per round and exact KPIs of the pinned ``bf_ml`` run."""
    spec = ml_large_fleet_spec(n_intervals=4, n_hosts=40, n_vms=100)
    spec = replace(spec, variants=tuple(v for v in spec.variants
                                        if v.name == "bf_ml"))
    variant = run_scenario(spec).variant("bf_ml")
    kpis = variant.kpis()
    return {
        "kpis": {key: kpis[key] for key in PINNED_KPIS},
        "placements": [dict(sorted(r.placement.items()))
                       for r in variant.history.reports],
    }


def test_bf_ml_decisions_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(record()))
    assert len(got["placements"]) == len(golden["placements"])
    for t, (want, have) in enumerate(zip(golden["placements"],
                                         got["placements"])):
        moved = sorted(vm for vm in want if have.get(vm) != want[vm])
        assert have == want, f"round {t}: VMs placed differently: {moved}"
    assert got["kpis"] == golden["kpis"]


def test_golden_run_makes_decisions():
    """The pinned run must exercise the ranking: VMs actually move."""
    golden = json.loads(GOLDEN.read_text())
    assert golden["kpis"]["n_migrations"] > 0
    assert len(golden["placements"]) >= 2
    assert golden["placements"][0] != golden["placements"][-1]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
