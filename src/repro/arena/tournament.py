"""Scheduler tournaments: the policy x draw matrix and its leaderboard.

One tournament seed deterministically derives every randomized draw
(fleet mix, workload scale, surge timing, failure schedule, tariff
shape, and all downstream seeds) via ``np.random.SeedSequence.spawn`` —
per-draw child streams, so no two draws collapse onto the same RNG state
(the PR 5 ensemble-seeding bug class) and adding draws never perturbs
earlier ones.  Each draw becomes one scenario spec with one variant per
policy (the engine shares the trace and trained models across variants),
every cell is audited against :mod:`repro.arena.invariants`, and the
ranked leaderboard serializes into the same artifact schema
``scenarios diff`` consumes — wall-clock timings excluded, so the same
seed yields byte-identical artifacts run after run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..experiments.engine import (FailureSpec, FleetSpec, ScenarioSpec,
                                  TariffSpec, TrainingSpec, VariantSpec,
                                  WorkloadSpec, json_safe, run_scenario)
from ..experiments.scenario import ScenarioConfig
from ..sim.network import PAPER_LOCATIONS
from ..workload.patterns import FlashCrowd
from .invariants import (PARITY_TOL, capacities_of, check_history,
                         check_spec_parity)
from .policies import SMOKE_ROSTER, ArenaPolicy, resolve_policies

__all__ = ["DrawBounds", "ScenarioDraw", "ArenaConfig", "CellResult",
           "TournamentResult", "draw_schedule", "spec_for_draw",
           "run_tournament", "format_leaderboard", "CELL_KPIS"]


#: The KPIs scored per cell.  Deliberately excludes ``run_s`` (and every
#: other wall-clock reading): leaderboard artifacts must be byte-stable
#: across runs of the same seed.
CELL_KPIS: Tuple[str, ...] = (
    "avg_sla", "avg_watts", "profit_eur", "revenue_eur",
    "energy_cost_eur", "migration_penalty_eur", "total_energy_wh",
    "n_migrations", "n_inter_dc_migrations", "avg_pms_on")


@dataclass(frozen=True)
class DrawBounds:
    """Validity bounds the draw sampler stays inside."""

    n_locations: Tuple[int, int] = (2, 4)
    pms_per_dc: Tuple[int, int] = (1, 3)
    n_vms: Tuple[int, int] = (4, 8)
    scale: Tuple[float, float] = (1.5, 3.5)
    surge_factor: Tuple[float, float] = (1.5, 4.0)
    surge_prob: float = 0.75
    fail_prob: Tuple[float, float] = (0.02, 0.15)
    failure_prob: float = 0.5
    max_down: Tuple[int, int] = (1, 2)
    repair_intervals: Tuple[int, int] = (1, 3)


@dataclass(frozen=True)
class ScenarioDraw:
    """One randomized scenario shape, fully determined by its stream."""

    index: int
    locations: Tuple[str, ...]
    pms_per_dc: int
    n_vms: int
    scale: float
    surge_start_min: Optional[float]
    surge_end_min: Optional[float]
    surge_factor: Optional[float]
    fail_prob: float
    max_down: int
    repair_intervals: int
    tariff_kind: str
    workload_seed: int
    failure_seed: int
    monitor_seed: int
    training_seed: int


def _draw_from_rng(index: int, rng: np.random.Generator, n_intervals: int,
                   bounds: DrawBounds) -> ScenarioDraw:
    """Sample one draw from an already-spawned per-draw stream."""
    k = int(rng.integers(bounds.n_locations[0], bounds.n_locations[1] + 1))
    k = min(k, len(PAPER_LOCATIONS))
    picked = sorted(rng.choice(len(PAPER_LOCATIONS), size=k,
                               replace=False).tolist())
    locations = tuple(PAPER_LOCATIONS[j] for j in picked)
    pms_per_dc = int(rng.integers(bounds.pms_per_dc[0],
                                  bounds.pms_per_dc[1] + 1))
    n_vms = int(rng.integers(bounds.n_vms[0], bounds.n_vms[1] + 1))
    scale = float(rng.uniform(*bounds.scale))

    duration_min = n_intervals * 10.0
    surge_start = surge_end = surge_factor = None
    if rng.random() < bounds.surge_prob:
        surge_start = float(rng.uniform(0.1, 0.5) * duration_min)
        surge_end = surge_start + float(rng.uniform(0.15, 0.35)
                                        * duration_min)
        surge_factor = float(rng.uniform(*bounds.surge_factor))

    fail_prob = 0.0
    max_down = bounds.max_down[0]
    repair = bounds.repair_intervals[0]
    if rng.random() < bounds.failure_prob:
        fail_prob = float(rng.uniform(*bounds.fail_prob))
        max_down = int(rng.integers(bounds.max_down[0],
                                    bounds.max_down[1] + 1))
        repair = int(rng.integers(bounds.repair_intervals[0],
                                  bounds.repair_intervals[1] + 1))

    tariff_kind = str(rng.choice(("flat", "solar", "time_of_use")))
    seeds = rng.integers(0, 2**31 - 1, size=4)
    return ScenarioDraw(
        index=index, locations=locations, pms_per_dc=pms_per_dc,
        n_vms=n_vms, scale=scale, surge_start_min=surge_start,
        surge_end_min=surge_end, surge_factor=surge_factor,
        fail_prob=fail_prob, max_down=max_down, repair_intervals=repair,
        tariff_kind=tariff_kind, workload_seed=int(seeds[0]),
        failure_seed=int(seeds[1]), monitor_seed=int(seeds[2]),
        training_seed=int(seeds[3]))


def draw_schedule(seed: int, n_draws: int, n_intervals: int,
                  bounds: DrawBounds = DrawBounds()
                  ) -> Tuple[ScenarioDraw, ...]:
    """``n_draws`` deterministic draws from one tournament seed.

    Each draw consumes its own ``SeedSequence.spawn`` child stream, so
    draws are mutually independent and the schedule is stable under
    appending more draws.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    root = np.random.SeedSequence(seed)
    return tuple(
        _draw_from_rng(i, np.random.default_rng(child), n_intervals, bounds)
        for i, child in enumerate(root.spawn(n_draws)))


@dataclass(frozen=True)
class ArenaConfig:
    """Everything one tournament run depends on."""

    seed: int = 0
    n_draws: int = 4
    policies: Tuple[str, ...] = SMOKE_ROSTER
    n_intervals: int = 12
    bounds: DrawBounds = field(default_factory=DrawBounds)
    check_invariants: bool = True
    check_parity: bool = True
    #: Exploration-harvest scales for the shared training run (kept
    #: small: every ML policy in the roster multiplies training cost).
    training_scales: Tuple[float, ...] = (0.6, 1.5)
    #: Ensemble size for the bagged/calibrated policies.
    bagging: int = 2


def spec_for_draw(draw: ScenarioDraw, policies: Sequence[ArenaPolicy],
                  config: ArenaConfig) -> ScenarioSpec:
    """One scenario spec per draw: one variant per (eligible) policy."""
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    if draw.surge_factor is not None:
        flash_crowds = (FlashCrowd(start_minute=draw.surge_start_min,
                                   end_minute=draw.surge_end_min,
                                   factor=draw.surge_factor),)
    cfg = ScenarioConfig(locations=draw.locations,
                         pms_per_dc=draw.pms_per_dc, n_vms=draw.n_vms,
                         n_intervals=config.n_intervals, scale=draw.scale,
                         seed=draw.workload_seed,
                         flash_crowds=flash_crowds)
    # Plain (unbagged) models at scenario level serve bf_ml/hier_ml/
    # online; the bagged policies carry their own per-variant training
    # spec, which the engine's training cache shares between them.
    needs_plain = any(p.needs_models and not p.bagged for p in policies)
    needs_bagged = any(p.bagged for p in policies)
    training = TrainingSpec(scales=config.training_scales,
                            seed=draw.training_seed)
    bagged = replace(training, bagging=config.bagging)
    variants = tuple(
        VariantSpec(name=p.name, scheduler=p.build(draw),
                    training=bagged if p.bagged else None,
                    risk=p.risk)
        for p in policies)
    return ScenarioSpec(
        name=f"arena_draw{draw.index}",
        description=f"arena draw {draw.index}: "
                    f"{len(draw.locations)} DCs x {draw.pms_per_dc} PMs, "
                    f"{draw.n_vms} VMs, tariff {draw.tariff_kind}",
        fleet=FleetSpec("multidc", config=cfg),
        workload=WorkloadSpec("multidc", config=cfg),
        variants=variants,
        training=training if (needs_plain or needs_bagged) else None,
        failures=(FailureSpec(fail_prob=draw.fail_prob,
                              repair_intervals=draw.repair_intervals,
                              max_down=draw.max_down,
                              seed=draw.failure_seed)
                  if draw.fail_prob > 0.0 else None),
        tariffs=(None if draw.tariff_kind == "flat"
                 else TariffSpec(kind=draw.tariff_kind)),
        seed=draw.workload_seed)


@dataclass(frozen=True)
class CellResult:
    """One (draw, policy) cell of the matrix."""

    draw: int
    policy: str
    kpis: Dict[str, float]


@dataclass
class TournamentResult:
    """The full matrix plus its audit trail and derived leaderboard."""

    config: ArenaConfig
    draws: Tuple[ScenarioDraw, ...]
    cells: List[CellResult]
    violations: List[str] = field(default_factory=list)
    #: policy -> draw indices skipped (e.g. exact above its VM ceiling).
    skipped: Dict[str, List[int]] = field(default_factory=dict)
    #: draw index -> worst report divergence between the array stepper
    #: and the scalar reference loop (:func:`check_spec_parity`).
    parity: Dict[int, float] = field(default_factory=dict)

    # -- ranking --------------------------------------------------------------
    def ranks(self) -> Dict[str, List[int]]:
        """Per-policy rank positions, one per played draw (1 = best)."""
        by_draw: Dict[int, List[CellResult]] = {}
        for cell in self.cells:
            by_draw.setdefault(cell.draw, []).append(cell)
        out: Dict[str, List[int]] = {}
        for cells in by_draw.values():
            ordered = sorted(cells, key=lambda c: (-c.kpis["profit_eur"],
                                                   c.policy))
            for position, cell in enumerate(ordered, start=1):
                out.setdefault(cell.policy, []).append(position)
        return out

    def leaderboard(self) -> List[Dict[str, object]]:
        """Ranked rows: mean rank first, mean profit as tie-break."""
        ranks = self.ranks()
        by_policy: Dict[str, List[CellResult]] = {}
        for cell in self.cells:
            by_policy.setdefault(cell.policy, []).append(cell)
        rows: List[Dict[str, object]] = []
        for policy, cells in by_policy.items():
            row: Dict[str, object] = {
                "policy": policy,
                "n_draws": len(cells),
                "wins": sum(1 for r in ranks[policy] if r == 1),
                "mean_rank": float(np.mean(ranks[policy])),
            }
            for kpi in CELL_KPIS:
                row[f"mean_{kpi}"] = float(np.mean(
                    [c.kpis[kpi] for c in cells]))
            rows.append(row)
        rows.sort(key=lambda r: (r["mean_rank"], -r["mean_profit_eur"],
                                 r["policy"]))
        return rows

    # -- artifact -------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """The leaderboard artifact, ``scenarios diff``-compatible.

        Same top-level schema as ``scenarios run --json`` (``scenario``,
        ``seed``, ``timings``, ``variants`` with per-policy ``kpis``,
        ``extras``) and fully deterministic: no wall-clock values, so
        two runs of the same seed produce byte-identical files.
        """
        variants: Dict[str, object] = {}
        for row in self.leaderboard():
            kpis = {k: v for k, v in row.items() if k != "policy"}
            variants[str(row["policy"])] = {"kpis": kpis}
        return {
            "scenario": "arena",
            "description": f"policy tournament: "
                           f"{len(self.config.policies)} policies x "
                           f"{self.config.n_draws} draws",
            "seed": self.config.seed,
            "timings": {},
            "variants": variants,
            "extras": json_safe({
                "leaderboard": [row["policy"]
                                for row in self.leaderboard()],
                "policies": list(self.config.policies),
                "n_intervals": self.config.n_intervals,
                "draws": [asdict(d) for d in self.draws],
                "cells": [{"draw": c.draw, "policy": c.policy,
                           "kpis": c.kpis} for c in self.cells],
                "invariants": {
                    "checked": self.config.check_invariants,
                    "violations": list(self.violations),
                },
                "parity_max_abs_diff": {str(i): v
                                        for i, v in self.parity.items()},
                "skipped": {k: list(v) for k, v in self.skipped.items()},
            }),
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cell_kpis(variant_result) -> Dict[str, float]:
    kpis = variant_result.kpis()
    return {k: float(kpis[k]) for k in CELL_KPIS}


def run_tournament(config: ArenaConfig = ArenaConfig(),
                   progress=None) -> TournamentResult:
    """Run the whole policy x draw matrix; see the module docstring.

    ``progress`` (optional) is called with one line per completed draw —
    the CLI passes ``print``.
    """
    policies = resolve_policies(config.policies)
    draws = draw_schedule(config.seed, config.n_draws, config.n_intervals,
                          config.bounds)
    result = TournamentResult(config=config, draws=draws, cells=[])
    for draw in draws:
        roster = [p for p in policies if p.plays(draw.n_vms)]
        for p in policies:
            if not p.plays(draw.n_vms):
                result.skipped.setdefault(p.name, []).append(draw.index)
        spec = spec_for_draw(draw, roster, config)
        capacities = capacities_of(spec.fleet.build()[0])
        scenario_result = run_scenario(spec)
        if config.check_parity:
            worst = check_spec_parity(spec)
            result.parity[draw.index] = float(worst)
            if worst > PARITY_TOL:
                result.violations.append(
                    f"draw {draw.index}: batch/scalar stepping diverge "
                    f"by {worst:.3e}")
        for p in roster:
            variant = scenario_result.variant(p.name)
            if config.check_invariants:
                for msg in check_history(variant.history,
                                         capacities=capacities):
                    result.violations.append(
                        f"draw {draw.index}/{p.name}: {msg}")
            result.cells.append(CellResult(draw=draw.index, policy=p.name,
                                           kpis=_cell_kpis(variant)))
        if progress is not None:
            progress(f"draw {draw.index + 1}/{config.n_draws}: "
                     f"{len(roster)} policies, "
                     f"{len(result.violations)} violation(s) so far")
    return result


def format_leaderboard(result: TournamentResult) -> str:
    """The ranked leaderboard as a text table."""
    config = result.config
    lines = [f"Arena leaderboard (seed {config.seed}, "
             f"{config.n_draws} draws x {len(config.policies)} policies, "
             f"{config.n_intervals} intervals)"]
    lines.append(f"{'rank':>4} {'policy':<18} {'mrank':>6} {'wins':>5} "
                 f"{'profit':>10} {'SLA':>7} {'energy':>9} {'migr':>6}")
    for position, row in enumerate(result.leaderboard(), start=1):
        lines.append(
            f"{position:>4} {row['policy']:<18} "
            f"{row['mean_rank']:>6.2f} {row['wins']:>5d} "
            f"{row['mean_profit_eur']:>10.4f} {row['mean_avg_sla']:>7.3f} "
            f"{row['mean_energy_cost_eur']:>9.4f} "
            f"{row['mean_n_migrations']:>6.1f}")
    for policy, skipped in sorted(result.skipped.items()):
        lines.append(f"  note: {policy} skipped draws "
                     f"{skipped} (instance-size ceiling)")
    if result.config.check_invariants or result.config.check_parity:
        if result.violations:
            lines.append(f"INVARIANT VIOLATIONS ({len(result.violations)}):")
            lines.extend(f"  {msg}" for msg in result.violations)
        else:
            lines.append(f"invariants: OK across {len(result.cells)} "
                         f"cells")
    return "\n".join(lines)
