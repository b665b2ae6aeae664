"""Lint configuration: rule knobs and the allowlist escape hatches.

Every rule family's escape hatch is data in :data:`DEFAULT_CONFIG`, not
code, and every default entry carries its justification next to it — the
same reviewable-exemption discipline the scenario engine uses for its
registry.  Ad-hoc one-line escapes use the inline pragma instead::

    something_suspicious()  # lint: ignore[DET003] wall-clock is the point

A bare ``# lint: ignore`` suppresses every rule on that line.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["LintConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one lint run (immutable; tests derive via ``replace``)."""

    # -- determinism (DET00x) ------------------------------------------------
    #: Dotted-module globs where wall-clock and ambient RNG are allowed.
    #: Everything else in the tree is treated as simulation/scoring code,
    #: where every random draw must flow from an explicit Generator /
    #: SeedSequence parameter and time never comes from the wall clock.
    determinism_exempt: Tuple[str, ...] = (
        # The warm server reports real uptime (time.time is the point;
        # nothing feeds it back into simulation state).
        "repro.service.app",
        "repro.service.state",
    )
    #: numpy.random attributes that are explicit-seed constructors, not
    #: global-state draws.
    np_random_safe: Tuple[str, ...] = (
        "Generator", "SeedSequence", "default_rng", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
    )
    #: stdlib ``random`` attributes allowed (seedable instances, not the
    #: hidden module-level Mersenne state).
    py_random_safe: Tuple[str, ...] = ("Random", "SystemRandom")
    #: Wall-clock reads flagged in non-exempt modules.  Duration timers
    #: (``perf_counter``) are deliberately absent: timing a computation
    #: is fine, feeding wall-clock *values* into it is not.
    wallclock_calls: Tuple[str, ...] = (
        "time.time", "time.time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    )

    # -- aliasing (ALI00x) ---------------------------------------------------
    #: Attribute-name substrings that mark a dict as a cross-call cache.
    cache_attr_markers: Tuple[str, ...] = ("cache",)
    #: Docstring keywords that declare a parameter a shared view/snapshot
    #: (co-occurring on one docstring line with the parameter name).
    view_doc_markers: Tuple[str, ...] = (
        "view", "snapshot", "read-only", "do not mutate")

    # -- lock discipline (LCK00x) --------------------------------------------
    #: ``self.<attr>`` names recognized as instance locks when used in a
    #: ``with`` statement.
    lock_attr_names: Tuple[str, ...] = ("lock", "_lock")
    #: Case-insensitive docstring phrases declaring that the *caller*
    #: holds the instance lock — the method body then counts as guarded.
    held_doc_markers: Tuple[str, ...] = ("caller must hold",)
    #: Dotted-module globs the lock analysis runs on ("*" = everywhere a
    #: class actually uses ``with self.lock``).
    lock_scope: Tuple[str, ...] = ("*",)

    # -- parity pairs (PAR00x) -----------------------------------------------
    #: qualname -> scalar twin name, for kernels whose twin does not
    #: follow the ``_batch`` -> ``""`` / ``_batch`` -> ``_scalar`` naming.
    #: A value ``tests/<path>.py::<name>`` points at a test oracle: that
    #: file must define ``<name>`` at top level.
    parity_twin_overrides: Dict[str, str] = field(default_factory=lambda: {
        # The batch demand kernel's executable scalar reference.
        "repro.sim.demand.DemandModel.required_batch": "required_resources",
        # The packing loop's scalar reference is the per-host Best-Fit
        # loop, kept as a test oracle.
        "repro.core.bestfit._pack_batch":
            "tests/core/bestfit_oracle.py::best_fit_scalar",
    })
    #: qualname -> justification, for batch-shaped helpers that need no
    #: twin (none today).
    parity_exempt: Dict[str, str] = field(default_factory=dict)
    #: Repo-relative directories searched for the differential test that
    #: names both halves of a parity pair.
    parity_test_dirs: Tuple[str, ...] = ("tests", "benchmarks")
    #: Repo-relative contracts table; every tests/benchmarks path it
    #: references must exist.  Missing doc => the check is skipped (the
    #: fixture repos in tests have no docs tree).
    contracts_doc: str = "docs/API.md"

    # -- helpers -------------------------------------------------------------
    def module_exempt_from_determinism(self, module: str) -> bool:
        return any(fnmatch.fnmatchcase(module, pat)
                   for pat in self.determinism_exempt)

    def module_in_lock_scope(self, module: str) -> bool:
        return any(fnmatch.fnmatchcase(module, pat)
                   for pat in self.lock_scope)

    def is_cache_attr(self, attr: str) -> bool:
        low = attr.lower()
        return any(marker in low for marker in self.cache_attr_markers)


DEFAULT_CONFIG = LintConfig()
