"""Static and dynamic enforcement of the repo's design invariants.

Two halves (see DESIGN.md, "Analysis"):

* :mod:`repro.analysis.linter` — an AST-based linter with project-specific
  rule series: D (determinism), P (hot-path discipline), H (hygiene).
  ``tools/lint_repro.py`` is the CLI entry point; CI runs it with the
  committed baseline so only *new* violations fail the build.
* :mod:`repro.analysis.raceguard` — the whole-program concurrency pass
  (C401–C405): inventories module-level mutable state, builds the project
  call graph, and checks reachability from the concurrent entry points so
  the SimContext scoping contract is machine-enforced
  (``tools/lint_repro.py --concurrency``).
* :mod:`repro.analysis.sanitizer` — runtime invariant checks for the
  simulated hardware (DRAM timing legality, RAID-3 reconstruction
  uniqueness, counter-tree consistency, run-cache replay fidelity, and
  the owner-context rule for SimContext-owned memos/registries),
  enabled with ``REPRO_SANITIZE=1`` / ``--sanitize`` and free when off.

Only the sanitizer is imported with the package; the linter and raceguard
names load on first access, so the simulator never imports them.
"""

import importlib
from typing import TYPE_CHECKING, Any, Dict

from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerError,
    configure_sanitizer,
    get_sanitizer,
    sanitized,
    sanitizer_enabled,
)

if TYPE_CHECKING:
    from repro.analysis.linter import (
        Violation,
        lint_paths,
        lint_source,
        load_baseline,
        new_violations,
        violations_to_baseline,
    )
    from repro.analysis.raceguard import (
        ConcurrencyReport,
        analyze_paths,
        concurrency_catalogue,
    )
    from repro.analysis.rules import ALL_RULES, rule_catalogue

#: Names served on first access: the simulator imports only the sanitizer,
#: so the linter, its rules and raceguard stay out of its import.
_LAZY: Dict[str, str] = {
    "Violation": "linter",
    "lint_paths": "linter",
    "lint_source": "linter",
    "load_baseline": "linter",
    "new_violations": "linter",
    "violations_to_baseline": "linter",
    "ConcurrencyReport": "raceguard",
    "analyze_paths": "raceguard",
    "concurrency_catalogue": "raceguard",
    "ALL_RULES": "rules",
    "rule_catalogue": "rules",
}


def __getattr__(name: str) -> Any:
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        ) from None
    return getattr(importlib.import_module("%s.%s" % (__name__, module)), name)

__all__ = [
    "ALL_RULES",
    "ConcurrencyReport",
    "Sanitizer",
    "SanitizerError",
    "Violation",
    "analyze_paths",
    "concurrency_catalogue",
    "configure_sanitizer",
    "get_sanitizer",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "new_violations",
    "rule_catalogue",
    "sanitized",
    "sanitizer_enabled",
    "violations_to_baseline",
]
