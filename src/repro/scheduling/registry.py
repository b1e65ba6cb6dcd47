"""Registry of all scheduling heuristics, driven by the component registry.

The paper's seventeen heuristics are registered here:

* ``RANDOM``;
* passive: ``IP``, ``IE``, ``IY``, ``IAY``;
* proactive: ``C-H`` for ``C ∈ {P, E, Y}`` and ``H ∈ {IP, IE, IY, IAY}``.

The extension heuristics (``FAST``, ``THRESHOLD-IE``, ``STICKY``) register
themselves from :mod:`repro.scheduling.extensions` with the
``@register_heuristic`` decorator.  The registry
(:data:`~repro.scheduling.catalog.HEURISTICS`) is the single source of truth
used by :func:`create_scheduler`, the experiment harness, the campaign-spec
validation, the CLI and the :mod:`repro.api` facade.

Heuristics are addressed by *expressions*: a bare name (``"IE"``,
``"Y-IE"``) or a parameterized call whose keyword arguments are validated
against the registered factory's signature (``"THRESHOLD-IE(tau=0.5)"``,
``"STICKY(patience=3)"``, ``"FAST(k=8)"``).  Expressions canonicalize —
case, aliases, argument order and formatting are normalised — so campaign
specs hash identically however the heuristic was spelled.

To add your own heuristic, decorate a scheduler class (or factory)::

    from repro.scheduling import Scheduler, register_heuristic

    @register_heuristic("GREEDY", family="extension",
                        description="my greedy policy")
    class GreedyScheduler(Scheduler):
        def __init__(self, horizon: int = 10) -> None: ...

after which ``create_scheduler("GREEDY(horizon=20)")``, campaign specs and
the CLI all accept it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.criteria import PROACTIVE_CRITERIA, get_criterion
from repro.components import ComponentError, ComponentInfo
from repro.scheduling.base import Scheduler
from repro.scheduling.catalog import (
    FAMILY_BASELINE,
    FAMILY_EXTENSION,
    FAMILY_PASSIVE,
    FAMILY_PROACTIVE,
    HEURISTICS,
    register_heuristic,
)
from repro.scheduling.passive import PASSIVE_CRITERION_BY_NAME, make_passive_heuristic
from repro.scheduling.proactive import ProactiveHeuristic
from repro.scheduling.random_heuristic import RandomScheduler

__all__ = [
    "PASSIVE_HEURISTICS",
    "PROACTIVE_HEURISTICS",
    "ALL_HEURISTICS",
    "TABLE2_HEURISTICS",
    "EXTENSION_HEURISTIC_NAMES",
    "HEURISTICS",
    "register_heuristic",
    "create_scheduler",
    "available_heuristics",
    "heuristic_info",
    "canonical_heuristic",
]

#: The four passive heuristics of Section VI-A.
PASSIVE_HEURISTICS: Tuple[str, ...] = tuple(PASSIVE_CRITERION_BY_NAME)

#: The twelve proactive heuristics of Section VI-B.
PROACTIVE_HEURISTICS: Tuple[str, ...] = tuple(
    f"{criterion}-{heuristic}"
    for criterion in PROACTIVE_CRITERIA
    for heuristic in PASSIVE_HEURISTICS
)

#: All seventeen heuristics, in the paper's naming.
ALL_HEURISTICS: Tuple[str, ...] = ("RANDOM",) + PASSIVE_HEURISTICS + PROACTIVE_HEURISTICS

#: The eight heuristics reported in Table II / Figure 2 (m = 10).
TABLE2_HEURISTICS: Tuple[str, ...] = (
    "Y-IE",
    "P-IE",
    "E-IAY",
    "E-IY",
    "E-IP",
    "IAY",
    "IY",
    "IE",
)


# ----------------------------------------------------------------------
# Registration of the paper's seventeen heuristics
# ----------------------------------------------------------------------
_PASSIVE_DESCRIPTIONS = {
    "IP": "incremental placement maximising the probability of success",
    "IE": "incremental placement minimising the expected completion time",
    "IY": "incremental placement maximising the expected yield P / (t + E)",
    "IAY": "incremental placement maximising the apparent yield P / E",
}

_CRITERION_DESCRIPTIONS = {
    "P": "switch when the candidate's probability of success is strictly higher",
    "E": "switch when the candidate's expected completion time is strictly lower",
    "Y": "switch when the candidate's expected yield is strictly higher",
}


def _passive_factory(name: str):
    def factory() -> Scheduler:
        return make_passive_heuristic(name)

    return factory


def _proactive_factory(criterion_name: str, passive_name: str):
    def factory() -> Scheduler:
        return ProactiveHeuristic(
            get_criterion(criterion_name),
            make_passive_heuristic(passive_name),
            name=f"{criterion_name}-{passive_name}",
        )

    return factory


if "RANDOM" not in HEURISTICS:  # idempotent under module re-import
    register_heuristic(
        "RANDOM",
        RandomScheduler,
        family=FAMILY_BASELINE,
        paper=True,
        description="uniform random task placement on UP workers (baseline)",
    )
    for _name in PASSIVE_HEURISTICS:
        register_heuristic(
            _name,
            _passive_factory(_name),
            family=FAMILY_PASSIVE,
            paper=True,
            description=_PASSIVE_DESCRIPTIONS[_name],
        )
    for _criterion in PROACTIVE_CRITERIA:
        for _passive in PASSIVE_HEURISTICS:
            register_heuristic(
                f"{_criterion}-{_passive}",
                _proactive_factory(_criterion, _passive),
                family=FAMILY_PROACTIVE,
                paper=True,
                description=(
                    f"proactive {_passive} — {_CRITERION_DESCRIPTIONS[_criterion]}"
                ),
            )

# Importing the extensions module registers FAST / THRESHOLD-IE / STICKY via
# their decorators; done after the paper registrations so listing order is
# the paper's seventeen first, extensions after.
from repro.scheduling import extensions as _extensions  # noqa: E402,F401

#: Extension heuristics (not part of the paper's evaluation) also accepted by
#: :func:`create_scheduler`; see :mod:`repro.scheduling.extensions`.
EXTENSION_HEURISTIC_NAMES: Tuple[str, ...] = tuple(HEURISTICS.names(FAMILY_EXTENSION))


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def create_scheduler(name: str) -> Scheduler:
    """Instantiate a heuristic from a name or parameterized expression.

    Examples: ``create_scheduler("IE")``, ``create_scheduler("Y-IE")``,
    ``create_scheduler("random")``, ``create_scheduler("THRESHOLD-IE(tau=0.7)")``.
    Besides the paper's seventeen heuristics, the extension policies of
    :mod:`repro.scheduling.extensions` (``FAST``, ``THRESHOLD-IE``,
    ``STICKY``) — and anything registered with
    :func:`~repro.scheduling.catalog.register_heuristic` — are recognised.

    The returned scheduler's ``name`` is the expression's canonical form, so
    results of parameterized heuristics stay distinguishable in campaign
    stores and tables.  Raises :class:`~repro.components.ComponentError`
    (a :class:`ValueError`) for unknown heuristics or invalid arguments.
    """
    expression = HEURISTICS.resolve(name)
    scheduler = HEURISTICS.create(expression)
    scheduler.name = expression.canonical()
    return scheduler


def available_heuristics(family: Optional[str] = None) -> List[str]:
    """All registered heuristic names, paper order first, then extensions.

    ``family`` filters to one of ``"baseline"``, ``"passive"``,
    ``"proactive"`` or ``"extension"`` (plus any family a plugin registered).
    Unlike :data:`ALL_HEURISTICS` (the paper's fixed seventeen), this lists
    everything :func:`create_scheduler` accepts.
    """
    names = HEURISTICS.names(family)
    paper = [name for name in ALL_HEURISTICS if name in names]
    return paper + [name for name in names if name not in set(paper)]


def heuristic_info(name: str) -> ComponentInfo:
    """Registered metadata (family, description, parameters) for a heuristic.

    Accepts bare names and full expressions (``"THRESHOLD-IE(tau=0.5)"``
    yields the ``THRESHOLD-IE`` entry).
    """
    from repro.components import parse_expression

    return HEURISTICS.get(parse_expression(name).name)


def canonical_heuristic(expression) -> str:
    """Canonical string form of a heuristic expression (see module docstring)."""
    return HEURISTICS.canonical(expression)


# Re-exported so callers can catch registry errors without importing
# repro.components explicitly.
HeuristicError = ComponentError
