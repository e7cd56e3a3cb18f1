"""Solver interface and registry."""

from __future__ import annotations

import abc
import importlib
import inspect

from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.errors import ConfigurationError, UnknownSolverError
from repro.utils.rng import SeedLike

SOLVER_REGISTRY: dict[str, type["Solver"]] = {}

#: Solvers living in layers *above* the core (which the core must not
#: import statically — see the layering lint rules).  Looking one of
#: these names up imports its module first; the module's import-time
#: ``@register_solver`` decorators then populate the registry.  This
#: is the hook wrapped solvers (e.g. the resilience executor) use to
#: be reachable through ``get_solver`` without inverting the
#: dependency DAG.
LAZY_SOLVER_MODULES: dict[str, str] = {
    "resilient": "repro.resilience",
}


def register_solver(name: str):
    """Class decorator adding a solver to the registry under ``name``."""

    def decorator(cls: type["Solver"]) -> type["Solver"]:
        cls.name = name
        SOLVER_REGISTRY[name] = cls
        return cls

    return decorator


def _load_lazy(name: str) -> None:
    module = LAZY_SOLVER_MODULES.get(name)
    if module is not None and name not in SOLVER_REGISTRY:
        importlib.import_module(module)


def get_solver(name: str, **kwargs) -> "Solver":
    """Instantiate a registered solver by name."""
    _load_lazy(name)
    try:
        cls = SOLVER_REGISTRY[name]
    except KeyError:
        known = set(SOLVER_REGISTRY) | set(LAZY_SOLVER_MODULES)
        raise UnknownSolverError(name, list(known)) from None
    return cls(**kwargs)


def list_solvers() -> list[str]:
    """Sorted names of all registered solvers (lazy ones included)."""
    for name in LAZY_SOLVER_MODULES:
        _load_lazy(name)
    return sorted(SOLVER_REGISTRY)


def solver_signature(name: str) -> inspect.Signature:
    """Constructor signature of the registered solver ``name``."""
    _load_lazy(name)
    try:
        cls = SOLVER_REGISTRY[name]
    except KeyError:
        known = set(SOLVER_REGISTRY) | set(LAZY_SOLVER_MODULES)
        raise UnknownSolverError(name, list(known)) from None
    return inspect.signature(cls.__init__)


def accepted_solver_kwargs(name: str) -> frozenset[str] | None:
    """Keyword names the solver's constructor accepts.

    ``None`` means the constructor takes ``**kwargs`` and any key is
    formally acceptable (nothing can be checked statically).
    """
    parameters = [
        parameter
        for parameter_name, parameter in solver_signature(
            name
        ).parameters.items()
        if parameter_name != "self"
    ]
    if any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters
    ):
        return None
    return frozenset(
        parameter.name
        for parameter in parameters
        if parameter.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    )


def validate_solver_kwargs(name: str, kwargs: dict) -> None:
    """Reject ``solver_kwargs`` keys the solver's constructor rejects.

    A typo'd key would otherwise surface as a ``TypeError`` at the
    first ``get_solver`` call — round 1 of a long run.  Checking the
    signature up front turns it into a :class:`ConfigurationError` at
    scenario (or spec) construction time.
    """
    if not kwargs:
        # Still resolve the name so a typo'd solver fails here too.
        _load_lazy(name)
        if name not in SOLVER_REGISTRY:
            known = set(SOLVER_REGISTRY) | set(LAZY_SOLVER_MODULES)
            raise UnknownSolverError(name, list(known))
        return
    accepted = accepted_solver_kwargs(name)
    if accepted is None:
        return
    unknown = sorted(set(kwargs) - accepted)
    if unknown:
        raise ConfigurationError(
            f"solver {name!r} does not accept solver_kwargs key(s) "
            f"{', '.join(repr(key) for key in unknown)}; accepted: "
            f"{', '.join(sorted(accepted)) or '(none)'}"
        )


class Solver(abc.ABC):
    """Produces an :class:`Assignment` for an :class:`MBAProblem`.

    Solvers must be stateless across calls (construct-once, solve-many)
    and deterministic given the same ``seed``.  Two sanctioned
    exceptions carry *explicit* state: history observed through
    :meth:`observe_round`, and warm-start state declared via
    ``carries_warm_state`` — in both cases determinism holds given the
    same history/state, and the state must live on the solver object so
    it rides simulation checkpoints (the engine pickles the solver).
    """

    name: str = "unnamed"

    #: True for solvers that thread cross-round warm-start state
    #: (auction prices, replayable edge sets).
    #: Such solvers MUST accept a ``warm_state`` keyword in
    #: ``__init__`` so the state is injectable/inspectable through the
    #: registered constructor signature — enforced by lint rule R204.
    carries_warm_state: bool = False

    @abc.abstractmethod
    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        """Solve one problem instance."""

    def observe_round(
        self, problem: MBAProblem, assignment: Assignment
    ) -> None:
        """Hook: the simulator reports each round's final assignment.

        Default is a no-op.  History-aware solvers (e.g. the
        incremental flow solver) override this to carry state — such
        as the previous round's edges — into the next ``solve`` call.
        The contract that solvers are deterministic *given the same
        observation history* still holds.
        """

    def _finish(
        self, problem: MBAProblem, edges: list[tuple[int, int]]
    ) -> Assignment:
        """Wrap raw edges into a validated Assignment tagged with our name."""
        return Assignment(problem, edges, solver_name=self.name)
