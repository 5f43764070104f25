"""Exception hierarchy shared by all simulator modules."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by the simulator."""


class ConfigError(SimulationError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# -- topology / event loop ---------------------------------------------------

class UndeclaredRoute(SimulationError):
    """Message or link between component kinds not in the route allow-list."""


class DuplicateComponent(SimulationError):
    """Two components declared with the same (kind, index)."""


class UnknownInterface(SimulationError):
    """Meter or send referenced an interface the topology does not declare."""


class ComponentDown(SimulationError):
    """Operation addressed to a component that has failed."""


class TickLimitExceeded(SimulationError):
    """The next scheduled action lies past the run's ``max_ticks``."""


# -- data generation / pipeline ----------------------------------------------

class SchemaMismatch(SimulationError):
    """Coefficients, parameters or records do not fit the declared schema."""


class CollectionTimeout(SimulationError):
    """A data source stayed silent for the entire collection window."""


class EmptyDataset(SimulationError):
    """No records left after deduplication."""


class UnmappableField(SimulationError):
    """Record field has no entry in the canonical renaming table."""


class InsufficientData(SimulationError):
    """Too few records for the requested statistic."""


# -- learning ------------------------------------------------------------------

class NonFiniteUpdate(SimulationError):
    """A parameter became NaN/inf during gradient descent (divergent step)."""


class EmptyTrainSet(SimulationError):
    """Training requested on an empty partition."""


class EmptyEvalSet(SimulationError):
    """Evaluation requested on an empty partition."""


class SingularSystem(SimulationError):
    """Closed-form normal equations not solvable within pivot tolerance."""


class EmptySearchSpace(SimulationError):
    """Hyperparameter search over zero candidate combinations."""


# -- lifecycle -----------------------------------------------------------------

class InvalidArtifact(SimulationError):
    """Model artifact failed schema or validation-metric checks."""


class IllegalTransition(SimulationError):
    """Lifecycle transition outside the legal state digraph."""


class RefinementBudgetExhausted(SimulationError):
    """Refinement requested beyond the configured iteration budget."""


# -- scenarios -----------------------------------------------------------------

class NoDataSources(SimulationError):
    """Scenario requires at least one data source."""


class InsufficientDomains(SimulationError):
    """Collaborative scenario requires at least two management domains."""


class UnsupportedKind(SimulationError):
    """Operation not defined for this model kind (e.g. stump aggregation)."""


# -- harness ---------------------------------------------------------------------

class MissingKey(SimulationError):
    """Pseudonymization requested without a key."""


class SinglePointFailure(SimulationError):
    """Component failed with no replica configured to take over."""


class ZeroCapacity(SimulationError):
    """Scheduler configured with no per-tick budget."""
