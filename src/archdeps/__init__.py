"""Component data-dependency analysis of layered system architectures."""

from .ingest import case_study_fixture
from .model import (
    Architecture,
    ComponentRecord,
    DocumentError,
    InvalidIdentifierError,
    ModelError,
    SubcomponentCycleError,
    UnknownIdentifierError,
)

__all__ = [
    "Architecture",
    "ComponentRecord",
    "DocumentError",
    "InvalidIdentifierError",
    "ModelError",
    "SubcomponentCycleError",
    "UnknownIdentifierError",
    "case_study_fixture",
]

__version__ = "0.1.0"
