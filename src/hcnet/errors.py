"""Shared exception types.

Every domain-level failure raises a subclass of EngineError so the CLI can
map them to exit code 1 uniformly.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all domain errors raised by this package."""


# --- hypergraph ---
class ArityMismatch(EngineError):
    pass


class NodeOutOfRange(EngineError):
    pass


class PositionOutOfRange(EngineError):
    pass


class NotABijection(EngineError):
    pass


class ParseError(EngineError):
    pass


class InconsistentArity(EngineError):
    pass


# --- refine ---
class DomainMismatch(EngineError):
    pass


class NotAKnowledgeGraph(EngineError):
    pass


# --- logic ---
class UnknownColor(EngineError):
    pass


class UnknownRelation(EngineError):
    pass


class UnknownConstant(EngineError):
    pass


class NotRestricted(EngineError):
    pass


class ColorOutOfSignature(EngineError):
    pass


class InvalidConstants(EngineError):
    pass


class FormulaParseError(EngineError):
    pass


# --- nn ---
class ShapeMismatch(EngineError):
    pass


class QueryArityMismatch(EngineError):
    pass


class DimensionTooSmall(EngineError):
    pass


# --- train ---
class NoCandidate(EngineError):
    pass


class FactNotFound(EngineError):
    pass


class CheckpointError(EngineError):
    pass


class NonFiniteValue(EngineError):
    pass


# --- evalrank ---
class NaNScore(EngineError):
    pass


class EmptyOutcomes(EngineError):
    pass


# --- synth ---
class InvalidSpec(EngineError):
    pass


# --- cli ---
class ConfigError(EngineError):
    pass
