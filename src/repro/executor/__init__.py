"""Execution engine: vectorised SPJ operators, datagen scan and rate control."""

from .datagen import DataGenRelation, GenerationStats
from .engine import ExecutionEngine, ExecutionResult, ExecutorError
from .rate import RateLimiter, VirtualClock

__all__ = [
    "DataGenRelation",
    "ExecutionEngine",
    "ExecutionResult",
    "ExecutorError",
    "GenerationStats",
    "RateLimiter",
    "VirtualClock",
]
