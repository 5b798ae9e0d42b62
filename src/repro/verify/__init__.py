"""Verification: volumetric-similarity comparison and quality reports."""

from .comparator import EdgeComparison, VerificationResult, VolumetricComparator
from .report import (
    QualityReport,
    format_aqp_comparison,
    format_error_cdf,
    format_relation_summary,
    format_sample_tuples,
    format_summary_table,
)

__all__ = [
    "EdgeComparison",
    "QualityReport",
    "VerificationResult",
    "VolumetricComparator",
    "format_aqp_comparison",
    "format_error_cdf",
    "format_relation_summary",
    "format_sample_tuples",
    "format_summary_table",
]
