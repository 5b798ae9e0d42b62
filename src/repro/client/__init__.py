"""Client site: AQP extraction, anonymisation and the information package."""

from .anonymizer import AnonymizationMap, Anonymizer
from .extractor import AQPExtractor
from .package import InformationPackage

__all__ = [
    "AQPExtractor",
    "AnonymizationMap",
    "Anonymizer",
    "InformationPackage",
]
