"""Fabric constituent vocabulary and indicator-vector helpers.

Composition detection predicts which of six constituent materials a fabric
contains; the composition head's columns and the scorer both follow this
fixed order.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

CONSTITUENTS = ("Linen", "Viscose", "Cotton", "Wool", "Polyester", "Elastane")
_INDEX = {name: i for i, name in enumerate(CONSTITUENTS)}


class UnknownConstituentError(ValidationError):
    """A constituent name outside the six-material vocabulary."""


def validate_constituents(names) -> frozenset[str]:
    names = frozenset(names)
    unknown = names - set(CONSTITUENTS)
    if unknown:
        raise UnknownConstituentError(f"unknown constituent(s): {sorted(unknown)}")
    return names


def indicator(names) -> np.ndarray:
    """Membership vector over CONSTITUENTS, in vocabulary order."""
    names = validate_constituents(names)
    vec = np.zeros(len(CONSTITUENTS))
    for name in names:
        vec[_INDEX[name]] = 1.0
    return vec


def from_indicator(values, threshold: float = 0.5) -> frozenset[str]:
    values = np.asarray(values)
    if values.shape != (len(CONSTITUENTS),):
        raise ValidationError(f"expected {len(CONSTITUENTS)} values, got shape {values.shape}")
    return frozenset(name for name, v in zip(CONSTITUENTS, values) if v > threshold)
