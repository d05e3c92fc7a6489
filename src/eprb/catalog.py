"""The names the command grammar and the zoo listing read, free of numpy.

``eprb models``, ``--help`` and the CLI's argument checks read only these,
so a command that computes nothing never imports numpy. ``models``,
``hidden_variables`` and ``analyticity`` import each name from here.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["LocalityClass", "ZOO", "MODEL_NAMES", "zoo", "SAMPLER_KINDS", "DEFAULT_H"]


class LocalityClass(Enum):
    """How a model's outcomes may depend on the measurement settings."""

    LOCAL = "local"
    CONSTANT_NONLOCAL = "constant_nonlocal"
    GENERAL_NONLOCAL = "general_nonlocal"


# name -> (locality class, one-line summary), in listing order: the one
# copy of each class (no model holds one). ``models._BUILDERS`` is keyed alike.
ZOO = {
    "quantum": (LocalityClass.GENERAL_NONLOCAL,
                "closed-form singlet correlation, no hidden variables"),
    "local_sign": (LocalityClass.LOCAL, "A = sign(a.lam), B = -sign(b.lam)"),
    "coin": (LocalityClass.LOCAL, "all four outcome probabilities 1/2"),
    "linear": (LocalityClass.LOCAL, "P1(+) = (1 + a.lam)/2, P2(+) = (1 - b.lam)/2"),
    "constant": (LocalityClass.CONSTANT_NONLOCAL,
                 "A = sign(u.lam), B = -sign(v.lam); settings ignored"),
    "fixed": (LocalityClass.CONSTANT_NONLOCAL, "A = alpha, B = beta; draw and settings ignored"),
    "nonlocal_sign": (LocalityClass.GENERAL_NONLOCAL,
                      "A = sign(a.b + a.lam), B = sign(b.lam + bias)"),
    "series_delta": (LocalityClass.GENERAL_NONLOCAL,
                     "anticorrelated series pair with A(a,b) = a.b"),
    "series_random": (LocalityClass.GENERAL_NONLOCAL,
                      "anticorrelated series pair, seeded dense coefficients"),
}

MODEL_NAMES = tuple(ZOO)


def zoo() -> list[dict]:
    """Registry listing: name, locality class, one-line description."""
    return [
        {"name": name, "locality_class": cls.value, "summary": summary}
        for name, (cls, summary) in ZOO.items()
    ]


SAMPLER_KINDS = ("uniform_sphere", "uniform_cube")

# Finite-difference step of the analyticity diagnostics.
DEFAULT_H = 1e-4
