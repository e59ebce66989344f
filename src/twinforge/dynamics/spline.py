"""Two-piece cubic spline for the tire slip -> normalized force curve.

The curve runs from a zero knot (s0, f0) up to an extremum (se, fe) and back
down to an asymptote knot (sa, fa). Segment 0 uses a natural end condition at
s0 (zero second derivative) and zero slope at the extremum; segment 1 is
clamped with zero slope at both the extremum and the asymptote. Evaluation
outside [s0, sa] clamps to the nearest knot value. Only the six knots are
stored in a document; the cubics are fitted from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..documents import ConfigurationError, Finite, Section


@dataclass
class FrictionSpline(Section):
    s0: Finite
    f0: Finite
    se: Finite
    fe: Finite
    sa: Finite
    fa: Finite
    # Python floats: numpy scalars would slow every evaluation.
    _c0: tuple[float, float, float, float] = field(init=False, repr=False)
    _c1: tuple[float, float, float, float] = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if not (self.s0 < self.se < self.sa):
            raise ConfigurationError(
                f"knots must satisfy s0 < se < sa, got {self.s0}, {self.se}, {self.sa}")
        self._c0 = self._fit_segment0()
        self._c1 = self._fit_segment1()

    def _fit_segment0(self) -> tuple[float, float, float, float]:
        # f(s0)=f0, f(se)=fe, f'(se)=0, f''(s0)=0
        s0, se = self.s0, self.se
        a = np.array([
            [s0 ** 3, s0 ** 2, s0, 1.0],
            [se ** 3, se ** 2, se, 1.0],
            [3 * se ** 2, 2 * se, 1.0, 0.0],
            [6 * s0, 2.0, 0.0, 0.0],
        ])
        b = np.array([self.f0, self.fe, 0.0, 0.0])
        return tuple(np.linalg.solve(a, b).tolist())

    def _fit_segment1(self) -> tuple[float, float, float, float]:
        # f(se)=fe, f'(se)=0, f(sa)=fa, f'(sa)=0
        se, sa = self.se, self.sa
        a = np.array([
            [se ** 3, se ** 2, se, 1.0],
            [3 * se ** 2, 2 * se, 1.0, 0.0],
            [sa ** 3, sa ** 2, sa, 1.0],
            [3 * sa ** 2, 2 * sa, 1.0, 0.0],
        ])
        b = np.array([self.fe, 0.0, self.fa, 0.0])
        return tuple(np.linalg.solve(a, b).tolist())

    def __call__(self, s: float) -> float:
        if s <= self.s0:
            return self.f0
        if s >= self.sa:
            return self.fa
        if s < self.se:
            a, b, c, d = self._c0
        else:
            a, b, c, d = self._c1
        return ((a * s + b) * s + c) * s + d
