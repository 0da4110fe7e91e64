"""One evaluation of the pipeline at a state: the alpha complex, then the
fractional measures, the intrinsic volumes and the gradient of K."""

from functools import cached_property

from .complexes import build_alpha_complex
from .gradient import gauss_gradient
from .intrinsic import intrinsic_volumes, weighted_gauss
from .measures import compute_measures


class Evaluation:
    """The pipeline at one state, or at each state of a stack
    (BallSet.with_states), whose volumes and K are one value per state.
    The constructor builds the strict alpha complex, so a degenerate state
    raises DegenerateState there; each later stage is computed once, on
    first use."""

    def __init__(self, balls):
        self.balls = balls
        self.cx = build_alpha_complex(balls)

    @cached_property
    def measures(self):
        return compute_measures(self.balls, self.cx)

    @cached_property
    def volumes(self):
        return intrinsic_volumes(self.balls, self.cx, self.measures)

    @cached_property
    def gauss(self):    # K alone, without the other three volumes
        return weighted_gauss(self.balls, self.cx, self.measures)[0]

    @cached_property
    def gradient(self):
        return gauss_gradient(self.balls, self.cx, self.measures)


def evaluate(balls):
    """The Evaluation of ``balls``; raises DegenerateState if non-generic."""
    return Evaluation(balls)
