"""One Newton step of ``subqp.ipm_quad`` taken apart, for tests that check
the direction, the step length and the barrier update on their own, and a
one-piece objective for tests that solve fixed coefficients.

Each step function computes, from the state alone, the arguments that
``ipm_quad`` hands the private step functions, then calls them.
"""
from __future__ import annotations

from specbundle import subqp
from specbundle.symlin import is_positive_definite, svec


def newton_direction(q: subqp.QuadCoeffs, st: subqp.IpmState, mu: float) -> subqp.Direction:
    """Newton step for the linearized central-path system at ``st``."""
    t_vec = svec(st.t_mat)
    f1, f2 = subqp._stationarity(q, st, svec(st.s_mat), t_vec)
    return subqp._direction(q, st, mu, f1, f2, t_vec, st.trace_slack())


def line_search_feasible(st: subqp.IpmState, d: subqp.Direction) -> float:
    """Largest step fraction in (0, 1] keeping the state strictly feasible."""
    return subqp._line_search(st, d, st.trace_slack())[0]


def barrier_update(st: subqp.IpmState, delta: float) -> float:
    """Non-increasing barrier estimate after a step of fraction ``delta``."""
    return subqp._barrier_target(st, delta, st.complementarity() / (2.0 * st.pairs()))


def strictly_feasible(st: subqp.IpmState) -> bool:
    """Whether every product block of ``st`` is strictly positive."""
    if st.omega <= 0 or st.trace_slack() <= 0:
        return False
    if st.has_eta and (st.eta <= 0 or st.zeta <= 0):
        return False
    return is_positive_definite(st.s_mat) and is_positive_definite(st.t_mat)


class OnePiece:
    """Fixed coefficients as the one piece of a proximal objective: the
    first :meth:`select` returns them and every later one returns None, as
    ``subqp._Pieces`` does for a problem without sign rows."""

    def __init__(self, q: subqp.QuadCoeffs):
        self.q, self.k, self.has_eta, self.visited = q, q.k, q.has_eta, 0

    def select(self, s_mat, eta) -> subqp.QuadCoeffs | None:
        self.visited += 1
        return self.q if self.visited == 1 else None


def solve_quad(q: subqp.QuadCoeffs) -> subqp.IpmResult:
    """``ipm_quad`` on the objective with the one piece ``q``."""
    return subqp.ipm_quad(OnePiece(q))
