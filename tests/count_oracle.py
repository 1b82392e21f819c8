"""Exact truncated values of count automata, by backward recursion.

When every firm plays one count automaton, every firm plays the state's
action a in every period and earns the stage payoff u(a) of the symmetric
profile: u(0) = gain(0) and u(1) = gain(N - 1) - L.  A period's zero bits
then follow a binomial law: N public bits, each 0 with the monitor's chance
(m_alpha under concealment, m_epsilon under disclosure), or N(N - 1)
private bits at the firms' own (alpha, epsilon), counted by the truthful
message round of the next period.  So

    V_0(z) = 0,    V_k(z) = (1 - delta) u(a(z)) + delta sum_c pi_a(z)(c) V_{k-1}(next(z, c)),

and the T-period truncated average of an episode, the mean of a Monte Carlo
row, is V_T of the state the firms act from in period 0: the table's initial
state in public mode and, in private mode, its successor on the empty first
message round (no zeros).  The laws and payoffs are computed here from the
spec's fields; only the table is read from the package.
"""

import math

import numpy as np


def zero_count_law(bits: int, p_zero: float) -> np.ndarray:
    """P(c zeros) for c = 0 .. bits: Binomial(bits, p_zero)."""
    return np.array(
        [math.comb(bits, c) * p_zero**c * (1.0 - p_zero) ** (bits - c) for c in range(bits + 1)]
    )


def truncated_value(spec, table, horizon: int, mode: str = "public") -> float:
    """E[(1 - delta) sum_{t < horizon} delta^t u_t] for ``table`` (a
    CountTable) played by every firm of ``spec`` in ``mode``."""
    n, d = spec.n_firms, spec.delta
    if mode == "public":
        bits, alpha, eps = n, spec.m_alpha, spec.m_epsilon
    else:
        bits, alpha, eps = n * (n - 1), spec.alpha, spec.epsilon
    laws = (zero_count_law(bits, alpha), zero_count_law(bits, eps))
    payoff = (spec.gain.gain(0), spec.gain.gain(n - 1) - spec.loss)
    action, nxt = table.action.tolist(), table.next_state.tolist()
    value = [0.0] * len(action)
    for _ in range(horizon):
        value = [
            (1.0 - d) * payoff[a] + d * sum(p * value[z] for p, z in zip(laws[a], row))
            for a, row in zip(action, nxt)
        ]
    start = table.initial if mode == "public" else nxt[table.initial][0]
    return value[start]
