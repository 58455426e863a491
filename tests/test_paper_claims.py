"""The source paper's claims, each checked against the exact outcome law of one
game (``qmg.game.outcome_law``), never against a Monte Carlo estimate."""

from qmg.game import REGIME_AVOID_WORST, outcome_law, phase_for_regime


def test_avoid_worst_never_leaves_every_player_alone():
    """The paper: "By taking advantage of quantum entanglement and quantum
    interference, it is possible to reduce the probability of collision
    problems commonly associated with classic algorithms."

    The avoid-worst regime removes the all-same outcome, but from n = 3 on it
    removes every collision-free outcome too.  Its support is the tuples whose
    digit sum is -1 mod n (phase 1).  Every player alone on a channel is a
    permutation of 0..n-1, whose digit sum n(n-1)/2 is 0 mod n for odd n and
    n/2 mod n for even n, never -1 mod n once n >= 3.  At n = 2 the sum 1 is
    -1 mod 2, and both permutations are on the support."""
    for n in range(2, 17):
        all_alone = outcome_law(n, phase_for_regime(REGIME_AVOID_WORST, n))[n].tolist()
        assert all_alone == ([2, 0] if n == 2 else [0, 0]), n
