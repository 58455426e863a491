"""The source paper's claims, each checked against the exact outcome law of one
game (``qmg.game.outcome_law``), never against a Monte Carlo estimate."""

from fractions import Fraction

from qmg.game import REGIME_AVOID_WORST, REGIME_ENHANCE_OPTIMUM, outcome_law, phase_for_regime


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


def collision_rate(n, phase) -> Fraction:
    """The exact expected share of a full n-player game's transmissions that collide:
    1 - E[players alone] / n over the game's equally likely outcomes, counted in Python
    ints (the classical count 16**16 wraps in uint64)."""
    law = outcome_law(n, phase).tolist()  # counts by (players alone, all-same)
    alone = sum(successes * sum(counts) for successes, counts in enumerate(law))
    return 1 - Fraction(alone, n * sum(map(sum, law)))


def test_energy_scenario_collision_rates_per_full_game():
    """The paper: "In our model, two different scenarios are considered, to meet
    the requirements of different user strategies.  The first considers sensor
    networks where the rational use of energy is a cornerstone."

    A transmission that collides spends its energy for nothing, so a star slot's
    energy per delivery is tx_cost / (1 - collision rate).  Over a full game of n
    players: enhance-optimum collides strictly less often than the classical rule
    at every n = 2..16, though from n = 7 on the three regimes differ by less
    than 1e-4.  Avoid-worst collides less than the classical rule at even n, where
    its rate equals enhance-optimum's, and more at every odd n >= 3."""
    for n in range(2, 17):
        classical = collision_rate(n, None)
        enhance = collision_rate(n, phase_for_regime(REGIME_ENHANCE_OPTIMUM, n))
        avoid = collision_rate(n, phase_for_regime(REGIME_AVOID_WORST, n))
        assert enhance < classical, n
        assert (max(classical, avoid) - enhance < Fraction(1, 10**4)) == (n >= 7), n
        if n % 2:
            assert avoid > classical, n
        else:
            assert avoid < classical and avoid == enhance, n


def zero_delivery(n, phase) -> Fraction:
    """The exact probability that a full n-player game leaves nobody alone on a
    channel, so that the slot delivers nothing, counted in Python ints."""
    law = outcome_law(n, phase).tolist()  # counts by (players alone, all-same)
    return Fraction(sum(law[0]), sum(map(sum, law)))


def test_qos_scenario_zero_delivery_per_full_game():
    """The paper: "In our model, two different scenarios are considered, to meet
    the requirements of different user strategies. [...] the second focuses on
    installations where the quality of service of the entire network is a
    priority."

    A slot in which nobody is alone on a channel delivers nothing to the whole
    network.  Over a full game of n players, for n = 2..16, neither regime makes
    such slots rarer at every n.  Enhance-optimum makes them more likely than the
    classical rule exactly at n in {3, 4, 7, 8, 9, 11, 12, 15, 16}, and less
    likely at every other n; the two never tie.  Avoid-worst makes them more
    likely exactly at n in {5, 13}, and removes them altogether exactly at
    n in {2, 3, 4, 6}."""
    laws = {n: (zero_delivery(n, None),
                zero_delivery(n, phase_for_regime(REGIME_ENHANCE_OPTIMUM, n)),
                zero_delivery(n, phase_for_regime(REGIME_AVOID_WORST, n))) for n in range(2, 17)}
    assert {n for n, (classical, enhance, _) in laws.items() if enhance > classical} == \
        {3, 4, 7, 8, 9, 11, 12, 15, 16}
    assert all(enhance != classical for classical, enhance, _ in laws.values())
    assert {n for n, (classical, _, avoid) in laws.items() if avoid > classical} == {5, 13}
    assert {n for n, (_, _, avoid) in laws.items() if avoid == 0} == {2, 3, 4, 6}
