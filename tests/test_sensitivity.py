"""Figure 11: the cut detector's conflict rate under K, H, L sensitivity."""

from repro.experiments.scenarios import sensitivity_experiment

GRID = dict(
    n=200,
    repetitions=3,
    observers_sampled=20,
    seed=1,
    h_values=(6, 9),
    l_values=(1, 3),
    f_values=(2, 8),
)


def test_sensitivity_is_seeded_and_higher_h_conflicts_less():
    result = sensitivity_experiment(**GRID)
    assert result == sensitivity_experiment(**GRID)
    assert result["k"] == 10 and result["n"] == 200
    rates = result["conflict_rates"]
    assert set(rates) == {
        (h, l, f) for h in (6, 9) for l in (1, 3) for f in (2, 8)
    }
    assert all(0.0 <= rate <= 100.0 for rate in rates.values())
    # The paper's trend: a higher watermark H leaves fewer processes
    # proposing an incomplete cut, for every (L, F).
    for l in (1, 3):
        for f in (2, 8):
            assert rates[(9, l, f)] <= rates[(6, l, f)]
    # ...and the grid is not degenerate: low H does conflict somewhere.
    assert max(rates[(6, l, f)] for l in (1, 3) for f in (2, 8)) > 0.0
