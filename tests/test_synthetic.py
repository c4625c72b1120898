import tracemalloc

import pytest

from tkgrag import synthetic
from tkgrag.synthetic import SyntheticSpec, generate_events


def listed_noise_pair(index: int, n_noise: int, first: int) -> tuple[int, int]:
    """The `index`-th ordered pair of distinct noise entities, looked up in
    the list of every such pair."""
    entities = range(first, first + n_noise)
    return [(a, b) for a in entities for b in entities if a != b][index]


class TestNoisePairs:
    @pytest.mark.parametrize("n_noise", [2, 3, 5])
    @pytest.mark.parametrize("first", [2, 17])
    def test_decode_matches_the_list(self, n_noise, first):
        pairs = n_noise * (n_noise - 1)
        assert ([synthetic.noise_pair(i, n_noise, first) for i in range(pairs)]
                == [listed_noise_pair(i, n_noise, first) for i in range(pairs)])

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(), SyntheticSpec(seed=3), SyntheticSpec(n_entities=17),
        SyntheticSpec(n_entities=18), SyntheticSpec(n_entities=19),
        SyntheticSpec(n_entities=40, n_noise_events=3000, seed=11),
    ], ids=["default", "seed-3", "no-noise-entity", "one-noise-entity", "two-noise-entities",
            "forty-entities"])
    def test_events_match_the_listed_pairs(self, monkeypatch, spec):
        events = generate_events(spec)
        monkeypatch.setattr(synthetic, "noise_pair", listed_noise_pair)
        assert events == generate_events(spec)

    def test_memory_is_linear_in_the_entities(self):
        """No list of every ordered noise pair: at 1,000 entities it held
        about 10^6 pairs, 60 MB."""
        tracemalloc.start()
        try:
            generate_events(SyntheticSpec(n_entities=1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
