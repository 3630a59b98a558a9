"""The stream's repeat shares bound what the live caches can hit."""

import client
from serving import repeat_shares


def _sample(sent, op, **fields):
    return client.Sample(0, {"op": op, **fields}, sent=sent)


def test_repeats_are_counted_over_cached_reads_and_reset_by_ingest():
    samples = [
        _sample(0, "ppr", target=1),
        _sample(1, "ppr", target=1, rid="0.1"),  # repeat; the request id is not part of the key
        _sample(2, "sparql", query="q"),  # not a cached op
        _sample(3, "triples", triples=[[1, 0, 2]]),
        _sample(4, "ppr", target=1),  # repeats, but not since the ingest
        _sample(5, "ego", root=1),
    ]
    assert repeat_shares(list(reversed(samples))) == {
        "reads": 4, "repeat_share": 0.5, "repeat_since_ingest_share": 0.25}
