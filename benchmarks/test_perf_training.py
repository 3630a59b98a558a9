"""KG′ job benchmarks: the training step and the SPARQL extraction.

**train_step_row_sparse** — what the backward pass and the optimizer step
of one GraphSAINT step cost on the paper's KG′: the MAG-large PV task's
SPARQL d1h1 TOSG, trained with the ``repro train`` defaults.  The
embedding table covers every KG′ node, but a step samples a few percent of
them; the program keeps the table's gradient row-sparse and updates
Adam's moments in place, while the reference is the dense form the
program replaced (``tests/nn/dense_oracle.py``: a zero-filled full-table
gradient per gather, ``zeros_like + +=`` per first gradient, Adam with
temporaries).

The two models train in lockstep, one epoch (four steps) each in turn,
so host drift lands on both, and the speedup is the median of the ten
per-epoch ratios, so a burst of host noise moves one ratio, not the
figure; the forward pass and sampling are not timed.  Both must end with
**bit-identical** parameters (asserted before the timing is trusted).

**sparql_tosg_extract** — ``extract_tosg(method="sparql")`` d1h1 on the
same task, against the same call with the forms it replaced patched back
in (``tests/kg/extraction_oracle.py``: ``np.unique(axis=0)`` dedup,
per-term ``Vocabulary.restrict``, per-target task remaps, and endpoint
bytes serialized and compressed after every query).  The two run in
turn, and the speedup is the median of the per-round ratios.  Both must
produce the identical KG′, mapping and remapped task first.

Both are recorded with their floors in ``out/BENCH_training.json`` and
re-checked by ``check_perf_floors.py``.
"""

import contextlib
import json
import os
import statistics
import sys
import time

import numpy as np

from repro.core import extract_tosg
from repro.datasets import catalog
from repro.models import GraphSAINTClassifier, ModelConfig
from repro.models.graphsaint import STEPS_PER_EPOCH
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor

for _oracles in ("nn", "kg"):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests", _oracles))
import dense_oracle  # noqa: E402
import extraction_oracle  # noqa: E402

SCALE = "large"
#: ``repro train`` defaults (epochs, hidden, layers, lr, seed): 40 steps.
EPOCHS = 10
MODEL = ModelConfig(hidden_dim=24, num_layers=2, lr=0.02, seed=7)

# Observed ~1.5-1.7x on MAG-large KG′ (2 vCPUs): Adam's dense moment
# decay and update remain, the full-table scatters and temporaries go.
# Floor below, per the docs/ci.md policy.
ROW_SPARSE_FLOOR = 1.3

# Observed ~4.5x on MAG-large d1h1 (2 vCPUs): what is left is the query,
# one lexsort dedup per pass and the array remaps.  Floor below, per
# the docs/ci.md policy.
EXTRACT_FLOOR = 2.5
EXTRACT_ROUNDS = 10

_REPORT_NAME = "BENCH_training.json"


def _record(report_dir, name, entry):
    """Store one benchmark's entry in the shared training report."""
    path = os.path.join(report_dir, _REPORT_NAME)
    payload = {"benchmarks": {}}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload.setdefault("benchmarks", {})[name] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


@contextlib.contextmanager
def _timing(totals):
    """Add the seconds spent in ``Tensor.backward`` and ``Adam.step`` to ``totals``."""
    saved = [(Tensor, "backward", Tensor.backward), (Adam, "step", Adam.step)]

    def timed(original):
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                totals[0] += time.perf_counter() - start

        return run

    try:
        for owner, name, original in saved:
            setattr(owner, name, timed(original))
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def test_perf_train_step_row_sparse(benchmark, report, report_dir):
    bundle = catalog.mag(SCALE, 7)
    tosg = extract_tosg(bundle.kg, bundle.task("PV"), method="sparql", direction=1, hops=1)
    models = {
        mode: GraphSAINTClassifier(tosg.subgraph, tosg.task, MODEL)
        for mode in ("row_sparse", "dense")
    }
    rngs = {mode: np.random.default_rng(0) for mode in models}
    seconds = {mode: [] for mode in models}

    def measure():
        for _ in range(EPOCHS):
            for mode, model in models.items():
                dense = dense_oracle.dense_mode() if mode == "dense" else contextlib.nullcontext()
                spent = [0.0]
                with dense, _timing(spent):
                    model.train_epoch(rngs[mode])
                seconds[mode].append(spent[0])
        ratios = [d / r for d, r in zip(seconds["dense"], seconds["row_sparse"])]
        return sum(seconds["dense"]), sum(seconds["row_sparse"]), statistics.median(ratios)

    baseline, fast, speedup = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Bit-exactness first: the timing compares two runs of one training.
    got, want = models["row_sparse"].state_dict(), models["dense"].state_dict()
    for name in want:
        assert np.array_equal(got[name], want[name]), name

    steps = EPOCHS * STEPS_PER_EPOCH
    kg = tosg.subgraph
    report(
        "perf_train_step_row_sparse",
        (
            f"GraphSAINT backward + Adam step on {kg.name} KG' ({kg.num_nodes} nodes, "
            f"{kg.num_edges} edges), {steps} steps:\n"
            f"  dense gradients + Adam with temporaries  {baseline / steps * 1e3:8.2f} ms/step\n"
            f"  row-sparse gradients + in-place Adam     {fast / steps * 1e3:8.2f} ms/step\n"
            f"  -> {speedup:.2f}x, median of {EPOCHS} per-epoch ratios (floor {ROW_SPARSE_FLOOR}x)"
        ),
    )

    assert speedup >= ROW_SPARSE_FLOOR, (
        f"row-sparse training step only {speedup:.2f}x faster than the dense "
        f"oracle (floor {ROW_SPARSE_FLOOR}x)"
    )

    _record(report_dir, "train_step_row_sparse", {
        "graph": kg.name,
        "scale": SCALE,
        "nodes": kg.num_nodes,
        "edges": kg.num_edges,
        "steps": steps,
        "baseline_ms_per_step": baseline / steps * 1e3,
        "row_sparse_ms_per_step": fast / steps * 1e3,
        "per_epoch_speedups": [d / r for d, r in zip(seconds["dense"], seconds["row_sparse"])],
        "speedup": speedup,
        "floor": ROW_SPARSE_FLOOR,
    })


def _extraction_output(tosg):
    """Everything one extraction hands on, as comparable Python values."""
    kg, mapping, task = tosg.subgraph, tosg.mapping, tosg.task
    arrays = [kg.triples.s, kg.triples.p, kg.triples.o, kg.node_types,
              mapping.node_old_ids, task.target_nodes, task.labels,
              task.split.train, task.split.valid, task.split.test]
    return (
        [(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
        [list(v) for v in (kg.node_vocab, kg.class_vocab, kg.relation_vocab)],
        [mapping.node_old_to_new, mapping.class_old_to_new, mapping.relation_old_to_new],
        (task.target_class, tosg.params),
    )


def test_perf_sparql_tosg_extract(benchmark, report, report_dir):
    bundle = catalog.mag(SCALE, 7)
    kg, task = bundle.kg, bundle.task("PV")

    def extract():
        return extract_tosg(kg, task, method="sparql", direction=1, hops=1)

    def oracle():
        with extraction_oracle.oracle_mode():
            return extract()

    # Identical output first: the timing compares two runs of one extraction.
    fast, slow = extract(), oracle()
    assert _extraction_output(fast) == _extraction_output(slow)
    seconds = {"oracle": [], "program": []}

    def measure():
        for _ in range(EXTRACT_ROUNDS):
            for mode, run in (("oracle", oracle), ("program", extract)):
                start = time.perf_counter()
                run()
                seconds[mode].append(time.perf_counter() - start)
        ratios = [o / p for o, p in zip(seconds["oracle"], seconds["program"])]
        return statistics.median(seconds["oracle"]), statistics.median(seconds["program"]), ratios

    baseline, program, ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = statistics.median(ratios)
    sub = fast.subgraph
    report(
        "perf_sparql_tosg_extract",
        (
            f"extract_tosg(method='sparql') d1h1 on {kg.name} PV -> KG' "
            f"({sub.num_nodes} nodes, {sub.num_edges} edges):\n"
            f"  replaced forms, bytes read per query  {baseline * 1e3:8.2f} ms\n"
            f"  program, bytes computed when read     {program * 1e3:8.2f} ms\n"
            f"  -> {speedup:.2f}x, median of {EXTRACT_ROUNDS} per-round ratios "
            f"(floor {EXTRACT_FLOOR}x)"
        ),
    )

    assert speedup >= EXTRACT_FLOOR, (
        f"SPARQL KG' extraction only {speedup:.2f}x faster than its oracle "
        f"(floor {EXTRACT_FLOOR}x)"
    )

    _record(report_dir, "sparql_tosg_extract", {
        "graph": kg.name,
        "scale": SCALE,
        "kgprime_nodes": sub.num_nodes,
        "kgprime_edges": sub.num_edges,
        "baseline_ms": baseline * 1e3,
        "program_ms": program * 1e3,
        "per_round_speedups": ratios,
        "speedup": speedup,
        "floor": EXTRACT_FLOOR,
    })
