"""Expected answers, computed in the benchmark process by the scalar oracles.

The oracle is the program's own serial baseline —
``ExtractionService(coalesce=False)``, which answers every request with
the scalar kernels one at a time — over the *same* artifact store the
server maps.  An answer is encoded exactly as the front ends encode it,
so a served response can be compared byte for byte.

Live graphs: the oracle replays the server's ingests in the same order
(with the same ``compact_every``), so it can answer at any epoch the
benchmark reaches.  Answers are memoized per (epoch, request).  For
``/predict`` the built model's full-graph forward pass is computed once
per epoch (it does not depend on the requested node); the per-node payload
still comes from the scalar ``run_predict_oracle``.
"""

from __future__ import annotations

import asyncio
import gc
import json
from typing import Dict, Optional, Tuple

GRAPH = "mag"


def _key(request: dict) -> str:
    return json.dumps(request, sort_keys=True)


class Oracle:
    def __init__(self, store_dir: str, checkpoint: Optional[str] = None, compact_every: int = 0):
        from repro.kg.store import open_artifacts
        from repro.serve import ExtractionService

        self.kg = open_artifacts(store_dir).kg
        self.service = ExtractionService(coalesce=False, compact_every=compact_every)
        self.service.register(GRAPH, self.kg)
        if checkpoint:
            self.service.register_checkpoint(GRAPH, checkpoint)
        self.epoch = 0
        self._loop = asyncio.new_event_loop()
        self._memo: Dict[Tuple[int, str], object] = {}

    def close(self) -> None:
        """Drop the event loop and every reference into the mapped store."""
        self._loop.close()
        self.service = self.kg = None
        self._memo.clear()
        gc.collect()

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def _memoize_forward_pass(self, task: str) -> None:
        registry = self.service.registry
        for architecture, _meta in registry.candidates(GRAPH, task):
            model = registry.model(
                GRAPH, task, architecture, self.service.kg_of(GRAPH), self.epoch
            )
            if "predict_logits" not in vars(model):
                logits = model.predict_logits()
                model.predict_logits = lambda logits=logits: logits

    def payload(self, request: dict):
        """The JSON payload the server must return for ``request`` now."""
        from repro.serve.wire import perform_op, result_payload

        request = {field: value for field, value in request.items() if field != "rid"}
        key = (self.epoch, _key(request))
        if key not in self._memo:
            if request["op"] == "predict":
                self._memoize_forward_pass(request["task"])
            self._memo[key] = result_payload(self._run(perform_op(self.service, request)))
        return self._memo[key]

    def ndjson_line(self, request: dict) -> bytes:
        """Exact ndjson response line (``repro serve --protocol tcp``)."""
        return (json.dumps({"ok": True, "result": self.payload(request)}) + "\n").encode()

    def http_body(self, request: dict) -> bytes:
        """Exact HTTP JSON body for the extraction ops (not ``/sparql``)."""
        return (json.dumps(self.payload(request)) + "\n").encode()

    def ingest(self, triples) -> dict:
        """Apply one ingest batch; the epoch advances exactly as the server's."""
        result = self._run(self.service.ingest_triples(GRAPH, triples))
        self.epoch = int(result["epoch"])
        return result


def sparql_bindings(body: bytes) -> Dict[str, list]:
    """Decode a SPARQL results+json body into ``{variable: [int, ...]}``."""
    document = json.loads(body)
    variables = document["head"]["vars"]
    columns = {variable: [] for variable in variables}
    for binding in document["results"]["bindings"]:
        for variable in variables:
            columns[variable].append(int(binding[variable]["value"]))
    return columns
