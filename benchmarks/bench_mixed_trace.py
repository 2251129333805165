"""Extension benchmark — a realistic mixed application trace.

Single-size loops flatter every system equally; real monitoring traffic
interleaves record types (mostly small telemetry, occasionally large
snapshots).  This bench replays the paper-mixture trace through each
wire system end to end and reports total CPU for the whole trace — the
number an application owner actually experiences.

PBIO's advantages compose here: flat send cost on every message, one
converter per record *type* (amortized across the trace), and zero-copy
for same-representation peers.
"""

import pytest

import support
from repro.abi import codec_for, layout_record
from repro.net import InMemoryPipe
from repro.wire.timing import best_of
from repro.wire import IiopWire, MpiWire, PbioWire, XmlWire
from repro.workloads import TraceSpec, generate_trace

N_EVENTS = 64

SYSTEMS = {
    "PBIO": lambda: PbioWire("dcg"),
    "MPICH": MpiWire,
    "CORBA": IiopWire,
    "XML": XmlWire,
}


@pytest.fixture(scope="module")
def trace_setup():
    spec = TraceSpec.paper_mixture()
    events = list(generate_trace(spec, count=N_EVENTS, seed=5))
    natives = []
    for event in events:
        src = layout_record(event.schema, support.SPARC)
        natives.append((event.schema, codec_for(src).encode(event.record)))
    return spec, natives


def build_bounds(spec, factory):
    bounds = {}
    for schema in spec.schemas():
        src = layout_record(schema, support.SPARC)
        dst = layout_record(schema, support.I86)
        bounds[schema.name] = factory().bind(src, dst)
    return bounds


def replay(bounds, natives):
    pipe = InMemoryPipe()
    for schema, native in natives:
        pipe.a.send(bounds[schema.name].encode(native))
    for schema, _ in natives:
        bounds[schema.name].decode(pipe.b.recv())


@pytest.mark.parametrize("system_name", list(SYSTEMS))
def test_mixed_trace_replay(benchmark, trace_setup, system_name):
    spec, natives = trace_setup
    bounds = build_bounds(spec, SYSTEMS[system_name])
    replay(bounds, natives)  # warm converters
    benchmark.group = f"mixed trace ({N_EVENTS} events)"
    benchmark(replay, bounds, natives)


def test_shape_trace_ordering(trace_setup):
    spec, natives = trace_setup
    times = {}
    for name, factory in SYSTEMS.items():
        bounds = build_bounds(spec, factory)
        replay(bounds, natives)
        times[name] = best_of(lambda b=bounds: replay(b, natives), repeats=5)
    assert times["PBIO"] < times["MPICH"]
    assert times["PBIO"] < times["CORBA"]
    assert times["MPICH"] < times["XML"]
