"""Extension benchmark — RPC marshalling: PBIO-RPC vs the CORBA ORB.

Section 4.3 casts receiver conversion as the RPC marshalling problem and
claims runtime-generated conversions rival compile-time stubs (USC).
This bench runs the same calculator interface over both RPC stacks:

* CORBA: compile-time-style CDR stubs, element-wise marshal/unmarshal on
  both ends, every call;
* PBIO-RPC: NDR — the homogeneous case marshals nothing; the
  heterogeneous case pays one DCG conversion per direction.

Both measured as synchronous call round-trips over in-memory pipes (no
network term, isolating the marshalling cost the paper discusses).
"""

import statistics

import pytest

import support
from repro.abi import RecordSchema
from repro.core import RpcClient, RpcInterface, RpcOperation, RpcServer
from repro.net import InMemoryPipe, Transport, best_of
from repro.wire.iiop import Interface, ObjectAdapter, Operation, OrbClient

REQ = RecordSchema.from_pairs("solve_req", [("rhs", "double[64]"), ("tol", "double")])
REP = RecordSchema.from_pairs("solve_rep", [("x", "double[64]"), ("iters", "int")])

REQUEST = {"rhs": tuple(float(i) for i in range(64)), "tol": 1e-9}


def solve(req):
    return {"x": tuple(v * 0.5 for v in req["rhs"]), "iters": 12}


def corba_stack(client_machine, server_machine):
    interface = Interface("Solver", [Operation("solve", REQ, REP)])
    pipe = InMemoryPipe()
    client = OrbClient(client_machine, interface)
    adapter = ObjectAdapter(server_machine, interface)
    adapter.register(b"solver", {"solve": solve})

    class Loop:
        def send(self, data):
            pipe.a.send(data)
            pipe.b.send(adapter.handle(pipe.b.recv()))

        def recv(self):
            return pipe.a.recv()

    transport = Loop()
    return lambda: client.invoke(transport, b"solver", "solve", REQUEST)


def pbio_stack(client_machine, server_machine):
    interface = RpcInterface("Solver", [RpcOperation("solve", REQ, REP)])
    pipe = InMemoryPipe()
    client = RpcClient(client_machine, interface)
    server = RpcServer(server_machine, interface)
    server.register(b"solver", {"solve": solve})

    class Loop(Transport):
        def send(self, data):
            pipe.a.send(data)

        def recv(self):
            while pipe.b.pending() and not pipe.a.pending():
                server.serve_one(pipe.b)
            return pipe.a.recv()

        def close(self):
            pass

    transport = Loop()
    call = lambda: client.invoke(transport, b"solver", "solve", REQUEST)  # noqa: E731
    call()  # warm: announcements + converters
    return call


CASES = {
    "CORBA homogeneous": lambda: corba_stack(support.I86, support.I86),
    "CORBA heterogeneous": lambda: corba_stack(support.I86, support.SPARC),
    "PBIO homogeneous": lambda: pbio_stack(support.I86, support.I86),
    "PBIO heterogeneous": lambda: pbio_stack(support.I86, support.SPARC),
}


@pytest.mark.parametrize("case", list(CASES))
def test_rpc_call(benchmark, case):
    call = CASES[case]()
    benchmark.group = "rpc round-trip (64-double args)"
    benchmark(call)


def test_shape_pbio_rpc_cheaper():
    """The four stacks are timed in interleaved rounds, the order
    reversing every round, and each claim is the median of per-round
    ratios: a slow phase of the host lands on both sides of a ratio, and
    no stack is always the one timed first.  (Timed one after another,
    best of 5 each, the heterogeneous claim — a 3-5 % margin: PBIO
    67.8-71.2 us vs CORBA 71.4-75.5 us — failed 2 runs in 20 with
    nothing regressed; attempts on both sides are in EXPERIMENTS.md,
    PR 19.)"""
    calls = {name: build() for name, build in CASES.items()}
    order = list(calls)
    rounds = []
    for _ in range(3 * support.default_repeats()):
        rounds.append({name: best_of(calls[name], repeats=1, inner=20) for name in order})
        order.reverse()

    def ratio(a, b):
        return statistics.median(r[a] / r[b] for r in rounds)

    homogeneous = ratio("PBIO homogeneous", "CORBA homogeneous")
    heterogeneous = ratio("PBIO heterogeneous", "CORBA heterogeneous")
    corba = ratio("CORBA homogeneous", "CORBA heterogeneous")
    print(
        f"\nPBIO / CORBA homogeneous {homogeneous:.3f} | heterogeneous {heterogeneous:.3f} "
        f"| CORBA homogeneous / heterogeneous {corba:.3f} (medians of {len(rounds)} rounds)"
    )
    # PBIO beats the ORB in both configurations (no per-element stubs):
    # the homogeneous call marshals nothing, the heterogeneous one pays a
    # DCG conversion each way and still comes in under the stubs...
    assert homogeneous < 1.0
    assert heterogeneous < 1.0
    # ...while CORBA pays marshalling even between identical machines.
    assert corba > 0.5
