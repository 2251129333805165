"""repro — reproduction of *Efficient Wire Formats for High Performance
Computing* (Bustamante, Eisenhauer, Schwan, Widener; SC 2000).

The package implements PBIO (Portable Binary I/O) and its Natural Data
Representation wire format, the baselines the paper compares against
(MPI-style pack/unpack, XML, CORBA IIOP/CDR, XDR), and the substrates
needed to exercise them: a machine/ABI simulator, a Vcode-like dynamic
code generation layer, and a network model.

Imports run one way.  The system is ``abi ← core ← net ← fmtserv ←
tools``: each layer imports only the ones to its left.  The paper's
apparatus — :mod:`repro.wire` (the baselines), :mod:`repro.vcode` and
:mod:`repro.workloads` — may import the system; the system never
imports it.  ``import repro`` loads no subpackage: import the one you use.

Quickstart::

    from repro import abi, core
    from repro.workloads import mechanical

    schema = mechanical.schema_for_size("1kb")
    sender = core.IOContext(machine=abi.X86)
    receiver = core.IOContext(machine=abi.SPARC_V8)
    fmt = sender.register_format(schema)
    wire = sender.encode(fmt, {...})
    record = receiver.decode(wire)
"""

__version__ = "1.0.0"
