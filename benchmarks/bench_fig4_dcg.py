"""Figure 4 — receiver-side costs: MPICH vs PBIO interpreted vs PBIO DCG.

The paper's key result: the dynamically generated conversion routine
"operates significantly faster than the interpreted version", removing
conversion as a major communication cost and bringing it "down to near
the level of a copy operation".

Shape assertions: DCG < interpreted < MPICH at every size above 100 B,
and DCG within a small multiple of a raw memcpy of the same record.
"""

import pytest

import support
from repro.wire.timing import best_of

VARIANTS = {
    "MPICH": ("MPICH", None),
    "PBIO-interpreted": ("PBIO", "interpreted"),
    "PBIO-DCG": ("PBIO", "dcg"),
}


@pytest.fixture(scope="module")
def exchanges():
    return {
        (label, size): support.build_exchange(name, size, support.I86, support.SPARC, conversion=conv)
        for label, (name, conv) in VARIANTS.items()
        for size in support.SIZES
    }


@pytest.mark.parametrize("size", support.SIZES)
@pytest.mark.parametrize("label", list(VARIANTS))
def test_recv_decode(benchmark, exchanges, label, size):
    ex = exchanges[(label, size)]
    benchmark.group = f"fig4 decode {size}"
    benchmark(ex.bound.decode, ex.wire)


def test_shape_dcg_fastest(exchanges):
    times = {key: support.measure_decode_ms(ex) for key, ex in exchanges.items()}
    for size in ("1kb", "10kb", "100kb"):
        assert times[("PBIO-DCG", size)] < times[("PBIO-interpreted", size)]
        assert times[("PBIO-interpreted", size)] < times[("MPICH", size)]
    # DCG improvement over interpretation is substantial at array-heavy
    # sizes (paper: ~3x at 100 KB; numpy lowering gives us more).
    assert times[("PBIO-interpreted", "100kb")] / times[("PBIO-DCG", "100kb")] > 3


def test_shape_dcg_near_copy_cost(exchanges):
    """DCG conversion approaches the cost of a copy of the same bytes."""
    ex = exchanges[("PBIO-DCG", "100kb")]
    payload = ex.wire[16:]
    copy_ms = best_of(lambda: bytes(bytearray(payload)), repeats=7, inner=5) * 1e3
    dcg_ms = support.measure_decode_ms(ex)
    assert dcg_ms < 10 * copy_ms
