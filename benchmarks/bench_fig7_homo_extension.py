"""Figure 7 — receiver-side decode with and without an unexpected field,
homogeneous exchange (sparc -> sparc).

Here the mismatch matters: a matching exchange is zero-copy, while the
prepended unexpected field shifts every offset and forces the conversion
routine to relocate the fields.  The paper finds the resulting overhead
"non-negligible, but not as high as exists in the heterogeneous case",
and "roughly comparable to the cost of a memcpy() operation for the same
amount of data" — which is exactly what coalesced COPY plans produce.
"""

import pytest

import support
from bench_fig6_hetero_extension import build_extension_exchange
from repro.wire.timing import best_of


@pytest.fixture(scope="module")
def cases():
    return {
        (size, mismatched): build_extension_exchange(
            size, support.SPARC, support.SPARC, mismatched=mismatched
        )
        for size in support.SIZES
        for mismatched in (False, True)
    }


@pytest.mark.parametrize("size", support.SIZES)
@pytest.mark.parametrize("mismatched", [False, True], ids=["matched", "mismatched"])
def test_homo_receive(benchmark, cases, size, mismatched):
    bound, wire = cases[(size, mismatched)]
    benchmark.group = f"fig7 homo extension {size}"
    benchmark(bound.decode, wire)


def test_shape_mismatch_costs_about_a_memcpy(cases):
    for size in ("10kb", "100kb"):
        matched_bound, matched_wire = cases[(size, False)]
        mis_bound, mis_wire = cases[(size, True)]
        t_matched = best_of(lambda: matched_bound.decode(matched_wire), repeats=7, inner=5)
        t_mis = best_of(lambda: mis_bound.decode(mis_wire), repeats=7, inner=5)
        payload = bytes(mis_wire[16:])
        t_memcpy = best_of(lambda: bytes(bytearray(payload)), repeats=7, inner=10)
        overhead = t_mis - t_matched
        # Overhead is non-negligible but on the order of a memcpy.
        assert overhead < 20 * t_memcpy, size
        assert t_mis < 3 * (t_matched + 10 * t_memcpy), size


def test_shape_mismatched_homo_cheaper_than_heterogeneous(cases):
    """Paper: the homogeneous-mismatch overhead is 'not as high as exists
    in the heterogeneous case' (relocation is cheaper than byte-swapping
    every element)."""
    hetero = {
        size: build_extension_exchange(size, support.I86, support.SPARC, mismatched=True)
        for size in ("10kb", "100kb")
    }
    for size in ("10kb", "100kb"):
        homo_bound, homo_wire = cases[(size, True)]
        het_bound, het_wire = hetero[size]
        t_homo = best_of(lambda: homo_bound.decode(homo_wire), repeats=7, inner=5)
        t_het = best_of(lambda: het_bound.decode(het_wire), repeats=7, inner=5)
        assert t_homo < t_het, size
