"""Seeded benchmark inputs, built only through repro's public generators.

The benchmark seed picks the random data; the kernel shapes never change.
Seed 0 (the default) reproduces ``repro.workloads.suite()`` kernel for kernel
at scale 1.0, and the bundled ``SOUP_SEEDS`` gadget soups; any other seed
regenerates the same shapes from shifted generator seeds.  The simulator
only ever receives the generated :class:`~repro.workloads.Workload` objects.
"""

from __future__ import annotations

from repro.scan import HAND_WRITTEN, SOUP_SEEDS, CorpusEntry, generated_entries
from repro.workloads import (
    Workload,
    make_compute_kernel,
    make_fp_dense,
    make_fp_stream,
    make_hash_probe,
    make_indirect_stream,
    make_mixed_kernel,
    make_pointer_chase,
    make_stream_kernel,
    make_stride_reuse,
    suite,
)

DEFAULT_SEED = 0

#: Generator seeds of different benchmark seeds sit this far apart.
_SEED_STRIDE = 1000

_L1_WORDS = 2 * 1024
_L2_WORDS = 16 * 1024
_L3_WORDS = 96 * 1024

#: The eleven suite kernels as (name, generator, size parameter that the
#: scale shrinks, keyword arguments).  The values mirror
#: ``repro.workloads.spec17``; :func:`check_default_seed` proves it.
KERNELS = (
    ("mcf_like", make_indirect_stream, "iterations", dict(
        table_words=320 * 1024, iterations=140, branch_taken_prob=0.15,
        unroll=3, pad_ops=6, seed=11)),
    ("omnetpp_like", make_pointer_chase, "iterations", dict(
        nodes=6 * 1024, iterations=700, pad_ops=2, seed=12)),
    ("xalancbmk_like", make_hash_probe, "iterations", dict(
        buckets=_L2_WORDS, iterations=550, pad_ops=4, seed=13)),
    ("gcc_like", make_mixed_kernel, "iterations", dict(
        table_words=_L2_WORDS, iterations=700, seed=14)),
    ("deepsjeng_like", make_indirect_stream, "iterations", dict(
        table_words=_L1_WORDS, iterations=800, branch_taken_prob=0.4,
        unroll=1, seed=15)),
    ("lbm_like", make_stream_kernel, "iterations", dict(
        words=32 * 1024, iterations=900)),
    # x264 is the one kernel suite() sizes by its block, not an iteration
    # count; a reduced scale shrinks the block so the kernel shrinks too.
    ("x264_like", make_stride_reuse, "block_words", dict(
        block_words=_L2_WORDS, passes=1, stride=13, pad_ops=2, seed=16)),
    ("namd_like", make_fp_dense, "iterations", dict(
        elems=_L1_WORDS, iterations=600, subnormal_frac=0.002, seed=17)),
    ("bwaves_like", make_fp_stream, "iterations", dict(
        words=_L2_WORDS, iterations=600, subnormal_frac=0.002, seed=18)),
    ("exchange2_like", make_compute_kernel, "iterations", dict(
        iterations=900)),
    ("xz_like", make_indirect_stream, "iterations", dict(
        table_words=_L3_WORDS, iterations=200, branch_taken_prob=0.2,
        unroll=3, pad_ops=4, seed=19)),
)

KERNEL_NAMES = tuple(name for name, *_ in KERNELS)

#: Gadget soups per benchmark seed (the size of the bundled soup set).
SOUPS_PER_SEED = len(SOUP_SEEDS)


def shifted(generator_seed: int, seed: int) -> int:
    """The generator seed a kernel uses under benchmark seed ``seed``."""
    return generator_seed + _SEED_STRIDE * seed


def kernel(name: str, seed: int, scale: float = 1.0, floor: int = 60) -> Workload:
    """One suite kernel at ``scale`` (size parameter floored at ``floor``)."""
    for kernel_name, generator, sized, kwargs in KERNELS:
        if kernel_name == name:
            break
    else:
        raise KeyError(f"no suite kernel named {name!r}")
    kwargs = dict(kwargs)
    if scale != 1.0:
        kwargs[sized] = max(floor, int(kwargs[sized] * scale))
    if "seed" in kwargs:
        kwargs["seed"] = shifted(kwargs["seed"], seed)
    return generator(name, **kwargs)


def kernels(
    names: tuple[str, ...], seed: int, scale: float = 1.0, floor: int = 60
) -> list[Workload]:
    return [kernel(name, seed, scale, floor) for name in names]


def pointer_chase(seed: int, scale: float = 1.0) -> Workload:
    """An unwarmed 8192-node pointer chase: every hop goes to DRAM."""
    return make_pointer_chase(
        "chase_dram",
        nodes=8192,
        iterations=max(60, int(400 * scale)),
        warm_table=False,
        seed=shifted(21, seed),
        description="unwarmed 8192-node pointer chase (DRAM-bound)",
    )


def soup_seeds(seed: int) -> tuple[int, ...]:
    """The gadget-soup seeds of benchmark seed ``seed`` (seed 0: SOUP_SEEDS)."""
    start = SOUPS_PER_SEED * seed
    return tuple(range(start, start + SOUPS_PER_SEED))


def corpus(seed: int) -> tuple[CorpusEntry, ...]:
    """The hand-written corpus plus this seed's generated soups."""
    return HAND_WRITTEN + generated_entries(soup_seeds(seed))


def _shape(workload: Workload) -> tuple:
    return (workload.program.to_dict(), workload.warm_addresses, workload.max_cycles)


def check_default_seed() -> list[str]:
    """Differences between seed 0's inputs and the repository's own."""
    problems = []
    for reference in suite():
        if _shape(kernel(reference.name, DEFAULT_SEED)) != _shape(reference):
            problems.append(f"seed 0 kernel {reference.name} differs from suite()")
    if soup_seeds(DEFAULT_SEED) != tuple(SOUP_SEEDS):
        problems.append("seed 0 soup seeds differ from SOUP_SEEDS")
    return problems
