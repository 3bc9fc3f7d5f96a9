"""The synthetic kernel zoo.

MLP-sensitive kernels (stand-ins for the paper's sensitive SimPoints):

* :func:`indirect_fig2` — the paper's Figure 2 loop, ``C[i] = B[A[j]]+5``
  with prefetch-friendly ``A``/``C`` and a cache-missing indirect ``B``.
* :func:`ptrchase_astar` — twelve interleaved pointer chases over
  DRAM-resident rings (astar-like: loads that are both Urgent and
  Non-Ready).
* :func:`sparse_gather` — random gather accumulated into a scalar
  (independent misses, maximal window-limited MLP).
* :func:`hash_probe` — hashed table probes with address computation
  slices feeding each miss.
* :func:`lattice_milc` — milc-like FP kernel: one gather miss per site,
  two prefetchable operand streams consumed only by a Non-Urgent FP
  slice, two streaming stores.

MLP-insensitive kernels:

* :func:`stream_triad` — prefetch-covered streaming FP triad.
* :func:`compute_fp` — L1-resident FP compute.
* :func:`compute_int` — pure ALU mixing/hash rounds.
* :func:`small_ws_ring` — L1-resident pointer ring (latency-bound but
  never missing).
* :func:`stencil_small` — L2-resident 3-point stencil.
* :func:`branchy_compute` — periodic data-dependent branches over
  in-cache data.

Every kernel masks its index registers so a trace of any length can be
drawn; loop-control branches use a separate monotonic counter so they
stay (correctly) predictable, like SPEC loop branches.
"""

from __future__ import annotations

from repro.isa.executor import WordImage
from repro.workloads.base import MLP_INSENSITIVE, MLP_SENSITIVE, Workload
from repro.workloads.builders import (index_array, linked_ring, region_base,
                                      sequential_array)

IDX_LEN = 16384
IDX_MASK = IDX_LEN - 1
BIG_LIMIT = 1 << 40

#: big-array sizes in words: 8 MB spans, far beyond the 1 MB L3
GATHER_WORDS = 1 << 20


def indirect_fig2(seed: int = 11) -> Workload:
    """The Figure 2 loop: ``d = B[A[j--]]; C[i++] = d + 5``."""
    base_a = region_base(0)
    base_b = region_base(1)
    base_c = region_base(2)
    asm = """
    loop:
        ldx  r4, r1, r3        # A: t1 = A[j]            (hit, urgent)
        addi r3, r3, -1        # E: j--                  (urgent)
        andi r3, r3, 16383     #    wrap j               (urgent)
        fldx f1, r2, r4        # D: d = B[t1]            (miss, long latency)
        fadd f2, f1, f0        # F: d = d + 5            (NU + NR)
        slli r9, r6, 3         # G: byte offset of C[i]  (NU + R)
        add  r9, r5, r9        # G: addrC = baseC + off  (NU + R)
        fst  f2, r9, 0         # H: store d -> C[i]      (NU + NR)
        addi r6, r6, 1         # I: i++                  (NU + R)
        andi r6, r6, 16383     #    wrap i               (NU + R)
        addi r20, r20, 1       # J: loop counter         (NU + R)
        blt  r20, r21, loop    # K: backedge             (NU + R)
        halt
    """
    return Workload(
        name="indirect_fig2",
        category=MLP_SENSITIVE,
        description="Figure 2 indirect-access loop C[i] = B[A[j]] + 5",
        asm=asm,
        int_regs={"r1": base_a, "r2": base_b, "r5": base_c,
                  "r3": IDX_MASK, "r6": 0, "r20": 0, "r21": BIG_LIMIT},
        fp_regs={"f0": 5},
        memory_words=index_array(base_a, IDX_LEN, GATHER_WORDS, seed),
        alias="fig2 loop",
        warm_regions=[(base_a, IDX_LEN)],
    )


def ptrchase_astar(seed: int = 23) -> Workload:
    """Twelve interleaved pointer chases (astar-like).

    Every chain's next-pointer load is Urgent *and* Non-Ready — the
    class the paper singles out for astar: with a small IQ the waiting
    chase loads and their payload clutter fill the queue and throttle
    MLP below the twelve chains the ROB could sustain.  Parking
    Non-Ready instructions (tickets) recovers it; parking only
    Non-Urgent instructions leaves the chase loads in the IQ and helps
    less, reproducing Figure 6's astar row.
    """
    n_chains = 12
    ring_nodes = 8192  # 512 kB per ring, 6 MB total: misses to DRAM
    rings = []
    heads = []
    for chain in range(n_chains):
        ring, head = linked_ring(region_base(3) + chain * (8 << 20),
                                 ring_nodes, ring_nodes, seed + chain)
        rings.append(ring)
        heads.append(head)
    lines = ["loop:"]
    for chain in range(n_chains):
        ptr = f"r{chain + 1}"
        payload = f"r{chain + 13}"
        # the chase load touches the node block first (it takes the
        # miss); the payload load reads the same node via a saved
        # pointer and merges with the chase's fill
        lines.append(f"    mov  r25, {ptr}        # save node ptr  (NU)")
        lines.append(f"    ld   {ptr}, {ptr}, 0"
                     f"      # chase{chain}     (miss, urgent + non-ready)")
        lines.append(f"    ld   {payload}, r25, 8"
                     f"      # payload{chain}   (NU + NR)")
        lines.append(f"    add  r26, r26, {payload}   # accumulate (NU + NR)")
    for group in range(4):
        # independent neighbour-cost gathers: the window-limited MLP
        # component that a clutter-filled small IQ throttles
        lines.append("    ldx  r24, r27, r29     # neighbour id   (hit, urgent)")
        lines.append("    fldx f1, r28, r24      # neighbour cost (miss)")
        lines.append("    fadd f2, f2, f1        # accumulate     (NU + NR)")
        lines.append("    addi r29, r29, 1       # next           (urgent)")
        lines.append("    andi r29, r29, 16383   # wrap           (urgent)")
    lines.append("    addi r30, r30, 1")
    lines.append("    blt  r30, r31, loop")
    lines.append("    halt")
    asm = "\n".join(lines)
    base_idx = region_base(22)
    base_n = region_base(23)
    memory = WordImage.join(
        *rings, index_array(base_idx, IDX_LEN, GATHER_WORDS, seed + 99))
    int_regs = {f"r{chain + 1}": heads[chain] for chain in range(n_chains)}
    int_regs.update({"r26": 0, "r27": base_idx, "r28": base_n, "r29": 0,
                     "r30": 0, "r31": BIG_LIMIT})
    return Workload(
        name="ptrchase_astar",
        category=MLP_SENSITIVE,
        description="twelve parallel pointer chases over DRAM-resident "
                    "rings (astar/rivers-like: urgent non-ready loads)",
        asm=asm,
        int_regs=int_regs,
        memory_words=memory,
        alias="astar/rivers [cpt:176B]",
        warm_regions=[(base_idx, IDX_LEN)],
    )


def sparse_gather(seed: int = 37) -> Workload:
    """Random gather with a scalar reduction (independent misses)."""
    base_idx = region_base(5)
    base_b = region_base(6)
    asm = """
    loop:
        ldx  r4, r1, r3        # idx = IDX[i]        (hit, urgent)
        fldx f1, r2, r4        # B[idx]              (miss, long latency)
        fadd f5, f5, f1        # accumulate          (NU + NR)
        addi r3, r3, 1         # i++                 (urgent)
        andi r3, r3, 16383     # wrap                (urgent)
        addi r20, r20, 1
        blt  r20, r21, loop
        halt
    """
    return Workload(
        name="sparse_gather",
        category=MLP_SENSITIVE,
        description="random gather + reduction over an 8 MB table",
        asm=asm,
        int_regs={"r1": base_idx, "r2": base_b, "r3": 0,
                  "r20": 0, "r21": BIG_LIMIT},
        fp_regs={"f5": 0},
        memory_words=index_array(base_idx, IDX_LEN, GATHER_WORDS, seed),
        warm_regions=[(base_idx, IDX_LEN)],
    )


def hash_probe(seed: int = 41) -> Workload:
    """Hashed probes into a 16 MB table; hash slice feeds each miss."""
    del seed  # key stream is arithmetic; kept for interface symmetry
    base_t = region_base(7)
    asm = """
    loop:
        mul  r4, r3, r9        # hash multiply       (urgent, 3 cycles)
        srli r5, r4, 7         # hash shift          (urgent)
        xor  r4, r4, r5        # hash mix            (urgent)
        and  r4, r4, r10       # mask to table       (urgent)
        ldx  r5, r2, r4        # probe               (miss, long latency)
        and  r5, r5, r11       # extract tag bit     (NU + NR)
        add  r12, r12, r5      # count matches       (NU + NR)
        addi r3, r3, 1         # next key            (urgent)
        addi r20, r20, 1
        blt  r20, r21, loop
        halt
    """
    return Workload(
        name="hash_probe",
        category=MLP_SENSITIVE,
        description="hash-table probing: an ALU slice feeds every miss",
        asm=asm,
        int_regs={"r2": base_t, "r3": 1, "r9": 2654435761,
                  "r10": (1 << 21) - 1, "r11": 1, "r12": 0,
                  "r20": 0, "r21": BIG_LIMIT},
    )


def lattice_milc(seed: int = 53) -> Workload:
    """milc-like site update: one gather miss, NU streams, FP slice."""
    base_perm = region_base(8)
    base_u = region_base(9)
    base_v = region_base(10)
    base_w = region_base(11)
    base_out = region_base(12)
    asm = """
    loop:
        ldx  r4, r1, r3        # site = PERM[i]      (hit, urgent)
        fldx f1, r2, r4        # u = U[site]         (miss, long latency)
        fldx f2, r13, r3       # v = V[i] stream     (prefetched, NU + R)
        fldx f3, r14, r3       # w = W[i] stream     (prefetched, NU + R)
        fmul f4, f1, f2        # FP slice            (NU + NR)
        fadd f5, f4, f3        #                     (NU + NR)
        fmul f6, f5, f5        #                     (NU + NR)
        fadd f7, f6, f2        #                     (NU + NR)
        slli r9, r3, 4         # out offset (16 B)   (NU + R)
        add  r9, r15, r9       # out address         (NU + R)
        fst  f5, r9, 0         # store result        (NU + NR)
        fst  f7, r9, 8         # store result        (NU + NR)
        addi r3, r3, 1         # i++                 (urgent)
        andi r3, r3, 16383     # wrap                (urgent)
        addi r20, r20, 1
        blt  r20, r21, loop
        halt
    """
    return Workload(
        name="lattice_milc",
        category=MLP_SENSITIVE,
        description="lattice site updates: gather miss + non-urgent FP "
                    "slice, streams and stores (milc-like)",
        asm=asm,
        int_regs={"r1": base_perm, "r2": base_u, "r13": base_v,
                  "r14": base_w, "r15": base_out, "r3": 0,
                  "r20": 0, "r21": BIG_LIMIT},
        memory_words=index_array(base_perm, IDX_LEN, GATHER_WORDS, seed),
        alias="milc [cpt:961B]",
        warm_regions=[(base_perm, IDX_LEN)],
    )


def stream_triad() -> Workload:
    """STREAM triad ``C[i] = A[i] + s * B[i]`` — prefetch covered."""
    base_a = region_base(13)
    base_b = region_base(14)
    base_c = region_base(15)
    asm = """
    loop:
        fldx f1, r1, r3        # A[i]                (prefetched)
        fldx f2, r2, r3        # B[i]                (prefetched)
        fmul f3, f2, f0        # s * B[i]
        fadd f4, f1, f3        # A[i] + s*B[i]
        slli r9, r3, 3
        add  r9, r5, r9
        fst  f4, r9, 0         # C[i] = ...
        addi r3, r3, 1
        andi r3, r3, 16383
        addi r20, r20, 1
        blt  r20, r21, loop
        halt
    """
    return Workload(
        name="stream_triad",
        category=MLP_INSENSITIVE,
        description="streaming FP triad; stride prefetcher covers misses",
        asm=asm,
        int_regs={"r1": base_a, "r2": base_b, "r5": base_c, "r3": 0,
                  "r20": 0, "r21": BIG_LIMIT},
        fp_regs={"f0": 3},
    )


def compute_fp() -> Workload:
    """L1-resident FP compute over a 8 KB array."""
    base = region_base(16)
    asm = """
    loop:
        and  r4, r3, r10       # idx = i & 1023
        fldx f1, r1, r4        # x = data[idx]       (L1 hit)
        fmul f2, f1, f0
        fadd f3, f2, f8
        fmul f4, f3, f1
        fadd f9, f9, f4        # accumulate
        slli r5, r4, 3
        add  r5, r1, r5
        fst  f4, r5, 0         # data[idx] = ...
        addi r3, r3, 1
        addi r20, r20, 1
        blt  r20, r21, loop
        halt
    """
    return Workload(
        name="compute_fp",
        category=MLP_INSENSITIVE,
        description="cache-resident FP kernel (dense compute)",
        asm=asm,
        int_regs={"r1": base, "r3": 0, "r10": 1023,
                  "r20": 0, "r21": BIG_LIMIT},
        fp_regs={"f0": 3, "f8": 7, "f9": 0},
        memory_words=sequential_array(base, 1024, start=1),
    )


def compute_int() -> Workload:
    """Pure ALU hash/mix rounds — no memory at all."""
    asm = """
    loop:
        xor  r4, r4, r9
        mul  r5, r4, r10
        add  r4, r5, r11
        srli r5, r4, 13
        xor  r4, r4, r5
        slli r5, r4, 7
        add  r4, r4, r5
        addi r20, r20, 1
        blt  r20, r21, loop
        halt
    """
    return Workload(
        name="compute_int",
        category=MLP_INSENSITIVE,
        description="integer mixing rounds (crypto-like, memory-free)",
        asm=asm,
        int_regs={"r4": 0x12345678, "r9": 0x9E3779B9, "r10": 0x85EBCA6B,
                  "r11": 0xC2B2AE35, "r20": 0, "r21": BIG_LIMIT},
    )


def small_ws_ring(seed: int = 67) -> Workload:
    """Pointer ring inside the L1: latency-bound but never missing."""
    base = region_base(17)
    memory, head = linked_ring(base, 256, 256, seed)
    asm = """
    loop:
        ld   r1, r1, 0         # next (L1 hit, dependent chain)
        ld   r3, r1, 8         # payload
        add  r10, r10, r3
        addi r20, r20, 1
        blt  r20, r21, loop
        halt
    """
    return Workload(
        name="small_ws_ring",
        category=MLP_INSENSITIVE,
        description="L1-resident pointer ring (dependent loads, no misses)",
        asm=asm,
        int_regs={"r1": head, "r10": 0, "r20": 0, "r21": BIG_LIMIT},
        memory_words=memory,
        warm_regions=[(base, 256 * 8)],
    )


def stencil_small() -> Workload:
    """3-point stencil over an L2-resident array."""
    base_in = region_base(18)
    base_out = region_base(19)
    asm = """
    loop:
        and  r4, r3, r10       # i & 8191
        fldx f1, r1, r4        # a[i]
        addi r5, r4, 1
        fldx f2, r1, r5        # a[i+1]
        addi r5, r4, 2
        fldx f3, r1, r5        # a[i+2]
        fadd f4, f1, f2
        fadd f5, f4, f3
        fmul f6, f5, f0
        slli r9, r4, 3
        add  r9, r2, r9
        fst  f6, r9, 0         # out[i]
        addi r3, r3, 1
        addi r20, r20, 1
        blt  r20, r21, loop
        halt
    """
    return Workload(
        name="stencil_small",
        category=MLP_INSENSITIVE,
        description="1-D stencil over an L2-resident array",
        asm=asm,
        int_regs={"r1": base_in, "r2": base_out, "r3": 0, "r10": 8191,
                  "r20": 0, "r21": BIG_LIMIT},
        fp_regs={"f0": 3},
        memory_words=sequential_array(base_in, 8192, start=2, step=3),
    )


def branchy_compute() -> Workload:
    """Periodic data-dependent branch over in-cache data."""
    asm = """
    loop:
        and  r4, r3, r9        # i & 7
        beqz r4, skip          # taken every 8th iteration
        add  r10, r10, r3
        mul  r11, r10, r12
    skip:
        addi r3, r3, 1
        addi r20, r20, 1
        blt  r20, r21, loop
        halt
    """
    return Workload(
        name="branchy_compute",
        category=MLP_INSENSITIVE,
        description="periodic branches + ALU work (branch-path exercise)",
        asm=asm,
        int_regs={"r3": 0, "r9": 7, "r10": 0, "r12": 3,
                  "r20": 0, "r21": BIG_LIMIT},
    )


def btree_probe(seed: int = 71) -> Workload:
    """Three-level tree probes (B-tree / index-join style).

    Each lookup walks root -> internal -> leaf.  The root level is hot
    (cache-resident), the internal level is L3-scale, and the leaf
    level misses to DRAM.  Lookups are independent, so the achievable
    MLP scales with the window, while each lookup is a short Urgent
    dependence chain of depth three — a denser version of the pointer
    dependence structure the paper's Urgent analysis targets.
    """
    base_root = region_base(24)
    base_internal = region_base(25)
    base_leaf = region_base(26)
    internal_words = 1 << 16          # 512 kB
    memory = WordImage.join(
        index_array(base_root, IDX_LEN, internal_words, seed),
        index_array(base_internal, internal_words, GATHER_WORDS, seed + 1))
    asm = """
    loop:
        ldx  r4, r1, r3        # root lookup        (hit, urgent)
        ldx  r5, r2, r4        # internal lookup    (L3-ish, urgent)
        ldx  r6, r7, r5        # leaf lookup        (miss, urgent+NR)
        add  r12, r12, r6      # consume            (NU + NR)
        addi r3, r3, 1         # next key           (urgent)
        andi r3, r3, 16383     # wrap               (urgent)
        addi r30, r30, 1
        blt  r30, r31, loop
        halt
    """
    return Workload(
        name="btree_probe",
        category=MLP_SENSITIVE,
        description="independent 3-level tree probes (root hot, leaf "
                    "DRAM): window-scaled MLP over short urgent chains",
        asm=asm,
        int_regs={"r1": base_root, "r2": base_internal, "r7": base_leaf,
                  "r3": 0, "r12": 0, "r30": 0, "r31": BIG_LIMIT},
        memory_words=memory,
        warm_regions=[(base_root, IDX_LEN)],
    )


def spmv_csr(seed: int = 83) -> Workload:
    """Sparse matrix-vector product, CSR-style with 4 nonzeros per row.

    Column indices and matrix values stream sequentially (prefetched);
    the ``x[col]`` gathers miss.  Each row reduces into one result that
    is stored — a mix of Urgent gathers, Non-Urgent FP reduction and
    Non-Urgent stores, like the paper's FP-heavy sensitive SimPoints.
    """
    base_cols = region_base(27)
    base_vals = region_base(28)
    base_x = region_base(29)
    base_y = region_base(30)
    memory = index_array(base_cols, IDX_LEN, GATHER_WORDS, seed)
    asm = """
    loop:
        ldx  r4, r1, r3        # col[k]             (hit, urgent)
        fldx f1, r2, r3        # val[k] stream      (prefetched, NU)
        fldx f2, r5, r4        # x[col]             (miss, long latency)
        fmul f3, f1, f2        # val * x            (NU + NR)
        fadd f4, f4, f3        # row accumulate     (NU + NR)
        addi r3, r3, 1
        andi r3, r3, 16383
        andi r6, r3, 3         # end of row every 4 nonzeros
        bnez r6, skip
        slli r8, r9, 3
        add  r8, r7, r8
        fst  f4, r8, 0         # y[row] store       (NU + NR)
        fli  f4, 0             # reset accumulator  (NU)
        addi r9, r9, 1         # next row
        andi r9, r9, 16383
    skip:
        addi r30, r30, 1
        blt  r30, r31, loop
        halt
    """
    return Workload(
        name="spmv_csr",
        category=MLP_SENSITIVE,
        description="CSR SpMV with 4 nonzeros/row: urgent gathers, "
                    "non-urgent FP reduction and stores",
        asm=asm,
        int_regs={"r1": base_cols, "r2": base_vals, "r5": base_x,
                  "r7": base_y, "r3": 0, "r9": 0,
                  "r30": 0, "r31": BIG_LIMIT},
        fp_regs={"f4": 0},
        memory_words=memory,
        warm_regions=[(base_cols, IDX_LEN)],
    )


def memset_stream() -> Workload:
    """Pure store stream (memset-like) — write-allocate, no stalls."""
    base = region_base(31)
    asm = """
    loop:
        slli r4, r3, 3
        add  r4, r1, r4
        st   r2, r4, 0
        st   r2, r4, 8
        st   r2, r4, 16
        st   r2, r4, 24
        addi r3, r3, 4
        andi r3, r3, 65535
        addi r30, r30, 1
        blt  r30, r31, loop
        halt
    """
    return Workload(
        name="memset_stream",
        category=MLP_INSENSITIVE,
        description="store streaming (memset): stores retire through "
                    "the SQ without exposing MLP",
        asm=asm,
        int_regs={"r1": base, "r2": 0x5A5A5A5A, "r3": 0,
                  "r30": 0, "r31": BIG_LIMIT},
    )


def blocked_mm() -> Workload:
    """L1-resident blocked matrix-multiply inner product (8-wide)."""
    base_a = region_base(32)
    base_b = region_base(33)
    asm = """
    loop:
        and  r4, r3, r10       # i & 511
        fldx f1, r1, r4        # a[i]    (L1 hit)
        fldx f2, r2, r4        # b[i]    (L1 hit)
        fmul f3, f1, f2
        fadd f8, f8, f3        # dot-product chain
        addi r4, r4, 1
        fldx f4, r1, r4
        fldx f5, r2, r4
        fmul f6, f4, f5
        fadd f9, f9, f6        # second independent chain
        addi r3, r3, 2
        addi r30, r30, 1
        blt  r30, r31, loop
        halt
    """
    return Workload(
        name="blocked_mm",
        category=MLP_INSENSITIVE,
        description="cache-blocked matrix-multiply inner loop: dense "
                    "FP with two reduction chains, no misses",
        asm=asm,
        int_regs={"r1": base_a, "r2": base_b, "r3": 0, "r10": 511,
                  "r30": 0, "r31": BIG_LIMIT},
        fp_regs={"f8": 0, "f9": 0},
        memory_words=WordImage.join(
            sequential_array(base_a, 512, start=1),
            sequential_array(base_b, 512, start=3, step=2)),
    )
