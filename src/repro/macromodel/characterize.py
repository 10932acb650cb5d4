"""ISS-based performance characterization of the library leaf routines.

"The routine under consideration is invoked in a test program that
exercises it with a wide range of pseudo-randomly generated input
stimuli.  This test program is simulated using the cycle-accurate ISS
for the target HW to generate performance data ... A statistical
regression is performed to fit the above data."  (paper, Section 3.2)

Characterization is a one-time cost per platform configuration; the
input domain is bounded to what the application uses (e.g. 1024-bit
RSA needs at most 32-limb operands), exactly as the paper bounds the
GMP characterization domain.

Each routine's ``(size, rep)`` stimulus grid is an **independent job**
drawing from its own forked :class:`~repro.mp.prng.DeterministicPrng`
stream (:meth:`~repro.mp.prng.DeterministicPrng.fork` on the routine
name), so sample values depend only on the seed and the routine --
never on job order.  That is what lets ``jobs > 1`` fan the grid
across cores through :mod:`repro.parallel` while producing a model set
element-for-element identical to the serial run.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.macromodel.model import (DEFAULT_SEED, DEFAULT_SIZES,
                                    MacroModel, MacroModelSet)
from repro.macromodel.regression import select_model
from repro.mp.prng import DeterministicPrng

#: The independent stimulus jobs, in model-set insertion order.  Each
#: entry is (routine, stimulus family, step-width source).
_STIMULUS_JOBS = (
    ("mpn_add_n", "mpn", "add"),
    ("mpn_sub_n", "mpn", "add"),
    ("mpn_mul_1", "mpn", "mac"),
    ("mpn_addmul_1", "mpn", "mac"),
    ("mpn_submul_1", "mpn", "mac"),
    ("mpn_lshift", "mpn_base", None),
    ("mpn_divrem_qest", "qest", None),
    ("sha1_compress", "hash", None),
    ("md5_compress", "hash", None),
)

#: Montgomery-driver overhead is measured at these modulus widths.
_MONT_REDC_BITS = (64, 128, 256, 512)


def _fit(routine: str, samples: List[Tuple[float, float]],
         step_width: int = 0) -> MacroModel:
    fit = select_model(samples, step_width=step_width)
    return MacroModel(routine=routine, fit=fit, samples=samples)


def _stimulus_job(spec: Dict) -> List[Tuple[float, float]]:
    """Run one routine's ISS stimulus grid; returns ``(n, cycles)``
    samples.

    Module-level and fed plain-dict payloads so
    :class:`repro.parallel.ProcessExecutor` can pickle it; every
    kernel object is built inside the job.
    """
    from repro.isa.kernels.mpn_kernels import MpnKernels

    routine = spec["routine"]
    family = spec["family"]
    sizes, reps = spec["sizes"], spec["reps"]
    prng = DeterministicPrng(spec["seed"]).fork(routine)
    samples: List[Tuple[float, float]] = []

    if family in ("mpn", "mpn_base"):
        extended = spec["extended"] and family == "mpn"
        kernels = (MpnKernels(spec["add_width"], spec["mac_width"])
                   if extended else MpnKernels())
        for n in sizes:
            for _ in range(reps):
                cycles = kernels.run_stimulus(routine, n, prng)
                samples.append((float(n), float(cycles)))
        return samples

    if family == "qest":
        kernels = MpnKernels()
        for _ in range(max(4, reps * 2)):
            vtop = prng.next_bits(32) | 0x80000000
            u2 = prng.next_int(vtop)
            _, cycles = kernels.divrem_qest(u2, prng.next_bits(32), vtop)
            samples.append((1.0, float(cycles)))
        return samples

    if family == "hash":
        if routine == "sha1_compress":
            from repro.isa.kernels.hash_kernels import Sha1Kernel
            kernel = Sha1Kernel()
            state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
                     0xC3D2E1F0]
        else:
            from repro.isa.kernels.md5_kernel import Md5Kernel
            kernel = Md5Kernel()
            state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
        for _ in range(max(2, reps)):
            _, cycles = kernel.compress(state, prng.next_bytes(64))
            samples.append((1.0, float(cycles)))
        return samples

    raise ValueError(f"unknown stimulus family {family!r}")


def _mont_redc_job(spec: Dict) -> Optional[Tuple[float, float, int]]:
    """One full ISS modexp run at ``spec['bits']``; returns
    ``(k limbs, per-modmul cycles, mont_mul call count)`` or ``None``
    when the profile had no modular multiplications."""
    from repro.isa.kernels.modexp_kernel import ModExpKernel

    bits = spec["bits"]
    prng = DeterministicPrng(spec["seed"]).fork(f"mont_redc[{bits}]")
    iss = (ModExpKernel(spec["add_width"], spec["mac_width"])
           if spec["extended"] else ModExpKernel())
    k = bits // 32
    modulus = prng.next_odd_bits(bits)
    base = prng.next_int(modulus)
    _, _, profile = iss.powm(base, 0x1B5, modulus)
    calls = profile.call_counts.get("mont_mul", 0)
    if not calls:
        return None
    per_modmul = profile.inclusive_cycles.get("mont_mul", 0) / calls
    return (float(k), per_modmul, calls)


def characterize_platform(add_width: int = 0, mac_width: int = 0,
                          sizes: Sequence[int] = DEFAULT_SIZES,
                          reps: int = 2,
                          prng: Optional[DeterministicPrng] = None,
                          modmul_overhead: bool = True,
                          jobs: Optional[int] = None,
                          executor=None) -> MacroModelSet:
    """Characterize all mpn leaf routines on one platform configuration.

    ``add_width``/``mac_width`` of 0 characterize the base ISA;
    otherwise the extended ISA with those custom-instruction widths.
    Returns a :class:`MacroModelSet` ready for native estimation.

    ``modmul_overhead`` additionally characterizes the Montgomery
    modular-multiplication *driver* overhead (loop control, operand
    staging, final conditional subtract) from full ISS runs -- the
    coarser-granularity model the paper's leaf-choice heuristics call
    for when per-leaf models alone under-account a routine.

    ``jobs``/``executor`` fan the per-routine stimulus jobs across
    workers through :mod:`repro.parallel`; results are merged in job
    order, so any worker count yields an identical model set.
    """
    from repro.parallel import executor_scope

    seed = prng.initial_seed if prng is not None else DEFAULT_SEED
    extended = bool(add_width and mac_width)
    platform = (f"ext(add{add_width},mac{mac_width})" if extended else "base")
    models = MacroModelSet(platform)

    common = {"add_width": add_width, "mac_width": mac_width,
              "extended": extended, "sizes": tuple(sizes), "reps": reps,
              "seed": seed}
    specs = [dict(common, routine=routine, family=family)
             for routine, family, _ in _STIMULUS_JOBS]

    with executor_scope(jobs, executor) as pool:
        sample_lists = pool.map(_stimulus_job, specs,
                                label="characterize")
        step_widths = {"add": add_width if extended else 0,
                       "mac": mac_width if extended else 0}
        for (routine, _, step), samples in zip(_STIMULUS_JOBS,
                                               sample_lists):
            models.add(_fit(routine, samples,
                            step_widths.get(step, 0)))
        models.alias("mpn_rshift", "mpn_lshift")

        # -- Montgomery modular-multiplication driver overhead ------------
        # Charged on the native library's "mont_redc" trace marker: the
        # ISS cost of one modular multiplication beyond its 2k
        # mpn_addmul_1 leaf calls.
        if modmul_overhead:
            redc_specs = [dict(common, bits=bits)
                          for bits in _MONT_REDC_BITS]
            rows = pool.map(_mont_redc_job, redc_specs,
                            label="characterize.mont_redc")
            addmul = models.get("mpn_addmul_1")
            overhead_samples = []
            for row in rows:
                if row is None:
                    continue
                k, per_modmul, _ = row
                overhead = per_modmul - 2 * k * addmul.predict(k)
                overhead_samples.append((k, overhead))
            if len(overhead_samples) >= 3:
                models.add(_fit("mont_redc", overhead_samples))

    return models
