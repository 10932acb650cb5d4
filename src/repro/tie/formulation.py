"""Custom instruction formulation: measured A-D curves (paper §3.3).

For each accelerable library routine, sweep the candidate custom
instructions' hardware resources on the simulator and record the
(area, cycles) points -- the paper's Figure 5(a)/(b) curves for
``mpn_add_n`` and ``mpn_addmul_1``, plus round-granularity curves for
the DES and AES kernels.

Each resource width's kernel simulation is independent, so every sweep
fans its width points across workers through :mod:`repro.parallel`
(``jobs``/``executor`` parameters).  Operand stimuli are drawn *before*
the fan-out and shipped to workers, and points are merged in width
order -- so any worker count yields the identical curve.  Workers
return plain ``(cycles)`` measurements; instruction objects (whose
semantics are closures, hence unpicklable) are built only in the
parent.
"""

from typing import Optional, Sequence

from repro.isa.custom import (ADD_WIDTHS, AES_VARIANTS, DES_SBOX_UNITS,
                              MAC_WIDTHS, make_aesark, make_aesld,
                              make_aesrnd, make_aesrndl, make_aesst,
                              make_desld, make_desround, make_desst,
                              make_vaddc)
from repro.isa.kernels.aes_kernels import AesKernel
from repro.isa.kernels.des_kernels import DesKernel
from repro.isa.kernels.mpn_kernels import MpnKernels
from repro.mp.prng import DeterministicPrng
from repro.parallel import executor_scope
from repro.tie.adcurve import ADCurve, DesignPoint

_DES_KEY = bytes.fromhex("133457799BBCDFF1")
_DES_BLOCK = bytes.fromhex("0123456789ABCDEF")
_AES_KEY = bytes(range(16))
_AES_BLOCK = bytes.fromhex("00112233445566778899aabbccddeeff")


def _addn_point(spec: dict) -> float:
    """Cycles for add_n at one adder-array width (picklable worker)."""
    kern = MpnKernels(add_width=spec["width"], mac_width=1)
    return float(kern.add_n(spec["up"], spec["vp"])[2])


def _addmul_point(spec: dict) -> float:
    """Cycles for addmul_1 at one (adder, MAC) width pair."""
    kern = MpnKernels(add_width=spec["width"],
                      mac_width=spec["mac_width"])
    return float(kern.addmul_1(spec["rp"], spec["up"], spec["v"])[2])


def _des_point(units: int) -> float:
    """Cycles for one DES block with ``units`` S-box units."""
    _, cycles = DesKernel(extended=True,
                          sbox_units=units).crypt_block(_DES_BLOCK,
                                                        _DES_KEY)
    return float(cycles)


def _aes_point(variant) -> float:
    """Cycles for one AES block at one (sbox, mixcol) unit variant."""
    sbox_units, mixcol_units = variant
    _, cycles = AesKernel(extended=True, sbox_units=sbox_units,
                          mixcol_units=mixcol_units
                          ).encrypt_block(_AES_BLOCK, _AES_KEY)
    return float(cycles)


def adcurve_mpn_add_n(n: int = 16,
                      widths: Sequence[int] = ADD_WIDTHS,
                      prng: Optional[DeterministicPrng] = None,
                      jobs: Optional[int] = None,
                      executor=None) -> ADCurve:
    """Measured A-D curve for ``mpn_add_n`` on n-limb operands.

    Mirrors paper Figure 5(a): the base software point plus one point
    per adder-array width (the add_2/add_4/add_8/add_16 family).
    """
    if prng is None:
        prng = DeterministicPrng(0xADD)
    up, vp = prng.next_limbs(n), prng.next_limbs(n)
    curve = ADCurve(f"mpn_add_n[n={n}]")
    _, _, base_cycles = MpnKernels().add_n(up, vp)
    curve.add(DesignPoint(cycles=float(base_cycles), area=0.0))
    specs = [{"up": up, "vp": vp, "width": width} for width in widths]
    with executor_scope(jobs, executor) as pool:
        points = pool.map(_addn_point, specs, label="adcurve.add_n")
    for width, cycles in zip(widths, points):
        instr = make_vaddc(width)
        curve.catalogue[instr.name] = instr
        curve.add(DesignPoint(cycles=cycles, area=instr.area,
                              instructions=frozenset({instr.name})))
    return curve


def _multiplier_unit():
    """The shared one-limb multiplier bank of the MAC datapath.

    The paper's Figure 5(b)/6 decomposes the ``mpn_addmul_1``
    acceleration as (add_X adder array) + (mul_1 multiplier): the adder
    array is *shared* with the ``mpn_add_n`` instruction family, which
    is what makes the Cartesian-product reduction effective.  We mirror
    that accounting here.
    """
    from repro.isa.extensions import CustomInstruction
    return CustomInstruction(
        name="macmul_1", signature="rrr", semantics=lambda m, a: None,
        latency=2, resources={"mul32": 1, "reg_bit": 32, "control": 1},
        description="one-limb multiplier bank shared by the MAC datapath")


def adcurve_mpn_addmul_1(n: int = 16,
                         widths: Sequence[int] = ADD_WIDTHS,
                         prng: Optional[DeterministicPrng] = None,
                         jobs: Optional[int] = None,
                         executor=None) -> ADCurve:
    """Measured A-D curve for ``mpn_addmul_1`` (paper Figure 5(b)).

    Design points are {add_X adder array + mul_1 multiplier} as in the
    paper; cycle counts are measured with the fused ``vmac`` kernel at
    the matching accumulate width.
    """
    if prng is None:
        prng = DeterministicPrng(0x3AC)
    rp, up = prng.next_limbs(n), prng.next_limbs(n)
    v = prng.next_bits(32)
    curve = ADCurve(f"mpn_addmul_1[n={n}]")
    mul_unit = _multiplier_unit()
    curve.catalogue[mul_unit.name] = mul_unit
    _, _, base_cycles = MpnKernels().addmul_1(rp, up, v)
    curve.add(DesignPoint(cycles=float(base_cycles), area=0.0))
    mac_top = max(MAC_WIDTHS)
    specs = [{"rp": rp, "up": up, "v": v, "width": width,
              "mac_width": min(width, mac_top)} for width in widths]
    with executor_scope(jobs, executor) as pool:
        points = pool.map(_addmul_point, specs, label="adcurve.addmul_1")
    for width, cycles in zip(widths, points):
        adders = make_vaddc(width)
        curve.catalogue[adders.name] = adders
        curve.add(DesignPoint(
            cycles=cycles, area=adders.area + mul_unit.area,
            instructions=frozenset({adders.name, mul_unit.name})))
    return curve


def adcurve_des_block(sbox_sweep: Sequence[int] = DES_SBOX_UNITS,
                      jobs: Optional[int] = None,
                      executor=None) -> ADCurve:
    """A-D curve for a DES block: base software vs round-instruction
    variants with 1..8 S-box units (plus the shared load/store perm
    instructions, whose area is included)."""
    curve = ADCurve("des_block")
    _, base_cycles = DesKernel().crypt_block(_DES_BLOCK, _DES_KEY)
    curve.add(DesignPoint(cycles=float(base_cycles), area=0.0))
    ld, st = make_desld(), make_desst()
    with executor_scope(jobs, executor) as pool:
        points = pool.map(_des_point, list(sbox_sweep),
                          label="adcurve.des")
    for units, cycles in zip(sbox_sweep, points):
        rnd = make_desround(units)
        names = frozenset({ld.name, rnd.name, st.name})
        for instr in (ld, rnd, st):
            curve.catalogue[instr.name] = instr
        area = ld.area + rnd.area + st.area
        curve.add(DesignPoint(cycles=cycles, area=area,
                              instructions=names))
    return curve


def adcurve_aes_block(variants: Sequence = AES_VARIANTS,
                      jobs: Optional[int] = None,
                      executor=None) -> ADCurve:
    """A-D curve for an AES-128 block across round-unit variants."""
    curve = ADCurve("aes_block")
    _, base_cycles = AesKernel().encrypt_block(_AES_BLOCK, _AES_KEY)
    curve.add(DesignPoint(cycles=float(base_cycles), area=0.0))
    ld, ark, st = make_aesld(), make_aesark(), make_aesst()
    with executor_scope(jobs, executor) as pool:
        points = pool.map(_aes_point, [tuple(v) for v in variants],
                          label="adcurve.aes")
    for (sbox_units, mixcol_units), cycles in zip(variants, points):
        rnd = make_aesrnd(sbox_units, mixcol_units)
        lastrnd = make_aesrndl(sbox_units)
        for instr in (ld, ark, rnd, lastrnd, st):
            curve.catalogue[instr.name] = instr
        names = frozenset({ld.name, ark.name, rnd.name, lastrnd.name,
                           st.name})
        area = sum(i.area for i in (ld, ark, rnd, lastrnd, st))
        curve.add(DesignPoint(cycles=cycles, area=area,
                              instructions=names))
    return curve
