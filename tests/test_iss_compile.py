"""Differential tests: compiled (generated-code) ISS vs the interpreter.

The compiled backend must be **bit-identical** to the interpreter --
cycles, instret, opcode counts, the whole profile, and final
memory/registers -- on every registered kernel, on randomly generated
programs, and on every error path.  These tests enforce that contract,
plus the batched-execution API built on top of it.
"""

import hashlib
import os
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.compile import compile_program, compiled_for
from repro.isa.machine import (ISS_BACKEND_ENV, Machine, MachineError,
                               backend_scope, resolve_backend)

BACKENDS = ("interp", "compiled")


def snapshot(machine, result):
    """Full architectural + profile state of a finished machine."""
    profile = machine.profile
    return {
        "result": result,
        "cycles": machine.cycles,
        "instret": machine.instret,
        "pc": machine.pc,
        "opcode_counts": dict(machine.opcode_counts),
        "regs": list(machine.regs),
        "user_regs": dict(machine.user_regs),
        "mem": hashlib.sha256(machine.mem).hexdigest(),
        "total_cycles": profile.total_cycles,
        "instructions": profile.instructions,
        "local_cycles": dict(profile.local_cycles),
        "inclusive_cycles": dict(profile.inclusive_cycles),
        "call_edges": dict(profile.call_edges),
        "call_counts": dict(profile.call_counts),
    }


def run_both(source, entry, args, extensions=None, dcache=None,
             max_instructions=200_000_000, mem_size=1 << 16):
    """Run one program on both backends; return the two snapshots."""
    program = assemble(source, extensions)
    snaps = []
    for backend in BACKENDS:
        machine = Machine(program, extensions, mem_size, dcache=dcache,
                          backend=backend)
        try:
            result = machine.run(entry, args,
                                 max_instructions=max_instructions)
        except MachineError as exc:
            result = ("error", str(exc))
        snaps.append(snapshot(machine, result))
    return snaps


def assert_identical(source, entry, args, **kwargs):
    interp, compiled = run_both(source, entry, args, **kwargs)
    assert interp == compiled


# ---------------------------------------------------------------------------
# Backend selection plumbing
# ---------------------------------------------------------------------------

class TestBackendSelection:
    def test_default_is_interp(self, monkeypatch):
        # The suite may itself run under $REPRO_ISS_BACKEND (CI's
        # fast-path job); the built-in default is still interp.
        monkeypatch.delenv(ISS_BACKEND_ENV, raising=False)
        assert resolve_backend() == "interp"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ISS_BACKEND_ENV, "compiled")
        assert resolve_backend() == "compiled"

    def test_scope_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ISS_BACKEND_ENV, "interp")
        with backend_scope("compiled"):
            assert resolve_backend() == "compiled"
        assert resolve_backend() == "interp"

    def test_explicit_arg_wins(self):
        with backend_scope("compiled"):
            assert resolve_backend("interp") == "interp"

    def test_unknown_backend_rejected(self):
        with pytest.raises(MachineError):
            resolve_backend("jit")

    def test_machine_records_backend(self):
        program = assemble("main:\n    halt\n")
        assert Machine(program, backend="compiled").backend == "compiled"
        with backend_scope("compiled"):
            assert Machine(program).backend == "compiled"

    def test_compile_cache_reuses_programs(self):
        program = assemble("main:\n    addi r1, r1, 1\n    halt\n")
        assert compiled_for(program, None) is compiled_for(program, None)

    def test_scope_is_per_thread(self, monkeypatch):
        # Thread A holds a compiled scope while thread B constructs a
        # machine: B must not see A's scope.
        monkeypatch.delenv(ISS_BACKEND_ENV, raising=False)
        program = assemble("main:\n    halt\n")
        barrier = threading.Barrier(2, timeout=30)
        seen = {}

        def holder():
            with backend_scope("compiled"):
                seen["a"] = Machine(program).backend
                barrier.wait()      # scope entered
                barrier.wait()      # B has built its machine

        def other():
            barrier.wait()
            seen["b"] = Machine(program).backend
            barrier.wait()

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=other)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"a": "compiled", "b": "interp"}


# ---------------------------------------------------------------------------
# Kernel-level parity (every registered kernel class)
# ---------------------------------------------------------------------------

class TestKernelParity:
    """Each kernel runner must return identical values, cycles, and
    (where exposed) profiles on both backends."""

    def _mpn_state_parity(self, kernels, method, *args):
        """Run an mpn kernel op on explicitly constructed machines so
        the full machine state can be compared, not just the return."""
        snaps = []
        for backend in BACKENDS:
            machine = Machine(kernels.runner.program,
                              kernels.runner.extensions,
                              kernels.runner.mem_size, backend=backend)
            result = getattr(kernels, method)(*args, machine=machine)
            snaps.append(snapshot(machine, result))
        assert snaps[0] == snaps[1]

    def test_mpn_base_kernels(self):
        from repro.isa.kernels.mpn_kernels import MpnKernels
        from repro.mp.prng import DeterministicPrng
        kernels = MpnKernels()
        prng = DeterministicPrng(0xD1FF)
        for n in (1, 3, 8):
            up, vp = prng.next_limbs(n), prng.next_limbs(n)
            v = prng.next_bits(32)
            self._mpn_state_parity(kernels, "add_n", up, vp)
            self._mpn_state_parity(kernels, "sub_n", up, vp)
            self._mpn_state_parity(kernels, "mul_1", up, v)
            self._mpn_state_parity(kernels, "addmul_1", vp, up, v)
            self._mpn_state_parity(kernels, "submul_1", vp, up, v)
            self._mpn_state_parity(kernels, "lshift", up, 1 + n)
        self._mpn_state_parity(kernels, "divrem_qest",
                               0x12345678, 0x9ABCDEF0, 0xF0000001)

    def test_mpn_extended_kernels(self):
        from repro.isa.kernels.mpn_kernels import MpnKernels
        from repro.mp.prng import DeterministicPrng
        kernels = MpnKernels(4, 2)
        prng = DeterministicPrng(0xE57)
        for n in (2, 7):
            up, vp = prng.next_limbs(n), prng.next_limbs(n)
            self._mpn_state_parity(kernels, "add_n", up, vp)
            self._mpn_state_parity(kernels, "addmul_1", vp, up,
                                   prng.next_bits(32))

    def test_modexp_kernel(self):
        from repro.isa.kernels.modexp_kernel import ModExpKernel
        kernel = ModExpKernel()
        results = []
        for backend in BACKENDS:
            with backend_scope(backend):
                value, cycles, profile = kernel.powm(
                    0x1234567, 0x10001, 0xF0000001_F0000001)
            results.append((value, cycles, profile.total_cycles,
                            profile.instructions,
                            dict(profile.local_cycles),
                            dict(profile.inclusive_cycles),
                            dict(profile.call_edges),
                            dict(profile.call_counts)))
        assert results[0] == results[1]

    def test_modexp_kernel_extended(self):
        from repro.isa.kernels.modexp_kernel import ModExpKernel
        kernel = ModExpKernel(4, 2)
        results = []
        for backend in BACKENDS:
            with backend_scope(backend):
                results.append(kernel.powm(0xCAFE, 0x101,
                                           0xD0000001_D0000001)[:2])
        assert results[0] == results[1]

    @pytest.mark.parametrize("case", ["aes", "des", "3des", "kasumi",
                                      "sha1", "md5"])
    def test_symmetric_and_hash_kernels(self, case):
        block = bytes(range(8 if case in ("des", "3des") else 16))
        key16 = bytes(range(16))
        results = []
        for backend in BACKENDS:
            with backend_scope(backend):
                if case == "aes":
                    from repro.isa.kernels.aes_kernels import AesKernel
                    results.append(AesKernel().encrypt_block(block, key16))
                elif case == "des":
                    from repro.isa.kernels.des_kernels import DesKernel
                    results.append(DesKernel().crypt_block(block, key16[:8]))
                elif case == "3des":
                    from repro.isa.kernels.des_kernels import DesKernel
                    results.append(DesKernel().crypt_3des_block(
                        block, bytes(range(24))))
                elif case == "kasumi":
                    from repro.isa.kernels.kasumi_kernels import KasumiKernel
                    results.append(KasumiKernel().crypt_block(block, key16))
                elif case == "sha1":
                    from repro.isa.kernels.hash_kernels import Sha1Kernel
                    results.append(Sha1Kernel().compress(
                        [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
                         0xC3D2E1F0], bytes(range(64))))
                else:
                    from repro.isa.kernels.md5_kernel import Md5Kernel
                    results.append(Md5Kernel().compress(
                        [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476],
                        bytes(range(64))))
        assert results[0] == results[1]

    def test_dcache_parity(self):
        from repro.isa.kernels.mpn_kernels import MpnKernels
        from repro.mp.prng import DeterministicPrng
        kernels = MpnKernels()
        prng = DeterministicPrng(0xDCAC)
        up, vp = prng.next_limbs(6), prng.next_limbs(6)
        snaps = []
        for backend in BACKENDS:
            from repro.isa.cache import CacheConfig
            machine = Machine(kernels.runner.program, None,
                              kernels.runner.mem_size,
                              dcache=CacheConfig(size_bytes=256,
                                                 line_bytes=16,
                                                 miss_penalty=9),
                              backend=backend)
            result = kernels.add_n(up, vp, machine=machine)
            snaps.append(snapshot(machine, result))
        assert snaps[0] == snaps[1]


# ---------------------------------------------------------------------------
# Differential fuzzing on random programs
# ---------------------------------------------------------------------------

_ALU_RRR = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra",
            "slt", "sltu", "mul", "mulhu")
_ALU_RRI = ("addi", "subi", "andi", "ori", "xori", "slli", "srli",
            "srai", "sltui")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


def _random_program(draw, computed_jr=False):
    """Build a terminating random program: forward-only branches, a
    leaf helper reached by jal, and memory ops inside a scratch
    region.

    With ``computed_jr`` one body slot becomes ``li r9, <pc>; jr r9``
    to a later body pc, and only branch targets keep their labels, so
    the jump usually lands inside a fused block."""
    body_len = draw(st.integers(2, 14))
    jr_at = draw(st.integers(0, body_len - 1)) if computed_jr else None
    body = []         # per body slot: its instruction lines
    targets = set()   # body slots named by a branch or j
    regs = lambda: draw(st.integers(0, 7))   # r0..r7 data registers
    for i in range(body_len):
        lines = []
        body.append(lines)
        if i == jr_at:
            # Slot k > jr_at sits at pc k + 2: `li r8` and the extra
            # `li r9` come before it.
            target_pc = draw(st.integers(i + 1, body_len)) + 2
            lines.append(f"    li r9, {target_pc}")
            lines.append("    jr r9")
            continue
        kind = draw(st.integers(0, 5))
        if kind == 0:
            op = draw(st.sampled_from(_ALU_RRR))
            lines.append(f"    {op} r{regs()}, r{regs()}, r{regs()}")
        elif kind == 1:
            op = draw(st.sampled_from(_ALU_RRI))
            imm = draw(st.integers(0, 31)) if op.startswith(("sll", "srl", "sra")) \
                else draw(st.integers(-64, 64))
            lines.append(f"    {op} r{regs()}, r{regs()}, {imm}")
        elif kind == 2:
            lines.append(f"    li r{regs()}, {draw(st.integers(-100, 2**31))}")
        elif kind == 3:
            off = 4 * draw(st.integers(0, 30))
            if draw(st.booleans()):
                lines.append(f"    lw r{regs()}, {off}(r8)")
            else:
                lines.append(f"    sw r{regs()}, {off}(r8)")
        elif kind == 4:
            off = draw(st.integers(0, 120))
            if draw(st.booleans()):
                lines.append(f"    lb r{regs()}, {off}(r8)")
            else:
                lines.append(f"    sb r{regs()}, {off}(r8)")
        else:
            # Forward-only control flow keeps the program terminating.
            target = draw(st.integers(i + 1, body_len))
            targets.add(target)
            label = f"main_{target}" if target < body_len else "main_end"
            if draw(st.booleans()):
                op = draw(st.sampled_from(_BRANCHES))
                lines.append(f"    {op} r{regs()}, r{regs()}, {label}")
            else:
                lines.append(f"    j {label}")
    lines = ["main:", "    li r8, 8192"]
    for i, slot in enumerate(body):
        if not computed_jr or i in targets:
            lines.append(f"main_{i}:")
        lines.extend(slot)
    lines.append("main_end:")
    if draw(st.booleans()):
        lines.append("    jal helper")
    lines.append("    halt")
    lines.append("helper:")
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(_ALU_RRR))
        lines.append(f"    {op} r{regs()}, r{regs()}, r{regs()}")
    lines.append("    jr r14")
    return "\n".join(lines) + "\n"


class TestDifferentialFuzz:
    @given(st.data())
    @settings(max_examples=80)
    def test_random_programs_bit_identical(self, data):
        source = _random_program(data.draw)
        args = data.draw(st.lists(st.integers(0, 0xFFFFFFFF),
                                  min_size=0, max_size=4))
        assert_identical(source, "main", args)

    @given(st.data())
    @settings(max_examples=25)
    def test_random_programs_under_budget_pressure(self, data):
        """A tiny instruction budget must trap at the same instruction
        (same state) on both backends."""
        source = _random_program(data.draw)
        budget = data.draw(st.integers(1, 12))
        assert_identical(source, "main", [], max_instructions=budget)

    @given(st.data())
    @settings(max_examples=60)
    def test_random_programs_with_computed_jr(self, data):
        """A computed jr into a fused block single-steps to the next
        leader; with or without a budget the state stays identical."""
        source = _random_program(data.draw, computed_jr=True)
        budget = data.draw(st.sampled_from([200_000_000, 3, 6, 9, 12]))
        assert_identical(source, "main", [], max_instructions=budget)


# ---------------------------------------------------------------------------
# Error-path parity
# ---------------------------------------------------------------------------

# `jr r9` lands on pc 5, inside the fused block 4..8 (pc 4 follows the
# jr, pc 9 is labeled), and single-steps addi, sw, lw and add up to
# the next leader, pc 9.
# The lw reads through {base}: r8 is the scratch buffer, r7 is out of
# range.
MID_BLOCK_ENTRY = ("main:\n"
                   "    li r8, 8192\n"
                   "    li r7, 0x7FFFFFF0\n"
                   "    li r9, 5\n"
                   "    jr r9\n"
                   "    addi r1, r1, 1\n"
                   "    addi r3, r3, 3\n"
                   "    sw r3, 0(r8)\n"
                   "    lw r4, 0({base})\n"
                   "    add r1, r3, r4\n"
                   "done:\n"
                   "    halt\n")


class TestErrorParity:
    def test_budget_exceeded(self):
        source = "main:\n    addi r1, r1, 1\n    j main\n"
        assert_identical(source, "main", [], max_instructions=37)

    def test_pc_out_of_range(self):
        assert_identical("main:\n    addi r1, r1, 1\n", "main", [])

    def test_memory_fault(self):
        source = ("main:\n    li r2, 0x7FFFFFF0\n"
                  "    lw r1, 0(r2)\n    halt\n")
        assert_identical(source, "main", [])

    def test_memory_fault_mid_block(self):
        # The fault lands mid-way through a fused block: the repair
        # path must leave counts/cycles exactly as the interpreter.
        source = ("main:\n"
                  "    addi r1, r1, 5\n"
                  "    addi r2, r2, 6\n"
                  "    lw r3, 0(r7)\n"     # r7 = huge address from args
                  "    addi r4, r4, 7\n"
                  "    halt\n")
        assert_identical(source, "main", [0, 0, 0, 0, 0, 0x7FFFFFF0])

    def test_negative_pc(self):
        # Base-ISA writes are masked to 32 bits; a custom instruction's
        # need not be, so a jr can reach a negative pc.
        from repro.isa.extensions import CustomInstruction, ExtensionSet

        def semantics(machine, args):
            machine.regs[args[0]] = -1

        ext = ExtensionSet()
        ext.add(CustomInstruction(name="negpc", signature="r",
                                  semantics=semantics, latency=1))
        source = ("main:\n    negpc r5\n    jr r5\n"
                  "    addi r1, r1, 7\n    halt\n")
        interp, compiled = run_both(source, "main", [], extensions=ext)
        assert interp == compiled
        assert interp["result"] == ("error", "pc out of range: -1")

    def test_computed_jr_into_block(self):
        source = MID_BLOCK_ENTRY.format(base="r8")
        compiled = compiled_for(assemble(source))
        assert compiled.blocks[4][1] == 5 and compiled.blocks[5] is None
        interp, compiled_snap = run_both(source, "main", [])
        assert interp == compiled_snap
        assert interp["result"] == 6 and interp["opcode_counts"]["lw"] == 1

    def test_computed_jr_into_block_faulting_load(self):
        interp, compiled = run_both(MID_BLOCK_ENTRY.format(base="r7"),
                                    "main", [])
        assert interp == compiled
        assert interp["result"][0] == "error" and interp["pc"] == 7

    def test_unknown_opcode(self):
        # Assemble with an extension, run without it: the machine must
        # fault on the custom opcode identically on both backends.
        from repro.isa.custom import make_vaddc
        from repro.isa.extensions import ExtensionSet
        ext = ExtensionSet()
        ext.add(make_vaddc(2))
        program = assemble(
            "main:\n    addi r1, r1, 3\n    vaddc_2 r1, r2, r3\n    halt\n",
            ext)
        snaps = []
        for backend in BACKENDS:
            machine = Machine(program, None, 1 << 16, backend=backend)
            try:
                result = machine.run("main", [])
            except MachineError as exc:
                result = ("error", str(exc))
            snaps.append(snapshot(machine, result))
        assert snaps[0] == snaps[1]
        assert snaps[0]["result"][0] == "error"


# ---------------------------------------------------------------------------
# Lazily rendered single-instruction steps
# ---------------------------------------------------------------------------

def _built(compiled):
    return [pc for pc, step in enumerate(compiled.steps) if step is not None]


class TestLazySteps:
    def test_compiling_builds_no_step(self):
        from repro.isa.kernels.modexp_kernel import ModExpKernel
        for kernel in (ModExpKernel(), ModExpKernel(8, 8)):
            runner = kernel.runner
            compiled = compile_program(runner.program, runner.extensions)
            assert compiled.sentinel > 0
            assert _built(compiled) == []

    def test_powm_builds_no_step(self):
        from repro.isa.kernels.modexp_kernel import ModExpKernel
        kernel = ModExpKernel()
        # A fresh Program, so no other test's steps are in its cache slot.
        kernel.runner.program = assemble(kernel.runner.source)
        modulus = (1 << 256) - 189
        with backend_scope("compiled"):
            value, _, _ = kernel.powm(0x1234567, 0x1B5, modulus)
        assert value == pow(0x1234567, 0x1B5, modulus)
        assert _built(compiled_for(kernel.runner.program)) == []

    def test_budget_trap_builds_the_stepped_pcs(self):
        # One 4-instruction block: two passes use 8 of the 10-instruction
        # budget, pcs 0 and 1 single-step, and pc 2 trips the budget
        # before its step is needed.
        program = assemble("main:\n    addi r1, r1, 1\n"
                           "    addi r2, r2, 1\n    addi r3, r3, 1\n"
                           "    j main\n")
        machine = Machine(program, mem_size=1 << 12, backend="compiled")
        with pytest.raises(MachineError, match="budget"):
            machine.run("main", [], max_instructions=10)
        assert machine.regs[1:4] == [3, 3, 2]
        assert _built(compiled_for(program)) == [0, 1]

    @pytest.mark.parametrize("base, stepped", [("r8", [5, 6, 7, 8]),
                                               ("r7", [5, 6, 7])])
    def test_computed_jr_builds_the_stepped_pcs(self, base, stepped):
        program = assemble(MID_BLOCK_ENTRY.format(base=base))
        machine = Machine(program, mem_size=1 << 16, backend="compiled")
        try:
            machine.run("main", [])
        except MachineError:
            pass
        assert _built(compiled_for(program)) == stepped

    def test_threads_render_shared_steps_correctly(self):
        # Four threads single-step the same fresh program at once: a
        # step may be rendered twice, but every run stays identical to
        # the interpreter.
        source = MID_BLOCK_ENTRY.format(base="r8")
        expected = run_both(source, "main", [])[0]
        results = []

        def worker(program, barrier):
            barrier.wait()
            machine = Machine(program, None, 1 << 16, backend="compiled")
            results.append(snapshot(machine, machine.run("main", [])))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                program = assemble(source)
                barrier = threading.Barrier(4, timeout=30)
                threads = [threading.Thread(target=worker,
                                            args=(program, barrier))
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert _built(compiled_for(program)) == [5, 6, 7, 8]
        finally:
            sys.setswitchinterval(switch)
        assert results == [expected] * 40


# ---------------------------------------------------------------------------
# Bulk word access and batching
# ---------------------------------------------------------------------------

class TestBulkWords:
    def test_roundtrip_matches_per_word(self):
        program = assemble("main:\n    halt\n")
        machine = Machine(program, mem_size=1 << 12)
        words = [0, 1, 0xFFFFFFFF, 0x12345678, 0x80000000]
        machine.write_words(0x100, words)
        assert machine.read_words(0x100, len(words)) == words
        assert [machine.read_word(0x100 + 4 * i)
                for i in range(len(words))] == words

    def test_bounds_checked(self):
        program = assemble("main:\n    halt\n")
        machine = Machine(program, mem_size=1 << 12)
        with pytest.raises(MachineError):
            machine.write_words((1 << 12) - 4, [1, 2])
        with pytest.raises(MachineError):
            machine.read_words((1 << 12) - 4, 2)
        machine.write_words(0, [])
        assert machine.read_words(0, 0) == []


class TestBatching:
    """One machine reused across runs (``reset`` or not) against fresh
    machines."""

    SOURCE = ("main:\n"
              "    add r1, r1, r2\n"
              "    addi r1, r1, 1\n"
              "    halt\n")

    def test_kernel_runner_machine_tracks_backend_scope(self, monkeypatch):
        from repro.isa.kernels import KernelRunner
        monkeypatch.delenv(ISS_BACKEND_ENV, raising=False)
        runner = KernelRunner(self.SOURCE, mem_size=1 << 12)
        assert runner.machine().backend == "interp"
        with backend_scope("compiled"):
            assert runner.machine().backend == "compiled"
        assert runner.machine().backend == "interp"

    def test_reset_machine_matches_fresh(self):
        program = assemble(self.SOURCE)
        for backend in BACKENDS:
            reused = Machine(program, backend=backend, mem_size=1 << 12)
            reused.run("main", [5, 7])
            reused.reset()
            fresh = Machine(program, backend=backend, mem_size=1 << 12)
            results = (reused.run("main", [9, 11]),
                       fresh.run("main", [9, 11]))
            assert results[0] == results[1]
            assert snapshot(reused, results[0]) == snapshot(fresh,
                                                            results[1])

    # Entries that return, halt, run only a halt, and fault mid-block.
    RUNS = ("main:\n"
            "    addi r1, r1, 1\n"
            "    addi r1, r1, 2\n"
            "    halt\n"
            "stop:\n"
            "    halt\n"
            "ret:\n"
            "    addi r1, r1, 5\n"
            "    jr r14\n"
            "bad:\n"
            "    addi r3, r3, 1\n"
            "    lw r2, 0(r1)\n"
            "    halt\n")

    @pytest.mark.parametrize("first, second", [
        ("main", "stop"), ("stop", "main"), ("main", "ret"),
        ("ret", "main"), ("stop", "stop"), ("bad", "ret"),
        ("ret", "bad")])
    def test_instret_accumulates_like_cycles(self, first, second):
        # A second run on one machine adds what that run retires on a
        # fresh machine, on both backends; a halt-only run retires 0.
        program = assemble(self.RUNS)

        def run(machine, entry):
            try:
                machine.run(entry, [1 << 30])
            except MachineError:
                pass

        for backend in BACKENDS:
            fresh = []
            for entry in (first, second):
                machine = Machine(program, backend=backend,
                                  mem_size=1 << 12)
                run(machine, entry)
                fresh.append((machine.instret, machine.cycles))
            reused = Machine(program, backend=backend, mem_size=1 << 12)
            run(reused, first)
            run(reused, second)
            assert (reused.instret, reused.cycles) == (
                fresh[0][0] + fresh[1][0], fresh[0][1] + fresh[1][1])
