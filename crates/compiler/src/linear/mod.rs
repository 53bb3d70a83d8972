//! The linear register-machine tier: scheduled sea-of-nodes graphs are
//! lowered ([`lower()`]) into a dense `Vec<u32>` instruction stream — the
//! [`LinearArtifact`] — and executed by a direct-threaded dispatch loop
//! ([`exec::execute`]) that never touches [`pea_ir::Graph`] or
//! [`pea_ir::NodeId`] on the hot path.
//!
//! The artifact pre-resolves everything graph evaluation looks up per
//! call: field offsets become `(declaring class, slot)` pairs checked
//! with one subclass test, constants live in a pool or in the metadata
//! that reads them, parameters are the window's first registers, call
//! targets are pre-bound method ids, and deoptimization metadata (frame-state chains
//! plus virtual-object rematerialization info, paper §5.5) is compiled
//! into self-contained side tables keyed by deopt-point index so
//! rematerialization and the VM's existing deopt machinery work
//! unchanged.
//!
//! Virtual-cycle accounting is preserved as a parallel channel: every
//! instruction charges exactly the constants graph evaluation charges for
//! the nodes it stands for (an edge, a fused compare-and-branch or
//! compare-and-guard), in the same order, so cycle counts, golden traces and Table-1 numbers are
//! byte-identical between `--exec-mode linear` and `--exec-mode graph`.

pub mod exec;
pub mod lower;

pub use exec::{execute, RegisterStack};
pub use lower::{lower, LowerError};

use pea_bytecode::{ClassId, MethodId};
use pea_ir::AllocShape;

/// Sentinel register/index meaning "absent" (e.g. a call with no result).
/// As a register operand it truncates to the window's last register, so
/// the dispatch loop compares an operand that may hold it before it
/// indexes the window.
pub const NO_REG: u32 = u32::MAX;

/// Words of an instruction's fixed part at its longest: the opcode and
/// six operands ([`op::INVOKE`] reads its receiver, the first argument,
/// at `+6`). The code stream ends with `INSN_WORDS - 1` zero words, so
/// the dispatch loop reads every instruction's fixed part as one
/// `&[u32; INSN_WORDS]` with one bounds check.
pub const INSN_WORDS: usize = 7;

/// Registers of an activation's window as the dispatch loop sees it. A
/// register operand indexes it as `r as u8 as usize`, which needs no
/// bounds check; the lowering refuses a method that needs more, and the
/// register stack keeps `WINDOW` slots past every window's start. Past
/// the activation's own `num_regs` the window overlaps its callees',
/// which no operand reaches.
pub const WINDOW: usize = 256;

/// Opcodes of the linear register machine. One `u32` word each, followed
/// by a fixed (per-opcode) number of operand words; `INVOKE` adds a
/// trailing argument-register list and the edge instructions a trailing
/// move list, each preceded by its length.
///
/// Registers are indices into the running activation's window, below
/// [`WINDOW`]. A method's parameters are its first registers,
/// `0..param_count`: the caller writes the arguments there, so no
/// instruction loads them. A constant has a register, written by
/// [`op::CONST_INT`] or [`op::CONST_NULL`], only when an instruction
/// reads it from one: binary arithmetic and a fused
/// compare read an integer operand from the pool ([`op::ADD_I`]`..=`
/// [`op::SHR_I`], [`op::IF_CMP_I`], [`op::GUARD_CMP_I`]), and deopt
/// metadata and commit templates carry constants themselves
/// ([`SlotSrc::Int`], [`CommitFieldSrc::Int`]).
///
/// The dispatch loop is a dense jump table over these values (Rust has no
/// computed goto, but the compiler lowers the exhaustive `match` on a
/// dense `u32` range to the same direct-threaded table). It reads the
/// [`INSN_WORDS`] words from the opcode on, once per instruction; only
/// `INVOKE`'s argument list and an edge's move list are read past them.
pub mod op {
    /// `[dst, pool_idx]` — load an `i64` constant from the pool.
    pub const CONST_INT: u32 = 0;
    /// `[dst]` — load null.
    pub const CONST_NULL: u32 = 1;
    /// `[dst, a, b]` — wrapping addition.
    pub const ADD: u32 = 2;
    /// `[dst, a, b]` — wrapping subtraction.
    pub const SUB: u32 = 3;
    /// `[dst, a, b]` — wrapping multiplication.
    pub const MUL: u32 = 4;
    /// `[dst, a, b]` — wrapping division; traps on a zero divisor.
    pub const DIV: u32 = 5;
    /// `[dst, a, b]` — wrapping remainder; traps on a zero divisor.
    pub const REM: u32 = 6;
    /// `[dst, a, b]` — bitwise and.
    pub const AND: u32 = 7;
    /// `[dst, a, b]` — bitwise or.
    pub const OR: u32 = 8;
    /// `[dst, a, b]` — bitwise exclusive or.
    pub const XOR: u32 = 9;
    /// `[dst, a, b]` — shift left by `b & 63`.
    pub const SHL: u32 = 10;
    /// `[dst, a, b]` — arithmetic shift right by `b & 63`.
    pub const SHR: u32 = 11;
    /// `[dst, a]` — wrapping negation.
    pub const NEG: u32 = 12;
    /// `[cmp_op, dst, a, b]` — integer comparison producing 0/1.
    pub const COMPARE: u32 = 13;
    /// `[dst, a, b]` — reference identity producing 0/1.
    pub const REF_EQ: u32 = 14;
    /// `[dst, a]` — null test producing 0/1.
    pub const IS_NULL: u32 = 15;
    /// `[dst, a, class, exact]` — type test producing 0/1.
    pub const INSTANCE_OF: u32 = 16;
    /// `[dst, a, class]` — checked cast (passes the value through).
    pub const CHECK_CAST: u32 = 17;
    /// `[dst, class, alloc_cycles]` — allocate an instance.
    pub const NEW: u32 = 18;
    /// `[dst, len_reg, kind]` — allocate an array.
    pub const NEW_ARRAY: u32 = 19;
    /// `[dst, obj, declaring_class, slot, field]` — read an instance
    /// field at a pre-resolved offset (`field` is the slow-path id).
    pub const LOAD_FIELD: u32 = 20;
    /// `[obj, val, declaring_class, slot, field]` — write an instance
    /// field at a pre-resolved offset.
    pub const STORE_FIELD: u32 = 21;
    /// `[dst, arr, idx]` — read an array element.
    pub const LOAD_INDEXED: u32 = 22;
    /// `[arr, idx, val]` — write an array element.
    pub const STORE_INDEXED: u32 = 23;
    /// `[dst, arr]` — array length.
    pub const ARRAY_LEN: u32 = 24;
    /// `[obj]` — monitor enter.
    pub const MONITOR_ENTER: u32 = 25;
    /// `[obj]` — monitor exit.
    pub const MONITOR_EXIT: u32 = 26;
    /// `[dst, static_id]` — read a static variable.
    pub const GET_STATIC: u32 = 27;
    /// `[val, static_id]` — write a static variable.
    pub const PUT_STATIC: u32 = 28;
    /// `[target, virtual, dst, deopt_idx, argc, args...]` — out-of-line
    /// call; `dst` is [`super::NO_REG`] for void targets. The arguments
    /// become the callee's first registers. A thrown callee exception
    /// deoptimizes through deopt point `deopt_idx`.
    pub const INVOKE: u32 = 29;
    /// `[commit_idx]` — materialize a virtual-object group
    /// ([`super::LinearCommit`]).
    pub const COMMIT: u32 = 30;
    /// `[cond, negated, reason, deopt_idx]` — speculation guard:
    /// deoptimizes when `cond` equals `negated`.
    pub const GUARD: u32 = 31;
    /// `[cmp_op, a, b, reason, deopt_idx]` — [`COMPARE`] fused with the
    /// [`GUARD`] that is its only user, the guard's negation folded into
    /// `cmp_op`: charges both, writes no register, and deoptimizes when
    /// `a cmp_op b` holds.
    pub const GUARD_CMP: u32 = 32;
    /// `[cmp_op, a, pool_idx, reason, deopt_idx]` — [`GUARD_CMP`] whose
    /// right operand is a pool constant.
    pub const GUARD_CMP_I: u32 = 33;
    /// `[reason, deopt_idx]` — unconditional transfer to the interpreter.
    pub const DEOPT: u32 = 34;
    /// `[cond, true_pc, false_pc]` — two-way branch.
    pub const IF: u32 = 35;
    /// `[cmp_op, a, b, true_pc, false_pc]` — [`COMPARE`] fused with the
    /// [`IF`] that is its only user: charges both, writes no register.
    pub const IF_CMP: u32 = 36;
    /// `[cmp_op, a, pool_idx, true_pc, false_pc]` — [`IF_CMP`] whose
    /// right operand is a pool constant.
    pub const IF_CMP_I: u32 = 37;
    /// `[target, n, (dst, src) × n]` — forward edge into a merge: the
    /// branch cost, the edge's phi moves in order, and the jump, as one
    /// instruction.
    pub const EDGE: u32 = 38;
    /// `[target, n, (dst, src) × n]` — loop back edge: as [`EDGE`], with
    /// a safepoint poll after the branch cost.
    pub const LOOP_EDGE: u32 = 39;
    /// `[dst, src]` — register move (a second reader of a commit's
    /// object; free).
    pub const MOVE: u32 = 40;
    /// `[src]` — return (`src` may be [`super::NO_REG`]).
    pub const RETURN: u32 = 41;
    /// `[src]` — user exception with error code `src`.
    pub const THROW: u32 = 42;
    /// `[src]` — propagate exception object `src` out of the frame.
    pub const UNWIND: u32 = 43;
    /// `[dst, a, pool_idx]` — [`ADD`] whose right operand is a pool
    /// constant. The lowering swaps a constant left operand of an
    /// operation that commutes ([`ADD`], [`MUL`], [`AND`], [`OR`],
    /// [`XOR`]) to the right.
    pub const ADD_I: u32 = 44;
    /// `[dst, a, pool_idx]` — [`SUB`] by a pool constant.
    pub const SUB_I: u32 = 45;
    /// `[dst, a, pool_idx]` — [`MUL`] by a pool constant.
    pub const MUL_I: u32 = 46;
    /// `[dst, a, pool_idx]` — [`DIV`] by a pool constant; traps on 0.
    pub const DIV_I: u32 = 47;
    /// `[dst, a, pool_idx]` — [`REM`] by a pool constant; traps on 0.
    pub const REM_I: u32 = 48;
    /// `[dst, a, pool_idx]` — [`AND`] with a pool constant.
    pub const AND_I: u32 = 49;
    /// `[dst, a, pool_idx]` — [`OR`] with a pool constant.
    pub const OR_I: u32 = 50;
    /// `[dst, a, pool_idx]` — [`XOR`] with a pool constant.
    pub const XOR_I: u32 = 51;
    /// `[dst, a, pool_idx]` — [`SHL`] by a pool constant (`& 63`).
    pub const SHL_I: u32 = 52;
    /// `[dst, a, pool_idx]` — [`SHR`] by a pool constant (`& 63`).
    pub const SHR_I: u32 = 53;
}

/// Where a deopt-metadata or commit-template slot gets its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotSrc {
    /// A register of the running frame.
    Reg(u32),
    /// An integer constant.
    Int(i64),
    /// The null reference.
    Null,
    /// Index into the owning [`DeoptPoint::vobjs`] table: a virtual
    /// object rematerialized on demand (paper §5.5).
    Virtual(u32),
}

/// One interpreter frame of a compiled deopt point, outermost first in
/// [`DeoptPoint::frames`]. Mirrors the graph's `FrameState` chain with
/// node ids replaced by register/virtual-object sources.
#[derive(Clone, Debug)]
pub struct LinearFrame {
    /// Frame method.
    pub method: MethodId,
    /// Bytecode index to resume at.
    pub bci: u32,
    /// Local-variable sources.
    pub locals: Vec<SlotSrc>,
    /// Operand-stack sources.
    pub stack: Vec<SlotSrc>,
    /// Held monitors: `(source, from_synchronized_method)`.
    pub locks: Vec<(SlotSrc, bool)>,
}

/// A compiled `VirtualObjectMapping`: everything rematerialization needs
/// without consulting the graph.
#[derive(Clone, Debug)]
pub struct LinearVObj {
    /// What to allocate.
    pub shape: AllocShape,
    /// Monitor depth to restore.
    pub lock_count: u32,
    /// Field (or element) value sources in layout order, possibly cyclic
    /// through [`SlotSrc::Virtual`].
    pub fields: Vec<SlotSrc>,
}

/// Self-contained deopt metadata for one deopt point (guard, deopt or
/// call site), keyed by the `deopt_idx` instruction operand.
#[derive(Clone, Debug)]
pub struct DeoptPoint {
    /// Frames outermost first.
    pub frames: Vec<LinearFrame>,
    /// Virtual objects referenced by the frames' slots.
    pub vobjs: Vec<LinearVObj>,
}

/// A field (or element) source within a [`LinearCommit`] template.
#[derive(Clone, Copy, Debug)]
pub enum CommitFieldSrc {
    /// A register value.
    Reg(u32),
    /// An integer constant.
    Int(i64),
    /// The null reference.
    Null,
    /// A reference to object `index` of the same commit (cyclic
    /// structures).
    SameCommit(u32),
}

/// One object of a commit template.
#[derive(Clone, Debug)]
pub struct LinearCommitObj {
    /// What to allocate.
    pub shape: AllocShape,
    /// Monitor re-entry count.
    pub lock_count: u32,
    /// Pre-computed virtual-cycle allocation charge.
    pub alloc_cycles: u64,
    /// Register receiving the materialized reference ([`NO_REG`] when the
    /// object is never read after the commit).
    pub dst: u32,
    /// Field (or element) value sources in layout order.
    pub fields: Vec<CommitFieldSrc>,
}

/// A compiled `Commit` group materialization (paper §4): allocate each
/// object in turn, already filled (a cyclic reference names a member by
/// its allocation number before it exists), then re-enter monitors.
#[derive(Clone, Debug)]
pub struct LinearCommit {
    /// Objects in input-layout order.
    pub objects: Vec<LinearCommitObj>,
}

/// The lowered form of a compiled method: a dense register-machine
/// program plus the side tables its instructions index into.
#[derive(Clone, Debug)]
pub struct LinearArtifact {
    /// Instruction stream (see [`op`]), then `INSN_WORDS - 1` zero
    /// words of padding ([`INSN_WORDS`]): no jump targets them, and the
    /// last instruction ends where they begin ([`LinearArtifact::insns`]).
    pub code: Vec<u32>,
    /// `i64` constant pool ([`op::CONST_INT`], the immediate arithmetic
    /// opcodes, [`op::IF_CMP_I`] and [`op::GUARD_CMP_I`] operands index
    /// it).
    pub pool: Vec<i64>,
    /// Number of registers the activation's window holds, its parameters
    /// first: at most [`WINDOW`].
    pub num_regs: u32,
    /// Number of register moves the edge instructions carry, every edge
    /// counted once: the static count of phi moves, a cycle's move
    /// through the temporary register included.
    pub phi_moves: u32,
    /// Deopt-metadata table ([`op::GUARD`], [`op::GUARD_CMP`],
    /// [`op::GUARD_CMP_I`], [`op::DEOPT`] and [`op::INVOKE`] operands
    /// index it).
    pub deopts: Vec<DeoptPoint>,
    /// Commit templates ([`op::COMMIT`] operands index it).
    pub commits: Vec<LinearCommit>,
}

impl LinearArtifact {
    /// The instruction stream without its padding.
    pub fn insns(&self) -> &[u32] {
        &self.code[..self.code.len() - (INSN_WORDS - 1)]
    }

    /// Human-readable disassembly, one instruction per line — used by the
    /// golden encoding test and `--dump-linear` style diagnostics.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let c = self.insns();
        let mut pc = 0usize;
        let reg = |r: u32| {
            if r == NO_REG {
                "_".to_string()
            } else {
                format!("r{r}")
            }
        };
        while pc < c.len() {
            let _ = write!(out, "{pc:4}: ");
            match c[pc] {
                op::CONST_INT => {
                    let _ = writeln!(
                        out,
                        "const {} <- {}",
                        reg(c[pc + 1]),
                        self.pool[c[pc + 2] as usize]
                    );
                    pc += 3;
                }
                op::CONST_NULL => {
                    let _ = writeln!(out, "null {}", reg(c[pc + 1]));
                    pc += 2;
                }
                op::ADD..=op::SHR => {
                    let _ = writeln!(
                        out,
                        "{} {} <- {}, {}",
                        ARITH_NAMES[(c[pc] - op::ADD) as usize],
                        reg(c[pc + 1]),
                        reg(c[pc + 2]),
                        reg(c[pc + 3])
                    );
                    pc += 4;
                }
                op::ADD_I..=op::SHR_I => {
                    let _ = writeln!(
                        out,
                        "{}i {} <- {}, {}",
                        ARITH_NAMES[(c[pc] - op::ADD_I) as usize],
                        reg(c[pc + 1]),
                        reg(c[pc + 2]),
                        self.pool[c[pc + 3] as usize]
                    );
                    pc += 4;
                }
                op::NEG => {
                    let _ = writeln!(out, "neg {} <- {}", reg(c[pc + 1]), reg(c[pc + 2]));
                    pc += 3;
                }
                op::COMPARE => {
                    let _ = writeln!(
                        out,
                        "cmp[{}] {} <- {}, {}",
                        c[pc + 1],
                        reg(c[pc + 2]),
                        reg(c[pc + 3]),
                        reg(c[pc + 4])
                    );
                    pc += 5;
                }
                op::REF_EQ => {
                    let _ = writeln!(
                        out,
                        "refeq {} <- {}, {}",
                        reg(c[pc + 1]),
                        reg(c[pc + 2]),
                        reg(c[pc + 3])
                    );
                    pc += 4;
                }
                op::IS_NULL => {
                    let _ = writeln!(out, "isnull {} <- {}", reg(c[pc + 1]), reg(c[pc + 2]));
                    pc += 3;
                }
                op::INSTANCE_OF => {
                    let _ = writeln!(
                        out,
                        "instanceof{} {} <- {}, C{}",
                        if c[pc + 4] != 0 { "!" } else { "" },
                        reg(c[pc + 1]),
                        reg(c[pc + 2]),
                        c[pc + 3]
                    );
                    pc += 5;
                }
                op::CHECK_CAST => {
                    let _ = writeln!(
                        out,
                        "checkcast {} <- {}, C{}",
                        reg(c[pc + 1]),
                        reg(c[pc + 2]),
                        c[pc + 3]
                    );
                    pc += 4;
                }
                op::NEW => {
                    let _ = writeln!(
                        out,
                        "new {} <- C{} (cost {})",
                        reg(c[pc + 1]),
                        c[pc + 2],
                        c[pc + 3]
                    );
                    pc += 4;
                }
                op::NEW_ARRAY => {
                    let _ = writeln!(
                        out,
                        "newarray {} <- len {} kind {}",
                        reg(c[pc + 1]),
                        reg(c[pc + 2]),
                        c[pc + 3]
                    );
                    pc += 4;
                }
                op::LOAD_FIELD => {
                    let _ = writeln!(
                        out,
                        "ldfld {} <- {}.[C{}+{}] (F{})",
                        reg(c[pc + 1]),
                        reg(c[pc + 2]),
                        c[pc + 3],
                        c[pc + 4],
                        c[pc + 5]
                    );
                    pc += 6;
                }
                op::STORE_FIELD => {
                    let _ = writeln!(
                        out,
                        "stfld {}.[C{}+{}] <- {} (F{})",
                        reg(c[pc + 1]),
                        c[pc + 3],
                        c[pc + 4],
                        reg(c[pc + 2]),
                        c[pc + 5]
                    );
                    pc += 6;
                }
                op::LOAD_INDEXED => {
                    let _ = writeln!(
                        out,
                        "ldidx {} <- {}[{}]",
                        reg(c[pc + 1]),
                        reg(c[pc + 2]),
                        reg(c[pc + 3])
                    );
                    pc += 4;
                }
                op::STORE_INDEXED => {
                    let _ = writeln!(
                        out,
                        "stidx {}[{}] <- {}",
                        reg(c[pc + 1]),
                        reg(c[pc + 2]),
                        reg(c[pc + 3])
                    );
                    pc += 4;
                }
                op::ARRAY_LEN => {
                    let _ = writeln!(out, "arraylen {} <- {}", reg(c[pc + 1]), reg(c[pc + 2]));
                    pc += 3;
                }
                op::MONITOR_ENTER => {
                    let _ = writeln!(out, "monenter {}", reg(c[pc + 1]));
                    pc += 2;
                }
                op::MONITOR_EXIT => {
                    let _ = writeln!(out, "monexit {}", reg(c[pc + 1]));
                    pc += 2;
                }
                op::GET_STATIC => {
                    let _ = writeln!(out, "getstatic {} <- S{}", reg(c[pc + 1]), c[pc + 2]);
                    pc += 3;
                }
                op::PUT_STATIC => {
                    let _ = writeln!(out, "putstatic S{} <- {}", c[pc + 2], reg(c[pc + 1]));
                    pc += 3;
                }
                op::INVOKE => {
                    let argc = c[pc + 5] as usize;
                    let args: Vec<String> = (0..argc).map(|i| reg(c[pc + 6 + i])).collect();
                    let _ = writeln!(
                        out,
                        "invoke{} {} <- M{}({}) deopt {}",
                        if c[pc + 2] != 0 { "virtual" } else { "static" },
                        reg(c[pc + 3]),
                        c[pc + 1],
                        args.join(", "),
                        c[pc + 4]
                    );
                    pc += 6 + argc;
                }
                op::COMMIT => {
                    let t = &self.commits[c[pc + 1] as usize];
                    let dsts: Vec<String> = t.objects.iter().map(|o| reg(o.dst)).collect();
                    let _ = writeln!(
                        out,
                        "commit #{} x{} -> [{}]",
                        c[pc + 1],
                        t.objects.len(),
                        dsts.join(", ")
                    );
                    pc += 2;
                }
                op::GUARD => {
                    let _ = writeln!(
                        out,
                        "guard {}{} reason {} deopt {}",
                        if c[pc + 2] != 0 { "!" } else { "" },
                        reg(c[pc + 1]),
                        c[pc + 3],
                        c[pc + 4]
                    );
                    pc += 5;
                }
                op::GUARD_CMP | op::GUARD_CMP_I => {
                    let (name, b) = if c[pc] == op::GUARD_CMP_I {
                        ("guardcmpi", self.pool[c[pc + 3] as usize].to_string())
                    } else {
                        ("guardcmp", reg(c[pc + 3]))
                    };
                    let _ = writeln!(
                        out,
                        "{name}[{}] {}, {b} reason {} deopt {}",
                        c[pc + 1],
                        reg(c[pc + 2]),
                        c[pc + 4],
                        c[pc + 5]
                    );
                    pc += 6;
                }
                op::DEOPT => {
                    let _ = writeln!(out, "deopt reason {} deopt {}", c[pc + 1], c[pc + 2]);
                    pc += 3;
                }
                op::IF => {
                    let _ = writeln!(
                        out,
                        "if {} then {} else {}",
                        reg(c[pc + 1]),
                        c[pc + 2],
                        c[pc + 3]
                    );
                    pc += 4;
                }
                op::EDGE | op::LOOP_EDGE => {
                    let n = c[pc + 2] as usize;
                    let moves: Vec<String> = c[pc + 3..pc + 3 + 2 * n]
                        .chunks_exact(2)
                        .map(|m| format!("{} <- {}", reg(m[0]), reg(m[1])))
                        .collect();
                    let kind = if c[pc] == op::LOOP_EDGE {
                        "backedge (safepoint)"
                    } else {
                        "edge"
                    };
                    let _ = write!(out, "{kind} -> {}", c[pc + 1]);
                    if n > 0 {
                        let _ = write!(out, " [{}]", moves.join(", "));
                    }
                    let _ = writeln!(out);
                    pc += 3 + 2 * n;
                }
                op::MOVE => {
                    let _ = writeln!(out, "mov {} <- {}", reg(c[pc + 1]), reg(c[pc + 2]));
                    pc += 3;
                }
                op::IF_CMP | op::IF_CMP_I => {
                    let (name, b) = if c[pc] == op::IF_CMP_I {
                        ("ifcmpi", self.pool[c[pc + 3] as usize].to_string())
                    } else {
                        ("ifcmp", reg(c[pc + 3]))
                    };
                    let _ = writeln!(
                        out,
                        "{name}[{}] {}, {b} then {} else {}",
                        c[pc + 1],
                        reg(c[pc + 2]),
                        c[pc + 4],
                        c[pc + 5]
                    );
                    pc += 6;
                }
                op::RETURN => {
                    let _ = writeln!(out, "ret {}", reg(c[pc + 1]));
                    pc += 2;
                }
                op::THROW => {
                    let _ = writeln!(out, "throw {}", reg(c[pc + 1]));
                    pc += 2;
                }
                op::UNWIND => {
                    let _ = writeln!(out, "unwind {}", reg(c[pc + 1]));
                    pc += 2;
                }
                other => {
                    let _ = writeln!(out, "?{other}");
                    pc += 1;
                }
            }
        }
        out
    }
}

/// Disassembly mnemonics of [`op::ADD`]`..=`[`op::SHR`], in opcode order
/// (the immediate forms add an `i`).
const ARITH_NAMES: [&str; 10] = [
    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr",
];

/// The opcode of a binary [`pea_ir::ArithOp`].
pub(crate) fn arith_opcode(aop: pea_ir::ArithOp) -> u32 {
    use pea_ir::ArithOp::*;
    match aop {
        Add => op::ADD,
        Sub => op::SUB,
        Mul => op::MUL,
        Div => op::DIV,
        Rem => op::REM,
        And => op::AND,
        Or => op::OR,
        Xor => op::XOR,
        Shl => op::SHL,
        Shr => op::SHR,
        Neg => unreachable!("unary negation uses op::NEG"),
    }
}

/// The opcode of a binary [`pea_ir::ArithOp`] whose right operand is a
/// pool constant.
pub(crate) fn arith_imm_opcode(aop: pea_ir::ArithOp) -> u32 {
    arith_opcode(aop) - op::ADD + op::ADD_I
}

/// Encodes a [`pea_bytecode::CmpOp`] as an instruction operand.
pub(crate) fn cmp_code(op: pea_bytecode::CmpOp) -> u32 {
    use pea_bytecode::CmpOp::*;
    match op {
        Eq => 0,
        Ne => 1,
        Lt => 2,
        Le => 3,
        Gt => 4,
        Ge => 5,
    }
}

/// Encodes a [`pea_ir::DeoptReason`] as an instruction operand.
pub(crate) fn reason_code(r: pea_ir::DeoptReason) -> u32 {
    use pea_ir::DeoptReason::*;
    match r {
        UntakenBranch => 0,
        TypeCheck => 1,
        Unreached => 2,
        NullCheck => 3,
    }
}

/// Decodes a [`pea_ir::DeoptReason`] instruction operand.
pub(crate) fn decode_reason(r: u32) -> pea_ir::DeoptReason {
    use pea_ir::DeoptReason::*;
    match r {
        0 => UntakenBranch,
        1 => TypeCheck,
        2 => Unreached,
        _ => NullCheck,
    }
}

/// Encodes a [`pea_bytecode::ValueKind`] as an instruction operand.
pub(crate) fn kind_code(k: pea_bytecode::ValueKind) -> u32 {
    match k {
        pea_bytecode::ValueKind::Int => 0,
        pea_bytecode::ValueKind::Ref => 1,
    }
}

/// Decodes a [`pea_bytecode::ValueKind`] instruction operand.
pub(crate) fn decode_kind(k: u32) -> pea_bytecode::ValueKind {
    if k == 0 {
        pea_bytecode::ValueKind::Int
    } else {
        pea_bytecode::ValueKind::Ref
    }
}

/// Marker for `ClassId` operands (documentation aid; ids are raw `u32`s).
pub(crate) fn class_code(c: ClassId) -> u32 {
    c.0
}
