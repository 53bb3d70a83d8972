//! Seeded random program generator for differential fuzzing.
//!
//! [`generate`] turns a 64-bit seed into a self-contained assembly
//! program exercising the exception and guarded-dispatch machinery:
//! conditional throwers, try/catch callers, properly nested try
//! regions, finally-style catch-all handlers that rethrow, and virtual
//! call sites with 1–4 receiver classes. The generator is a pure
//! function of the seed (an xorshift64* stream — no global RNG, no
//! clock), and the generated program's `iterate(i)` result is a pure
//! function of `i`: randomness shapes the program's *structure*, never
//! its runtime behaviour. That makes every seed usable as a
//! differential test case — interpreter vs JIT, sync vs background,
//! linear tier vs graph oracle — where any divergence is a VM bug.
//!
//! Structural guarantees relied on by the fuzz harnesses:
//!
//! - helpers form an acyclic call graph (`h{i}` calls only `h{j}` with
//!   `j < i`), so every program terminates;
//! - every thrown object is a `GErr` carrying an `int` code, and
//!   `iterate` catches `GErr` around each helper call, folding the code
//!   into the accumulator — uncaught exceptions never surface;
//! - all try ranges are disjoint or properly nested with the inner
//!   range listed first, matching the verifier's exception-table rules.

use std::fmt::Write as _;

/// Minimal xorshift64* PRNG — deterministic, dependency-free, and
/// explicitly seeded (the workload crates must not read the clock).
pub struct Rng(u64);

impl Rng {
    /// Creates a generator; a zero seed is remapped (xorshift has a
    /// fixed point at zero).
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform value in `lo..hi` (lo < hi).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

/// Helper-method body shapes the generator draws from.
enum Template {
    /// Leaf arithmetic, never throws.
    Arith,
    /// Throws a fresh `GErr` when `arg % k == 0`, else returns
    /// arithmetic on the argument.
    ConditionalThrower,
    /// Calls an earlier helper inside `try/catch GErr`, recovering
    /// with the error code.
    TryCatchCaller,
    /// Two properly nested try regions: inner catches `GErr`, outer is
    /// a finally-style catch-all that rethrows after recording.
    NestedTry,
    /// Guarded virtual dispatch over 1–4 fresh receiver classes chosen
    /// by `arg % classes`; receivers never escape.
    VirtualDispatch,
}

/// Generates a complete assembly program from `seed`. The program
/// defines `method iterate 1 returns` whose result is a deterministic
/// function of its argument for any seed.
pub fn generate(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let n_helpers = rng.range(3, 7) as usize;
    let mut out = String::from(
        "
class GErr { field code int }
",
    );

    for i in 0..n_helpers {
        // Helper 0 has no earlier helper to call, so it must be a leaf
        // template; later helpers draw from the full set.
        let template = if i == 0 {
            match rng.below(3) {
                0 => Template::Arith,
                1 => Template::ConditionalThrower,
                _ => Template::VirtualDispatch,
            }
        } else {
            match rng.below(5) {
                0 => Template::Arith,
                1 => Template::ConditionalThrower,
                2 => Template::TryCatchCaller,
                3 => Template::NestedTry,
                _ => Template::VirtualDispatch,
            }
        };
        emit_helper(&mut out, &mut rng, i, template);
    }

    // iterate: call every helper on a perturbed argument, each inside
    // its own try/catch so thrown GErrs fold into the accumulator.
    out.push_str("method iterate 1 returns {\n");
    for i in 0..n_helpers {
        let _ = writeln!(out, "    try Ls{i} Le{i} Lh{i} GErr");
    }
    out.push_str("    const 0 store 1\n");
    for i in 0..n_helpers {
        let delta = rng.below(5);
        let _ = write!(
            out,
            "Ls{i}:
    load 0 const {delta} add invokestatic h{i}
Le{i}:
    load 1 add store 1
    goto Ln{i}
Lh{i}:
    checkcast GErr getfield GErr.code load 1 add store 1
Ln{i}:
"
        );
    }
    out.push_str("    load 1 retv\n}\n");
    out
}

fn emit_helper(out: &mut String, rng: &mut Rng, i: usize, template: Template) {
    match template {
        Template::Arith => {
            let m = rng.range(2, 9);
            let a = rng.below(50);
            let _ = write!(
                out,
                "method h{i} 1 returns {{
    load 0 const {m} mul const {a} add retv
}}
"
            );
        }
        Template::ConditionalThrower => {
            let k = rng.range(2, 7);
            let m = rng.range(2, 9);
            let _ = write!(
                out,
                "method h{i} 1 returns {{
    load 0 const {k} rem const 0 ifcmp ne Lok{i}
    new GErr store 1
    load 1 load 0 const 1 add putfield GErr.code
    load 1 athrow
Lok{i}:
    load 0 const {m} mul retv
}}
"
            );
        }
        Template::TryCatchCaller => {
            let j = rng.below(i as u64);
            let b = rng.below(20);
            let _ = write!(
                out,
                "method h{i} 1 returns {{
    try Ls{i} Le{i} Lh{i} GErr
Ls{i}:
    load 0 invokestatic h{j}
Le{i}:
    retv
Lh{i}:
    checkcast GErr getfield GErr.code const {b} add retv
}}
"
            );
        }
        Template::NestedTry => {
            let j = rng.below(i as u64);
            let b = rng.below(20);
            let c = rng.below(20);
            // Inner range [Lis, Lie) sits strictly inside the outer
            // [Los, Loe); the inner entry is listed first so it matches
            // first. The outer handler plays "finally": it recovers
            // from anything the inner GErr handler rethrows.
            let _ = write!(
                out,
                "method h{i} 1 returns {{
    try Lis{i} Lie{i} Lih{i} GErr
    try Los{i} Loe{i} Loh{i} *
Los{i}:
    load 0 const 1 add store 1
Lis{i}:
    load 1 invokestatic h{j}
Lie{i}:
    store 1
Loe{i}:
    load 1 retv
Lih{i}:
    store 2
    load 2 getfield GErr.code const {b} add store 1
    load 2 athrow
Loh{i}:
    pop
    load 1 const {c} add retv
}}
"
            );
        }
        Template::VirtualDispatch => {
            let classes = rng.range(1, 5);
            let muls = [2u64, 3, 5, 7];
            for v in 1..classes {
                let _ = writeln!(out, "class V{i}x{v} extends V{i} {{ }}");
            }
            let _ = writeln!(out, "class V{i} {{ field a int }}");
            let _ = writeln!(
                out,
                "method virtual V{i}.go 1 returns {{ load 0 getfield V{i}.a const 2 mul retv }}"
            );
            for v in 1..classes {
                let _ = writeln!(
                    out,
                    "method virtual V{i}x{v}.go 1 returns {{ \
                     load 0 getfield V{i}.a const {} mul retv }}",
                    muls[v as usize]
                );
            }
            let mut dispatch = String::new();
            for v in 1..classes {
                let _ = write!(
                    dispatch,
                    "
    load 1 const {v} ifcmp ne Ln{i}x{v}
    new V{i}x{v} goto Lset{i}
Ln{i}x{v}:"
                );
            }
            let _ = write!(
                out,
                "method h{i} 1 returns {{
    load 0 const {classes} rem store 1
{dispatch}
    new V{i}
Lset{i}:
    store 2
    load 2 load 0 putfield V{i}.a
    load 2 invokevirtual V{i}.go retv
}}
"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;
    use pea_vm::{OptLevel, Vm, VmOptions};

    #[test]
    fn rng_is_deterministic_and_nonconstant() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        assert_ne!(
            xs,
            (0..8).map(|_| Rng::new(43).next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn generated_programs_parse_and_verify() {
        for seed in 0..64u64 {
            let src = generate(seed);
            let program = parse_program(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            pea_bytecode::verify_program(&program)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn generated_programs_agree_across_opt_levels() {
        for seed in 0..24u64 {
            let src = generate(seed);
            let program = parse_program(&src).unwrap();
            pea_bytecode::verify_program(&program).unwrap();
            let mut results = Vec::new();
            for level in [OptLevel::None, OptLevel::Pea] {
                let mut vm = Vm::new(program.clone(), VmOptions::with_opt_level(level));
                let acc: Vec<_> = (0..12)
                    .map(|i| {
                        vm.call_entry("iterate", &[pea_runtime::Value::Int(i)])
                            .unwrap_or_else(|e| panic!("seed {seed} at {level}: {e}"))
                    })
                    .collect();
                results.push(acc);
            }
            assert_eq!(results[0], results[1], "seed {seed}: levels disagree");
        }
    }
}
