//! The five benchmark programs: four pattern mixes assembled from
//! `pea_workloads` pattern instances and one hand-written template.
//!
//! The programs are fixed; the seed chooses the iteration indices a run
//! feeds them (see [`first_index`]), and with those every value the
//! programs compute: cache keys, which inner steps throw or publish, the
//! contents of every object. It does not reorder or resize the mixes.
//! Shuffling the pattern instances was tried and moved the `none`
//! configuration's time by up to 8 % from layout alone, more than the
//! bound a regression is judged by; and fixed repetition counts keep the
//! exact per-iteration counts (allocations, monitor operations, virtual
//! cycles, code size) identical for every seed, so they compare across
//! runs that use different seeds. The VM only ever sees the generated
//! assembly and the indices.

use pea_workloads::gen::Rng;
use pea_workloads::{Pattern, PatternInstance};
use std::fmt::Write as _;

/// Workload names, in reporting order.
pub const NAMES: [&str; 5] = [
    "scalar_churn",
    "escape_heap",
    "partial_escape",
    "compute_ballast",
    "phase_shift",
];

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Every count a workload produces repeats with a period that divides
/// this many iterations (2 for the cache keys, 11 for the parser's
/// errors, 200 for a full rotation of `phase_shift`), so windows that
/// start at a multiple of it do identical work.
const INDEX_PERIOD: i64 = 2200;

/// The first iteration index of every round of a run with `seed`.
pub fn first_index(seed: u64) -> i64 {
    INDEX_PERIOD * Rng::new(seed).below(1000) as i64
}

/// Arms of the `phase_shift` compare chain.
const PHASE_ARMS: u64 = 8;
/// Iterations between rotations of the hot arm: 8 × 25 = 200, so the cold
/// start and the measured window are whole numbers of rotations.
const PHASE_PERIOD: u64 = 25;
/// `step` calls per `phase_shift` iteration.
const PHASE_CALLS: u64 = 700;

/// Every iteration ends by publishing its result under a global lock: one
/// escaping allocation and one monitor pair that no analysis may remove,
/// so `allocs_per_iter` and `monitor_ops_per_iter` are never zero and a
/// ratio to a baseline is always defined.
const PUBLISH: &str = "
class Out { field v int }
static outLock ref
static outLast ref
method publish 1 returns {
    getstatic outLock ifnonnull Lready
    new Out putstatic outLock
Lready:
    getstatic outLock store 1
    load 1 monitorenter
    new Out store 2
    load 2 load 0 putfield Out.v
    load 2 putstatic outLast
    load 1 monitorexit
    load 0 retv
}
";

fn mix(name: &str) -> Option<Vec<Pattern>> {
    use Pattern::*;
    Some(match name {
        // Nothing escapes: the escape analysis does all the useful work.
        "scalar_churn" => vec![
            BoxingArith { n: 300 },
            TupleReturn { n: 300 },
            ScratchVector { n: 150 },
            IteratorSum { len: 160 },
            SyncCounter { n: 150 },
            Ballast { n: 1500 },
        ],
        // Everything escapes: the heap does all the work at every level.
        "escape_heap" => vec![
            EscapeHeavy { n: 220, pool: 64 },
            ArrayFill { n: 60, len: 24 },
            PublishViaHelper { n: 60 },
            GuardedPublish { n: 64 },
            PolyDispatch { n: 60 },
        ],
        // The paper's own shapes: objects escape on some paths only.
        "partial_escape" => vec![
            CacheLookup {
                n: 176,
                miss_every: 8,
            },
            MixedEscape {
                n: 180,
                escape_every: 6,
            },
            ExceptionParse {
                n: 121,
                fail_every: 11,
            },
            TryFinallyLock {
                n: 120,
                throw_every: 9,
            },
            BranchyEscape {
                n: 160,
                branches: 8,
            },
        ],
        // Allocation-free arithmetic and guarded dispatch: heap and escape
        // analysis are idle.
        "compute_ballast" => vec![
            Ballast { n: 2500 },
            Ballast { n: 2000 },
            MegamorphicDispatch { n: 12, classes: 1 },
            MegamorphicDispatch { n: 12, classes: 3 },
        ],
        _ => return None,
    })
}

/// Generates the assembly of workload `name`, or `None` for an unknown
/// name.
pub fn generate(name: &str) -> Option<String> {
    if name == "phase_shift" {
        return Some(phase_shift());
    }
    let parts = mix(name)?;
    let mut out = String::from(PUBLISH);
    let mut iterate = String::from("method iterate 1 returns {\n    const 0 store 1\n");
    for (index, &pattern) in parts.iter().enumerate() {
        let inst = PatternInstance { pattern, index };
        out.push_str(&inst.to_asm());
        let _ = writeln!(
            iterate,
            "    load 0 invokestatic {} load 1 add store 1",
            inst.entry_name()
        );
    }
    iterate.push_str("    load 1 invokestatic publish retv\n}\n");
    out.push_str(&iterate);
    Some(out)
}

/// `step(phase, x)` keeps an `Acc` alive across a compare chain on
/// `phase`; only the arm of the current phase is ever profiled, so the
/// compiler prunes the others into guards. Every `PHASE_PERIOD`
/// iterations the phase moves to the next arm: each call then fails a
/// guard, rematerialises the `Acc` and falls back to the interpreter until
/// the VM evicts the method, re-profiles it and compiles it again.
fn phase_shift() -> String {
    let mut arms = String::new();
    for arm in 0..PHASE_ARMS {
        let factor = 11 + 2 * arm;
        let _ = write!(
            arms,
            "
    load 0 const {arm} ifcmp ne Larm{arm}
    load 1 const {factor} mul const {arm} add store 3
    goto Ljoin
Larm{arm}:"
        );
    }
    let mut out = String::from(PUBLISH);
    let _ = write!(
        out,
        "
class Acc {{ field a int field b int }}
method step 2 returns {{
    new Acc store 2
    load 2 load 1 putfield Acc.a
    load 2 load 1 const 3 mul putfield Acc.b
{arms}
    load 1 store 3
Ljoin:
    load 2 getfield Acc.a load 2 getfield Acc.b add load 3 add retv
}}
method iterate 1 returns {{
    load 0 const {PHASE_PERIOD} div const {PHASE_ARMS} rem store 1
    const 0 store 2
    const 0 store 3
Lloop:
    load 3 const {PHASE_CALLS} ifcmp ge Ldone
    load 1 load 0 load 3 add invokestatic step load 2 add store 2
    load 3 const 1 add store 3
    goto Lloop
Ldone:
    load 2 invokestatic publish retv
}}
"
    );
    out
}

/// `phase_shift` with the rotation removed (the phase never leaves its
/// first arm): the same code without failed speculation, the base that
/// `vm.deopt_cycle_cus` is measured against.
pub fn phase_frozen() -> String {
    let shifting = generate("phase_shift").expect("phase_shift is a known workload");
    shifting.replacen(&format!("load 0 const {PHASE_PERIOD} div"), "const 0", 1)
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pinned hashes: `<workload> <fnv1a64 of its assembly>`.
const INPUTS_LOCK: &str = include_str!("../inputs.lock");

/// Refuses to run when the generated assembly is not the pinned one: an
/// edit to the `pea-workloads` templates must not silently change what the
/// benchmark measures.
pub fn check_pinned(name: &str, hash: u64) -> Result<(), String> {
    let pinned = INPUTS_LOCK
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(workload, _)| *workload == name)
        .map(|(_, hex)| hex.trim());
    let actual = format!("{hash:016x}");
    match pinned {
        Some(hex) if hex == actual => Ok(()),
        Some(hex) => Err(format!(
            "{name}: generated assembly hashes to {actual} but inputs.lock pins {hex}; \
             the workload templates changed, so results would not be comparable"
        )),
        None => Err(format!("{name}: no entry in inputs.lock")),
    }
}

/// The text of `inputs.lock` for the current generators.
pub fn lock_text() -> String {
    NAMES
        .iter()
        .map(|name| {
            let source = generate(name).expect("NAMES are known workloads");
            format!("{name} {:016x}\n", fnv1a64(source.as_bytes()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::asm::parse_program;

    #[test]
    fn fnv1a64_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn seeds_choose_aligned_index_windows() {
        assert_eq!(first_index(7), first_index(7));
        let bases: Vec<i64> = (1..=10).map(first_index).collect();
        assert!(bases.iter().all(|b| b % INDEX_PERIOD == 0 && *b >= 0));
        let mut distinct = bases.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() >= 9, "{bases:?}");
        assert_eq!(generate("nope"), None);
    }

    #[test]
    fn every_workload_assembles_and_verifies() {
        for name in NAMES {
            let source = generate(name).unwrap();
            let program = parse_program(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
            pea_bytecode::verify_program(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let frozen = phase_frozen();
        assert_ne!(frozen, generate("phase_shift").unwrap());
        pea_bytecode::verify_program(&parse_program(&frozen).unwrap()).unwrap();
    }

    #[test]
    fn lock_file_pins_the_generated_assembly() {
        assert_eq!(INPUTS_LOCK, lock_text(), "regenerate with --print-lock");
        let hash = fnv1a64(generate("escape_heap").unwrap().as_bytes());
        assert_eq!(check_pinned("escape_heap", hash), Ok(()));
        assert!(check_pinned("escape_heap", hash ^ 1).is_err());
        assert!(check_pinned("nope", hash).is_err());
    }
}
