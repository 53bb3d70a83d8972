//! Profiling data gathered by the interpreter and consumed by the
//! speculative compiler.
//!
//! Three feedback channels, mirroring what Graal gets from HotSpot:
//!
//! * **invocation counts** drive compilation thresholds;
//! * **branch profiles** (taken/not-taken per branch bci) drive
//!   speculative branch pruning — a branch that was never taken is compiled
//!   as a guard that deoptimizes, which is what lets Partial Escape
//!   Analysis remove allocations whose only escape is on a cold path;
//! * **receiver-type profiles** per call site drive guarded
//!   devirtualization and inlining.

use pea_bytecode::{ClassId, MethodId, Program};

/// Taken/not-taken counters for one branch instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchProfile {
    /// Times the branch was taken.
    pub taken: u64,
    /// Times it fell through.
    pub not_taken: u64,
}

impl BranchProfile {
    /// Total executions of the branch.
    pub fn total(&self) -> u64 {
        self.taken + self.not_taken
    }

    /// Probability of the branch being taken, if it ever executed.
    pub fn taken_probability(&self) -> Option<f64> {
        let total = self.total();
        (total > 0).then(|| self.taken as f64 / total as f64)
    }
}

/// Observed receiver classes at one virtual call site.
#[derive(Clone, Debug, Default)]
pub struct ReceiverProfile {
    counts: Vec<(ClassId, u64)>,
}

impl ReceiverProfile {
    /// Records one dispatch on `class`.
    pub fn record(&mut self, class: ClassId) {
        if let Some(entry) = self.counts.iter_mut().find(|(c, _)| *c == class) {
            entry.1 += 1;
        } else {
            self.counts.push((class, 1));
        }
    }

    /// Total observed dispatches.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(_, n)| n).sum()
    }

    /// The single observed receiver class, if the site is monomorphic.
    pub fn monomorphic_class(&self) -> Option<ClassId> {
        match self.counts.as_slice() {
            [(class, _)] => Some(*class),
            _ => None,
        }
    }

    /// All observed (class, count) pairs.
    pub fn classes(&self) -> &[(ClassId, u64)] {
        &self.counts
    }
}

/// Everything profiled about one method, indexed by bci.
#[derive(Clone, Debug, Default)]
struct MethodProfile {
    /// `None` until an invocation is recorded or imported.
    invocations: Option<u64>,
    branches: Vec<Option<BranchProfile>>,
    receivers: Vec<Option<ReceiverProfile>>,
}

/// The cell at `bci`, created (default-valued) on first use.
#[inline]
fn cell<T: Default>(cells: &mut Vec<Option<T>>, bci: u32) -> &mut T {
    let i = bci as usize;
    if i >= cells.len() {
        cells.resize_with(i + 1, || None);
    }
    cells[i].get_or_insert_with(T::default)
}

/// All profiling state: dense per-method tables indexed by [`MethodId`]
/// and then by bytecode index, so recording a branch, an invocation or a
/// receiver is two bounds-checked index operations.
#[derive(Clone, Debug, Default)]
pub struct ProfileStore {
    methods: Vec<MethodProfile>,
}

impl ProfileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table of `method`, created on first use.
    #[inline]
    fn method_mut(&mut self, method: MethodId) -> &mut MethodProfile {
        let i = method.index();
        if i >= self.methods.len() {
            self.methods.resize_with(i + 1, MethodProfile::default);
        }
        &mut self.methods[i]
    }

    /// Counts one invocation of `method`; returns the new count.
    #[inline]
    pub fn record_invocation(&mut self, method: MethodId) -> u64 {
        let n = self.method_mut(method).invocations.get_or_insert(0);
        *n += 1;
        *n
    }

    /// Invocation count of `method`.
    #[inline]
    pub fn invocation_count(&self, method: MethodId) -> u64 {
        self.methods
            .get(method.index())
            .and_then(|m| m.invocations)
            .unwrap_or(0)
    }

    /// Records one branch outcome at `(method, bci)`.
    #[inline]
    pub fn record_branch(&mut self, method: MethodId, bci: u32, taken: bool) {
        let p = cell(&mut self.method_mut(method).branches, bci);
        if taken {
            p.taken += 1;
        } else {
            p.not_taken += 1;
        }
    }

    /// Branch profile at `(method, bci)`, if any executions were seen.
    pub fn branch(&self, method: MethodId, bci: u32) -> Option<BranchProfile> {
        *self
            .methods
            .get(method.index())?
            .branches
            .get(bci as usize)?
    }

    /// Records a receiver class at a virtual call site.
    #[inline]
    pub fn record_receiver(&mut self, method: MethodId, bci: u32, class: ClassId) {
        cell(&mut self.method_mut(method).receivers, bci).record(class);
    }

    /// Receiver profile at `(method, bci)`.
    pub fn receiver(&self, method: MethodId, bci: u32) -> Option<&ReceiverProfile> {
        self.methods
            .get(method.index())?
            .receivers
            .get(bci as usize)?
            .as_ref()
    }

    /// Drops all gathered data (used when a method is re-profiled after
    /// repeated deoptimization).
    pub fn clear_method(&mut self, method: MethodId) {
        if let Some(m) = self.methods.get_mut(method.index()) {
            *m = MethodProfile::default();
        }
    }

    /// `(method, bci, cell)` for every present cell of one channel, in
    /// method then bci order.
    fn cells<'a, T: 'a>(
        &'a self,
        channel: impl Fn(&'a MethodProfile) -> &'a [Option<T>] + 'a,
    ) -> impl Iterator<Item = (usize, usize, &'a T)> + 'a {
        self.methods.iter().enumerate().flat_map(move |(m, p)| {
            channel(p)
                .iter()
                .enumerate()
                .filter_map(move |(bci, c)| Some((m, bci, c.as_ref()?)))
        })
    }

    /// Serializes the store as deterministic JSON lines (one flat object
    /// per record, sorted by kind then key), so a warmed-up profile can be
    /// saved with `--profile-out` and replayed with `--profile-in`.
    pub fn export_json(&self) -> String {
        use pea_trace::json::ObjectWriter;
        let mut out = String::new();
        let mut line = |o: ObjectWriter| {
            out.push_str(&o.finish());
            out.push('\n');
        };
        for (method, p) in self.methods.iter().enumerate() {
            if let Some(count) = p.invocations {
                let mut o = ObjectWriter::new();
                o.str("record", "invocation");
                o.num("method", method as i64);
                o.num("count", count as i64);
                line(o);
            }
        }
        for (method, bci, p) in self.cells(|m| &m.branches) {
            let mut o = ObjectWriter::new();
            o.str("record", "branch");
            o.num("method", method as i64);
            o.num("bci", bci as i64);
            o.num("taken", p.taken as i64);
            o.num("not_taken", p.not_taken as i64);
            line(o);
        }
        for (method, bci, p) in self.cells(|m| &m.receivers) {
            for (class, count) in p.classes() {
                let mut o = ObjectWriter::new();
                o.str("record", "receiver");
                o.num("method", method as i64);
                o.num("bci", bci as i64);
                o.num("class", class.index() as i64);
                o.num("count", *count as i64);
                line(o);
            }
        }
        out
    }

    /// Parses a store for `program` back from
    /// [`export_json`](Self::export_json) output. Blank lines are skipped;
    /// repeated records for the same key accumulate. The store is dense in
    /// methods and bcis, so every index is checked against `program`
    /// before anything is sized from it.
    ///
    /// # Errors
    ///
    /// A message naming the offending line on malformed input, an unknown
    /// record kind, a negative count, a sum of counts past `i64::MAX`
    /// (where [`export_json`](Self::export_json) would stop round-tripping),
    /// or a method, bci or class that `program` does not have.
    pub fn import_json(text: &str, program: &Program) -> Result<ProfileStore, String> {
        let mut store = ProfileStore::new();
        for (i, line) in text.lines().enumerate() {
            if !line.trim().is_empty() {
                store
                    .import_line(line, program)
                    .map_err(|e| format!("profile line {}: {e}", i + 1))?;
            }
        }
        Ok(store)
    }

    /// Accumulates one [`import_json`](Self::import_json) record.
    fn import_line(&mut self, line: &str, program: &Program) -> Result<(), String> {
        let obj = pea_trace::json::parse_object(line).map_err(|e| e.to_string())?;
        let field = |key: &str| obj.get_num::<u64>(key).map_err(|e| e.to_string());
        let index = |key: &str, len: usize| -> Result<u32, String> {
            match field(key)? {
                n if n < len as u64 => Ok(n as u32),
                n => Err(format!("{key:?} {n} out of range 0..{len}")),
            }
        };
        let add = |total: &mut u64, key: &str| -> Result<(), String> {
            *total = total
                .checked_add(field(key)?)
                .filter(|&t| i64::try_from(t).is_ok())
                .ok_or_else(|| format!("{key:?} sum overflows"))?;
            Ok(())
        };
        let record = obj.get_str("record").map_err(|e| e.to_string())?;
        let method = MethodId(index("method", program.methods.len())?);
        let code_len = program.method(method).code.len();
        match record {
            "invocation" => add(
                self.method_mut(method).invocations.get_or_insert(0),
                "count",
            ),
            "branch" => {
                let bci = index("bci", code_len)?;
                let p = cell(&mut self.method_mut(method).branches, bci);
                add(&mut p.taken, "taken")?;
                add(&mut p.not_taken, "not_taken")
            }
            "receiver" => {
                let bci = index("bci", code_len)?;
                let class = ClassId(index("class", program.classes.len())?);
                let p = cell(&mut self.method_mut(method).receivers, bci);
                match p.counts.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, n)) => add(n, "count"),
                    None => {
                        p.counts.push((class, field("count")?));
                        Ok(())
                    }
                }
            }
            other => Err(format!("unknown record kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_counts_increment() {
        let mut p = ProfileStore::new();
        let m = MethodId(0);
        assert_eq!(p.record_invocation(m), 1);
        assert_eq!(p.record_invocation(m), 2);
        assert_eq!(p.invocation_count(m), 2);
        assert_eq!(p.invocation_count(MethodId(1)), 0);
    }

    #[test]
    fn branch_profile_probability() {
        let mut p = ProfileStore::new();
        let m = MethodId(0);
        p.record_branch(m, 3, true);
        p.record_branch(m, 3, true);
        p.record_branch(m, 3, false);
        let b = p.branch(m, 3).unwrap();
        assert_eq!(b.total(), 3);
        let prob = b.taken_probability().unwrap();
        assert!((prob - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(BranchProfile::default().taken_probability(), None);
    }

    #[test]
    fn receiver_profile_monomorphism() {
        let mut r = ReceiverProfile::default();
        r.record(ClassId(0));
        r.record(ClassId(0));
        assert_eq!(r.monomorphic_class(), Some(ClassId(0)));
        r.record(ClassId(1));
        assert_eq!(r.monomorphic_class(), None);
        assert_eq!(r.total(), 3);
    }

    /// Five classes and three methods of ten instructions each: room for
    /// every index [`populated_store`] uses.
    fn program() -> Program {
        let body = "{ const 0 const 0 add const 0 add const 0 add const 0 add retv }";
        pea_bytecode::asm::parse_program(&format!(
            "class A {{ }} class B {{ }} class C {{ }} class D {{ }} class E {{ }}
             method m0 0 returns {body}
             method m1 0 returns {body}
             method m2 0 returns {body}"
        ))
        .unwrap()
    }

    fn import(text: &str) -> Result<ProfileStore, String> {
        ProfileStore::import_json(text, &program())
    }

    fn populated_store() -> ProfileStore {
        let mut p = ProfileStore::new();
        for _ in 0..120 {
            p.record_invocation(MethodId(0));
        }
        p.record_invocation(MethodId(2));
        p.record_branch(MethodId(0), 3, true);
        p.record_branch(MethodId(0), 3, true);
        p.record_branch(MethodId(0), 3, false);
        p.record_branch(MethodId(2), 7, false);
        p.record_receiver(MethodId(0), 5, ClassId(1));
        p.record_receiver(MethodId(0), 5, ClassId(1));
        p.record_receiver(MethodId(0), 5, ClassId(4));
        p
    }

    #[test]
    fn export_import_round_trips_every_channel() {
        let p = populated_store();
        let text = p.export_json();
        let q = import(&text).unwrap();
        assert_eq!(q.invocation_count(MethodId(0)), 120);
        assert_eq!(q.invocation_count(MethodId(2)), 1);
        assert_eq!(q.branch(MethodId(0), 3), p.branch(MethodId(0), 3));
        assert_eq!(q.branch(MethodId(2), 7), p.branch(MethodId(2), 7));
        let r = q.receiver(MethodId(0), 5).unwrap();
        assert_eq!(r.classes(), p.receiver(MethodId(0), 5).unwrap().classes());
        // The round trip is a fixpoint: re-exporting yields identical text.
        assert_eq!(q.export_json(), text);
    }

    #[test]
    fn export_is_deterministic_and_sorted() {
        let text = populated_store().export_json();
        assert_eq!(text, populated_store().export_json());
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| {
                if l.contains("\"record\":\"invocation\"") {
                    "invocation"
                } else if l.contains("\"record\":\"branch\"") {
                    "branch"
                } else {
                    "receiver"
                }
            })
            .collect();
        let mut sorted = kinds.clone();
        sorted.sort_by_key(|k| match *k {
            "invocation" => 0,
            "branch" => 1,
            _ => 2,
        });
        assert_eq!(kinds, sorted, "records grouped by kind");
    }

    #[test]
    fn import_rejects_malformed_lines() {
        assert!(import("not json").is_err());
        assert!(import("{\"record\":\"nope\",\"method\":0}").is_err());
        assert!(import("{\"record\":\"invocation\",\"method\":0}").is_err());
        assert!(import("{\"record\":\"invocation\",\"method\":0,\"count\":-1}").is_err());
        let empty = import("\n\n").unwrap();
        assert_eq!(empty.invocation_count(MethodId(0)), 0);
    }

    #[test]
    fn import_rejects_nested_and_hostile_lines() {
        assert!(import("{\"record\":\"invocation\",\"method\":0,\"count\":1}").is_ok());
        assert!(import("{\"record\":\"invocation\",\"method\":0,\"count\":1,\"x\":{}}").is_err());
        for input in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            assert!(import(&input).is_err());
        }
    }

    #[test]
    fn import_rejects_indices_the_program_does_not_have() {
        for (hostile, key) in [
            (
                "{\"record\":\"invocation\",\"method\":4294967296,\"count\":1}",
                "\"method\" 4294967296 out of range 0..3",
            ),
            (
                "{\"record\":\"invocation\",\"method\":3,\"count\":1}",
                "\"method\" 3 out of range 0..3",
            ),
            (
                "{\"record\":\"branch\",\"method\":0,\"bci\":10,\"taken\":1,\"not_taken\":0}",
                "\"bci\" 10 out of range 0..10",
            ),
            (
                "{\"record\":\"branch\",\"method\":2,\"bci\":65535,\"taken\":1,\"not_taken\":0}",
                "\"bci\" 65535",
            ),
            (
                "{\"record\":\"receiver\",\"method\":0,\"bci\":11,\"class\":0,\"count\":1}",
                "\"bci\" 11",
            ),
            (
                "{\"record\":\"receiver\",\"method\":0,\"bci\":1,\"class\":5,\"count\":1}",
                "\"class\" 5 out of range 0..5",
            ),
            (
                "{\"record\":\"receiver\",\"method\":0,\"bci\":1,\"class\":4294967296,\"count\":1}",
                "\"class\" 4294967296",
            ),
        ] {
            // The bad record follows a good one: the error names line 2.
            let text = format!("{{\"record\":\"invocation\",\"method\":0,\"count\":1}}\n{hostile}");
            let e = import(&text).unwrap_err();
            assert!(e.starts_with("profile line 2: "), "{e}");
            assert!(e.contains(key), "{e}");
        }
        // The last index of every kind is accepted.
        let p = import("{\"record\":\"receiver\",\"method\":2,\"bci\":9,\"class\":4,\"count\":1}")
            .unwrap();
        assert_eq!(
            p.receiver(MethodId(2), 9).unwrap().classes(),
            [(ClassId(4), 1)]
        );
    }

    #[test]
    fn imported_counts_stop_at_the_exported_range() {
        let line = |n: i64| {
            format!(
                "{{\"record\":\"branch\",\"method\":0,\"bci\":2,\"taken\":{n},\"not_taken\":0}}\n"
            )
        };
        let p = import(&format!("{}{}", line(i64::MAX - 1), line(1))).unwrap();
        assert_eq!(p.branch(MethodId(0), 2).unwrap().taken, i64::MAX as u64);
        assert_eq!(
            import(&p.export_json()).unwrap().export_json(),
            p.export_json()
        );
        let e = import(&format!("{}{}", line(i64::MAX), line(1))).unwrap_err();
        assert!(
            e.starts_with("profile line 2: \"taken\" sum overflows"),
            "{e}"
        );
    }

    #[test]
    fn imported_zero_count_records_still_exist() {
        let text = "{\"record\":\"invocation\",\"method\":1,\"count\":0}\n\
                    {\"record\":\"branch\",\"method\":0,\"bci\":4,\"taken\":0,\"not_taken\":0}\n\
                    {\"record\":\"receiver\",\"method\":0,\"bci\":6,\"class\":2,\"count\":0}\n";
        let p = import(text).unwrap();
        assert_eq!(p.branch(MethodId(0), 4), Some(BranchProfile::default()));
        assert_eq!(p.branch(MethodId(0), 3), None);
        assert_eq!(
            p.receiver(MethodId(0), 6).unwrap().classes(),
            [(ClassId(2), 0)]
        );
        assert_eq!(
            p.export_json(),
            text,
            "zero-count records survive the round trip"
        );
    }

    #[test]
    fn clear_method_drops_all_channels() {
        let mut p = ProfileStore::new();
        let m = MethodId(0);
        p.record_invocation(m);
        p.record_branch(m, 0, true);
        p.record_receiver(m, 1, ClassId(0));
        p.clear_method(m);
        assert_eq!(p.invocation_count(m), 0);
        assert!(p.branch(m, 0).is_none());
        assert!(p.receiver(m, 1).is_none());
    }
}
