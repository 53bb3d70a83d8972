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

use pea_bytecode::{ClassId, MethodId};

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

/// Largest method index or bci [`ProfileStore::import_json`] accepts.
/// The store is dense in both, so a bound keeps one hostile line from
/// costing gigabytes; no program this repository builds comes near it.
pub const MAX_PROFILE_INDEX: u64 = 1 << 16;

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

    /// Parses a store back from [`export_json`] output. Blank lines are
    /// skipped; repeated records for the same key accumulate.
    ///
    /// # Errors
    ///
    /// A message naming the offending line on malformed input, an unknown
    /// record kind, a negative count, or a method index or bci from
    /// [`MAX_PROFILE_INDEX`] up.
    pub fn import_json(text: &str) -> Result<ProfileStore, String> {
        fn field(obj: &pea_trace::json::Object, key: &str, line_no: usize) -> Result<u64, String> {
            let n = obj
                .get_num(key)
                .map_err(|e| format!("profile line {line_no}: {e}"))?;
            u64::try_from(n).map_err(|_| format!("profile line {line_no}: negative {key:?}"))
        }
        fn index(obj: &pea_trace::json::Object, key: &str, line_no: usize) -> Result<u32, String> {
            let n = field(obj, key, line_no)?;
            if n >= MAX_PROFILE_INDEX {
                return Err(format!("profile line {line_no}: {key:?} {n} out of range"));
            }
            Ok(n as u32)
        }
        let mut store = ProfileStore::new();
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let obj = pea_trace::json::parse_object(line)
                .map_err(|e| format!("profile line {line_no}: {e}"))?;
            let record = obj
                .get_str("record")
                .map_err(|e| format!("profile line {line_no}: {e}"))?
                .to_string();
            let method = MethodId(index(&obj, "method", line_no)?);
            match record.as_str() {
                "invocation" => {
                    let count = field(&obj, "count", line_no)?;
                    *store.method_mut(method).invocations.get_or_insert(0) += count;
                }
                "branch" => {
                    let bci = index(&obj, "bci", line_no)?;
                    let p = cell(&mut store.method_mut(method).branches, bci);
                    p.taken += field(&obj, "taken", line_no)?;
                    p.not_taken += field(&obj, "not_taken", line_no)?;
                }
                "receiver" => {
                    let bci = index(&obj, "bci", line_no)?;
                    let class = u32::try_from(field(&obj, "class", line_no)?)
                        .map_err(|_| format!("profile line {line_no}: \"class\" out of range"))?;
                    let class = ClassId(class);
                    let count = field(&obj, "count", line_no)?;
                    let p = cell(&mut store.method_mut(method).receivers, bci);
                    if let Some(entry) = p.counts.iter_mut().find(|(c, _)| *c == class) {
                        entry.1 += count;
                    } else {
                        p.counts.push((class, count));
                    }
                }
                other => {
                    return Err(format!(
                        "profile line {line_no}: unknown record kind {other:?}"
                    ));
                }
            }
        }
        Ok(store)
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
        let q = ProfileStore::import_json(&text).unwrap();
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
        assert!(ProfileStore::import_json("not json").is_err());
        assert!(ProfileStore::import_json("{\"record\":\"nope\",\"method\":0}").is_err());
        assert!(ProfileStore::import_json("{\"record\":\"invocation\",\"method\":0}").is_err());
        assert!(
            ProfileStore::import_json("{\"record\":\"invocation\",\"method\":0,\"count\":-1}")
                .is_err()
        );
        for hostile in [
            "{\"record\":\"invocation\",\"method\":4294967296,\"count\":1}",
            "{\"record\":\"invocation\",\"method\":65536,\"count\":1}",
            "{\"record\":\"branch\",\"method\":0,\"bci\":65536,\"taken\":1,\"not_taken\":0}",
            "{\"record\":\"receiver\",\"method\":0,\"bci\":1,\"class\":4294967296,\"count\":1}",
        ] {
            let e = ProfileStore::import_json(hostile).unwrap_err();
            assert!(e.contains("out of range"), "{e}");
        }
        let empty = ProfileStore::import_json("\n\n").unwrap();
        assert_eq!(empty.invocation_count(MethodId(0)), 0);
    }

    #[test]
    fn imported_zero_count_records_still_exist() {
        let text = "{\"record\":\"invocation\",\"method\":1,\"count\":0}\n\
                    {\"record\":\"branch\",\"method\":0,\"bci\":4,\"taken\":0,\"not_taken\":0}\n\
                    {\"record\":\"receiver\",\"method\":0,\"bci\":6,\"class\":2,\"count\":0}\n";
        let p = ProfileStore::import_json(text).unwrap();
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
