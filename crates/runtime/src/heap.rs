//! The managed heap: objects, arrays, monitors and statics.

use crate::tlab::{ChunkAllocator, TLAB_CELLS, TLAB_SLOTS_PER_CELL};
use crate::{Stats, Value, VmError};
use pea_bytecode::{ClassId, FieldId, Program, StaticDecl, ValueKind};
use pea_metrics::HeapRecorder;
use std::fmt;
use std::sync::Arc;

/// A non-null reference into the [`Heap`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef(u32);

impl ObjRef {
    /// Raw heap index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a reference from a raw heap index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ObjRef(u32::try_from(index).expect("heap index exceeds u32"))
    }
}

impl fmt::Debug for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Most objects one heap holds. With [`MAX_HEAP_SLOTS`] this bounds the
/// host memory behind a heap (16 bytes per handle, 16 per slot) at 6 GiB;
/// past either, allocation fails with [`VmError::OutOfMemory`].
pub const MAX_HEAP_OBJECTS: usize = 1 << 27;

/// Most field and element slots one heap holds.
pub const MAX_HEAP_SLOTS: usize = 1 << 28;

// A handle stores `start` and `len` as `u32`, an `ObjRef` its index.
const _: () = assert!(MAX_HEAP_SLOTS <= u32::MAX as usize);
const _: () = assert!(MAX_HEAP_OBJECTS <= u32::MAX as usize);

/// What a handle's slots are: the class index of an instance, or one of
/// the two array tags (no program has that many classes).
type Kind = u32;
const INT_ARRAY: Kind = u32::MAX;
const REF_ARRAY: Kind = u32::MAX - 1;

/// One object: where its slots lie in the slab, what they are, and its
/// (single-threaded) monitor. [`ObjRef`] indexes the handle table, so an
/// object could move by rewriting `start` alone.
#[derive(Clone, Copy, Debug)]
struct Handle {
    kind: Kind,
    /// First slot in the slab.
    start: u32,
    /// Field or element count.
    len: u32,
    /// Recursive monitor hold count.
    lock_count: u32,
}

impl Handle {
    #[inline]
    fn is_array(self) -> bool {
        self.kind >= REF_ARRAY
    }

    /// Dynamic class, if this is an instance.
    #[inline]
    fn class(self) -> Result<ClassId, VmError> {
        if self.is_array() {
            return Err(VmError::TypeMismatch {
                expected: "instance",
                found: "array",
            });
        }
        Ok(ClassId(self.kind))
    }

    /// Element count, if this is an array.
    #[inline]
    fn array_len(self) -> Result<u32, VmError> {
        if !self.is_array() {
            return Err(VmError::TypeMismatch {
                expected: "array",
                found: "instance",
            });
        }
        Ok(self.len)
    }

    #[inline]
    fn slots(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

// Error construction stays out of the accessors, which are inlined into
// the interpreter's and the linear tier's dispatch loops.

#[cold]
#[inline(never)]
fn no_such_field(program: &Program, field: FieldId) -> VmError {
    VmError::NoSuchField(format!(
        "{}.{}",
        program.class(program.field(field).class).name,
        program.field(field).name
    ))
}

#[cold]
#[inline(never)]
fn template_too_wide(r: ObjRef, len: u32) -> VmError {
    VmError::Internal(format!("template wider than the {len}-slot object {r}"))
}

/// Static (global) variable storage.
#[derive(Clone, Debug, Default)]
pub struct Statics {
    values: Vec<Value>,
}

impl Statics {
    /// Creates storage with default values for each declaration.
    pub fn new(decls: &[StaticDecl]) -> Self {
        Statics {
            values: decls.iter().map(|d| Value::default_for(d.kind)).collect(),
        }
    }

    /// Reads a static variable.
    #[inline]
    pub fn get(&self, id: pea_bytecode::StaticId) -> Value {
        self.values[id.index()]
    }

    /// Writes a static variable.
    #[inline]
    pub fn set(&mut self, id: pea_bytecode::StaticId, value: Value) {
        self.values[id.index()] = value;
    }

    /// Resets all statics to their default values.
    pub fn reset(&mut self, decls: &[StaticDecl]) {
        self.values = decls.iter().map(|d| Value::default_for(d.kind)).collect();
    }
}

/// The managed heap: one handle per object, in allocation order, and one
/// contiguous slab holding every object's slots. Allocation bumps both and
/// touches no host allocator while their capacity lasts; nothing is freed.
/// Every allocation and monitor operation updates [`Stats`], which is what
/// the paper's Table 1 measures.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    handles: Vec<Handle>,
    slots: Vec<Value>,
    /// Execution statistics, updated by allocation and monitor operations.
    pub stats: Stats,
    recorder: HeapRecorder,
    /// Shared TLAB capacity source; when set, the handle table grows in
    /// chunk-granted increments instead of `Vec`'s doubling.
    tlab: Option<Arc<ChunkAllocator>>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a metrics recorder; every subsequent allocation also feeds
    /// the per-class counters of the recorder's hub.
    pub fn set_metrics(&mut self, recorder: HeapRecorder) {
        self.recorder = recorder;
    }

    /// Attaches the VM-wide chunk allocator this heap draws TLAB capacity
    /// from. Bump allocation stays thread-local; only capacity grants touch
    /// the (lock-free) shared allocator.
    pub fn set_chunk_source(&mut self, source: Arc<ChunkAllocator>) {
        self.tlab = Some(source);
    }

    /// Folds any buffered per-thread allocation counts into the shared
    /// metrics registry. Called at quiescent points (outermost call exit,
    /// metrics snapshot, mutator teardown); a no-op for direct recorders.
    pub fn flush_metrics(&mut self) {
        self.recorder.flush();
    }

    /// Number of live objects (allocations since creation; nothing is
    /// freed).
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the heap has no allocations.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Reserves room for `objects` more objects holding `slots` more slots
    /// between them, so that many allocations reach no host allocator.
    pub fn reserve(&mut self, objects: usize, slots: usize) {
        self.handles.reserve(objects);
        self.slots.reserve(slots);
    }

    /// Allocates a class instance with default-valued fields.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfMemory`] at the heap's fixed capacity.
    pub fn try_alloc_instance(
        &mut self,
        program: &Program,
        class: ClassId,
    ) -> Result<ObjRef, VmError> {
        let kinds = program.slot_kinds(class);
        let r = self.push(class.0, kinds.len())?;
        self.slots
            .extend(kinds.iter().map(|&k| Value::default_for(k)));
        let bytes = program.object_size(class);
        self.stats.record_alloc(bytes);
        self.recorder.record_instance(class.index(), bytes);
        Ok(r)
    }

    /// [`Self::try_alloc_instance`] for callers that own a heap nowhere
    /// near its capacity (tests, the benchmark's micro-loops).
    ///
    /// # Panics
    ///
    /// Panics at the heap's fixed capacity.
    pub fn alloc_instance(&mut self, program: &Program, class: ClassId) -> ObjRef {
        self.try_alloc_instance(program, class)
            .expect("heap capacity exhausted")
    }

    /// Allocates an array of `len` default-valued elements.
    ///
    /// # Errors
    ///
    /// [`VmError::NegativeArrayLength`] if `len < 0`,
    /// [`VmError::OutOfMemory`] past the heap's fixed capacity.
    pub fn alloc_array(&mut self, kind: ValueKind, len: i64) -> Result<ObjRef, VmError> {
        if len < 0 {
            return Err(VmError::NegativeArrayLength(len));
        }
        let len = usize::try_from(len).map_err(|_| VmError::OutOfMemory)?;
        let tag = match kind {
            ValueKind::Int => INT_ARRAY,
            ValueKind::Ref => REF_ARRAY,
        };
        let r = self.push(tag, len)?;
        self.slots
            .resize(self.slots.len() + len, Value::default_for(kind));
        let bytes = Program::array_size(len as u64);
        self.stats.record_alloc(bytes);
        self.recorder.record_array(bytes);
        Ok(r)
    }

    /// Appends the handle of an object whose `len` slots the caller pushes
    /// onto the slab next; refuses before anything grows.
    fn push(&mut self, kind: Kind, len: usize) -> Result<ObjRef, VmError> {
        if self.handles.len() >= MAX_HEAP_OBJECTS || len > MAX_HEAP_SLOTS - self.slots.len() {
            return Err(VmError::OutOfMemory);
        }
        if self.handles.len() == self.handles.capacity() {
            if let Some(tlab) = &self.tlab {
                // Geometric: request enough chunks to double the table
                // (minimum one), so repeated growth copies O(n) handles
                // total while the allocator's accounting stays
                // chunk-granular.
                let chunks = self.handles.capacity().max(1).div_ceil(TLAB_CELLS);
                let cells = tlab.grant_many(chunks);
                self.handles.reserve_exact(cells);
                self.slots.reserve(cells * TLAB_SLOTS_PER_CELL);
                self.recorder.record_tlab_grant(chunks as u64, cells as u64);
            }
        }
        // Objects are numbered in allocation order: a group allocated back
        // to back can name its later members before they exist. This and
        // the handle's fields fit `u32`: checked against the capacities.
        let r = ObjRef(self.handles.len() as u32);
        self.handles.push(Handle {
            kind,
            start: self.slots.len() as u32,
            len: len as u32,
            lock_count: 0,
        });
        Ok(r)
    }

    #[inline]
    fn handle(&self, r: ObjRef) -> Handle {
        self.handles[r.index()]
    }

    /// Dynamic class of an instance.
    ///
    /// # Errors
    ///
    /// [`VmError::TypeMismatch`] if `r` is an array.
    #[inline]
    pub fn class_of(&self, r: ObjRef) -> Result<ClassId, VmError> {
        self.handle(r).class()
    }

    /// The fields of an instance in layout order, or the elements of an
    /// array.
    pub fn slots_of(&self, r: ObjRef) -> &[Value] {
        &self.slots[self.handle(r).slots()]
    }

    /// Slab index of `field` in the instance `r`.
    #[inline]
    fn field_index(&self, program: &Program, r: ObjRef, field: FieldId) -> Result<usize, VmError> {
        let h = self.handle(r);
        match program.field_slot(h.class()?, field) {
            Some(slot) => Ok(h.start as usize + slot),
            None => Err(no_such_field(program, field)),
        }
    }

    /// Slab index of the pre-resolved `slot`, valid when `r` is an instance
    /// of `declaring` or a subclass (layouts are prefix-stable).
    #[inline]
    fn field_index_at(
        &self,
        program: &Program,
        r: ObjRef,
        declaring: ClassId,
        slot: usize,
    ) -> Option<usize> {
        let h = self.handle(r);
        let class = h.class().ok()?;
        program
            .is_subclass_of(class, declaring)
            .then_some(h.start as usize + slot)
    }

    /// Reads an instance field.
    ///
    /// # Errors
    ///
    /// Field-resolution and kind errors as in [`VmError`].
    #[inline]
    pub fn get_field(
        &self,
        program: &Program,
        r: ObjRef,
        field: FieldId,
    ) -> Result<Value, VmError> {
        Ok(self.slots[self.field_index(program, r, field)?])
    }

    /// Writes an instance field.
    ///
    /// # Errors
    ///
    /// Field-resolution errors as in [`VmError`].
    #[inline]
    pub fn put_field(
        &mut self,
        program: &Program,
        r: ObjRef,
        field: FieldId,
        value: Value,
    ) -> Result<(), VmError> {
        let i = self.field_index(program, r, field)?;
        self.slots[i] = value;
        Ok(())
    }

    /// Reads an instance field at a pre-resolved `(declaring class, slot)`
    /// offset — the linear tier's fast path. Object layouts are
    /// prefix-stable (superclass fields first), so one subclass check
    /// validates the slot; anything else falls back to [`Self::get_field`]
    /// for byte-identical error reporting.
    ///
    /// # Errors
    ///
    /// Exactly as [`Self::get_field`].
    #[inline]
    pub fn get_field_at(
        &self,
        program: &Program,
        r: ObjRef,
        declaring: ClassId,
        slot: usize,
        field: FieldId,
    ) -> Result<Value, VmError> {
        match self.field_index_at(program, r, declaring, slot) {
            Some(i) => Ok(self.slots[i]),
            None => self.get_field(program, r, field),
        }
    }

    /// Writes an instance field at a pre-resolved offset; see
    /// [`Self::get_field_at`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Self::put_field`].
    #[inline]
    pub fn put_field_at(
        &mut self,
        program: &Program,
        r: ObjRef,
        declaring: ClassId,
        slot: usize,
        field: FieldId,
        value: Value,
    ) -> Result<(), VmError> {
        match self.field_index_at(program, r, declaring, slot) {
            Some(i) => {
                self.slots[i] = value;
                Ok(())
            }
            None => self.put_field(program, r, field, value),
        }
    }

    /// Fills the leading slots of an object the caller has just allocated
    /// from a template of its exact shape (a commit group, a rematerialized
    /// virtual object) with `values`: fields in layout order, or elements
    /// in index order. No class or kind is looked up.
    ///
    /// # Errors
    ///
    /// [`VmError::Internal`] if the template has more values than the
    /// object has slots.
    #[inline]
    pub fn init_slots(
        &mut self,
        r: ObjRef,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<(), VmError> {
        let h = self.handle(r);
        let mut values = values.into_iter();
        // `zip` asks the slots first, so a surplus value is left for the
        // check below.
        for (slot, value) in self.slots[h.slots()].iter_mut().zip(&mut values) {
            *slot = value;
        }
        match values.next() {
            None => Ok(()),
            Some(_) => Err(template_too_wide(r, h.len)),
        }
    }

    /// Slab index of element `index` of the array `r`.
    #[inline]
    fn element_index(&self, r: ObjRef, index: i64) -> Result<usize, VmError> {
        let h = self.handle(r);
        let len = h.array_len()?;
        if index < 0 || index >= i64::from(len) {
            return Err(VmError::IndexOutOfBounds {
                index,
                length: len as usize,
            });
        }
        Ok(h.start as usize + index as usize)
    }

    /// Reads an array element.
    ///
    /// # Errors
    ///
    /// [`VmError::IndexOutOfBounds`] or [`VmError::TypeMismatch`].
    #[inline]
    pub fn array_get(&self, r: ObjRef, index: i64) -> Result<Value, VmError> {
        Ok(self.slots[self.element_index(r, index)?])
    }

    /// Writes an array element.
    ///
    /// # Errors
    ///
    /// [`VmError::IndexOutOfBounds`] or [`VmError::TypeMismatch`].
    #[inline]
    pub fn array_set(&mut self, r: ObjRef, index: i64, value: Value) -> Result<(), VmError> {
        let i = self.element_index(r, index)?;
        self.slots[i] = value;
        Ok(())
    }

    /// Array length.
    ///
    /// # Errors
    ///
    /// [`VmError::TypeMismatch`] on instances.
    #[inline]
    pub fn array_length(&self, r: ObjRef) -> Result<i64, VmError> {
        Ok(i64::from(self.handle(r).array_len()?))
    }

    /// Acquires the monitor of `r` (recursively) and counts the operation.
    #[inline]
    pub fn monitor_enter(&mut self, r: ObjRef) {
        self.handles[r.index()].lock_count += 1;
        self.stats.monitor_enters += 1;
    }

    /// Releases the monitor of `r` and counts the operation.
    ///
    /// # Errors
    ///
    /// [`VmError::IllegalMonitorState`] if the monitor is not held.
    #[inline]
    pub fn monitor_exit(&mut self, r: ObjRef) -> Result<(), VmError> {
        let h = &mut self.handles[r.index()];
        if h.lock_count == 0 {
            return Err(VmError::IllegalMonitorState);
        }
        h.lock_count -= 1;
        self.stats.monitor_exits += 1;
        Ok(())
    }

    /// Current recursive hold count of `r`'s monitor.
    pub fn lock_count(&self, r: ObjRef) -> u32 {
        self.handle(r).lock_count
    }

    /// Total monitor holds across the heap (0 when all lock/unlock pairs
    /// are balanced; asserted by tests at quiescent points).
    pub fn total_lock_holds(&self) -> u64 {
        self.handles.iter().map(|h| u64::from(h.lock_count)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pea_bytecode::{ProgramBuilder, StaticId};

    fn program() -> (Program, ClassId, FieldId, FieldId) {
        let mut pb = ProgramBuilder::new();
        let key = pb.add_class("Key", None);
        let idx = pb.add_field(key, "idx", ValueKind::Int);
        let rf = pb.add_field(key, "ref", ValueKind::Ref);
        pb.add_static("g", ValueKind::Ref);
        (pb.build().unwrap(), key, idx, rf)
    }

    #[test]
    fn alloc_initializes_defaults_and_counts() {
        let (p, key, idx, rf) = program();
        let mut heap = Heap::new();
        let r = heap.alloc_instance(&p, key);
        assert_eq!(heap.get_field(&p, r, idx).unwrap(), Value::Int(0));
        assert_eq!(heap.get_field(&p, r, rf).unwrap(), Value::Null);
        assert_eq!(heap.stats.alloc_count, 1);
        assert_eq!(heap.stats.alloc_bytes, 16 + 16);
    }

    #[test]
    fn field_round_trip() {
        let (p, key, idx, _) = program();
        let mut heap = Heap::new();
        let r = heap.alloc_instance(&p, key);
        heap.put_field(&p, r, idx, Value::Int(42)).unwrap();
        assert_eq!(heap.get_field(&p, r, idx).unwrap(), Value::Int(42));
    }

    #[test]
    fn arrays_round_trip_and_bound_check() {
        let mut heap = Heap::new();
        let r = heap.alloc_array(ValueKind::Int, 3).unwrap();
        heap.array_set(r, 2, Value::Int(9)).unwrap();
        assert_eq!(heap.array_get(r, 2).unwrap(), Value::Int(9));
        assert_eq!(heap.array_length(r).unwrap(), 3);
        assert!(matches!(
            heap.array_get(r, 3),
            Err(VmError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            heap.array_get(r, -1),
            Err(VmError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn negative_array_length_rejected() {
        let mut heap = Heap::new();
        assert_eq!(
            heap.alloc_array(ValueKind::Ref, -1).unwrap_err(),
            VmError::NegativeArrayLength(-1)
        );
    }

    #[test]
    fn monitors_count_and_balance() {
        let (p, key, ..) = program();
        let mut heap = Heap::new();
        let r = heap.alloc_instance(&p, key);
        heap.monitor_enter(r);
        heap.monitor_enter(r);
        assert_eq!(heap.lock_count(r), 2);
        heap.monitor_exit(r).unwrap();
        heap.monitor_exit(r).unwrap();
        assert_eq!(
            heap.monitor_exit(r).unwrap_err(),
            VmError::IllegalMonitorState
        );
        assert_eq!(heap.stats.monitor_enters, 2);
        assert_eq!(heap.stats.monitor_exits, 2);
        assert_eq!(heap.total_lock_holds(), 0);
    }

    #[test]
    fn statics_default_and_set() {
        let (p, ..) = program();
        let mut statics = Statics::new(&p.statics);
        let g = StaticId(0);
        assert_eq!(statics.get(g), Value::Null);
        statics.set(g, Value::Int(5));
        assert_eq!(statics.get(g), Value::Int(5));
        statics.reset(&p.statics);
        assert_eq!(statics.get(g), Value::Null);
    }

    #[test]
    fn array_bytes_accounted() {
        let mut heap = Heap::new();
        heap.alloc_array(ValueKind::Int, 10).unwrap();
        assert_eq!(heap.stats.alloc_bytes, 16 + 80);
    }

    #[test]
    fn attached_recorder_sees_instances_and_arrays() {
        let (p, key, ..) = program();
        let hub = pea_metrics::MetricsHub::enabled();
        let names: Vec<&str> = p.classes.iter().map(|c| c.name.as_str()).collect();
        let mut heap = Heap::new();
        heap.set_metrics(HeapRecorder::new(&hub, names));
        heap.alloc_instance(&p, key);
        heap.alloc_array(ValueKind::Int, 10).unwrap();
        let snap = hub.snapshot().unwrap();
        assert_eq!(snap.counter("heap.allocs"), 2);
        assert_eq!(snap.counter("heap.bytes"), heap.stats.alloc_bytes);
        assert_eq!(snap.counter("heap.class.Key.allocs"), 1);
        assert_eq!(snap.counter("heap.class.array.allocs"), 1);
    }

    #[test]
    fn tlab_capacity_granted_in_chunks_and_counted() {
        let (p, key, ..) = program();
        let hub = pea_metrics::MetricsHub::enabled();
        let names: Vec<&str> = p.classes.iter().map(|c| c.name.as_str()).collect();
        let source = Arc::new(ChunkAllocator::new());
        let mut heap = Heap::new();
        heap.set_metrics(HeapRecorder::buffered(&hub, names));
        heap.set_chunk_source(Arc::clone(&source));
        for _ in 0..TLAB_CELLS + 1 {
            heap.alloc_instance(&p, key);
        }
        assert_eq!(source.chunks_granted(), 2);
        assert_eq!(source.cells_granted(), 2 * TLAB_CELLS as u64);
        // Buffered counts are invisible until the quiescent-point flush.
        assert_eq!(hub.snapshot().unwrap().counter("heap.allocs"), 0);
        heap.flush_metrics();
        let snap = hub.snapshot().unwrap();
        assert_eq!(snap.counter("heap.allocs"), TLAB_CELLS as u64 + 1);
        assert_eq!(snap.counter("heap.class.Key.allocs"), TLAB_CELLS as u64 + 1);
        assert_eq!(snap.counter("heap.tlab_chunks"), 2);
        assert_eq!(snap.counter("heap.tlab_cells"), 2 * TLAB_CELLS as u64);
    }

    #[test]
    fn tlab_grant_reserves_the_slab_too() {
        let (p, key, ..) = program();
        let mut heap = Heap::new();
        heap.set_chunk_source(Arc::new(ChunkAllocator::new()));
        heap.alloc_instance(&p, key);
        assert!(heap.handles.capacity() >= TLAB_CELLS);
        assert!(heap.slots.capacity() >= TLAB_CELLS * TLAB_SLOTS_PER_CELL);
    }

    #[test]
    fn oversized_array_is_refused_and_the_heap_stays_usable() {
        let mut heap = Heap::new();
        for len in [MAX_HEAP_SLOTS as i64 + 1, 1 << 40, i64::MAX] {
            assert_eq!(
                heap.alloc_array(ValueKind::Int, len).unwrap_err(),
                VmError::OutOfMemory
            );
        }
        assert_eq!(heap.len(), 0);
        assert_eq!(heap.stats, Stats::default());
        let r = heap.alloc_array(ValueKind::Int, 2).unwrap();
        assert_eq!(heap.array_length(r).unwrap(), 2);
    }

    #[test]
    fn init_slots_writes_fields_and_elements_in_layout_order() {
        let (p, key, idx, rf) = program();
        let mut heap = Heap::new();
        let o = heap.alloc_instance(&p, key);
        let a = heap.alloc_array(ValueKind::Ref, 2).unwrap();
        heap.init_slots(o, [Value::Int(7), Value::Ref(a)]).unwrap();
        heap.init_slots(a, [Value::Ref(o)]).unwrap();
        assert_eq!(heap.get_field(&p, o, idx).unwrap(), Value::Int(7));
        assert_eq!(heap.get_field(&p, o, rf).unwrap(), Value::Ref(a));
        assert_eq!(heap.slots_of(a), [Value::Ref(o), Value::Null]);
        assert!(matches!(
            heap.init_slots(o, [Value::Null; 3]),
            Err(VmError::Internal(_))
        ));
    }

    #[test]
    fn class_of_rejects_arrays() {
        let mut heap = Heap::new();
        let r = heap.alloc_array(ValueKind::Int, 1).unwrap();
        assert!(heap.class_of(r).is_err());
    }
}
