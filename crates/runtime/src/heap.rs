//! The managed heap: objects, arrays, monitors and statics.

use crate::{Stats, Value, VmError};
use pea_bytecode::{ClassId, FieldId, Program, StaticDecl, ValueKind};
use pea_metrics::HeapRecorder;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
/// host memory behind a heap (12 bytes per handle, 16 per slot) at about
/// 5.5 GiB; past either, allocation fails with [`VmError::OutOfMemory`].
pub const MAX_HEAP_OBJECTS: usize = 1 << 27;

/// Most field and element slots one heap holds.
pub const MAX_HEAP_SLOTS: usize = 1 << 28;

/// Handles the handle table reserves at least (48 MiB of address space,
/// committed only as handles are written). Past the largest block glibc
/// ever recycles from its heap (32 MiB), so the table is always a fresh
/// mapping and grows by remapping pages, never by copying them.
const HANDLE_RESERVE: usize = 1 << 22;

/// Slots per slot segment (1 MiB); a longer array gets a segment of its
/// own.
pub const HEAP_SEGMENT_SLOTS: usize = 1 << SLOT_SHIFT;
const SLOT_SHIFT: u32 = 16;
const SLOT_MASK: u32 = (1 << SLOT_SHIFT) - 1;

/// A handle packs its segment number above [`SLOT_SHIFT`] bits of offset
/// into one `u32`. Any two consecutive small segments hold more than one
/// segment's worth of slots (an object that does not fit one starts the
/// next) and an own segment holds at least [`HEAP_SEGMENT_SLOTS`], so a
/// full heap needs fewer than this many segments.
const MAX_SEGMENTS: usize = 3 * MAX_HEAP_SLOTS / HEAP_SEGMENT_SLOTS + 2;
const _: () = assert!(MAX_SEGMENTS <= 1 << (32 - SLOT_SHIFT));
const _: () = assert!(MAX_HEAP_OBJECTS <= u32::MAX as usize);

/// Monitors [`Heap::reserve`] makes room for: more than any program here
/// holds at once.
const MONITOR_RESERVE: usize = 16;

/// What a handle's slots are: the class index of an instance, or one of
/// the two array tags (no program has that many classes).
type Kind = u32;
const INT_ARRAY: Kind = u32::MAX;
const REF_ARRAY: Kind = u32::MAX - 1;

/// One object: what it is and where its slots lie. [`ObjRef`] indexes the
/// handle table, so an object could move by rewriting `start` alone.
/// Monitors live in the heap's table of held monitors, not here.
#[derive(Clone, Copy, Debug)]
struct Handle {
    kind: Kind,
    /// Segment number and offset of the first slot (see [`SLOT_SHIFT`]).
    start: u32,
    /// Field or element count.
    len: u32,
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
    fn segment(self) -> usize {
        (self.start >> SLOT_SHIFT) as usize
    }

    #[inline]
    fn slots(self) -> std::ops::Range<usize> {
        let offset = (self.start & SLOT_MASK) as usize;
        offset..offset + self.len as usize
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

#[cold]
#[inline(never)]
fn wrong_field_count(program: &Program, class: ClassId, given: usize) -> VmError {
    VmError::Internal(format!(
        "{given} values for the {} fields of {}",
        program.slot_kinds(class).len(),
        program.class(class).name
    ))
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

/// The managed heap: a table of one handle per object, in allocation
/// order, and fixed-capacity slot segments holding every object's slots.
/// Neither is ever copied: segments never grow and no slot moves, the
/// table is reserved large enough to be remapped rather than copied, and
/// pages no object reached are never committed. Allocation bumps both
/// and touches no host allocator until one is full; nothing is freed
/// until the heap is dropped, and then its table and standard segments
/// are left to the next heap (see [`Heap::recycled_segments`]). Every
/// allocation and monitor operation updates [`Stats`], which is what the
/// paper's Table 1 measures.
#[derive(Debug, Default)]
pub struct Heap {
    /// Handle `i` is `handles[i]`: one contiguous table, so finding an
    /// object's handle is a single load.
    handles: Vec<Handle>,
    /// Objects allocated before anything but a bump is due: the table's
    /// capacity or the heap's capacity.
    handle_limit: usize,
    /// Slot segments, numbered in the order they were claimed.
    slots: Vec<Vec<Value>>,
    /// Segments [`Heap::reserve`] created and nothing has claimed yet.
    spares: Vec<Vec<Value>>,
    /// The segment small objects are bump-allocated into.
    current: usize,
    /// Packed start of the current segment's first free slot.
    next: u32,
    /// Free slots at the end of the current segment, and never more than
    /// one past what [`MAX_HEAP_SLOTS`] leaves.
    room: usize,
    /// Slots held by objects, for [`MAX_HEAP_SLOTS`].
    used: usize,
    /// Monitors currently held, with their recursive hold counts; empty
    /// whenever every lock/unlock pair is balanced.
    monitors: Vec<(ObjRef, u32)>,
    /// Execution statistics, updated by allocation and monitor operations.
    pub stats: Stats,
    recorder: HeapRecorder,
}

/// Most standard slot segments the recycler keeps (128 MiB).
pub const MAX_RECYCLED_SEGMENTS: usize = 128;

/// Most handle tables the recycler keeps: one per heap of a VM's
/// mutator threads.
const MAX_RECYCLED_TABLES: usize = 8;

/// The standard slot segments and handle tables of dropped heaps, cleared
/// but with their pages still committed. A new heap takes from here
/// before it asks the host, so a VM built after another one reuses its
/// memory instead of faulting fresh pages in. A heap takes before it
/// grows, so nothing here is more than was once live at the same time.
struct Recycler {
    segments: Vec<Vec<Value>>,
    /// Handle tables, each with the emptied list its heap kept its
    /// segments in.
    tables: Vec<(Vec<Handle>, Vec<Vec<Value>>)>,
}

static RECYCLER: Mutex<Recycler> = Mutex::new(Recycler {
    segments: Vec::new(),
    tables: Vec::new(),
});

fn recycler() -> MutexGuard<'static, Recycler> {
    // The lists stay consistent whatever panicked while holding them.
    RECYCLER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An empty slot segment of `slots` capacity, recycled when it is a
/// standard one; the host may refuse it.
fn segment(slots: usize) -> Result<Vec<Value>, VmError> {
    if slots == HEAP_SEGMENT_SLOTS {
        if let Some(segment) = recycler().segments.pop() {
            return Ok(segment);
        }
    }
    let mut segment = Vec::new();
    segment
        .try_reserve_exact(slots)
        .map_err(|_| VmError::OutOfMemory)?;
    Ok(segment)
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Standard slot segments dropped heaps have left for the next ones:
    /// cleared, with their pages still committed, and taken before the
    /// host is asked for a segment.
    pub fn recycled_segments() -> usize {
        recycler().segments.len()
    }

    /// Attaches a metrics recorder; every subsequent allocation also feeds
    /// the per-class counters of the recorder's hub.
    pub fn set_metrics(&mut self, recorder: HeapRecorder) {
        self.recorder = recorder;
    }

    /// Folds the recorder's buffered allocation counts into the shared
    /// metrics registry. Called at quiescent points (outermost call exit,
    /// metrics snapshot, mutator teardown); a no-op without metrics.
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

    /// Makes room for `objects` more objects holding `slots` more slots
    /// between them (one spare slot segment covers the tails objects
    /// leave), so that many allocations and a few monitors held at once
    /// reach no host allocator.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfMemory`] when the host refuses the handle table or
    /// a spare segment.
    pub fn reserve(&mut self, objects: usize, slots: usize) -> Result<(), VmError> {
        self.adopt_table();
        let len = self.handles.len();
        self.handles
            .try_reserve_exact((len + objects).max(HANDLE_RESERVE) - len)
            .map_err(|_| VmError::OutOfMemory)?;
        self.refresh_limits();
        let spares = slots.div_ceil(HEAP_SEGMENT_SLOTS) + 1;
        while self.spares.len() < spares {
            self.spares.push(segment(HEAP_SEGMENT_SLOTS)?);
        }
        self.slots.reserve(self.spares.len());
        self.monitors.reserve(MONITOR_RESERVE);
        Ok(())
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
        let (r, segment) = self.push(class.0, kinds.len())?;
        self.slots[segment].extend(kinds.iter().map(|&k| Value::default_for(k)));
        self.count_instance(program, class);
        Ok(r)
    }

    /// Allocates a class instance whose fields are `values`, in layout
    /// order: one write per slot, where [`Self::try_alloc_instance`]
    /// followed by [`Self::init_slots`] writes a default and then
    /// overwrites it. No kind is checked.
    ///
    /// # Errors
    ///
    /// [`VmError::Internal`] if `values` does not hold one value per
    /// field, [`VmError::OutOfMemory`] at the heap's fixed capacity;
    /// either way before anything grows.
    #[inline]
    pub fn try_alloc_instance_with<I>(
        &mut self,
        program: &Program,
        class: ClassId,
        values: I,
    ) -> Result<ObjRef, VmError>
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        let len = program.slot_kinds(class).len();
        if values.len() != len {
            return Err(wrong_field_count(program, class, values.len()));
        }
        let (r, segment) = self.push(class.0, len)?;
        // The segment has room for the object (`push`), so no push grows
        // it, and a loop of pushes inlines where `extend` is a call.
        let slots = &mut self.slots[segment];
        let end = slots.len() + len;
        for value in values {
            slots.push(value);
        }
        // The handle's slots must be exactly the ones pushed.
        assert_eq!(slots.len(), end, "an iterator misreported its length");
        self.count_instance(program, class);
        Ok(r)
    }

    /// Counts an instance of `class` just allocated, in the stats and in
    /// the recorder: the one place both instance entries account.
    #[inline]
    fn count_instance(&mut self, program: &Program, class: ClassId) {
        let bytes = program.object_size(class);
        self.stats.record_alloc(bytes);
        self.recorder.record_instance(class.index(), bytes);
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
        let (r, segment) = self.push(tag, len)?;
        let slots = &mut self.slots[segment];
        slots.resize(slots.len() + len, Value::default_for(kind));
        let bytes = Program::array_size(len as u64);
        self.stats.record_alloc(bytes);
        self.recorder.record_array(bytes);
        Ok(r)
    }

    /// Appends the handle of an object whose `len` slots the caller pushes
    /// onto the returned segment next; refuses before anything grows.
    #[inline]
    fn push(&mut self, kind: Kind, len: usize) -> Result<(ObjRef, usize), VmError> {
        // One branch decides the common case: a handle is free and the
        // object fits the current segment with room to spare (so `next`
        // never points past it).
        if self.handles.len() >= self.handle_limit || len >= self.room {
            return self.push_slow(kind, len);
        }
        let start = self.bump(len);
        Ok((self.put_handle(kind, start, len), self.current))
    }

    #[inline]
    fn bump(&mut self, len: usize) -> u32 {
        let start = self.next;
        self.next += len as u32;
        self.room -= len;
        start
    }

    /// Writes the next handle. Objects are numbered in allocation order: a
    /// group allocated back to back can name its later members before they
    /// exist. The narrowing casts are checked against the capacities.
    #[inline]
    fn put_handle(&mut self, kind: Kind, start: u32, len: usize) -> ObjRef {
        let i = self.handles.len();
        self.handles.push(Handle {
            kind,
            start,
            len: len as u32,
        });
        self.used += len;
        ObjRef(i as u32)
    }

    /// [`Self::push`] when something besides a bump is due: a capacity
    /// error, a larger handle table or a new slot segment.
    #[cold]
    fn push_slow(&mut self, kind: Kind, len: usize) -> Result<(ObjRef, usize), VmError> {
        let objects = self.handles.len();
        if objects >= MAX_HEAP_OBJECTS || len > MAX_HEAP_SLOTS - self.used {
            return Err(VmError::OutOfMemory);
        }
        if objects == 0 {
            self.adopt_table();
        }
        if objects == self.handles.capacity() {
            // Double, from a reservation large enough to be mapped, up to
            // the capacity.
            let more = objects.max(HANDLE_RESERVE).min(MAX_HEAP_OBJECTS - objects);
            self.handles
                .try_reserve_exact(more)
                .map_err(|_| VmError::OutOfMemory)?;
        }
        let (start, segment) = if len < self.room {
            (self.bump(len), self.current)
        } else {
            self.claim(len)?
        };
        let r = self.put_handle(kind, start, len);
        self.refresh_limits();
        Ok((r, segment))
    }

    /// Takes a dropped heap's handle table and segment list if this heap
    /// has no table yet (and so no object and no segment).
    fn adopt_table(&mut self) {
        if self.handles.capacity() == 0 {
            if let Some((handles, slots)) = recycler().tables.pop() {
                debug_assert!(self.slots.is_empty());
                self.handles = handles;
                self.slots = slots;
            }
        }
    }

    /// Re-derives the fast path's bounds from the handle table, the current
    /// segment and the capacities.
    fn refresh_limits(&mut self) {
        self.handle_limit = self.handles.capacity().min(MAX_HEAP_OBJECTS);
        self.room = self.room.min(MAX_HEAP_SLOTS + 1 - self.used);
    }

    /// Starts a segment for an object of `len` slots that does not fit the
    /// current one: a segment of its own from [`HEAP_SEGMENT_SLOTS`] slots
    /// up, else the next small segment, which becomes current.
    #[cold]
    fn claim(&mut self, len: usize) -> Result<(u32, usize), VmError> {
        let own = len >= HEAP_SEGMENT_SLOTS;
        let segment = if own {
            segment(len)?
        } else {
            match self.spares.pop() {
                Some(spare) => spare,
                None => segment(HEAP_SEGMENT_SLOTS)?,
            }
        };
        let index = self.slots.len();
        self.slots.push(segment);
        let start = (index as u32) << SLOT_SHIFT;
        if !own {
            self.current = index;
            self.next = start + len as u32;
            self.room = HEAP_SEGMENT_SLOTS - len;
        }
        Ok((start, index))
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
        let h = self.handle(r);
        &self.slots[h.segment()][h.slots()]
    }

    #[inline]
    fn slot(&self, h: Handle, i: usize) -> Value {
        self.slots[h.segment()][h.slots().start + i]
    }

    #[inline]
    fn slot_mut(&mut self, h: Handle, i: usize) -> &mut Value {
        &mut self.slots[h.segment()][h.slots().start + i]
    }

    /// Slot number of `field` in the instance `r`.
    #[inline]
    fn field_index(
        &self,
        program: &Program,
        r: ObjRef,
        field: FieldId,
    ) -> Result<(Handle, usize), VmError> {
        let h = self.handle(r);
        match program.field_slot(h.class()?, field) {
            Some(slot) => Ok((h, slot)),
            None => Err(no_such_field(program, field)),
        }
    }

    /// The handle of `r` when the pre-resolved `slot` is valid for it: `r`
    /// is an instance of `declaring` or a subclass (layouts are
    /// prefix-stable).
    #[inline]
    fn field_handle_at(&self, program: &Program, r: ObjRef, declaring: ClassId) -> Option<Handle> {
        let h = self.handle(r);
        let class = h.class().ok()?;
        program.is_subclass_of(class, declaring).then_some(h)
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
        let (h, slot) = self.field_index(program, r, field)?;
        Ok(self.slot(h, slot))
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
        let (h, slot) = self.field_index(program, r, field)?;
        *self.slot_mut(h, slot) = value;
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
        match self.field_handle_at(program, r, declaring) {
            Some(h) => Ok(self.slot(h, slot)),
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
        match self.field_handle_at(program, r, declaring) {
            Some(h) => {
                *self.slot_mut(h, slot) = value;
                Ok(())
            }
            None => self.put_field(program, r, field, value),
        }
    }

    /// Writes slot `index` of an object the caller has just allocated
    /// from a template of its exact shape: field `index` in layout order,
    /// or element `index`. No class or kind is looked up; the one-slot
    /// form of [`Self::init_slots`], for a caller that computes each value
    /// only after writing the ones before it.
    ///
    /// # Errors
    ///
    /// [`VmError::Internal`] if the object has no slot `index`.
    #[inline]
    pub fn init_slot(&mut self, r: ObjRef, index: usize, value: Value) -> Result<(), VmError> {
        let h = self.handle(r);
        match self.slots[h.segment()][h.slots()].get_mut(index) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(template_too_wide(r, h.len)),
        }
    }

    /// Fills the leading slots of an object the caller has just allocated
    /// from a template of its exact shape (an array of a commit group)
    /// with `values`: fields in layout order, or elements in index order.
    /// No class or kind is looked up.
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
        for (slot, value) in self.slots[h.segment()][h.slots()]
            .iter_mut()
            .zip(&mut values)
        {
            *slot = value;
        }
        match values.next() {
            None => Ok(()),
            Some(_) => Err(template_too_wide(r, h.len)),
        }
    }

    /// The handle of the array `r` and the checked element `index`.
    #[inline]
    fn element_index(&self, r: ObjRef, index: i64) -> Result<(Handle, usize), VmError> {
        let h = self.handle(r);
        let len = h.array_len()?;
        if index < 0 || index >= i64::from(len) {
            return Err(VmError::IndexOutOfBounds {
                index,
                length: len as usize,
            });
        }
        Ok((h, index as usize))
    }

    /// Reads an array element.
    ///
    /// # Errors
    ///
    /// [`VmError::IndexOutOfBounds`] or [`VmError::TypeMismatch`].
    #[inline]
    pub fn array_get(&self, r: ObjRef, index: i64) -> Result<Value, VmError> {
        let (h, i) = self.element_index(r, index)?;
        Ok(self.slot(h, i))
    }

    /// Writes an array element.
    ///
    /// # Errors
    ///
    /// [`VmError::IndexOutOfBounds`] or [`VmError::TypeMismatch`].
    #[inline]
    pub fn array_set(&mut self, r: ObjRef, index: i64, value: Value) -> Result<(), VmError> {
        let (h, i) = self.element_index(r, index)?;
        *self.slot_mut(h, i) = value;
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
        match self.monitors.iter_mut().rev().find(|(o, _)| *o == r) {
            Some((_, holds)) => *holds += 1,
            None => self.monitors.push((r, 1)),
        }
        self.stats.monitor_enters += 1;
    }

    /// Releases the monitor of `r` and counts the operation. Monitors are
    /// mostly released innermost first, which the table's last entry
    /// answers.
    ///
    /// # Errors
    ///
    /// [`VmError::IllegalMonitorState`] if the monitor is not held.
    #[inline]
    pub fn monitor_exit(&mut self, r: ObjRef) -> Result<(), VmError> {
        match self.monitors.last_mut() {
            Some((o, 1)) if *o == r => {
                self.monitors.pop();
            }
            _ => self.monitor_exit_nested(r)?,
        }
        self.stats.monitor_exits += 1;
        Ok(())
    }

    #[cold]
    fn monitor_exit_nested(&mut self, r: ObjRef) -> Result<(), VmError> {
        let Some(i) = self.monitors.iter().rposition(|(o, _)| *o == r) else {
            return Err(VmError::IllegalMonitorState);
        };
        let holds = &mut self.monitors[i].1;
        *holds -= 1;
        if *holds == 0 {
            self.monitors.remove(i);
        }
        Ok(())
    }

    /// Current recursive hold count of `r`'s monitor.
    pub fn lock_count(&self, r: ObjRef) -> u32 {
        self.monitors
            .iter()
            .find(|(o, _)| *o == r)
            .map_or(0, |&(_, holds)| holds)
    }

    /// Total monitor holds across the heap (0 when all lock/unlock pairs
    /// are balanced; asserted by tests at quiescent points).
    pub fn total_lock_holds(&self) -> u64 {
        self.monitors
            .iter()
            .map(|&(_, holds)| u64::from(holds))
            .sum()
    }
}

/// Hands the standard slot segments (spares included) and the handle
/// table to the recycler, up to its caps. They are cleared, not zeroed:
/// every slot is written when its object is allocated, so no stale value
/// is ever read. Own-size array segments go back to the host.
impl Drop for Heap {
    fn drop(&mut self) {
        let mut recycler = recycler();
        for mut segment in self.slots.drain(..).chain(self.spares.drain(..)) {
            if segment.capacity() == HEAP_SEGMENT_SLOTS
                && recycler.segments.len() < MAX_RECYCLED_SEGMENTS
            {
                segment.clear();
                recycler.segments.push(segment);
            }
        }
        if self.handles.capacity() != 0 && recycler.tables.len() < MAX_RECYCLED_TABLES {
            self.handles.clear();
            let table = (
                std::mem::take(&mut self.handles),
                std::mem::take(&mut self.slots),
            );
            recycler.tables.push(table);
        }
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
        heap.flush_metrics();
        let snap = hub.snapshot().unwrap();
        assert_eq!(snap.counter("heap.allocs"), 2);
        assert_eq!(snap.counter("heap.bytes"), heap.stats.alloc_bytes);
        assert_eq!(snap.counter("heap.class.Key.allocs"), 1);
        assert_eq!(snap.counter("heap.class.array.allocs"), 1);
    }

    #[test]
    fn objects_never_move_as_the_heap_grows_past_segments() {
        let (p, key, ..) = program();
        let mut heap = Heap::new();
        let first = heap.alloc_instance(&p, key);
        let array = heap.alloc_array(ValueKind::Int, 3).unwrap();
        let own = heap
            .alloc_array(ValueKind::Ref, HEAP_SEGMENT_SLOTS as i64 + 5)
            .unwrap();
        let pointers = [first, array, own].map(|r| heap.slots_of(r).as_ptr());
        // Past several slot segments, with arrays that straddle segment
        // ends.
        for i in 0..3 * HEAP_SEGMENT_SLOTS {
            heap.alloc_instance(&p, key);
            if i % 1000 == 0 {
                heap.alloc_array(ValueKind::Int, 999).unwrap();
            }
        }
        assert!(heap.slots.len() > 4, "grew past several slot segments");
        assert_eq!(
            [first, array, own].map(|r| heap.slots_of(r).as_ptr()),
            pointers
        );
        assert!(heap
            .slots
            .iter()
            .all(|s| s.capacity() == HEAP_SEGMENT_SLOTS || s.capacity() == s.len()));
        assert_eq!(heap.slots_of(own).len(), HEAP_SEGMENT_SLOTS + 5);
    }

    #[test]
    fn reserve_creates_every_segment_up_front() {
        let (p, key, ..) = program();
        let mut heap = Heap::new();
        let objects = HANDLE_RESERVE + 1;
        heap.reserve(objects, 2 * objects).unwrap();
        let (handles, spares) = (heap.handles.as_ptr(), heap.spares.len());
        for _ in 0..objects {
            heap.alloc_instance(&p, key);
        }
        heap.monitor_enter(ObjRef(0));
        heap.monitor_exit(ObjRef(0)).unwrap();
        assert_eq!(heap.handles.as_ptr(), handles, "the table never moved");
        assert_eq!(heap.slots.len() + heap.spares.len(), spares);
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

    /// One allocating call gives what an allocation followed by
    /// `init_slots` gives: the same objects, counts and recorder entries.
    #[test]
    fn alloc_instance_with_matches_alloc_then_init_slots() {
        let (p, key, ..) = program();
        let names: Vec<&str> = p.classes.iter().map(|c| c.name.as_str()).collect();
        let hubs = [(); 2].map(|()| pea_metrics::MetricsHub::enabled());
        let [mut split, mut whole] = [0, 1].map(|i| {
            let mut heap = Heap::new();
            heap.set_metrics(HeapRecorder::new(&hubs[i], names.iter().copied()));
            heap
        });
        let array = split.alloc_array(ValueKind::Int, 1).unwrap();
        assert_eq!(whole.alloc_array(ValueKind::Int, 1), Ok(array));
        for i in 0..3 {
            let values = [Value::Int(i), Value::Ref(array)];
            let r = split.try_alloc_instance(&p, key).unwrap();
            split.init_slots(r, values).unwrap();
            assert_eq!(whole.try_alloc_instance_with(&p, key, values), Ok(r));
            assert_eq!(whole.slots_of(r), values);
            assert_eq!(whole.class_of(r), Ok(key));
        }
        assert_eq!(whole.stats, split.stats);
        assert_eq!(whole.stats.alloc_count, 4);
        assert_eq!(whole.used, split.used);
        split.flush_metrics();
        whole.flush_metrics();
        let snapshot = hubs[1].snapshot().unwrap();
        assert_eq!(snapshot.counter("heap.class.Key.allocs"), 3);
        assert_eq!(Some(snapshot), hubs[0].snapshot());
    }

    /// The heap's length, slot count, segments and counts.
    fn state(heap: &Heap) -> (usize, usize, Vec<usize>, Stats) {
        let segments = heap.slots.iter().map(Vec::len).collect();
        (heap.len(), heap.used, segments, heap.stats)
    }

    #[test]
    fn alloc_instance_with_refuses_a_wrong_value_count_before_growing() {
        let (p, key, idx, _) = program();
        let mut heap = Heap::new();
        heap.alloc_instance(&p, key);
        let before = state(&heap);
        for values in [&[][..], &[Value::Int(1)], &[Value::Null; 3]] {
            assert!(matches!(
                heap.try_alloc_instance_with(&p, key, values.iter().copied()),
                Err(VmError::Internal(_))
            ));
            assert_eq!(state(&heap), before, "{values:?}");
        }
        let r = heap
            .try_alloc_instance_with(&p, key, [Value::Int(4), Value::Null])
            .unwrap();
        assert_eq!(heap.get_field(&p, r, idx), Ok(Value::Int(4)));
    }

    /// At the heap's capacity the allocation is refused before anything
    /// grows. The object capacity itself is not reached here (its handle
    /// table alone is 1.5 GiB); the slot capacity is the same refusal.
    #[test]
    fn alloc_instance_with_at_capacity_is_out_of_memory_and_changes_nothing() {
        let (p, key, ..) = program();
        let mut heap = Heap::new();
        heap.alloc_instance(&p, key);
        heap.used = MAX_HEAP_SLOTS - 1;
        heap.refresh_limits();
        let before = state(&heap);
        assert_eq!(
            heap.try_alloc_instance_with(&p, key, [Value::Int(1), Value::Null]),
            Err(VmError::OutOfMemory)
        );
        assert_eq!(state(&heap), before);
        // A one-slot array still fits.
        assert!(heap.alloc_array(ValueKind::Int, 1).is_ok());
    }

    #[test]
    fn class_of_rejects_arrays() {
        let mut heap = Heap::new();
        let r = heap.alloc_array(ValueKind::Int, 1).unwrap();
        assert!(heap.class_of(r).is_err());
    }
}
