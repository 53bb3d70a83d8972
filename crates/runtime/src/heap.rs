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

/// Where the handles of a group of allocations made back to back wait in
/// the heap's queue ([`Heap::group`]).
#[derive(Clone, Copy, Debug)]
pub struct AllocGroup(usize);

impl AllocGroup {
    /// A slot value naming member `j` of the group, the group's `j`th
    /// allocation, which may not exist yet.
    #[inline]
    pub fn member(self, j: usize) -> SlotInit {
        SlotInit(Init::Member(self.0 + j))
    }
}

/// What an allocation writes into a slot: a value, or a member of the
/// group being allocated ([`AllocGroup::member`]).
#[derive(Clone, Copy, Debug)]
pub struct SlotInit(Init);

#[derive(Clone, Copy, Debug)]
enum Init {
    Value(Value),
    /// The handle at this position of the heap's queue.
    Member(usize),
}

impl From<Value> for SlotInit {
    #[inline(always)]
    fn from(v: Value) -> Self {
        SlotInit(Init::Value(v))
    }
}

/// Most handles one heap's table holds: the objects alive at once plus
/// those a collection has not reclaimed yet (a collected handle is handed
/// out again). With [`MAX_HEAP_SLOTS`] this bounds the host memory behind
/// a heap (16 bytes per handle with its queue entry, 16 per slot) at about
/// 6 GiB; past either, allocation fails with [`VmError::OutOfMemory`].
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
/// full heap needs fewer than this many segments. A collection holds its
/// survivors' copies beside the segments they leave, at most as many
/// again, and the numbers of emptied segments are reused.
const MAX_SEGMENTS: usize = 3 * MAX_HEAP_SLOTS / HEAP_SEGMENT_SLOTS + 2;
const _: () = assert!(2 * MAX_SEGMENTS <= 1 << (32 - SLOT_SHIFT));
const _: () = assert!(MAX_HEAP_OBJECTS <= u32::MAX as usize);

/// Slot segments a collecting heap takes (small or own-size) before a
/// collection is due at the next safepoint: what a collection reclaims is
/// at most this much plus the live data, so between two collections the
/// heap holds about this many segments beyond its survivors.
pub const COLLECT_AFTER_SEGMENTS: usize = 4;

/// Handles a collecting heap hands out before a collection is due, as many
/// as [`COLLECT_AFTER_SEGMENTS`] segments hold slots: objects without slots
/// take no segment, and bound the handle table this way instead.
const COLLECT_AFTER_HANDLES: usize = COLLECT_AFTER_SEGMENTS * HEAP_SEGMENT_SLOTS;

/// Fresh handle numbers the table grows by when no collected handle is
/// left to hand out (12 KiB of table).
const HANDLE_BATCH: usize = 1 << 10;

/// Monitors [`Heap::reserve`] makes room for: more than any program here
/// holds at once.
const MONITOR_RESERVE: usize = 16;

/// What a handle's slots are: the class index of an instance, or one of
/// the two array tags (no program has that many classes).
type Kind = u32;
const INT_ARRAY: Kind = u32::MAX;
const REF_ARRAY: Kind = u32::MAX - 1;
/// A handle whose object a collection reclaimed, or that was never handed
/// out: neither an instance nor an array, so every accessor refuses it
/// ([`VmError::Collected`]) until it is handed out again.
const COLLECTED: Kind = u32::MAX - 2;

/// What a collected or not yet handed out handle holds.
const DEAD: Handle = Handle {
    kind: COLLECTED,
    start: 0,
    len: 0,
};

/// A collection's mark in [`Handle::len`]: the object was reached and its
/// slots are in place for the collection's scan. Lengths stay below
/// [`MAX_HEAP_SLOTS`], and no mark is left once the collection ends.
const MARKED: u32 = 1 << 31;
const _: () = assert!(MAX_HEAP_SLOTS < MARKED as usize);

/// One object: what it is and where its slots lie. [`ObjRef`] indexes the
/// handle table, so a collection moves an object by rewriting `start`
/// alone. Monitors live in the heap's table of held monitors, not here.
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

    /// Dynamic class, if this is the live instance `r`.
    #[inline]
    fn class(self, r: ObjRef) -> Result<ClassId, VmError> {
        if self.kind >= COLLECTED {
            return Err(self.refusal(r, "instance", "array"));
        }
        Ok(ClassId(self.kind))
    }

    /// Element count, if this is the live array `r`.
    #[inline]
    fn array_len(self, r: ObjRef) -> Result<u32, VmError> {
        if !self.is_array() {
            return Err(self.refusal(r, "array", "instance"));
        }
        Ok(self.len)
    }

    /// Why `r`, this handle's object, is not of the `expected` kind. Built
    /// in line: a call at every accessor site grew the dispatch loops by
    /// about a kilobyte.
    #[inline(always)]
    fn refusal(self, r: ObjRef, expected: &'static str, found: &'static str) -> VmError {
        if self.kind == COLLECTED {
            VmError::Collected(r)
        } else {
            VmError::TypeMismatch { expected, found }
        }
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

// Error construction that formats stays out of the accessors, which are
// inlined into the interpreter's and the linear tier's dispatch loops.

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

    /// Every static's value, in declaration order: a collector's roots.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Resets all statics to their default values.
    pub fn reset(&mut self, decls: &[StaticDecl]) {
        self.values = decls.iter().map(|d| Value::default_for(d.kind)).collect();
    }
}

/// The managed heap: a table of one handle per object and fixed-capacity
/// slot segments holding every object's slots. Neither is ever copied as
/// it grows: segments never grow, the table is reserved large enough to
/// be remapped rather than copied, and pages no object reached are never
/// committed. Allocation takes the next handle of a queue and bumps the
/// current segment, and touches no host allocator until one runs out.
///
/// A heap whose owner can enumerate its roots
/// ([`Heap::enable_collection`]) is collected at the owner's safepoints
/// once [`COLLECT_AFTER_SEGMENTS`] segments have been taken, or as many
/// handles handed out as those hold slots ([`Heap::collection_due`],
/// [`Heap::collect`]): survivors' slots move into fresh segments, the
/// handles of the dead refuse every access until the queue hands them out
/// again, and emptied segments go to the recycler. The table so holds the
/// live set and what died since the last collection, not every object
/// ever made; an [`ObjRef`] names an object only while it lives. A
/// dropped heap's table, queue and standard segments are left to the next
/// heap (see [`Heap::recycled_segments`]). Every allocation and monitor
/// operation updates [`Stats`], which is what the paper's Table 1
/// measures; a collection changes no count there.
///
/// The queue hands out, first, the handles the last collection found dead,
/// in this order: those handed out since the collection before it, in the
/// order they were handed out; then those still queued from then; then
/// the survivors of that collection, in the order it reached them; then
/// the rest, lowest number first. When it runs dry the table grows by
/// fresh numbers, lowest first.
#[derive(Debug, Default)]
pub struct Heap {
    /// Handle `i` is `handles[i]`: one contiguous table, so finding an
    /// object's handle is a single load.
    handles: Vec<Handle>,
    /// The handle queue: the numbers of the handles the last collection
    /// found dead (the first `reused`), then fresh numbers at the table's
    /// end, consecutive. Entries before `next_handle` were handed out.
    free: Vec<u32>,
    /// Where in `free` the next allocation takes its handle.
    next_handle: usize,
    /// Entries of `free` the last collection left.
    reused: usize,
    /// Slot segments by number; a number a collection emptied holds an
    /// unallocated `Vec` until a claim reuses it.
    slots: Vec<Vec<Value>>,
    /// Numbers of emptied segments, for claims to reuse.
    free_numbers: Vec<u32>,
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
    /// Whether taking segments or handing out handles makes collections
    /// due.
    collects: bool,
    /// Segments taken since the last collection, or
    /// [`COLLECT_AFTER_SEGMENTS`] once [`COLLECT_AFTER_HANDLES`] handles
    /// were handed out.
    taken: usize,
    /// What the owner's safepoints test, one flag for all their work: set
    /// once a collection is due and cleared by the collection, or set for
    /// good by [`Heap::poll_always`].
    poll: bool,
    always: bool,
    /// Segments holding slots now, and the most that ever did.
    occupied: usize,
    peak_occupied: usize,
    /// The objects the last collection kept, in the order it reached them.
    survivors: Vec<u32>,
    /// The next collection's work list: the objects it reaches.
    reached: Vec<u32>,
    /// The table's length at the last collection: the fresh numbers
    /// handed out since, from here up, are the next collection's to sweep
    /// besides `survivors` and the queue's handed-out entries.
    swept: usize,
    /// Per segment number, during a collection: whether a survivor's
    /// slots lie there.
    keep: Vec<bool>,
}

/// Most standard slot segments the recycler keeps (128 MiB).
pub const MAX_RECYCLED_SEGMENTS: usize = 128;

/// Most handle tables the recycler keeps: one per heap of a VM's
/// mutator threads.
const MAX_RECYCLED_TABLES: usize = 8;

/// A dropped heap's handle table, handle queue and the emptied list its
/// segments were kept in, all cleared with their capacity.
type Table = (Vec<Handle>, Vec<u32>, Vec<Vec<Value>>);

/// The standard slot segments and handle tables of dropped heaps, cleared
/// but with their pages still committed. A new heap takes from here
/// before it asks the host, so a VM built after another one reuses its
/// memory instead of faulting fresh pages in. A heap takes before it
/// grows, so nothing here is more than was once live at the same time.
struct Recycler {
    segments: Vec<Vec<Value>>,
    tables: Vec<Table>,
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

    /// Number of objects allocated since creation, collected ones
    /// included: [`Stats::alloc_count`]. Handles are reused, so this is
    /// not the size of the handle table ([`Self::handle_table_len`]).
    pub fn len(&self) -> usize {
        self.stats.alloc_count as usize
    }

    /// Whether the heap has no allocations.
    pub fn is_empty(&self) -> bool {
        self.stats.alloc_count == 0
    }

    /// Handles ever handed out, each counted once however often it was
    /// reused: at most the survivors of a collection plus the handles
    /// handed out until the next one, at its largest so far.
    pub fn handle_table_len(&self) -> usize {
        self.handed_out().1
    }

    /// Makes room for `objects` more objects holding `slots` more slots
    /// between them (one spare slot segment covers the tails objects
    /// leave), so that many allocations, a group of up to a batch of
    /// them and a few monitors held at once reach no host allocator.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfMemory`] when the host refuses the handle table or
    /// a spare segment.
    pub fn reserve(&mut self, objects: usize, slots: usize) -> Result<(), VmError> {
        self.adopt_table();
        // The table runs ahead of the handles handed out by at most one
        // batch; the queue holds what the last collection left, a batch,
        // and what a group needs beyond it.
        let len = self.handles.len();
        self.handles
            .try_reserve_exact((len + objects + HANDLE_BATCH).max(HANDLE_RESERVE) - len)
            .map_err(|_| VmError::OutOfMemory)?;
        let queue = self.reused + 2 * HANDLE_BATCH;
        self.free
            .try_reserve_exact(queue.saturating_sub(self.free.len()))
            .map_err(|_| VmError::OutOfMemory)?;
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
    /// overwrites it. A value may name a member of the group being
    /// allocated ([`AllocGroup::member`]). No kind is checked.
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
        I: IntoIterator,
        I::Item: Into<SlotInit>,
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
            slots.push(Self::resolve(&self.free, value.into()));
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

    /// Hands out the next handle, for an object whose `len` slots the
    /// caller pushes onto the returned segment next; refuses before
    /// anything grows.
    #[inline]
    fn push(&mut self, kind: Kind, len: usize) -> Result<(ObjRef, usize), VmError> {
        // One branch decides the common case: a handle is queued and the
        // object fits the current segment with room to spare (so `next`
        // never points past it).
        match self.free.get(self.next_handle) {
            Some(&i) if len < self.room => {
                let start = self.bump(len);
                Ok((self.put_handle(i, kind, start, len), self.current))
            }
            _ => self.push_slow(kind, len),
        }
    }

    #[inline]
    fn bump(&mut self, len: usize) -> u32 {
        let start = self.next;
        self.next += len as u32;
        self.room -= len;
        start
    }

    /// Writes handle `i`, the queue's next. The narrowing casts are
    /// checked against the capacities.
    #[inline]
    fn put_handle(&mut self, i: u32, kind: Kind, start: u32, len: usize) -> ObjRef {
        self.handles[i as usize] = Handle {
            kind,
            start,
            len: len as u32,
        };
        self.next_handle += 1;
        self.used += len;
        ObjRef(i)
    }

    /// [`Self::push`] when something besides a bump is due: a capacity
    /// error, more handles in the queue or a new slot segment.
    #[cold]
    fn push_slow(&mut self, kind: Kind, len: usize) -> Result<(ObjRef, usize), VmError> {
        if len > MAX_HEAP_SLOTS - self.used {
            return Err(VmError::OutOfMemory);
        }
        if self.next_handle == self.free.len() {
            self.queue(1)?;
        }
        let (start, segment) = if len < self.room {
            (self.bump(len), self.current)
        } else {
            self.claim(len)?
        };
        let r = self.put_handle(self.free[self.next_handle], kind, start, len);
        self.refresh_limits();
        Ok((r, segment))
    }

    /// Grows the table by fresh numbers, at least a batch, until `count`
    /// handles are queued; makes a collection due once
    /// [`COLLECT_AFTER_HANDLES`] were handed out since the last one.
    #[cold]
    fn queue(&mut self, count: usize) -> Result<(), VmError> {
        self.adopt_table();
        // Fresh numbers handed out are the table's from `swept` up: the
        // next sweep needs no queue entry for them.
        if self.next_handle > self.reused {
            self.free.drain(self.reused..self.next_handle);
            self.next_handle = self.reused;
        }
        let (reused, fresh_end) = self.handed_out();
        if self.collects && reused + fresh_end - self.swept >= COLLECT_AFTER_HANDLES {
            self.taken = self.taken.max(COLLECT_AFTER_SEGMENTS);
            self.poll = true;
        }
        let queued = self.free.len() - self.next_handle;
        let len = self.handles.len();
        let more = HANDLE_BATCH
            .max(count.saturating_sub(queued))
            .min(MAX_HEAP_OBJECTS - len);
        if queued + more < count {
            return Err(VmError::OutOfMemory);
        }
        if len + more > self.handles.capacity() {
            // Double, from a reservation large enough to be mapped, up to
            // the capacity.
            let grow = len.max(HANDLE_RESERVE).min(MAX_HEAP_OBJECTS - len);
            self.handles
                .try_reserve_exact(grow.max(more))
                .map_err(|_| VmError::OutOfMemory)?;
        }
        self.free
            .try_reserve(more)
            .map_err(|_| VmError::OutOfMemory)?;
        self.handles.resize(len + more, DEAD);
        self.free.extend(len as u32..(len + more) as u32);
        Ok(())
    }

    /// What was handed out since the last collection: the queue's first
    /// entries up to the first returned, and the table's numbers from
    /// `swept` up to the second.
    fn handed_out(&self) -> (usize, usize) {
        let fresh_end = match self.free.get(self.next_handle.max(self.reused)) {
            Some(&i) => i as usize,
            None => self.handles.len(),
        };
        (self.next_handle.min(self.reused), fresh_end)
    }

    /// Takes a dropped heap's handle table, queue and segment list if this
    /// heap has no table yet (and so no object and no segment).
    fn adopt_table(&mut self) {
        if self.handles.capacity() == 0 {
            if let Some((handles, free, slots)) = recycler().tables.pop() {
                debug_assert!(self.slots.is_empty());
                self.handles = handles;
                self.free = free;
                self.slots = slots;
            }
        }
    }

    /// Re-derives the fast path's bound on the current segment from the
    /// heap's slot capacity.
    fn refresh_limits(&mut self) {
        self.room = self.room.min(MAX_HEAP_SLOTS + 1 - self.used);
    }

    /// Queues the handles of the next `members` allocations, which the
    /// caller makes back to back with nothing else allocating in between,
    /// so that a member can name a later one before it exists
    /// ([`AllocGroup::member`], [`Self::member`]).
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfMemory`] when the table cannot hold that many more
    /// handles; before anything is allocated.
    #[inline]
    pub fn group(&mut self, members: usize) -> Result<AllocGroup, VmError> {
        if self.free.len() - self.next_handle < members {
            self.queue(members)?;
        }
        Ok(AllocGroup(self.next_handle))
    }

    /// The handle of member `j` of `group`, from [`Self::group`] until
    /// something allocates after the group's last member or the heap is
    /// collected.
    #[inline]
    pub fn member(&self, group: AllocGroup, j: usize) -> ObjRef {
        ObjRef(self.free[group.0 + j])
    }

    /// The value a [`SlotInit`] stands for.
    #[inline(always)]
    fn resolve(free: &[u32], init: SlotInit) -> Value {
        match init.0 {
            Init::Value(v) => v,
            Init::Member(at) => Value::Ref(ObjRef(free[at])),
        }
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
        let index = match self.free_numbers.pop() {
            Some(number) => {
                self.slots[number as usize] = segment;
                number as usize
            }
            None => {
                self.slots.push(segment);
                self.slots.len() - 1
            }
        };
        self.occupied += 1;
        self.peak_occupied = self.peak_occupied.max(self.occupied);
        if self.collects {
            self.taken += 1;
            self.poll |= self.taken >= COLLECT_AFTER_SEGMENTS;
        }
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

    /// The handle of `r`, unless a collection reclaimed it.
    #[inline]
    fn live(&self, r: ObjRef) -> Result<Handle, VmError> {
        let h = self.handle(r);
        if h.kind == COLLECTED {
            return Err(VmError::Collected(r));
        }
        Ok(h)
    }

    /// Dynamic class of an instance.
    ///
    /// # Errors
    ///
    /// [`VmError::TypeMismatch`] if `r` is an array,
    /// [`VmError::Collected`] if it was collected.
    #[inline]
    pub fn class_of(&self, r: ObjRef) -> Result<ClassId, VmError> {
        self.handle(r).class(r)
    }

    /// The fields of an instance in layout order, or the elements of an
    /// array.
    ///
    /// # Errors
    ///
    /// [`VmError::Collected`] if `r` was collected.
    pub fn slots_of(&self, r: ObjRef) -> Result<&[Value], VmError> {
        let h = self.live(r)?;
        Ok(&self.slots[h.segment()][h.slots()])
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
        match program.field_slot(h.class(r)?, field) {
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
        let class = h.class(r).ok()?;
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
    /// [`VmError::Internal`] if the object has no slot `index`,
    /// [`VmError::Collected`] if it was collected.
    #[inline]
    pub fn init_slot(&mut self, r: ObjRef, index: usize, value: Value) -> Result<(), VmError> {
        let h = self.live(r)?;
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
    /// A value may name a member of the group being allocated
    /// ([`AllocGroup::member`]). No class or kind is looked up.
    ///
    /// # Errors
    ///
    /// [`VmError::Internal`] if the template has more values than the
    /// object has slots, [`VmError::Collected`] if it was collected.
    #[inline]
    pub fn init_slots<T: Into<SlotInit>>(
        &mut self,
        r: ObjRef,
        values: impl IntoIterator<Item = T>,
    ) -> Result<(), VmError> {
        let h = self.live(r)?;
        let mut values = values.into_iter();
        // `zip` asks the slots first, so a surplus value is left for the
        // check below.
        for (slot, value) in self.slots[h.segment()][h.slots()]
            .iter_mut()
            .zip(&mut values)
        {
            *slot = Self::resolve(&self.free, value.into());
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
        let len = h.array_len(r)?;
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
        Ok(i64::from(self.handle(r).array_len(r)?))
    }

    /// [`Self::try_monitor_enter`] for callers whose heap never collects
    /// (tests, the benchmark's micro-loops).
    ///
    /// # Panics
    ///
    /// Panics if `r` was collected.
    #[inline]
    pub fn monitor_enter(&mut self, r: ObjRef) {
        self.try_monitor_enter(r)
            .expect("the monitor of a collected object");
    }

    /// Acquires the monitor of `r` (recursively) and counts the operation.
    ///
    /// # Errors
    ///
    /// [`VmError::Collected`] if `r` was collected; nothing is counted.
    #[inline]
    pub fn try_monitor_enter(&mut self, r: ObjRef) -> Result<(), VmError> {
        match self.monitors.iter_mut().rev().find(|(o, _)| *o == r) {
            Some((_, holds)) => *holds += 1,
            // A held monitor's object is a root, so only a first hold can
            // name a collected one.
            None => {
                self.live(r)?;
                self.monitors.push((r, 1));
            }
        }
        self.stats.monitor_enters += 1;
        Ok(())
    }

    /// Releases the monitor of `r` and counts the operation. Monitors are
    /// mostly released innermost first, which the table's last entry
    /// answers.
    ///
    /// # Errors
    ///
    /// [`VmError::IllegalMonitorState`] if the monitor is not held,
    /// [`VmError::Collected`] if `r` was collected.
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
        self.live(r)?;
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
    ///
    /// # Errors
    ///
    /// [`VmError::Collected`] if `r` was collected.
    pub fn lock_count(&self, r: ObjRef) -> Result<u32, VmError> {
        self.live(r)?;
        Ok(self
            .monitors
            .iter()
            .find(|(o, _)| *o == r)
            .map_or(0, |&(_, holds)| holds))
    }

    /// Total monitor holds across the heap (0 when all lock/unlock pairs
    /// are balanced; asserted by tests at quiescent points).
    pub fn total_lock_holds(&self) -> u64 {
        self.monitors
            .iter()
            .map(|&(_, holds)| u64::from(holds))
            .sum()
    }

    /// Makes taking slot segments bring collections due. Only an owner
    /// that finds every root at its safepoints may call [`Self::collect`];
    /// a heap never enabled is never due.
    pub fn enable_collection(&mut self) {
        self.collects = true;
    }

    /// Whether [`Self::enable_collection`] was called.
    pub fn collects(&self) -> bool {
        self.collects
    }

    /// Whether the owner's safepoint has work: a collection is due, or
    /// the owner asked for every safepoint ([`Self::poll_always`]). The
    /// one test a safepoint makes when it has nothing to do.
    #[inline]
    pub fn safepoint_due(&self) -> bool {
        self.poll
    }

    /// Makes [`Self::safepoint_due`] true for good: for an owner whose
    /// safepoints have work of their own besides collecting.
    pub fn poll_always(&mut self) {
        self.always = true;
        self.poll = true;
    }

    /// Whether [`COLLECT_AFTER_SEGMENTS`] segments were taken since the
    /// last collection, or the handles handed out since reached as many
    /// as those hold slots (checked each time the queue runs dry): the
    /// owner's next safepoint collects.
    #[inline]
    pub fn collection_due(&self) -> bool {
        self.taken >= COLLECT_AFTER_SEGMENTS
    }

    /// The most slot segments this heap ever held at once, a collection's
    /// copies included.
    pub fn peak_segments(&self) -> usize {
        self.peak_occupied
    }

    /// Collects the heap. Every object reachable from a reference in
    /// `roots` or from a held monitor survives with its slots, its class
    /// and its lock count; its slots move into fresh segments (only its
    /// handle's start changes, so no reference is rewritten). Every other
    /// handle is poisoned and queued: any access through it is
    /// [`VmError::Collected`] until an allocation takes it, and then it
    /// names the new object. Segments left empty go to the recycler.
    ///
    /// The sweep visits the last collection's survivors and the handles
    /// handed out since, not the whole table. Nothing in [`Stats`]
    /// changes. Once the work lists have grown to the live set and the
    /// queue to the most handles that died at once, a collection
    /// allocates nothing beyond the segments survivors move into, and
    /// those come from the spares and the recycler first. A survivor
    /// whose segment the host refuses stays where it is, and so does its
    /// segment.
    pub fn collect(&mut self, roots: &[&[Value]]) {
        let mut reached = std::mem::take(&mut self.reached);
        reached.clear();
        // Survivors bump into fresh segments: the first one claims.
        self.room = 0;
        self.used = 0;
        let mut copied = 0;
        for &root in roots {
            for &v in root {
                if let Value::Ref(r) = v {
                    copied += self.reach(r, &mut reached);
                }
            }
        }
        for i in 0..self.monitors.len() {
            copied += self.reach(self.monitors[i].0, &mut reached);
        }
        // The work list is the survivors in the order they were reached.
        let mut scanned = 0;
        while let Some(&i) = reached.get(scanned) {
            scanned += 1;
            // Every slot is scanned: no slot's kind is checked on a store.
            let h = self.handles[i as usize];
            let from = (h.start & SLOT_MASK) as usize;
            for k in from..from + (h.len & !MARKED) as usize {
                if let Value::Ref(r) = self.slots[h.segment()][k] {
                    copied += self.reach(r, &mut reached);
                }
            }
        }
        self.release_segments(&reached);
        // The queue's order (see `Heap`): the dead of its handed-out
        // entries, in place, then the entries not handed out, then the
        // dead among the survivors and the fresh numbers. Fresh numbers
        // never handed out leave the table.
        let (reused, fresh_end) = self.handed_out();
        self.handles.truncate(fresh_end);
        self.free.truncate(self.reused);
        let mut queued = 0;
        for k in 0..reused {
            let i = self.free[k];
            if self.poison(i) {
                self.free[queued] = i;
                queued += 1;
            }
        }
        self.free.copy_within(reused..self.reused, queued);
        let waiting = self.reused - reused;
        self.free.truncate(queued + waiting);
        for k in 0..self.survivors.len() {
            let i = self.survivors[k];
            if self.poison(i) {
                self.free.push(i);
            }
        }
        for i in self.swept as u32..fresh_end as u32 {
            if self.poison(i) {
                self.free.push(i);
            }
        }
        let reclaimed = (self.free.len() - waiting) as u64;
        for &i in &reached {
            self.handles[i as usize].len &= !MARKED;
        }
        self.reached = std::mem::replace(&mut self.survivors, reached);
        self.swept = fresh_end;
        self.reused = self.free.len();
        self.next_handle = 0;
        self.taken = 0;
        self.poll = self.always;
        self.refresh_limits();
        self.recorder.record_collection(reclaimed, copied);
    }

    /// Poisons handle `i` unless the collection reached it; whether it did.
    #[inline]
    fn poison(&mut self, i: u32) -> bool {
        let h = &mut self.handles[i as usize];
        let dead = h.len & MARKED == 0;
        if dead {
            *h = DEAD;
        }
        dead
    }

    /// Marks `r` reached, the first time, and moves its slots to the tail
    /// of the survivors' segments unless it has a segment of its own or
    /// no slots. Returns the slots moved.
    #[inline]
    fn reach(&mut self, r: ObjRef, reached: &mut Vec<u32>) -> u64 {
        let h = self.handles[r.index()];
        if h.len & MARKED != 0 || h.kind == COLLECTED {
            return 0;
        }
        let len = h.len as usize;
        let start = match len {
            // No slots to keep: the first offset of any segment will do.
            0 => Some(0),
            HEAP_SEGMENT_SLOTS.. => None,
            _ => self.evacuate(h),
        };
        self.handles[r.index()] = Handle {
            start: start.unwrap_or(h.start),
            len: h.len | MARKED,
            ..h
        };
        self.used += len;
        reached.push(r.index() as u32);
        if start.is_some() {
            len as u64
        } else {
            0
        }
    }

    /// Copies the slots of `h` to the survivors' bump pointer, claiming a
    /// segment when the current one is full; `None` if the host refuses
    /// one.
    fn evacuate(&mut self, h: Handle) -> Option<u32> {
        let len = h.len as usize;
        let (start, to) = if len < self.room {
            (self.bump(len), self.current)
        } else {
            self.claim(len).ok()?
        };
        let from = h.segment();
        let (source, target) = if from < to {
            let (low, high) = self.slots.split_at_mut(to);
            (&low[from], &mut high[0])
        } else {
            let (low, high) = self.slots.split_at_mut(from);
            (&high[0], &mut low[to])
        };
        target.extend_from_slice(&source[h.slots()]);
        Some(start)
    }

    /// Empties every segment no survivor of the collection that reached
    /// `reached` lies in: standard ones go to the recycler (up to its
    /// cap), own-size ones to the host, and their numbers to
    /// `free_numbers`.
    fn release_segments(&mut self, reached: &[u32]) {
        self.keep.clear();
        self.keep.resize(self.slots.len(), false);
        for &i in reached {
            let h = self.handles[i as usize];
            if h.len & !MARKED != 0 {
                self.keep[h.segment()] = true;
            }
        }
        let mut pool = None;
        for (number, slot) in self.slots.iter_mut().enumerate() {
            if self.keep[number] || slot.capacity() == 0 {
                continue;
            }
            let mut segment = std::mem::take(slot);
            self.free_numbers.push(number as u32);
            self.occupied -= 1;
            if segment.capacity() == HEAP_SEGMENT_SLOTS {
                let pool = pool.get_or_insert_with(recycler);
                if pool.segments.len() < MAX_RECYCLED_SEGMENTS {
                    segment.clear();
                    pool.segments.push(segment);
                }
            }
        }
    }
}

/// Hands the standard slot segments (spares included), the handle table
/// and its queue to the recycler, up to its caps. They are cleared, not zeroed:
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
            self.free.clear();
            let table = (
                std::mem::take(&mut self.handles),
                std::mem::take(&mut self.free),
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
        assert_eq!(heap.lock_count(r), Ok(2));
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
        let pointers = [first, array, own].map(|r| heap.slots_of(r).unwrap().as_ptr());
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
            [first, array, own].map(|r| heap.slots_of(r).unwrap().as_ptr()),
            pointers
        );
        assert!(heap
            .slots
            .iter()
            .all(|s| s.capacity() == HEAP_SEGMENT_SLOTS || s.capacity() == s.len()));
        assert_eq!(heap.slots_of(own).unwrap().len(), HEAP_SEGMENT_SLOTS + 5);
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
        assert_eq!(heap.slots_of(a).unwrap(), [Value::Ref(o), Value::Null]);
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
            assert_eq!(whole.slots_of(r).unwrap(), values);
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

    /// A collection keeps what the roots and the held monitors reach, with
    /// its slots, class and holds; moves it into a fresh segment; and hands
    /// the emptied segments back, whose numbers the next claims reuse.
    #[test]
    fn collection_keeps_the_reachable_and_reuses_segment_numbers() {
        let (p, key, idx, rf) = program();
        let mut heap = Heap::new();
        heap.enable_collection();
        let root = heap.alloc_instance(&p, key);
        let child = heap.alloc_instance(&p, key);
        let locked = heap.alloc_array(ValueKind::Int, 3).unwrap();
        heap.put_field(&p, root, idx, Value::Int(7)).unwrap();
        heap.put_field(&p, root, rf, Value::Ref(child)).unwrap();
        heap.array_set(locked, 2, Value::Int(5)).unwrap();
        heap.monitor_enter(locked);
        heap.monitor_enter(locked);
        while !heap.collection_due() {
            heap.alloc_instance(&p, key);
        }
        assert_eq!(heap.slots.len(), COLLECT_AFTER_SEGMENTS);
        let before = (heap.stats, heap.len());
        let moved = heap.slots_of(root).unwrap().as_ptr();
        heap.collect(&[&[Value::Int(1), Value::Ref(root)]]);
        assert!(!heap.collection_due());
        assert_eq!((heap.stats, heap.len()), before);
        assert_ne!(heap.slots_of(root).unwrap().as_ptr(), moved, "moved");
        assert_eq!(
            heap.slots_of(root).unwrap(),
            [Value::Int(7), Value::Ref(child)]
        );
        assert_eq!(heap.get_field(&p, child, idx), Ok(Value::Int(0)));
        assert_eq!(heap.lock_count(locked), Ok(2));
        assert_eq!(heap.array_get(locked, 2), Ok(Value::Int(5)));
        let dead = ObjRef::from_index(3);
        assert_eq!(heap.class_of(dead), Err(VmError::Collected(dead)));
        assert_eq!(heap.used, 2 + 2 + 3);
        // The survivors fill one fresh segment; the ones they left are
        // free.
        assert_eq!(heap.occupied, 1);
        assert_eq!(heap.free_numbers.len(), COLLECT_AFTER_SEGMENTS);
        assert_eq!(heap.peak_segments(), COLLECT_AFTER_SEGMENTS + 1);
        // Later claims take the freed numbers, never a new one.
        while !heap.free_numbers.is_empty() {
            heap.alloc_instance(&p, key);
        }
        assert_eq!(heap.slots.len(), COLLECT_AFTER_SEGMENTS + 1);
        heap.monitor_exit(locked).unwrap();
        heap.monitor_exit(locked).unwrap();
        heap.collect(&[]);
        assert_eq!(heap.class_of(root), Err(VmError::Collected(root)));
        assert_eq!(heap.lock_count(locked), Err(VmError::Collected(locked)));
        assert_eq!((heap.used, heap.occupied), (0, 0));
    }

    #[test]
    fn class_of_rejects_arrays() {
        let mut heap = Heap::new();
        let r = heap.alloc_array(ValueKind::Int, 1).unwrap();
        assert!(heap.class_of(r).is_err());
    }
}
