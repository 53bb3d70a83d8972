//! Model-based property test for the managed heap: random operation
//! sequences run against [`Heap`] and against a naive model (one `Vec` of
//! values per object, field layouts written out by hand, reachability
//! computed afresh at each collection), and every returned value, every
//! [`VmError`] and the final counters must agree.

use pea_bytecode::{ClassId, FieldId, Program, ProgramBuilder, ValueKind};
use pea_runtime::{Heap, ObjRef, Stats, Value, VmError, HEAP_SEGMENT_SLOTS, MAX_HEAP_SLOTS};
use proptest::prelude::*;

/// `Base { a int, r ref }`, `Derived extends Base { b int }`,
/// `Other { z int }`.
struct Fixture {
    program: Program,
    classes: [ClassId; 3],
    /// `a`, `r`, `b`, `z`.
    fields: [FieldId; 4],
}

/// The model's own copy of the layouts: per class, the fields it holds in
/// slot order; per field, its `Declaring.name`.
const CLASS_FIELDS: [&[usize]; 3] = [&[0, 1], &[0, 1, 2], &[3]];
const CLASS_DEFAULTS: [&[Value]; 3] = [
    &[Value::Int(0), Value::Null],
    &[Value::Int(0), Value::Null, Value::Int(0)],
    &[Value::Int(0)],
];
const FIELD_NAMES: [&str; 4] = ["Base.a", "Base.r", "Derived.b", "Other.z"];
const FIELD_DECLARING: [usize; 4] = [0, 0, 1, 2];

fn fixture() -> Fixture {
    let mut pb = ProgramBuilder::new();
    let base = pb.add_class("Base", None);
    let derived = pb.add_class("Derived", Some(base));
    let other = pb.add_class("Other", None);
    let a = pb.add_field(base, "a", ValueKind::Int);
    let r = pb.add_field(base, "r", ValueKind::Ref);
    let b = pb.add_field(derived, "b", ValueKind::Int);
    let z = pb.add_field(other, "z", ValueKind::Int);
    Fixture {
        program: pb.build().unwrap(),
        classes: [base, derived, other],
        fields: [a, r, b, z],
    }
}

enum ModelObject {
    Instance {
        class: usize,
        fields: Vec<Value>,
    },
    Array {
        elems: Vec<Value>,
    },
    /// Reclaimed by a collection.
    Collected,
}

impl ModelObject {
    fn slots(&self) -> &[Value] {
        match self {
            ModelObject::Instance { fields, .. } => fields,
            ModelObject::Array { elems } => elems,
            ModelObject::Collected => &[],
        }
    }
}

#[derive(Default)]
struct Model {
    objects: Vec<ModelObject>,
    locks: Vec<u32>,
    stats: Stats,
}

impl Model {
    fn push(&mut self, object: ModelObject) -> ObjRef {
        self.stats.alloc_count += 1;
        self.stats.alloc_bytes += 16 + 8 * object.slots().len() as u64;
        self.objects.push(object);
        self.locks.push(0);
        ObjRef::from_index(self.objects.len() - 1)
    }

    fn alloc_array(&mut self, kind: ValueKind, len: i64) -> Result<ObjRef, VmError> {
        if len < 0 {
            return Err(VmError::NegativeArrayLength(len));
        }
        let used: usize = self.objects.iter().map(|o| o.slots().len()).sum();
        if len as u64 > (MAX_HEAP_SLOTS - used) as u64 {
            return Err(VmError::OutOfMemory);
        }
        let elems = vec![Value::default_for(kind); len as usize];
        Ok(self.push(ModelObject::Array { elems }))
    }

    fn field(&mut self, r: ObjRef, field: usize) -> Result<&mut Value, VmError> {
        match &mut self.objects[r.index()] {
            ModelObject::Collected => Err(VmError::Collected(r)),
            ModelObject::Array { .. } => Err(VmError::TypeMismatch {
                expected: "instance",
                found: "array",
            }),
            ModelObject::Instance { class, fields } => {
                match CLASS_FIELDS[*class].iter().position(|&f| f == field) {
                    Some(slot) => Ok(&mut fields[slot]),
                    None => Err(VmError::NoSuchField(FIELD_NAMES[field].to_string())),
                }
            }
        }
    }

    fn element(&mut self, r: ObjRef, index: i64) -> Result<&mut Value, VmError> {
        match &mut self.objects[r.index()] {
            ModelObject::Collected => Err(VmError::Collected(r)),
            ModelObject::Instance { .. } => Err(VmError::TypeMismatch {
                expected: "array",
                found: "instance",
            }),
            ModelObject::Array { elems } => {
                let length = elems.len();
                usize::try_from(index)
                    .ok()
                    .and_then(|i| elems.get_mut(i))
                    .ok_or(VmError::IndexOutOfBounds { index, length })
            }
        }
    }

    /// Collects every object that neither a reference in `roots` nor a
    /// held monitor reaches, directly or through other objects' slots;
    /// returns the objects it collected.
    fn collect(&mut self, roots: &[Value]) -> Vec<ObjRef> {
        let mut reached = vec![false; self.objects.len()];
        let mut work: Vec<usize> = roots
            .iter()
            .filter_map(|v| match v {
                Value::Ref(r) => Some(r.index()),
                _ => None,
            })
            .chain((0..self.objects.len()).filter(|&i| self.locks[i] > 0))
            .collect();
        while let Some(i) = work.pop() {
            if reached[i] || matches!(self.objects[i], ModelObject::Collected) {
                continue;
            }
            reached[i] = true;
            work.extend(self.objects[i].slots().iter().filter_map(|v| match v {
                Value::Ref(r) => Some(r.index()),
                _ => None,
            }));
        }
        let mut collected = Vec::new();
        for (i, object) in self.objects.iter_mut().enumerate() {
            if !reached[i] && !matches!(object, ModelObject::Collected) {
                *object = ModelObject::Collected;
                collected.push(ObjRef::from_index(i));
            }
        }
        collected
    }
}

/// Every accessor of the heap on `r`, each reduced to whether it
/// succeeded; the ones that write write what is already there or nothing.
fn accesses(heap: &mut Heap, fx: &Fixture, r: ObjRef) -> Vec<Result<(), VmError>> {
    let p = &fx.program;
    let (base, field) = (fx.classes[0], fx.fields[0]);
    vec![
        heap.class_of(r).map(drop),
        heap.slots_of(r).map(drop),
        heap.lock_count(r).map(drop),
        heap.get_field(p, r, field).map(drop),
        heap.get_field_at(p, r, base, 0, field).map(drop),
        heap.put_field(p, r, field, Value::Int(1)),
        heap.put_field_at(p, r, base, 0, field, Value::Int(1)),
        heap.array_get(r, 0).map(drop),
        heap.array_set(r, 0, Value::Int(1)),
        heap.array_length(r).map(drop),
        heap.init_slot(r, 0, Value::Int(1)),
        heap.init_slots(r, []),
        heap.init_slots(r, [Value::Int(1)]),
        heap.try_monitor_enter(r),
        heap.monitor_exit(r),
    ]
}

/// A value to store: an int, null, or a reference to the object the index
/// lands on (null while the heap is empty).
#[derive(Clone, Copy, Debug)]
enum Stored {
    Int(i64),
    Null,
    Ref(u8),
}

#[derive(Clone, Debug)]
enum Op {
    AllocInstance(u8),
    /// Whether the elements are references, and the length.
    AllocArray(bool, i64),
    /// Object, field, value, and whether to take the pre-resolved path.
    PutField(u8, u8, Stored, bool),
    GetField(u8, u8, bool),
    ArraySet(u8, i8, Stored),
    ArrayGet(u8, i8),
    ArrayLength(u8),
    InitSlots(u8, Vec<Stored>),
    Enter(u8),
    Exit(u8),
    /// A collection whose roots are these values.
    Collect(Vec<Stored>),
}

fn stored() -> impl Strategy<Value = Stored> {
    prop_oneof![
        any::<i64>().prop_map(Stored::Int),
        Just(Stored::Null),
        any::<u8>().prop_map(Stored::Ref),
    ]
}

/// Array lengths: mostly from -2 up; now and then about half a segment
/// (two in a row straddle a segment end), about a whole one (a segment of
/// its own, or just not), or one just past the heap's capacity (never one
/// that fits only barely: that is 4 GiB).
fn array_len() -> impl Strategy<Value = i64> {
    let segment = HEAP_SEGMENT_SLOTS as i64;
    (0u8..16, -2i64..12, -2i64..3).prop_map(move |(class, small, near)| match class {
        0 => segment / 2 + near,
        1 => segment + near,
        2 => MAX_HEAP_SLOTS as i64 + 1 + small.max(0),
        _ => small,
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3).prop_map(Op::AllocInstance),
        (any::<bool>(), array_len()).prop_map(|(k, l)| Op::AllocArray(k, l)),
        (any::<u8>(), 0u8..4, stored(), any::<bool>())
            .prop_map(|(o, f, v, at)| Op::PutField(o, f, v, at)),
        (any::<u8>(), 0u8..4, any::<bool>()).prop_map(|(o, f, at)| Op::GetField(o, f, at)),
        (any::<u8>(), -2i8..14, stored()).prop_map(|(o, i, v)| Op::ArraySet(o, i, v)),
        (any::<u8>(), -2i8..14).prop_map(|(o, i)| Op::ArrayGet(o, i)),
        any::<u8>().prop_map(Op::ArrayLength),
        (any::<u8>(), prop::collection::vec(stored(), 0..5))
            .prop_map(|(o, vs)| Op::InitSlots(o, vs)),
        any::<u8>().prop_map(Op::Enter),
        any::<u8>().prop_map(Op::Exit),
        prop::collection::vec(stored(), 0..6).prop_map(Op::Collect),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn heap_agrees_with_naive_model(ops in prop::collection::vec(op(), 0..96)) {
        let fx = fixture();
        let p = &fx.program;
        let mut heap = Heap::new();
        let mut model = Model::default();

        // Every operation picks its receiver among all objects, so arrays
        // meet field accesses and instances meet array accesses.
        let pick = |model: &Model, o: u8| {
            (!model.objects.is_empty())
                .then(|| ObjRef::from_index(o as usize % model.objects.len()))
        };
        let value = |model: &Model, s: Stored| match s {
            Stored::Int(v) => Value::Int(v),
            Stored::Null => Value::Null,
            Stored::Ref(o) => pick(model, o).map_or(Value::Null, Value::Ref),
        };

        for op in ops {
            match op {
                Op::AllocInstance(c) => {
                    let c = c as usize;
                    let expected = model.push(ModelObject::Instance {
                        class: c,
                        fields: CLASS_DEFAULTS[c].to_vec(),
                    });
                    prop_assert_eq!(heap.try_alloc_instance(p, fx.classes[c]), Ok(expected));
                    prop_assert_eq!(heap.class_of(expected), Ok(fx.classes[c]));
                }
                Op::AllocArray(is_ref, len) => {
                    let kind = if is_ref { ValueKind::Ref } else { ValueKind::Int };
                    prop_assert_eq!(heap.alloc_array(kind, len), model.alloc_array(kind, len));
                }
                Op::PutField(o, f, v, at) => {
                    let Some(r) = pick(&model, o) else { continue };
                    let f = f as usize;
                    let v = value(&model, v);
                    let expected = model.field(r, f).map(|slot| *slot = v);
                    let got = if at {
                        let declaring = fx.classes[FIELD_DECLARING[f]];
                        let slot = p.field_slot(declaring, fx.fields[f]).unwrap();
                        heap.put_field_at(p, r, declaring, slot, fx.fields[f], v)
                    } else {
                        heap.put_field(p, r, fx.fields[f], v)
                    };
                    prop_assert_eq!(got, expected);
                }
                Op::GetField(o, f, at) => {
                    let Some(r) = pick(&model, o) else { continue };
                    let f = f as usize;
                    let expected = model.field(r, f).map(|slot| *slot);
                    let got = if at {
                        let declaring = fx.classes[FIELD_DECLARING[f]];
                        let slot = p.field_slot(declaring, fx.fields[f]).unwrap();
                        heap.get_field_at(p, r, declaring, slot, fx.fields[f])
                    } else {
                        heap.get_field(p, r, fx.fields[f])
                    };
                    prop_assert_eq!(got, expected);
                }
                Op::ArraySet(o, i, v) => {
                    let Some(r) = pick(&model, o) else { continue };
                    let v = value(&model, v);
                    let expected = model.element(r, i64::from(i)).map(|slot| *slot = v);
                    prop_assert_eq!(heap.array_set(r, i64::from(i), v), expected);
                }
                Op::ArrayGet(o, i) => {
                    let Some(r) = pick(&model, o) else { continue };
                    let expected = model.element(r, i64::from(i)).map(|slot| *slot);
                    prop_assert_eq!(heap.array_get(r, i64::from(i)), expected);
                }
                Op::ArrayLength(o) => {
                    let Some(r) = pick(&model, o) else { continue };
                    let expected = match &model.objects[r.index()] {
                        ModelObject::Collected => Err(VmError::Collected(r)),
                        ModelObject::Array { elems } => Ok(elems.len() as i64),
                        ModelObject::Instance { .. } => Err(VmError::TypeMismatch {
                            expected: "array",
                            found: "instance",
                        }),
                    };
                    prop_assert_eq!(heap.array_length(r), expected);
                }
                Op::InitSlots(o, values) => {
                    let Some(r) = pick(&model, o) else { continue };
                    let values: Vec<Value> = values.iter().map(|&s| value(&model, s)).collect();
                    let got = heap.init_slots(r, values.iter().copied());
                    let slots = match &mut model.objects[r.index()] {
                        ModelObject::Instance { fields, .. } => fields,
                        ModelObject::Array { elems } => elems,
                        ModelObject::Collected => {
                            prop_assert_eq!(got, Err(VmError::Collected(r)));
                            continue;
                        }
                    };
                    let fits = values.len() <= slots.len();
                    for (slot, v) in slots.iter_mut().zip(&values) {
                        *slot = *v;
                    }
                    prop_assert_eq!(got.is_ok(), fits);
                    prop_assert!(fits || matches!(got, Err(VmError::Internal(_))));
                }
                Op::Enter(o) => {
                    let Some(r) = pick(&model, o) else { continue };
                    let expected = if matches!(model.objects[r.index()], ModelObject::Collected) {
                        Err(VmError::Collected(r))
                    } else {
                        model.locks[r.index()] += 1;
                        model.stats.monitor_enters += 1;
                        Ok(())
                    };
                    prop_assert_eq!(heap.try_monitor_enter(r), expected);
                }
                Op::Exit(o) => {
                    let Some(r) = pick(&model, o) else { continue };
                    let expected = if matches!(model.objects[r.index()], ModelObject::Collected) {
                        Err(VmError::Collected(r))
                    } else if model.locks[r.index()] == 0 {
                        Err(VmError::IllegalMonitorState)
                    } else {
                        model.locks[r.index()] -= 1;
                        model.stats.monitor_exits += 1;
                        Ok(())
                    };
                    prop_assert_eq!(heap.monitor_exit(r), expected);
                }
                Op::Collect(roots) => {
                    let roots: Vec<Value> = roots.iter().map(|&s| value(&model, s)).collect();
                    let stats = heap.stats;
                    heap.collect(&[&roots]);
                    prop_assert_eq!(heap.stats, stats, "a collection changes no count");
                    prop_assert_eq!(heap.len(), model.objects.len());
                    for r in model.collect(&roots) {
                        let refused = Err(VmError::Collected(r));
                        for got in accesses(&mut heap, &fx, r) {
                            prop_assert_eq!(got, refused.clone());
                        }
                        prop_assert_eq!(heap.stats, stats, "a refused access counts nothing");
                    }
                }
            }
        }

        prop_assert_eq!(heap.len(), model.objects.len());
        prop_assert_eq!(heap.is_empty(), model.objects.is_empty());
        prop_assert_eq!(heap.stats, model.stats);
        let holds: u64 = model.locks.iter().map(|&c| u64::from(c)).sum();
        prop_assert_eq!(heap.total_lock_holds(), holds);
        for (i, object) in model.objects.iter().enumerate() {
            let r = ObjRef::from_index(i);
            if let ModelObject::Collected = object {
                prop_assert_eq!(heap.class_of(r), Err(VmError::Collected(r)));
                prop_assert_eq!(heap.lock_count(r), Err(VmError::Collected(r)));
                prop_assert_eq!(heap.slots_of(r), Err(VmError::Collected(r)));
                continue;
            }
            prop_assert_eq!(heap.lock_count(r), Ok(model.locks[i]));
            prop_assert_eq!(heap.slots_of(r), Ok(object.slots()));
            match object {
                ModelObject::Instance { class, .. } => {
                    prop_assert_eq!(heap.class_of(r), Ok(fx.classes[*class]));
                }
                _ => prop_assert!(heap.class_of(r).is_err()),
            }
        }
    }
}
