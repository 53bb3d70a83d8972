//! The fused dispatch stream speeds up the unobserved loop and changes
//! nothing else. `SimpleEnv` with `fuel: Some(u64::MAX)` runs the observed
//! loop, one plain instruction at a time; with `fuel: None` it runs the
//! fused one. For every superinstruction shape both must give the same
//! result or error, the same full `Stats`, the same cycles and the same
//! profile export: entered at the shape's head, at every bci inside it (by
//! a branch, by an exception handler, by `resume`), and when a constituent
//! after the first fails. Both must also poll the same safepoints.

use pea_bytecode::asm::parse_program;
use pea_bytecode::{verify_program, Fused, Method, MethodId, Program};
use pea_interp::{interpret, resume, Activation, Callee, InterpEnv, SimpleEnv};
use pea_runtime::profile::ProfileStore;
use pea_runtime::{FrameChain, Heap, Statics, Stats, Value, VmError};

/// Everything a run leaves behind that the two loops must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Option<Value>, VmError>,
    stats: Stats,
    cycles: u64,
    profile: String,
}

fn parse(source: &str) -> Program {
    let program = parse_program(source).unwrap_or_else(|e| panic!("{e}\n{source}"));
    verify_program(&program).unwrap_or_else(|e| panic!("{e}\n{source}"));
    program
}

/// A fresh host: the observed loop when `fused` is false (a budget that
/// never runs out still selects it), the fused loop otherwise.
fn host(program: &Program, fused: bool) -> SimpleEnv {
    let mut env = SimpleEnv::new(program.clone());
    if !fused {
        env.fuel = Some(u64::MAX);
    }
    env
}

/// Runs `body` on a fresh host for each loop, checks that both leave the
/// same outcome, and returns it.
fn parity(
    program: &Program,
    what: &str,
    body: impl Fn(&mut SimpleEnv) -> Result<Option<Value>, VmError>,
) -> Outcome {
    let run = |fused| {
        let mut env = host(program, fused);
        let result = body(&mut env);
        Outcome {
            result,
            stats: env.heap.stats,
            cycles: env.cycles_spent(),
            profile: env.profiles.export_json(),
        }
    };
    let plain = run(false);
    assert_eq!(run(true), plain, "{what}");
    plain
}

fn call(program: &Program, entry: &str, args: &[i64]) -> Outcome {
    let args: Vec<Value> = args.iter().map(|&a| Value::Int(a)).collect();
    parity(program, &format!("{entry}{args:?}"), |env| {
        env.call(entry, &args)
    })
}

/// One superinstruction shape, as the assembly of its constituents.
struct Shape {
    /// Pushes what the shape expects on the stack at its head.
    before: &'static str,
    code: &'static [&'static str],
    /// The operand stack before each constituent, beyond what lies below
    /// the shape: `i` an int, `r` a `Box`.
    stack: &'static [&'static str],
    /// Consumes what the shape leaves and returns.
    tail: &'static str,
    /// The shape with an operand of the wrong kind in a local, so a later
    /// constituent raises `TypeMismatch`.
    ill_typed: &'static [&'static str],
    sealed: fn(Fused) -> bool,
}

/// Locals: 0 selects the path, 1 and 2 are ints, 3 a `Box`, 4 scratch.
const SHAPES: &[Shape] = &[
    Shape {
        before: "",
        code: &["load 1", "const 5", "ifcmp lt Lt"],
        stack: &["", "i", "ii"],
        tail: "const 10 retv Lt: const 20 retv",
        // `ifcmp`, the third constituent, reads the `Box`.
        ill_typed: &["load 3", "const 5", "ifcmp lt Lt"],
        sealed: |f| matches!(f, Fused::LoadConstIfCmp { .. }),
    },
    Shape {
        before: "",
        code: &["load 1", "load 2", "ifcmp ge Lt"],
        stack: &["", "i", "ii"],
        tail: "const 10 retv Lt: const 20 retv",
        ill_typed: &["load 1", "load 3", "ifcmp ge Lt"],
        sealed: |f| matches!(f, Fused::LoadLoadIfCmp { .. }),
    },
    Shape {
        before: "",
        code: &["load 1", "const 5", "add", "store 1"],
        stack: &["", "i", "ii", "i"],
        tail: "load 1 retv",
        ill_typed: &["load 3", "const 5", "add", "store 1"],
        sealed: |f| matches!(f, Fused::LoadConstOpStore { .. }),
    },
    Shape {
        before: "",
        code: &["load 1", "const 5", "mul"],
        stack: &["", "i", "ii"],
        tail: "retv",
        ill_typed: &["load 3", "const 5", "mul"],
        sealed: |f| matches!(f, Fused::LoadConstOp { .. }),
    },
    Shape {
        before: "",
        code: &["load 1", "load 2", "xor"],
        stack: &["", "i", "ii"],
        tail: "retv",
        ill_typed: &["load 1", "load 3", "xor"],
        sealed: |f| matches!(f, Fused::LoadLoadOp { .. }),
    },
    Shape {
        before: "const 9",
        code: &["load 2", "sub", "store 4"],
        stack: &["i", "ii", "i"],
        tail: "load 4 retv",
        // `sub`, the second constituent, reads the `Box`.
        ill_typed: &["load 3", "sub", "store 4"],
        sealed: |f| matches!(f, Fused::LoadOpStore { .. }),
    },
    Shape {
        before: "",
        code: &["load 3", "getfield Box.v"],
        stack: &["", "r"],
        tail: "retv",
        // `getfield`, the second constituent, reads an int.
        ill_typed: &["load 1", "getfield Box.v"],
        sealed: |f| matches!(f, Fused::LoadGetField { .. }),
    },
];

/// `f(selector, x, y)`: with selector 0 it runs `code` from its head; with
/// any other selector a side path pushes what constituent `mid` expects
/// and branches to it.
fn shape_program(shape: &Shape, code: &[&str], mid: usize) -> (Program, usize) {
    let push: String = shape.stack[mid]
        .chars()
        .map(|c| if c == 'r' { "load 3 " } else { "load 2 " })
        .collect();
    let source = format!(
        "class Box {{ field v int }}
method f 3 returns {{
    new Box store 3
    load 3 load 2 putfield Box.v
    load 0 const 0 ifcmp ne Lside
    {before}
    {head}
Lmid:
    {rest}
    {tail}
Lside:
    {push} goto Lmid
}}",
        before = shape.before,
        head = code[..mid].join(" "),
        rest = code[mid..].join(" "),
        tail = shape.tail,
    );
    let program = parse(&source);
    // `new Box store 3 load 3 load 2 putfield load 0 const 0 ifcmp`
    let head = 8 + usize::from(!shape.before.is_empty());
    (program, head)
}

#[test]
fn every_shape_is_entered_at_every_bci_by_a_branch() {
    for shape in SHAPES {
        for mid in 0..shape.code.len() {
            let (program, head) = shape_program(shape, shape.code, mid);
            let f = program.static_method_by_name("f").unwrap();
            assert!(
                (shape.sealed)(program.fused(f)[head]),
                "{:?} at {head} is not the expected shape",
                program.fused(f)[head]
            );
            for selector in [0, 1] {
                for (x, y) in [(3, 5), (5, 3), (7, 7), (-4, i64::MAX), (i64::MIN, -1)] {
                    let out = call(&program, "f", &[selector, x, y]);
                    assert!(out.result.is_ok(), "{:?}", out.result);
                }
            }
        }
    }
}

#[test]
fn a_constituent_after_the_first_fails_with_the_plain_cycles() {
    for shape in SHAPES {
        let (program, head) = shape_program(shape, shape.ill_typed, 0);
        let f = program.static_method_by_name("f").unwrap();
        assert!((shape.sealed)(program.fused(f)[head]));
        let out = call(&program, "f", &[0, 3, 5]);
        assert!(
            matches!(out.result, Err(VmError::TypeMismatch { .. })),
            "{:?}",
            out.result
        );
    }
}

#[test]
fn handlers_entered_inside_a_shape() {
    // Each handler's bci is a constituent after the first: the `getfield`
    // of `load 1 getfield Err.code`, the `store` of `load 2 const 5 add
    // store 2`.
    let program = parse(
        "class Err { field code int }
method f 1 returns {
    try Ls Le Lget Err
    new Err store 1
    load 1 const 5 putfield Err.code
    load 0 const 0 ifcmp eq Ls
    load 1
Lget:
    getfield Err.code
    retv
Ls:
    new Err dup const 42 putfield Err.code athrow
Le:
}
method g 1 returns {
    try Ls Le Lstore *
    const 3 store 2
    load 0 const 0 ifcmp eq Ls
    load 2 const 5 add
Lstore:
    store 2
    load 2 retv
Ls:
    new Err athrow
Le:
}",
    );
    for (entry, shape) in [("f", 8), ("g", 5)] {
        let m = program.static_method_by_name(entry).unwrap();
        assert_ne!(program.fused(m)[shape], Fused::Plain, "{entry}");
        for arg in [0, 1] {
            let out = call(&program, entry, &[arg]);
            assert!(out.result.is_ok(), "{:?}", out.result);
        }
    }
}

/// Operand-stack height at each bci of a verified method.
fn heights(method: &Method) -> Vec<usize> {
    let mut heights = vec![None; method.code.len()];
    let mut work = vec![(0, 0)];
    while let Some((bci, height)) = work.pop() {
        if heights[bci].is_some() {
            continue;
        }
        heights[bci] = Some(height);
        let insn = method.code[bci];
        let after = height - insn.pops() + insn.pushes();
        if let Some(target) = insn.branch_target() {
            work.push((target as usize, after));
        }
        if insn.falls_through() && !insn.is_terminator() {
            work.push((bci + 1, after));
        }
    }
    heights.into_iter().map(|h| h.expect("reachable")).collect()
}

#[test]
fn resume_at_every_bci_of_a_fused_method() {
    // The ballast loop body plus the two shapes it lacks.
    let program = parse(
        "class Box { field v int }
method g 4 returns {
Lh:
    load 2 const 4 ifcmp ge Ld
    load 1 load 2 xor load 2 add store 1
    load 1 const 13 mul load 1 add store 1
    load 2 const 1 add store 2
    load 1 load 2 ifcmp lt Lh
    goto Lh
Ld:
    load 3 getfield Box.v load 1 add retv
}",
    );
    let g = program.static_method_by_name("g").unwrap();
    let box_class = program.class_by_name("Box").unwrap();
    let v = program.field_by_name(box_class, "v").unwrap();
    let method = program.method(g);
    let mut shapes: Vec<_> = program
        .fused(g)
        .iter()
        .map(std::mem::discriminant)
        .collect();
    shapes.sort_by_key(|d| format!("{d:?}"));
    shapes.dedup();
    assert_eq!(shapes.len(), 8, "every shape and plain entries");
    for (bci, height) in heights(method).into_iter().enumerate() {
        parity(&program, &format!("resume at {bci}"), |env| {
            let b = env.heap.alloc_instance(&program, box_class);
            env.heap.put_field(&program, b, v, Value::Int(11))?;
            let mut stack = vec![Value::Int(6); height];
            if let (Some(top), pea_bytecode::Insn::GetField(_)) =
                (stack.last_mut(), method.code[bci])
            {
                *top = Value::Ref(b);
            }
            let mut frames = FrameChain::default();
            frames.push_frame(g, bci as u32);
            for v in [Value::Int(0), Value::Int(5), Value::Int(1), Value::Ref(b)] {
                frames.push_local(v);
            }
            for v in stack {
                frames.push_operand(v);
            }
            resume(&program, env, &frames)
        });
    }
}

/// A host that counts safepoint polls; `observed` picks the loop.
struct Polls {
    env: SimpleEnv,
    observed: bool,
    polls: u64,
}

impl InterpEnv for Polls {
    fn heap(&mut self) -> &mut Heap {
        self.env.heap()
    }
    fn statics(&mut self) -> &mut Statics {
        self.env.statics()
    }
    fn profiles(&mut self) -> &mut ProfileStore {
        self.env.profiles()
    }
    fn value_stack(&mut self) -> &mut Vec<Value> {
        self.env.value_stack()
    }
    fn charge(&mut self, cycles: u64) -> Result<(), VmError> {
        self.env.charge(cycles)
    }
    fn has_fuel_limit(&self) -> bool {
        self.observed
    }
    fn activations(&mut self) -> &mut Vec<Activation> {
        self.env.activations()
    }
    fn enter(
        &mut self,
        program: &Program,
        method: MethodId,
        argc: usize,
    ) -> Result<Callee, VmError> {
        self.env.enter(program, method, argc)
    }
    fn leave(&mut self) {
        self.env.leave();
    }
    fn safepoint(&mut self) {
        self.polls += 1;
    }
}

#[test]
fn both_loops_poll_the_same_back_edges() {
    let program = parse(
        "
method ballast 1 returns {
    load 0 store 1
    const 0 store 2
Lh:
    load 2 const 50 ifcmp ge Ld
    load 1 load 2 xor load 2 add store 1
    load 1 const 13 mul load 1 add store 1
    load 2 const 1 add store 2
    goto Lh
Ld:
    load 1 retv
}
method fused_back_edges 1 returns {
    const 0 store 1
    const 0 store 2
La:
    load 1 const 1 add store 1
    load 1 load 0 ifcmp lt La
Lb:
    load 2 const 3 add store 2
    load 2 const 60 ifcmp lt Lb
    load 1 load 2 add retv
}
method into_the_middle 1 returns {
    const 0 store 1
    load 1
Lmid:
    const 1 add store 1
    load 1 load 0 ifcmp ge Ldone
    load 1 goto Lmid
Ldone:
    load 1 retv
}
method outer 1 returns {
    const 0 store 1
    const 0 store 2
L:
    load 2 const 5 ifcmp ge D
    load 1 load 0 invokestatic fused_back_edges add store 1
    load 2 const 1 add store 2
    goto L
D:
    load 1 retv
}",
    );
    for entry in ["ballast", "fused_back_edges", "into_the_middle", "outer"] {
        let m = program.static_method_by_name(entry).unwrap();
        let run = |observed| {
            let mut host = Polls {
                env: SimpleEnv::new(program.clone()),
                observed,
                polls: 0,
            };
            let result = interpret(&program, &mut host, m, &[Value::Int(9)]);
            (result, host.polls, host.env.cycles_spent())
        };
        let plain = run(true);
        assert!(plain.1 > 0, "{entry} polls no back-edge");
        assert_eq!(run(false), plain, "{entry}");
    }
}
