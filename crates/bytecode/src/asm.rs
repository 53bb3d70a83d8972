//! A textual assembler for [`crate::Program`]s.
//!
//! The grammar is line-friendly but token-based; `#` and `//` start
//! comments. Example:
//!
//! ```text
//! class Key {
//!     field idx int
//!     field ref ref
//! }
//! static cacheKey ref
//!
//! method virtual Key.equals 2 returns synchronized {
//!     load 0
//!     getfield Key.idx
//!     load 1
//!     getfield Key.idx
//!     ifcmp ne Lfalse
//!     const 1
//!     retv
//! Lfalse:
//!     const 0
//!     retv
//! }
//!
//! method getValue 2 returns {
//!     new Key
//!     store 2
//!     load 2
//!     retv
//! }
//! ```
//!
//! Name resolution is two-pass, so methods may reference classes, statics
//! and other methods declared later in the file.

use crate::{
    ClassId, CmpOp, FieldId, MethodBuilder, MethodId, Program, ProgramBuilder, StaticId, ValueKind,
};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An assembly error with a 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending token.
    pub line: u32,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl Error for AsmError {}

#[derive(Clone, Debug, PartialEq)]
struct Token {
    text: String,
    line: u32,
}

fn tokenize(source: &str) -> Vec<Token> {
    let mut out = Vec::new();
    for (lineno, raw) in source.lines().enumerate() {
        let line = raw
            .split('#')
            .next()
            .unwrap_or("")
            .split("//")
            .next()
            .unwrap_or("");
        for word in line.split_whitespace() {
            // Braces may be glued to names; split them off.
            let mut rest = word;
            while let Some(stripped) = rest.strip_prefix(['{', '}']) {
                out.push(Token {
                    text: rest[..1].to_string(),
                    line: lineno as u32 + 1,
                });
                rest = stripped;
            }
            if rest.is_empty() {
                continue;
            }
            if let Some(stripped) = rest.strip_suffix(['{', '}']) {
                if !stripped.is_empty() {
                    out.push(Token {
                        text: stripped.to_string(),
                        line: lineno as u32 + 1,
                    });
                }
                out.push(Token {
                    text: rest[rest.len() - 1..].to_string(),
                    line: lineno as u32 + 1,
                });
                continue;
            }
            out.push(Token {
                text: rest.to_string(),
                line: lineno as u32 + 1,
            });
        }
    }
    out
}

struct Cursor {
    tokens: Vec<Token>,
    pos: usize,
}

impl Cursor {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token, AsmError> {
        let t = self.tokens.get(self.pos).cloned().ok_or(AsmError {
            line: self.tokens.last().map_or(0, |t| t.line),
            reason: "unexpected end of input".into(),
        })?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, text: &str) -> Result<(), AsmError> {
        let t = self.next()?;
        if t.text != text {
            return Err(AsmError {
                line: t.line,
                reason: format!("expected `{text}`, found `{}`", t.text),
            });
        }
        Ok(())
    }
}

fn parse_kind(t: &Token) -> Result<ValueKind, AsmError> {
    match t.text.as_str() {
        "int" => Ok(ValueKind::Int),
        "ref" => Ok(ValueKind::Ref),
        other => Err(AsmError {
            line: t.line,
            reason: format!("expected `int` or `ref`, found `{other}`"),
        }),
    }
}

fn parse_cmp(t: &Token) -> Result<CmpOp, AsmError> {
    match t.text.as_str() {
        "eq" => Ok(CmpOp::Eq),
        "ne" => Ok(CmpOp::Ne),
        "lt" => Ok(CmpOp::Lt),
        "le" => Ok(CmpOp::Le),
        "gt" => Ok(CmpOp::Gt),
        "ge" => Ok(CmpOp::Ge),
        other => Err(AsmError {
            line: t.line,
            reason: format!("unknown comparison `{other}`"),
        }),
    }
}

fn parse_int(t: &Token) -> Result<i64, AsmError> {
    t.text.parse::<i64>().map_err(|_| AsmError {
        line: t.line,
        reason: format!("expected integer, found `{}`", t.text),
    })
}

struct MethodDecl {
    name: String,
    class: Option<String>,
    param_count: u16,
    returns_value: bool,
    synchronized: bool,
    body: Vec<Token>,
    line: u32,
}

/// Parses a whole program from assembler text.
///
/// # Errors
///
/// Returns an [`AsmError`] with the offending line on any syntactic or
/// name-resolution failure, including the structural errors reported by
/// [`ProgramBuilder::build`].
pub fn parse_program(source: &str) -> Result<Program, AsmError> {
    let mut cursor = Cursor {
        tokens: tokenize(source),
        pos: 0,
    };
    let mut pb = ProgramBuilder::new();
    let mut class_ids: HashMap<String, ClassId> = HashMap::new();
    let mut pending_supers: Vec<(ClassId, String, u32)> = Vec::new();
    let mut static_ids: HashMap<String, StaticId> = HashMap::new();
    let mut method_decls: Vec<MethodDecl> = Vec::new();

    while let Some(tok) = cursor.peek() {
        match tok.text.as_str() {
            "class" => {
                cursor.next()?;
                let name = cursor.next()?;
                let mut superclass = None;
                if cursor.peek().map(|t| t.text.as_str()) == Some("extends") {
                    cursor.next()?;
                    let sup = cursor.next()?;
                    superclass = Some((sup.text, sup.line));
                }
                let id = pb.add_class(&name.text, None);
                class_ids.insert(name.text.clone(), id);
                if let Some((sup, line)) = superclass {
                    pending_supers.push((id, sup, line));
                }
                cursor.expect("{")?;
                loop {
                    let t = cursor.next()?;
                    match t.text.as_str() {
                        "}" => break,
                        "field" => {
                            let fname = cursor.next()?;
                            let kind = parse_kind(&cursor.next()?)?;
                            pb.add_field(id, &fname.text, kind);
                        }
                        other => {
                            return Err(AsmError {
                                line: t.line,
                                reason: format!("expected `field` or `}}`, found `{other}`"),
                            })
                        }
                    }
                }
            }
            "static" => {
                cursor.next()?;
                let name = cursor.next()?;
                let kind = parse_kind(&cursor.next()?)?;
                let id = pb.add_static(&name.text, kind);
                static_ids.insert(name.text.clone(), id);
            }
            "method" => {
                cursor.next()?;
                let mut is_virtual = false;
                let mut t = cursor.next()?;
                if t.text == "virtual" {
                    is_virtual = true;
                    t = cursor.next()?;
                }
                let (class, name) = if is_virtual {
                    let (c, m) = t.text.split_once('.').ok_or(AsmError {
                        line: t.line,
                        reason: "virtual method name must be `Class.name`".into(),
                    })?;
                    (Some(c.to_string()), m.to_string())
                } else {
                    (None, t.text.clone())
                };
                let params = parse_int(&cursor.next()?)? as u16;
                let mut returns_value = false;
                let mut synchronized = false;
                loop {
                    let t = cursor.next()?;
                    match t.text.as_str() {
                        "returns" => returns_value = true,
                        "synchronized" => synchronized = true,
                        "{" => break,
                        other => {
                            return Err(AsmError {
                                line: t.line,
                                reason: format!(
                                    "expected `returns`, `synchronized` or `{{`, found `{other}`"
                                ),
                            })
                        }
                    }
                }
                let mut body = Vec::new();
                let mut depth = 1;
                loop {
                    let t = cursor.next()?;
                    match t.text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if depth > 0 {
                        body.push(t);
                    }
                }
                method_decls.push(MethodDecl {
                    name,
                    class,
                    param_count: params,
                    returns_value,
                    synchronized,
                    body,
                    line: t.line,
                });
            }
            other => {
                return Err(AsmError {
                    line: tok.line,
                    reason: format!("expected `class`, `static` or `method`, found `{other}`"),
                })
            }
        }
    }

    // Resolve superclasses now that all classes are known, before any
    // body is assembled and before `build` seals the layouts.
    for (id, sup, line) in pending_supers {
        let sup_id = *class_ids.get(&sup).ok_or(AsmError {
            line,
            reason: format!("unknown superclass `{sup}`"),
        })?;
        pb.set_superclass(id, sup_id);
    }

    // Declare all methods first so bodies can reference them.
    let mut method_ids: HashMap<(Option<String>, String), MethodId> = HashMap::new();
    for d in &method_decls {
        let class = match &d.class {
            Some(name) => Some(*class_ids.get(name).ok_or(AsmError {
                line: d.line,
                reason: format!("unknown class `{name}`"),
            })?),
            None => None,
        };
        let id = pb.declare_method(class, &d.name, d.param_count, d.returns_value);
        method_ids.insert((d.class.clone(), d.name.clone()), id);
    }

    // Assemble bodies.
    for d in &method_decls {
        let class = d.class.as_ref().map(|n| class_ids[n]);
        let mut mb = if let Some(c) = class {
            MethodBuilder::new_virtual(&d.name, c, d.param_count, d.returns_value)
        } else {
            MethodBuilder::new_static(&d.name, d.param_count, d.returns_value)
        };
        if d.synchronized {
            mb.synchronized();
        }
        assemble_body(&mut mb, &d.body, &class_ids, &static_ids, &method_ids, &pb)?;
        let method = mb.build().map_err(|e| AsmError {
            line: d.line,
            reason: format!("in method `{}`: {e}", d.name),
        })?;
        let id = method_ids[&(d.class.clone(), d.name.clone())];
        pb.set_method_body(id, method);
    }

    pb.build().map_err(|e| AsmError {
        line: 0,
        reason: e.to_string(),
    })
}

fn resolve_field(
    token: &Token,
    class_ids: &HashMap<String, ClassId>,
    pb: &ProgramBuilder,
) -> Result<FieldId, AsmError> {
    let (cname, fname) = token.text.split_once('.').ok_or(AsmError {
        line: token.line,
        reason: format!("expected `Class.field`, found `{}`", token.text),
    })?;
    let class = *class_ids.get(cname).ok_or(AsmError {
        line: token.line,
        reason: format!("unknown class `{cname}`"),
    })?;
    pb.peek_program()
        .field_by_name(class, fname)
        .ok_or(AsmError {
            line: token.line,
            reason: format!("unknown field `{}`", token.text),
        })
}

fn assemble_body(
    mb: &mut MethodBuilder,
    body: &[Token],
    class_ids: &HashMap<String, ClassId>,
    static_ids: &HashMap<String, StaticId>,
    method_ids: &HashMap<(Option<String>, String), MethodId>,
    pb: &ProgramBuilder,
) -> Result<(), AsmError> {
    // Pre-scan labels (tokens ending in `:`).
    let mut labels = HashMap::new();
    for t in body {
        if let Some(name) = t.text.strip_suffix(':') {
            if labels.contains_key(name) {
                return Err(AsmError {
                    line: t.line,
                    reason: format!("duplicate label `{name}`"),
                });
            }
            labels.insert(name.to_string(), mb.new_label());
        }
    }
    let get_label = |t: &Token| -> Result<crate::LabelId, AsmError> {
        labels.get(&t.text).copied().ok_or(AsmError {
            line: t.line,
            reason: format!("unknown label `{}`", t.text),
        })
    };
    let get_class = |t: &Token| -> Result<ClassId, AsmError> {
        class_ids.get(&t.text).copied().ok_or(AsmError {
            line: t.line,
            reason: format!("unknown class `{}`", t.text),
        })
    };
    let get_static = |t: &Token| -> Result<StaticId, AsmError> {
        static_ids.get(&t.text).copied().ok_or(AsmError {
            line: t.line,
            reason: format!("unknown static `{}`", t.text),
        })
    };

    let mut i = 0usize;
    let next = |i: &mut usize| -> Result<&Token, AsmError> {
        let t = body.get(*i).ok_or(AsmError {
            line: body.last().map_or(0, |t| t.line),
            reason: "unexpected end of method body".into(),
        })?;
        *i += 1;
        Ok(t)
    };

    while i < body.len() {
        let t = next(&mut i)?;
        if let Some(name) = t.text.strip_suffix(':') {
            mb.bind(labels[name]);
            continue;
        }
        match t.text.as_str() {
            "const" => {
                let v = parse_int(next(&mut i)?)?;
                mb.const_(v);
            }
            "cnull" => {
                mb.const_null();
            }
            "load" => {
                let n = parse_int(next(&mut i)?)? as u16;
                mb.load(n);
            }
            "store" => {
                let n = parse_int(next(&mut i)?)? as u16;
                mb.store(n);
            }
            "add" => {
                mb.add();
            }
            "sub" => {
                mb.sub();
            }
            "mul" => {
                mb.mul();
            }
            "div" => {
                mb.div();
            }
            "rem" => {
                mb.rem();
            }
            "neg" => {
                mb.emit(crate::Insn::Neg);
            }
            "and" => {
                mb.emit(crate::Insn::And);
            }
            "or" => {
                mb.emit(crate::Insn::Or);
            }
            "xor" => {
                mb.emit(crate::Insn::Xor);
            }
            "shl" => {
                mb.emit(crate::Insn::Shl);
            }
            "shr" => {
                mb.emit(crate::Insn::Shr);
            }
            "pop" => {
                mb.pop();
            }
            "dup" => {
                mb.dup();
            }
            "swap" => {
                mb.swap();
            }
            "goto" => {
                let l = get_label(next(&mut i)?)?;
                mb.goto(l);
            }
            "ifcmp" => {
                let op = parse_cmp(next(&mut i)?)?;
                let l = get_label(next(&mut i)?)?;
                mb.if_cmp(op, l);
            }
            "ifnull" => {
                let l = get_label(next(&mut i)?)?;
                mb.if_null(l);
            }
            "ifnonnull" => {
                let l = get_label(next(&mut i)?)?;
                mb.if_non_null(l);
            }
            "ifrefeq" => {
                let l = get_label(next(&mut i)?)?;
                mb.if_ref_eq(l);
            }
            "ifrefne" => {
                let l = get_label(next(&mut i)?)?;
                mb.if_ref_ne(l);
            }
            "new" => {
                let c = get_class(next(&mut i)?)?;
                mb.new_object(c);
            }
            "getfield" => {
                let f = resolve_field(next(&mut i)?, class_ids, pb)?;
                mb.get_field(f);
            }
            "putfield" => {
                let f = resolve_field(next(&mut i)?, class_ids, pb)?;
                mb.put_field(f);
            }
            "getstatic" => {
                let s = get_static(next(&mut i)?)?;
                mb.get_static(s);
            }
            "putstatic" => {
                let s = get_static(next(&mut i)?)?;
                mb.put_static(s);
            }
            "newarray" => {
                let k = parse_kind(next(&mut i)?)?;
                mb.new_array(k);
            }
            "aload" => {
                mb.array_load();
            }
            "astore" => {
                mb.array_store();
            }
            "arraylen" => {
                mb.array_length();
            }
            "instanceof" => {
                let c = get_class(next(&mut i)?)?;
                mb.instance_of(c);
            }
            "checkcast" => {
                let c = get_class(next(&mut i)?)?;
                mb.check_cast(c);
            }
            "monitorenter" => {
                mb.monitor_enter();
            }
            "monitorexit" => {
                mb.monitor_exit();
            }
            "invokestatic" => {
                let t = next(&mut i)?;
                let id = method_ids.get(&(None, t.text.clone())).ok_or(AsmError {
                    line: t.line,
                    reason: format!("unknown static method `{}`", t.text),
                })?;
                mb.invoke_static(*id);
            }
            "invokevirtual" => {
                let t = next(&mut i)?;
                let (c, m) = t.text.split_once('.').ok_or(AsmError {
                    line: t.line,
                    reason: format!("expected `Class.method`, found `{}`", t.text),
                })?;
                let id = method_ids
                    .get(&(Some(c.to_string()), m.to_string()))
                    .ok_or(AsmError {
                        line: t.line,
                        reason: format!("unknown virtual method `{}`", t.text),
                    })?;
                mb.invoke_virtual(*id);
            }
            "ret" => {
                mb.return_();
            }
            "retv" => {
                mb.return_value();
            }
            "throw" => {
                mb.throw();
            }
            "athrow" => {
                mb.athrow();
            }
            "try" => {
                // try Lstart Lend Lhandler ClassName|*  — an exception-table
                // entry covering [Lstart, Lend) with a typed (or catch-all)
                // handler; entries match in declaration order.
                let start = get_label(next(&mut i)?)?;
                let end = get_label(next(&mut i)?)?;
                let handler = get_label(next(&mut i)?)?;
                let t = next(&mut i)?;
                let catch_class = if t.text == "*" {
                    None
                } else {
                    Some(get_class(t)?)
                };
                mb.exception_region(start, end, handler, catch_class);
            }
            other => {
                return Err(AsmError {
                    line: t.line,
                    reason: format!("unknown instruction `{other}`"),
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_program;

    const CACHE_EXAMPLE: &str = r#"
        # Listing 1 of the paper, hand-lowered.
        class Key {
            field idx int
            field ref ref
        }
        static cacheKey ref
        static cacheValue ref

        method virtual Key.equals 2 returns synchronized {
            load 0
            getfield Key.idx
            load 1
            getfield Key.idx
            ifcmp ne Lfalse
            load 0
            getfield Key.ref
            load 1
            getfield Key.ref
            ifrefne Lfalse
            const 1
            retv
        Lfalse:
            const 0
            retv
        }

        method getValue 2 returns {
            new Key
            store 2          // key
            load 2
            load 0
            putfield Key.idx
            load 2
            load 1
            putfield Key.ref
            load 2
            getstatic cacheKey
            invokevirtual Key.equals
            const 0
            ifcmp eq Lmiss
            getstatic cacheValue
            retv
        Lmiss:
            cnull
            retv
        }
    "#;

    #[test]
    fn parses_and_verifies_cache_example() {
        let p = parse_program(CACHE_EXAMPLE).unwrap();
        verify_program(&p).unwrap();
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.statics.len(), 2);
        assert_eq!(p.methods.len(), 2);
        let get_value = p.static_method_by_name("getValue").unwrap();
        assert!(p.method(get_value).returns_value);
        let key = p.class_by_name("Key").unwrap();
        assert!(p.declared_method_by_name(key, "equals").is_some());
        assert!(
            p.method(p.declared_method_by_name(key, "equals").unwrap())
                .is_synchronized
        );
    }

    #[test]
    fn reports_unknown_instruction_with_line() {
        let err = parse_program("method f 0 {\n  bogus\n  ret\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("bogus"));
    }

    #[test]
    fn reports_unknown_label() {
        let err = parse_program("method f 0 {\n  goto Lx\n  ret\n}").unwrap_err();
        assert!(err.reason.contains("unknown label"));
    }

    #[test]
    fn reports_unknown_class() {
        let err = parse_program("method f 0 {\n  new Zap\n  pop\n  ret\n}").unwrap_err();
        assert!(err.reason.contains("unknown class"));
    }

    /// A subclass declared before its superclass sees the inherited
    /// fields everywhere the sealed tables are consulted: the superclass
    /// link must be in place before `build` resolves them.
    #[test]
    fn extends_resolves_forward() {
        let p = parse_program(
            "class A extends B { field y ref }
             class B { field x int }
             method f 0 returns { new A getfield A.x retv }",
        )
        .unwrap();
        let a = p.class_by_name("A").unwrap();
        let b = p.class_by_name("B").unwrap();
        let x = p.field_by_name(a, "x").unwrap();
        let y = p.field_by_name(a, "y").unwrap();
        assert_eq!(p.class(a).superclass, Some(b));
        assert_eq!(p.field(x).class, b);
        assert_eq!(p.instance_fields(a), [x, y]);
        assert_eq!(p.slot_kinds(a), [ValueKind::Int, ValueKind::Ref]);
        assert_eq!(p.object_size(a), 16 + 2 * 8);
        assert_eq!(p.field_slot(a, x), Some(0));
        assert_eq!(p.field_slot(a, y), Some(1));
        assert_eq!(p.field_slot(b, y), None);
        assert!(p.is_subclass_of(a, b));
        assert!(!p.is_subclass_of(b, a));
    }

    #[test]
    fn cyclic_extends_is_an_error() {
        let err = parse_program("class A extends B { }\nclass B extends A { }").unwrap_err();
        assert!(err.reason.contains("cyclic"), "{}", err.reason);
    }

    #[test]
    fn braces_glued_to_tokens() {
        let p = parse_program("class A {}\nmethod f 0 {ret}").unwrap();
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.methods.len(), 1);
    }

    #[test]
    fn parses_try_regions_and_athrow() {
        let p = parse_program(
            "class Err { field code int }
             class IoErr extends Err { }
             method f 1 returns {
               try Ls Le Lh IoErr
               try Ls Le Lall *
             Ls:
               new IoErr
               athrow
             Le:
             Lh:
               pop
               const 1
               retv
             Lall:
               pop
               const 2
               retv
             }",
        )
        .unwrap();
        verify_program(&p).unwrap();
        let f = p.static_method_by_name("f").unwrap();
        let m = p.method(f);
        assert_eq!(m.exception_table.len(), 2);
        assert_eq!(m.exception_table[0].start, 0);
        assert_eq!(m.exception_table[0].end, 2);
        assert_eq!(m.exception_table[0].handler, 2);
        assert_eq!(
            m.exception_table[0].catch_class,
            Some(p.class_by_name("IoErr").unwrap())
        );
        assert_eq!(m.exception_table[1].catch_class, None);
        assert!(m.code.contains(&crate::Insn::Athrow));
    }

    #[test]
    fn labels_work_for_loops() {
        let p = parse_program(
            "method f 1 returns {\n  const 0\n  store 1\nLhead:\n  load 1\n  load 0\n  ifcmp ge Ldone\n  load 1\n  const 1\n  add\n  store 1\n  goto Lhead\nLdone:\n  load 1\n  retv\n}",
        )
        .unwrap();
        verify_program(&p).unwrap();
    }
}
