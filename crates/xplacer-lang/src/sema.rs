//! Semantic analysis helpers: scoped type environment, struct layout,
//! expression type inference, and l-value classification — everything the
//! instrumentation pass needs to decide *what* to wrap (paper §III-B) and
//! the interpreter needs to execute memory accesses.

use std::collections::HashMap;

use crate::ast::*;

/// Byte size of a type (pointers are 8 bytes; structs use natural
/// alignment layout).
pub fn size_of(prog: &Program, ty: &Type) -> u64 {
    match ty {
        Type::Void => 1,
        Type::Char => 1,
        Type::Int | Type::Float => 4,
        Type::Double | Type::SizeT | Type::Ptr(_) => 8,
        Type::Struct(name) => match prog.struct_def(name) {
            Some(def) => {
                let mut off = 0u64;
                let mut max_align = 1u64;
                for (ft, _) in &def.fields {
                    let a = align_of(prog, ft);
                    max_align = max_align.max(a);
                    off = off.div_ceil(a) * a + size_of(prog, ft);
                }
                off.div_ceil(max_align) * max_align
            }
            None => 0,
        },
    }
}

/// Natural alignment of a type.
pub fn align_of(prog: &Program, ty: &Type) -> u64 {
    match ty {
        Type::Void | Type::Char => 1,
        Type::Int | Type::Float => 4,
        Type::Double | Type::SizeT | Type::Ptr(_) => 8,
        Type::Struct(name) => prog
            .struct_def(name)
            .map(|d| {
                d.fields
                    .iter()
                    .map(|(t, _)| align_of(prog, t))
                    .max()
                    .unwrap_or(1)
            })
            .unwrap_or(1),
    }
}

/// Byte offset of `field` inside `struct name`.
pub fn field_offset(prog: &Program, name: &str, field: &str) -> Option<u64> {
    let def = prog.struct_def(name)?;
    let mut off = 0u64;
    for (ft, fname) in &def.fields {
        let a = align_of(prog, ft);
        off = off.div_ceil(a) * a;
        if fname == field {
            return Some(off);
        }
        off += size_of(prog, ft);
    }
    None
}

/// Type of `field` inside `struct name`.
pub fn field_type<'p>(prog: &'p Program, name: &str, field: &str) -> Option<&'p Type> {
    prog.struct_def(name)?
        .fields
        .iter()
        .find(|(_, f)| f == field)
        .map(|(t, _)| t)
}

/// A scoped variable-type environment.
pub struct TypeEnv<'p> {
    pub prog: &'p Program,
    scopes: Vec<HashMap<String, Type>>,
}

impl<'p> TypeEnv<'p> {
    /// Fresh environment with one (global) scope, pre-populated with the
    /// program's globals.
    pub fn new(prog: &'p Program) -> Self {
        let mut globals = HashMap::new();
        for item in &prog.items {
            if let Item::Global(g) = item {
                globals.insert(g.name.clone(), g.ty.clone());
            }
        }
        TypeEnv {
            prog,
            scopes: vec![globals],
        }
    }

    pub fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    pub fn pop(&mut self) {
        self.scopes.pop();
    }

    pub fn declare(&mut self, name: &str, ty: Type) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), ty);
    }

    pub fn lookup(&self, name: &str) -> Option<&Type> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Best-effort type inference.
    pub fn infer(&self, e: &Expr) -> Option<Type> {
        infer_type(self.prog, &|n| self.lookup(n).cloned(), e)
    }
}

/// Best-effort type inference of `e`, where `lookup` gives the declared
/// type of each name in scope.
pub fn infer_type(prog: &Program, lookup: &dyn Fn(&str) -> Option<Type>, e: &Expr) -> Option<Type> {
    let infer = |e: &Expr| infer_type(prog, lookup, e);
    match e {
        Expr::IntLit(_) => Some(Type::Int),
        Expr::FloatLit(_) => Some(Type::Double),
        Expr::StrLit(_) => Some(Type::Char.ptr()),
        Expr::Ident(n) => lookup(n),
        Expr::Unary(UnOp::Deref, b) => infer(b)?.pointee().cloned(),
        Expr::Unary(UnOp::Addr, b) => Some(infer(b)?.ptr()),
        Expr::Unary(_, b) | Expr::Postfix(_, b) => infer(b),
        Expr::Binary(op, a, b) => {
            use BinOp::*;
            match op {
                Eq | Ne | Lt | Gt | Le | Ge | And | Or => Some(Type::Int),
                _ => {
                    let ta = infer(a);
                    let tb = infer(b);
                    match (&ta, &tb) {
                        (Some(t), _) if t.is_ptr() => ta,
                        (_, Some(t)) if t.is_ptr() => tb,
                        (Some(Type::Double), _) | (_, Some(Type::Double)) => Some(Type::Double),
                        (Some(Type::Float), _) | (_, Some(Type::Float)) => Some(Type::Float),
                        _ => ta.or(tb),
                    }
                }
            }
        }
        Expr::Assign(_, lhs, _) => infer(lhs),
        Expr::Cond(_, t, _) => infer(t),
        Expr::Index(b, _) => infer(b)?.pointee().cloned(),
        Expr::Member(b, f, arrow) => {
            let bt = infer(b)?;
            let sname = if *arrow {
                match bt.pointee()? {
                    Type::Struct(s) => s.clone(),
                    _ => return None,
                }
            } else {
                match bt {
                    Type::Struct(s) => s,
                    _ => return None,
                }
            };
            field_type(prog, &sname, f).cloned()
        }
        Expr::Cast(t, _) => Some(t.clone()),
        Expr::SizeofType(_) | Expr::SizeofExpr(_) => Some(Type::SizeT),
        Expr::KernelLaunch { .. } => Some(Type::Void),
        Expr::Call(name, args) => match name.as_str() {
            // The trace wrappers are type-transparent (template
            // identity functions in the paper's header).
            "traceR" | "traceW" | "traceRW" => args.first().and_then(infer),
            "__new" | "__new_array" => match args.first() {
                Some(Expr::SizeofType(t)) => Some(t.clone().ptr()),
                _ => Some(Type::Void.ptr()),
            },
            _ => prog.func(name).map(|f| f.ret.clone()).or(Some(Type::Int)),
        },
    }
}

/// Classification of an expression as an assignable location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LvalueClass {
    /// Not an l-value at all.
    NotLvalue,
    /// A named local/global variable — lives in a register or static
    /// storage; the instrumentation elides these (paper §III-B: "when
    /// variables that have non-reference type are accessed").
    Local,
    /// A dereference, index, or pointer-member access — possibly heap
    /// memory; the instrumentation wraps these.
    Heap,
}

/// Classify `e` as an l-value.
pub fn classify_lvalue(e: &Expr) -> LvalueClass {
    match e {
        Expr::Ident(_) => LvalueClass::Local,
        Expr::Unary(UnOp::Deref, _) => LvalueClass::Heap,
        Expr::Index(_, _) => LvalueClass::Heap,
        Expr::Member(_, _, true) => LvalueClass::Heap,
        Expr::Member(b, _, false) => classify_lvalue(b),
        // An already-wrapped trace call stays an l-value of its inner
        // expression's class (the wrappers return references).
        Expr::Call(name, args) if name == "traceR" || name == "traceW" || name == "traceRW" => args
            .first()
            .map(classify_lvalue)
            .unwrap_or(LvalueClass::NotLvalue),
        Expr::Cast(_, b) => classify_lvalue(b),
        _ => LvalueClass::NotLvalue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    fn pair_prog() -> Program {
        parse(
            r#"
            struct Pair { int* first; int* second; };
            struct Mixed { char c; double d; int i; };
            double* g;
            int getN() { return 4; }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn sizes_and_alignment() {
        let p = pair_prog();
        assert_eq!(size_of(&p, &Type::Int), 4);
        assert_eq!(size_of(&p, &Type::Double.ptr()), 8);
        assert_eq!(size_of(&p, &Type::Struct("Pair".into())), 16);
        // Mixed: char @0, double @8 (padded), int @16 → padded to 24.
        assert_eq!(size_of(&p, &Type::Struct("Mixed".into())), 24);
        assert_eq!(align_of(&p, &Type::Struct("Mixed".into())), 8);
    }

    #[test]
    fn field_offsets() {
        let p = pair_prog();
        assert_eq!(field_offset(&p, "Pair", "first"), Some(0));
        assert_eq!(field_offset(&p, "Pair", "second"), Some(8));
        assert_eq!(field_offset(&p, "Mixed", "d"), Some(8));
        assert_eq!(field_offset(&p, "Mixed", "i"), Some(16));
        assert_eq!(field_offset(&p, "Mixed", "nope"), None);
    }

    #[test]
    fn type_inference_through_pointers() {
        let p = pair_prog();
        let mut env = TypeEnv::new(&p);
        env.push();
        env.declare("a", Type::Struct("Pair".into()).ptr());
        env.declare("i", Type::Int);

        let e = parse_expr("a->first[i]").unwrap();
        assert_eq!(env.infer(&e), Some(Type::Int));
        let e = parse_expr("*g").unwrap();
        assert_eq!(env.infer(&e), Some(Type::Double));
        let e = parse_expr("&i").unwrap();
        assert_eq!(env.infer(&e), Some(Type::Int.ptr()));
        let e = parse_expr("g + i").unwrap();
        assert_eq!(env.infer(&e), Some(Type::Double.ptr()));
        let e = parse_expr("i < 3").unwrap();
        assert_eq!(env.infer(&e), Some(Type::Int));
        let e = parse_expr("getN()").unwrap();
        assert_eq!(env.infer(&e), Some(Type::Int));
        let e = parse_expr("sizeof(double)").unwrap();
        assert_eq!(env.infer(&e), Some(Type::SizeT));
    }

    #[test]
    fn trace_wrappers_are_type_transparent() {
        let p = pair_prog();
        let mut env = TypeEnv::new(&p);
        env.push();
        env.declare("p", Type::Double.ptr());
        let e = parse_expr("traceR(*p)").unwrap();
        assert_eq!(env.infer(&e), Some(Type::Double));
    }

    #[test]
    fn lvalue_classification_matches_paper_rules() {
        // Heap: dereference, index, arrow member.
        assert_eq!(
            classify_lvalue(&parse_expr("*p").unwrap()),
            LvalueClass::Heap
        );
        assert_eq!(
            classify_lvalue(&parse_expr("p[3]").unwrap()),
            LvalueClass::Heap
        );
        assert_eq!(
            classify_lvalue(&parse_expr("a->first").unwrap()),
            LvalueClass::Heap
        );
        assert_eq!(
            classify_lvalue(&parse_expr("a->first[0]").unwrap()),
            LvalueClass::Heap
        );
        // Local: plain variables and members of local structs.
        assert_eq!(
            classify_lvalue(&parse_expr("x").unwrap()),
            LvalueClass::Local
        );
        assert_eq!(
            classify_lvalue(&parse_expr("s.field").unwrap()),
            LvalueClass::Local
        );
        // Heap through a local struct holding... a heap base:
        assert_eq!(
            classify_lvalue(&parse_expr("p[i].field").unwrap()),
            LvalueClass::Heap
        );
        // Not l-values.
        assert_eq!(
            classify_lvalue(&parse_expr("x + 1").unwrap()),
            LvalueClass::NotLvalue
        );
        assert_eq!(
            classify_lvalue(&parse_expr("f(x)").unwrap()),
            LvalueClass::NotLvalue
        );
    }

    #[test]
    fn scopes_shadow() {
        let p = pair_prog();
        let mut env = TypeEnv::new(&p);
        assert_eq!(env.lookup("g"), Some(&Type::Double.ptr()));
        env.push();
        env.declare("g", Type::Int);
        assert_eq!(env.lookup("g"), Some(&Type::Int));
        env.pop();
        assert_eq!(env.lookup("g"), Some(&Type::Double.ptr()));
    }
}
