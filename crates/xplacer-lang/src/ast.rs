//! Abstract syntax tree for MiniCU — the C/CUDA subset the XPlacer
//! instrumentation pass operates on (the stand-in for ROSE's AST).

use std::fmt;

/// Types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    Void,
    Int,
    Float,
    Double,
    Char,
    SizeT,
    /// Pointer to a pointee type.
    Ptr(Box<Type>),
    /// A named struct type.
    Struct(String),
}

impl Type {
    /// Wrap in one level of pointer.
    pub fn ptr(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// Whether this is any pointer type.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            _ => None,
        }
    }

    /// Whether values of this type are scalar (fit a register).
    pub fn is_scalar(&self) -> bool {
        !matches!(self, Type::Struct(_) | Type::Void)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Double => write!(f, "double"),
            Type::Char => write!(f, "char"),
            Type::SizeT => write!(f, "size_t"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Struct(n) => write!(f, "struct {n}"),
        }
    }
}

/// A 1-based `line:col` source position attached to statements so
/// runtime diagnostics (the `xplacer check` sanitizer) can point back
/// into the MiniCU source.
///
/// Spans compare equal to *every* other span: structural AST equality
/// (`parse(unparse(p)) == p`, instrumentation idempotency) must ignore
/// positions, since synthesized nodes carry the unknown span `0:0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl Span {
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }

    /// Whether this span points at real source (synthesized nodes don't).
    pub fn is_known(&self) -> bool {
        self.line != 0
    }
}

impl PartialEq for Span {
    fn eq(&self, _: &Span) -> bool {
        true
    }
}

impl Eq for Span {}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// CUDA function qualifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Qualifier {
    Global,
    Device,
    Host,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinOp {
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
    /// `*e`
    Deref,
    /// `&e`
    Addr,
    /// `++e` / `--e`
    PreInc,
    PreDec,
}

/// Postfix `e++` / `e--`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostOp {
    Inc,
    Dec,
}

/// Compound assignment operators (plain `=` is `Assign::Set`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    Set,
    Add,
    Sub,
    Mul,
    Div,
}

impl AssignOp {
    pub fn symbol(self) -> &'static str {
        match self {
            AssignOp::Set => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    IntLit(i64),
    FloatLit(f64),
    StrLit(String),
    Ident(String),
    Unary(UnOp, Box<Expr>),
    Postfix(PostOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    /// `cond ? then : else`
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    Call(String, Vec<Expr>),
    /// `kernel<<<grid, block[, shmem[, stream]]>>>(args)`
    KernelLaunch {
        name: String,
        grid: Box<Expr>,
        block: Box<Expr>,
        /// Optional dynamic shared-memory size (third launch-config arg).
        shmem: Option<Box<Expr>>,
        /// Optional stream handle (fourth launch-config arg). A launch
        /// with a stream completes asynchronously, like `cudaMemcpyAsync`.
        stream: Option<Box<Expr>>,
        args: Vec<Expr>,
    },
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>),
    /// `base.field` (`arrow = false`) or `base->field` (`arrow = true`)
    Member(Box<Expr>, String, bool),
    Cast(Type, Box<Expr>),
    SizeofType(Type),
    SizeofExpr(Box<Expr>),
}

impl Expr {
    pub fn ident(s: &str) -> Expr {
        Expr::Ident(s.to_string())
    }

    pub fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Call(name.to_string(), args)
    }
}

/// A local/global variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    pub ty: Type,
    pub name: String,
    pub init: Option<Expr>,
    /// Source position of the declaration (equality-neutral).
    pub span: Span,
}

/// XPlacer pragmas (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub enum XplPragma {
    /// `#pragma xpl replace <name>` — the next function declaration
    /// replaces calls to `<name>`. `kernel-launch` as the name replaces
    /// kernel launches.
    Replace { target: String },
    /// `#pragma xpl diagnostic fn(verbatim...; expanded...)`
    Diagnostic {
        func: String,
        verbatim: Vec<String>,
        expanded: Vec<String>,
    },
    /// An unrecognized `#pragma`/`#include` line, kept for round-tripping.
    Other(String),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Decl(VarDecl),
    /// An expression statement, carrying its (equality-neutral) source
    /// position for runtime diagnostics.
    Expr(Expr, Span),
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Vec<Stmt>,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Vec<Stmt>),
    Pragma(XplPragma),
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub ty: Type,
    pub name: String,
}

/// A function definition or declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    pub qualifiers: Vec<Qualifier>,
    pub ret: Type,
    pub name: String,
    pub params: Vec<Param>,
    /// `None` for a pure declaration (prototype).
    pub body: Option<Vec<Stmt>>,
}

impl Func {
    pub fn is_kernel(&self) -> bool {
        self.qualifiers.contains(&Qualifier::Global)
    }
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<(Type, String)>,
}

/// Top-level items.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Func(Func),
    Struct(StructDef),
    Global(VarDecl),
    Pragma(XplPragma),
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub items: Vec<Item>,
}

impl Program {
    /// Find a function by name: its first definition, else its first
    /// declaration (a prototype above the body does not hide it).
    pub fn func(&self, name: &str) -> Option<&Func> {
        let mut named = self.funcs().filter(|f| f.name == name);
        let first = named.next()?;
        if first.body.is_some() {
            return Some(first);
        }
        Some(named.find(|f| f.body.is_some()).unwrap_or(first))
    }

    /// Find a struct definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.items.iter().find_map(|i| match i {
            Item::Struct(s) if s.name == name => Some(s),
            _ => None,
        })
    }

    /// All function definitions.
    pub fn funcs(&self) -> impl Iterator<Item = &Func> {
        self.items.iter().filter_map(|i| match i {
            Item::Func(f) => Some(f),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display_and_helpers() {
        let t = Type::Double.ptr();
        assert_eq!(t.to_string(), "double*");
        assert!(t.is_ptr());
        assert_eq!(t.pointee(), Some(&Type::Double));
        assert!(Type::Int.is_scalar());
        assert!(!Type::Struct("S".into()).is_scalar());
        assert_eq!(Type::Struct("S".into()).to_string(), "struct S");
    }

    #[test]
    fn program_lookups() {
        let func = |name: &str, body: Option<Vec<Stmt>>| {
            Item::Func(Func {
                qualifiers: vec![Qualifier::Global],
                ret: Type::Void,
                name: name.into(),
                params: vec![],
                body,
            })
        };
        let p = Program {
            items: vec![
                Item::Struct(StructDef {
                    name: "Pair".into(),
                    fields: vec![(Type::Int.ptr(), "first".into())],
                }),
                func("k", Some(vec![])),
                func("proto", None),
                func("proto", Some(vec![Stmt::Break])),
                func("decl_only", None),
            ],
        };
        assert!(p.func("k").unwrap().is_kernel());
        assert!(p.func("missing").is_none());
        // A definition wins over a prototype declared above it.
        assert_eq!(p.func("proto").unwrap().body, Some(vec![Stmt::Break]));
        assert!(p.func("decl_only").unwrap().body.is_none());
        assert_eq!(p.struct_def("Pair").unwrap().fields.len(), 1);
        assert_eq!(p.funcs().count(), 4);
    }

    #[test]
    fn operator_symbols() {
        assert_eq!(BinOp::Shl.symbol(), "<<");
        assert_eq!(AssignOp::Add.symbol(), "+=");
    }
}
