//! Name resolution, run once per program after instrumentation.
//!
//! The pass builds the function table (a definition wins over a
//! prototype) and lays out one frame per function body: its parameters,
//! then one slot per `Decl` in program order, each with its name and
//! declared type. Every `Ident` the table's bodies or the global
//! initializers can evaluate is bound lexically to a slot of its own
//! function's frame, to a global slot, or to nothing. An unbound name is
//! not an error here: it may still be a builtin constant, and a name that
//! is never evaluated never fails the run.
//!
//! Bindings live in side tables keyed by the address of the AST node.
//! The interpreter keeps the program behind an `Rc` and never mutates
//! it, so those addresses are stable for as long as the tables live.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use xplacer_lang::ast::*;

/// What an identifier names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Binding {
    /// A slot of the frame running the identifier's function.
    Local(usize),
    /// A global slot; it holds no value until its declaration has run.
    Global(usize),
    /// No declaration in scope.
    Unresolved,
}

/// A frame slot: the variable's name (which labels allocations made
/// through `&name`) and its declared type.
#[derive(Debug)]
pub(crate) struct Slot {
    pub name: String,
    pub ty: Type,
}

/// A callable function and its frame layout.
pub(crate) struct FuncInfo {
    /// Index of the `Item::Func` in `Program::items`.
    item: usize,
    /// Parameters first, then every local declaration of the body.
    pub slots: Vec<Slot>,
}

/// The resolver's result for one program.
pub(crate) struct Resolved {
    by_name: HashMap<String, usize>,
    pub funcs: Vec<FuncInfo>,
    /// Global slots in order of first declaration; a redeclared global
    /// reuses its slot.
    pub globals: Vec<Slot>,
    idents: NodeMap<Binding>,
    decls: NodeMap<usize>,
}

impl Resolved {
    /// The function table entry for `name`.
    pub fn func_id(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// The function behind a table entry.
    pub fn func<'p>(&self, prog: &'p Program, id: usize) -> &'p Func {
        match &prog.items[self.funcs[id].item] {
            Item::Func(f) => f,
            _ => unreachable!("the function table indexes function items"),
        }
    }

    /// The binding of an `Expr::Ident` node.
    pub fn binding(&self, ident: &Expr) -> Binding {
        self.idents
            .get(&node_key(ident))
            .copied()
            .unwrap_or(Binding::Unresolved)
    }

    /// The slot of a declaration (local, or global for a global item).
    pub fn decl_slot(&self, d: &VarDecl) -> usize {
        *self
            .decls
            .get(&node_key(d))
            .expect("every executed declaration is resolved")
    }
}

/// Resolve `prog`: function table, frame layouts and identifier bindings.
pub(crate) fn resolve(prog: &Program) -> Resolved {
    let mut res = Resolved {
        by_name: HashMap::new(),
        funcs: Vec::new(),
        globals: Vec::new(),
        idents: NodeMap::default(),
        decls: NodeMap::default(),
    };
    let mut global_slots: HashMap<&str, usize> = HashMap::new();
    for (i, item) in prog.items.iter().enumerate() {
        match item {
            Item::Func(f) => match res.by_name.get(&f.name) {
                None => {
                    res.by_name.insert(f.name.clone(), res.funcs.len());
                    res.funcs.push(FuncInfo {
                        item: i,
                        slots: Vec::new(),
                    });
                }
                // The same rule as `Program::func`: the first definition
                // wins over any prototype.
                Some(&id) if f.body.is_some() && res.func(prog, id).body.is_none() => {
                    res.funcs[id].item = i;
                }
                Some(_) => {}
            },
            Item::Global(g) => {
                let next = res.globals.len();
                let slot = *global_slots.entry(&g.name).or_insert(next);
                if slot == next {
                    res.globals.push(Slot {
                        name: g.name.clone(),
                        ty: g.ty.clone(),
                    });
                }
                res.decls.insert(node_key(g), slot);
            }
            Item::Struct(_) | Item::Pragma(_) => {}
        }
    }
    // Global initializers run in frame 0, where no local is in scope.
    for item in &prog.items {
        if let Item::Global(VarDecl { init: Some(e), .. }) = item {
            let mut r = Resolver::new(&global_slots, &mut res.idents, &mut res.decls);
            r.expr(e);
        }
    }
    for id in 0..res.funcs.len() {
        let f = res.func(prog, id);
        let Some(body) = &f.body else { continue };
        let mut r = Resolver::new(&global_slots, &mut res.idents, &mut res.decls);
        for p in &f.params {
            r.declare(&p.name, &p.ty);
        }
        r.block(body);
        res.funcs[id].slots = r.slots;
    }
    res
}

/// Walks one function body (or one global initializer) with the locals
/// in scope at each point.
struct Resolver<'p, 't> {
    globals: &'t HashMap<&'p str, usize>,
    idents: &'t mut NodeMap<Binding>,
    decls: &'t mut NodeMap<usize>,
    /// Visible locals, innermost last.
    scope: Vec<(&'p str, usize)>,
    slots: Vec<Slot>,
}

impl<'p, 't> Resolver<'p, 't> {
    fn new(
        globals: &'t HashMap<&'p str, usize>,
        idents: &'t mut NodeMap<Binding>,
        decls: &'t mut NodeMap<usize>,
    ) -> Self {
        Resolver {
            globals,
            idents,
            decls,
            scope: Vec::new(),
            slots: Vec::new(),
        }
    }

    fn declare(&mut self, name: &'p str, ty: &Type) -> usize {
        let slot = self.slots.len();
        self.slots.push(Slot {
            name: name.to_string(),
            ty: ty.clone(),
        });
        self.scope.push((name, slot));
        slot
    }

    /// Resolve `stmts` in a scope of their own, as the interpreter runs
    /// every block, branch and loop body.
    fn block(&mut self, stmts: &'p [Stmt]) {
        let mark = self.scope.len();
        for s in stmts {
            self.stmt(s);
        }
        self.scope.truncate(mark);
    }

    fn stmt(&mut self, s: &'p Stmt) {
        match s {
            Stmt::Decl(d) => {
                // The initializer sees the enclosing `x` in `int x = x;`.
                if let Some(e) = &d.init {
                    self.expr(e);
                }
                let slot = self.declare(&d.name, &d.ty);
                self.decls.insert(node_key(d), slot);
            }
            Stmt::Expr(e, _) | Stmt::Return(Some(e)) => self.expr(e),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                self.block(then_branch);
                self.block(else_branch);
            }
            Stmt::While { cond, body } => {
                self.expr(cond);
                self.block(body);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // The loop variable lives in a scope around the body.
                let mark = self.scope.len();
                if let Some(i) = init {
                    self.stmt(i);
                }
                for e in cond.iter().chain(step) {
                    self.expr(e);
                }
                self.block(body);
                self.scope.truncate(mark);
            }
            Stmt::Block(b) => self.block(b),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Pragma(_) => {}
        }
    }

    fn expr(&mut self, e: &'p Expr) {
        match e {
            Expr::Ident(n) => {
                let b = match self.scope.iter().rev().find(|(name, _)| name == n) {
                    Some(&(_, slot)) => Binding::Local(slot),
                    None => match self.globals.get(n.as_str()) {
                        Some(&slot) => Binding::Global(slot),
                        None => Binding::Unresolved,
                    },
                };
                self.idents.insert(node_key(e), b);
            }
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::StrLit(_) | Expr::SizeofType(_) => {}
            // Typed statically, never evaluated.
            Expr::SizeofExpr(_) => {}
            Expr::Unary(_, b) | Expr::Postfix(_, b) | Expr::Member(b, _, _) | Expr::Cast(_, b) => {
                self.expr(b)
            }
            Expr::Binary(_, a, b) | Expr::Assign(_, a, b) | Expr::Index(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            Expr::Cond(c, t, f) => {
                self.expr(c);
                self.expr(t);
                self.expr(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    self.expr(a);
                }
            }
            Expr::KernelLaunch {
                grid,
                block,
                shmem,
                stream,
                args,
                ..
            } => {
                self.expr(grid);
                self.expr(block);
                for e in shmem.iter().chain(stream) {
                    self.expr(e);
                }
                for a in args {
                    self.expr(a);
                }
            }
        }
    }
}

fn node_key<T>(node: &T) -> usize {
    node as *const T as usize
}

/// A map keyed by node address.
type NodeMap<V> = HashMap<usize, V, BuildHasherDefault<NodeHasher>>;

/// One multiply per key. Node addresses are distinct and aligned, so the
/// product's high half (swapped into the low bits the table indexes by)
/// spreads them without SipHash's cost on every variable access.
#[derive(Default)]
struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("node maps are keyed by usize")
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}
