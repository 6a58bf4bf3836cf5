//! # xplacer-interp — executes MiniCU programs on the simulator
//!
//! The back half of the XPlacer toolchain: where the paper compiles the
//! instrumented source with nvcc and links the runtime library, this
//! crate *interprets* the (instrumented or original) MiniCU AST against a
//! [`hetsim::Machine`]. Heap accesses are performed — and costed — by the
//! simulator; the `trace*`/`trc*` wrapper calls that the instrumentation
//! pass inserted drive an [`xplacer_core::Tracer`] exactly like the
//! paper's runtime library, including `tracePrint` diagnostics.
//!
//! Running the *original* program corresponds to the uninstrumented
//! baseline; running the *instrumented* program produces the trace.
//!
//! Names are resolved once per program (`resolve.rs`): execution calls
//! through a function table and reads variables from frame slots, and
//! builds or clones no AST node.

use std::rc::Rc;

use hetsim::{Addr, AllocKind, CopyKind, Device, Machine, MemAdvise, SimError};
use xplacer_core::{diagnostic, Tracer, XplAllocData};
use xplacer_lang::ast::*;
use xplacer_lang::sema::{field_offset, field_type, size_of, TypeEnv};

mod resolve;

use resolve::{Binding, Resolved};

/// Execution error (program bug or unsupported construct).
#[derive(Debug, Clone, PartialEq)]
pub struct RunError {
    pub message: String,
    /// The structured simulator fault behind this error, when the program
    /// trapped in the machine (OOB, use-after-free, ...). Lets tools like
    /// `xplacer check` classify the defect instead of parsing the message.
    pub sim: Option<SimError>,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError {
            message: e.to_string(),
            sim: Some(e),
        }
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, RunError> {
    Err(RunError {
        message: msg.into(),
        sim: None,
    })
}

type RResult<T> = Result<T, RunError>;

/// A pointer value.
#[derive(Debug, Clone, PartialEq)]
pub enum PtrVal {
    Null,
    /// A simulated heap address with its pointee type.
    Heap {
        addr: Addr,
        ty: Type,
    },
    /// Address of an interpreter variable (supports `&p` out-params like
    /// `cudaMalloc((void**)&p, n)`): a slot of a call frame, where frame
    /// 0 holds the globals.
    Local {
        frame: usize,
        slot: usize,
    },
}

/// Runtime values.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Double(f64),
    Str(String),
    Ptr(PtrVal),
    Alloc(XplAllocData),
    Void,
}

impl Value {
    fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Double(v) => *v != 0.0,
            Value::Ptr(PtrVal::Null) => false,
            Value::Ptr(_) => true,
            Value::Str(s) => !s.is_empty(),
            _ => false,
        }
    }

    fn as_int(&self) -> RResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Double(v) => Ok(*v as i64),
            Value::Ptr(PtrVal::Null) => Ok(0),
            Value::Ptr(PtrVal::Heap { addr, .. }) => Ok(*addr as i64),
            other => err(format!("expected integer, got {other:?}")),
        }
    }

    fn as_double(&self) -> RResult<f64> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Double(v) => Ok(*v),
            other => err(format!("expected number, got {other:?}")),
        }
    }
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
enum Place {
    Heap { addr: Addr, ty: Type },
    Local { frame: usize, slot: usize },
}

#[allow(dead_code)] // Normal's value is kept for debugging clarity
enum Flow {
    /// Fall through to the next statement (the value is only observed
    /// by expression statements' tests; keep it simple and drop it).
    Normal(Value),
    Break,
    Continue,
    Return(Value),
}

struct Frame {
    /// The function running in this frame; `None` for frame 0, whose
    /// slots are the globals initialized so far.
    func: Option<usize>,
    slots: Vec<Value>,
}

struct KState {
    tid: usize,
    block: i64,
    grid: i64,
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `main`'s return value.
    pub exit: i64,
    /// Captured `printf`/`tracePrint` output.
    pub stdout: String,
    /// Simulated time.
    pub elapsed_ns: f64,
    /// Simulator counters.
    pub stats: hetsim::Stats,
}

/// The interpreter.
pub struct Interp {
    /// Shared so a call can borrow its body while the interpreter runs it.
    prog: Rc<Program>,
    res: Resolved,
    /// The simulated node the program runs on.
    pub machine: Machine,
    /// The runtime tracer, driven by the instrumented `trace*`/`trc*`
    /// calls (not by a machine hook — this is source-level tracing).
    pub tracer: Tracer,
    frames: Vec<Frame>,
    /// Captured program output.
    pub stdout: String,
    kernel: Option<KState>,
    steps: u64,
    /// Abort after this many evaluation steps (runaway-loop guard).
    pub max_steps: u64,
    /// Anti-pattern reports collected at each `tracePrint` call (the
    /// paper's diagnostic points), in program order.
    pub reports: Vec<xplacer_core::Report>,
}

impl Interp {
    pub fn new(prog: Program, machine: Machine) -> Self {
        // The resolver keys its tables by node address: resolve the
        // program where it will stay.
        let prog = Rc::new(prog);
        let res = resolve::resolve(&prog);
        Interp {
            prog,
            res,
            machine,
            tracer: Tracer::new(),
            frames: vec![Frame {
                func: None,
                slots: Vec::new(),
            }],
            stdout: String::new(),
            kernel: None,
            steps: 0,
            max_steps: 2_000_000_000,
            reports: Vec::new(),
        }
    }

    /// Execute `main()` and collect the outcome.
    pub fn run_main(&mut self) -> RResult<Outcome> {
        // Initialize globals in declaration order; a global's slot is
        // only readable once its first declaration has run.
        let prog = Rc::clone(&self.prog);
        for item in &prog.items {
            let Item::Global(g) = item else { continue };
            let v = match &g.init {
                Some(e) => {
                    let v = self.eval(e)?;
                    coerce(v, &g.ty)
                }
                None => default_value(&g.ty),
            };
            let slot = self.res.decl_slot(g);
            let globals = &mut self.frames[0].slots;
            if slot == globals.len() {
                globals.push(v);
            } else {
                globals[slot] = v;
            }
        }
        let exit = self.call("main", vec![])?.as_int().unwrap_or(0);
        Ok(Outcome {
            exit,
            stdout: self.stdout.clone(),
            elapsed_ns: self.machine.elapsed_ns(),
            stats: self.machine.stats.clone(),
        })
    }

    fn tick(&mut self) -> RResult<()> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return err("step budget exceeded (runaway loop?)");
        }
        Ok(())
    }

    fn cur_dev(&self) -> Device {
        if self.kernel.is_some() {
            Device::GPU0
        } else {
            Device::Cpu
        }
    }

    // ------------------------------------------------------------------
    // Variables
    // ------------------------------------------------------------------

    /// The `(frame, slot)` an identifier names, if that variable exists
    /// now: a local of the running function, or a global whose
    /// declaration has run.
    fn lookup(&self, ident: &Expr) -> Option<(usize, usize)> {
        match self.res.binding(ident) {
            Binding::Local(slot) => Some((self.frames.len() - 1, slot)),
            Binding::Global(slot) if slot < self.frames[0].slots.len() => Some((0, slot)),
            _ => None,
        }
    }

    /// The value of the variable an identifier names, if it exists now.
    fn var(&self, ident: &Expr) -> Option<&Value> {
        self.lookup(ident)
            .map(|(frame, slot)| &self.frames[frame].slots[slot])
    }

    /// The variable at `(frame, slot)`. Only a pointer to a local of a
    /// call that has returned can name a frame that no longer exists.
    fn var_mut(&mut self, frame: usize, slot: usize) -> RResult<&mut Value> {
        match self
            .frames
            .get_mut(frame)
            .and_then(|f| f.slots.get_mut(slot))
        {
            Some(v) => Ok(v),
            None => err("use of a pointer to a local of a returned call"),
        }
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    /// Call a function by name with evaluated arguments.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> RResult<Value> {
        if let Some(v) = self.builtin(name, &args)? {
            return Ok(v);
        }
        let Some(id) = self.res.func_id(name) else {
            return err(format!("call to unknown function `{name}`"));
        };
        let prog = Rc::clone(&self.prog);
        let f = self.res.func(&prog, id);
        let Some(body) = &f.body else {
            return err(format!("call to function `{name}` with no body"));
        };
        check_arity(f, &args)?;
        if self.frames.len() > 64 {
            return err("call stack overflow");
        }
        self.push_frame(id, f, &args);
        let flow = self.exec_block(body);
        self.frames.pop();
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Void),
        }
    }

    /// Enter table entry `id` (the function `f`): a fresh frame with the
    /// arguments bound to the parameter slots.
    fn push_frame(&mut self, id: usize, f: &Func, args: &[Value]) {
        let size = self.res.funcs[id].slots.len();
        let mut slots = Vec::with_capacity(size);
        slots.extend(
            f.params
                .iter()
                .zip(args)
                .map(|(p, a)| coerce(a.clone(), &p.ty)),
        );
        slots.resize(size, Value::Void);
        self.frames.push(Frame {
            func: Some(id),
            slots,
        });
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn exec_block(&mut self, stmts: &[Stmt]) -> RResult<Flow> {
        for s in stmts {
            match self.exec_stmt(s)? {
                Flow::Normal(_) => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal(Value::Void))
    }

    /// Report a known statement position to the machine's hook so runtime
    /// diagnostics can point into the source. Unknown (synthesized) spans
    /// keep the previous site.
    fn note_site(&mut self, sp: Span) {
        if sp.is_known() {
            self.machine.note_site(sp.line, sp.col);
        }
    }

    fn exec_stmt(&mut self, s: &Stmt) -> RResult<Flow> {
        self.tick()?;
        match s {
            Stmt::Decl(d) => {
                self.note_site(d.span);
                let v = match &d.init {
                    Some(e) => {
                        let v = self.eval(e)?;
                        // `int* a = (int*)malloc(n)` names the allocation
                        // "a" in runtime diagnostics, matching the label
                        // cudaMalloc gets from its out-parameter.
                        if let (true, Value::Ptr(pv)) = (init_is_allocator(e), &v) {
                            let addr = ptr_addr(pv);
                            if addr != 0 {
                                self.machine.note_alloc_label(addr, &d.name);
                            }
                        }
                        coerce(v, &d.ty)
                    }
                    None => default_value(&d.ty),
                };
                let slot = self.res.decl_slot(d);
                self.frames.last_mut().expect("a call frame").slots[slot] = v;
                Ok(Flow::Normal(Value::Void))
            }
            Stmt::Expr(e, sp) => {
                self.note_site(*sp);
                let v = self.eval(e)?;
                Ok(Flow::Normal(v))
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then_branch)
                } else {
                    self.exec_block(else_branch)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.truthy() {
                    self.tick()?;
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal(Value::Void))
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(flow) = self.try_for_sweep(init, cond, step, body)? {
                    return Ok(flow);
                }
                if let Some(i) = init {
                    self.exec_stmt(i)?;
                }
                loop {
                    self.tick()?;
                    if let Some(c) = cond {
                        if !self.eval(c)?.truthy() {
                            break;
                        }
                    }
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if let Some(st) = step {
                        self.eval(st)?;
                    }
                }
                Ok(Flow::Normal(Value::Void))
            }
            Stmt::Pragma(_) => Ok(Flow::Normal(Value::Void)), // inert at runtime
        }
    }

    // ------------------------------------------------------------------
    // Array-sweep fast path
    // ------------------------------------------------------------------

    /// Recognize `for (i = a; i < n; i++)` loops whose body is a single
    /// constant fill (`p[i] = c;`) or additive reduction (`acc += p[i];`
    /// / `acc = acc + p[i];`, possibly `trace*`-wrapped by the
    /// instrumentation pass) over a scalar-typed heap array, and execute
    /// them through the machine's bulk range APIs — one UM-driver
    /// resolution per page instead of one per element — plus one
    /// vectorized tracer call when instrumented. Returns `None` (and has
    /// no side effects) whenever the loop doesn't match or the range
    /// would fault, so the generic loop reproduces errors and partial
    /// effects exactly; the conformance suite runs programs with bulk
    /// disabled to check the two paths agree bit-for-bit.
    fn try_for_sweep(
        &mut self,
        init: &Option<Box<Stmt>>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &[Stmt],
    ) -> RResult<Option<Flow>> {
        if !self.machine.bulk_enabled() {
            return Ok(None);
        }
        // init: `int i = <lit>` (loop-scoped) or `i = <lit>` (existing,
        // whose location the sweep updates at the end).
        let (var, start, existing) = match init.as_deref() {
            Some(Stmt::Decl(d)) if matches!(d.ty, Type::Int | Type::SizeT) => {
                match d.init.as_ref().and_then(const_int) {
                    Some(v) => (d.name.as_str(), v, None),
                    None => return Ok(None),
                }
            }
            Some(Stmt::Expr(Expr::Assign(AssignOp::Set, lhs, rhs), _)) => {
                match (&**lhs, const_int(rhs), self.lookup(lhs)) {
                    (Expr::Ident(n), Some(v), Some(at)) => (n.as_str(), v, Some(at)),
                    _ => return Ok(None),
                }
            }
            _ => return Ok(None),
        };
        // cond: `i < n` with n a literal or an int variable the body
        // cannot touch (the body only writes `p[i]` or `acc`).
        let is_var = |e: &Expr| is_ident(e, var);
        let mut limit_name = None;
        let limit = match cond {
            Some(Expr::Binary(BinOp::Lt, a, b)) if is_var(a) => match &**b {
                Expr::IntLit(v) => *v,
                Expr::Ident(m) if m != var => match self.var(b) {
                    Some(Value::Int(v)) => {
                        limit_name = Some(m.as_str());
                        *v
                    }
                    _ => return Ok(None),
                },
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        // step: `i++` / `++i` / `i += 1` / `i = i + 1`.
        let step_ok = match step {
            Some(Expr::Postfix(PostOp::Inc, b)) => is_var(b),
            Some(Expr::Unary(UnOp::PreInc, b)) => is_var(b),
            Some(Expr::Assign(AssignOp::Add, lhs, rhs)) => {
                is_var(lhs) && matches!(&**rhs, Expr::IntLit(1))
            }
            Some(Expr::Assign(AssignOp::Set, lhs, rhs)) => {
                is_var(lhs)
                    && matches!(&**rhs, Expr::Binary(BinOp::Add, a, b)
                        if is_var(a) && matches!(&**b, Expr::IntLit(1)))
            }
            _ => false,
        };
        if !step_ok {
            return Ok(None);
        }
        // Body: exactly one of the two sweep shapes.
        let [Stmt::Expr(e, body_span)] = body else {
            return Ok(None);
        };
        let body_span = *body_span;
        /// `p[i]`, optionally wrapped in a specific trace call: the
        /// array's identifier and whether the access is traced.
        fn indexed<'e>(e: &'e Expr, wrapper: &str, var: &str) -> Option<(&'e Expr, bool)> {
            let (inner, traced) = match e {
                Expr::Call(n, args) if n == wrapper && args.len() == 1 => (&args[0], true),
                other => (other, false),
            };
            match inner {
                Expr::Index(b, i) if is_ident(i, var) => match &**b {
                    Expr::Ident(arr) if arr != var => Some((b, traced)),
                    _ => None,
                },
                _ => None,
            }
        }
        /// The identifiers of `acc` and the array `p`.
        enum Sweep<'e> {
            Fill {
                arr: &'e Expr,
                traced: bool,
                val: Value,
            },
            Reduce {
                acc: &'e Expr,
                arr: &'e Expr,
                traced: bool,
            },
        }
        let sweep = match e {
            // `p[i] = <const>` — also matches compound `acc += p[i]`
            // spelled as AssignOp::Add below.
            Expr::Assign(AssignOp::Set, lhs, rhs) => {
                if let Some((arr, traced)) = indexed(lhs, "traceW", var) {
                    match const_num(rhs) {
                        Some(val) => Sweep::Fill { arr, traced, val },
                        None => return Ok(None),
                    }
                } else if let (Expr::Ident(acc), Expr::Binary(BinOp::Add, a, b)) = (&**lhs, &**rhs)
                {
                    // `acc = acc + p[i]`
                    match indexed(b, "traceR", var) {
                        Some((arr, traced))
                            if is_ident(a, acc) && acc != var && !is_ident(arr, acc) =>
                        {
                            Sweep::Reduce {
                                acc: lhs,
                                arr,
                                traced,
                            }
                        }
                        _ => return Ok(None),
                    }
                } else {
                    return Ok(None);
                }
            }
            // `acc += p[i]`
            Expr::Assign(AssignOp::Add, lhs, rhs) => match (&**lhs, indexed(rhs, "traceR", var)) {
                (Expr::Ident(acc), Some((arr, traced))) if acc != var && !is_ident(arr, acc) => {
                    Sweep::Reduce {
                        acc: lhs,
                        arr,
                        traced,
                    }
                }
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        // A reduction whose bound variable IS the accumulator re-reads
        // the changing bound each iteration; only the generic loop can
        // model that.
        if let (Sweep::Reduce { acc, .. }, Some(m)) = (&sweep, limit_name) {
            if is_ident(acc, m) {
                return Ok(None);
            }
        }
        // The array must be a typed scalar heap pointer.
        let (Sweep::Fill { arr, .. } | Sweep::Reduce { arr, .. }) = &sweep;
        let Some(Value::Ptr(PtrVal::Heap { addr, ty })) = self.var(arr).cloned() else {
            return Ok(None);
        };
        if !matches!(
            ty,
            Type::Int | Type::Float | Type::Double | Type::Char | Type::SizeT
        ) {
            return Ok(None);
        }
        if start < 0 || limit > i64::MAX / size_of(&self.prog, &ty).max(1) as i64 {
            return Ok(None);
        }
        let sz = size_of(&self.prog, &ty) as u64;
        let count = limit.saturating_sub(start).max(0) as u64;
        // The same two's-complement sum as `ptr_add`; a range at a
        // wrapped address fails and falls back to the generic loop.
        let addr0 = addr.wrapping_add((start as u64).wrapping_mul(sz));
        let dev = self.cur_dev();

        match sweep {
            Sweep::Fill { traced, val, .. } => {
                if count > 0 {
                    // The range access belongs to the body statement —
                    // the generic loop would note its span each
                    // iteration, so checkers see the same site.
                    self.note_site(body_span);
                    // An out-of-range or wrong-device range charges
                    // nothing; let the generic loop reproduce the exact
                    // partial effects and error.
                    if self.machine.write_range(addr0, sz, count).is_err() {
                        return Ok(None);
                    }
                    let mut buf = vec![0u8; (sz * count) as usize];
                    for chunk in buf.chunks_exact_mut(sz as usize) {
                        encode_scalar(&ty, &val, chunk)?;
                    }
                    self.machine.poke_bytes(addr0, &buf)?;
                    if traced {
                        self.tracer.trace_w_range(dev, addr0, sz as u32, count);
                    }
                }
            }
            Sweep::Reduce { acc, traced, .. } => {
                let Some((acc_frame, acc_slot)) = self.lookup(acc) else {
                    return Ok(None);
                };
                let acc_val = self.frames[acc_frame].slots[acc_slot].clone();
                // Restrict to numeric accumulators so the fold below can
                // never fail after the machine has been charged.
                if !matches!(acc_val, Value::Int(_) | Value::Double(_)) {
                    return Ok(None);
                }
                if count > 0 {
                    self.note_site(body_span);
                    if self.machine.read_range(addr0, sz, count).is_err() {
                        return Ok(None);
                    }
                    let mut buf = vec![0u8; (sz * count) as usize];
                    self.machine.peek_bytes(addr0, &mut buf)?;
                    let mut acc_val = acc_val;
                    for chunk in buf.chunks_exact(sz as usize) {
                        acc_val = self.binop(BinOp::Add, acc_val, decode_scalar(&ty, chunk))?;
                    }
                    self.frames[acc_frame].slots[acc_slot] = acc_val;
                    if traced {
                        self.tracer.trace_r_range(dev, addr0, sz as u32, count);
                    }
                }
            }
        }
        // The loop variable ends at the first value failing the
        // condition; a declared variable is loop-scoped and vanishes.
        if let Some((frame, slot)) = existing {
            self.frames[frame].slots[slot] = Value::Int(limit.max(start));
        }
        Ok(Some(Flow::Normal(Value::Void)))
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn eval(&mut self, e: &Expr) -> RResult<Value> {
        self.tick()?;
        match e {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::FloatLit(v) => Ok(Value::Double(*v)),
            Expr::StrLit(s) => Ok(Value::Str(s.clone())),
            Expr::Ident(n) => match self.var(e) {
                Some(v) => Ok(v.clone()),
                None => builtin_constant(n)
                    .map_or_else(|| err(format!("use of undeclared variable `{n}`")), Ok),
            },
            Expr::Member(b, f, false) if matches!(&**b, Expr::Ident(n) if is_cuda_builtin_struct(n)) =>
            {
                let Expr::Ident(n) = &**b else { unreachable!() };
                self.cuda_index(n, f)
            }
            Expr::Unary(UnOp::Neg, b) => match self.eval(b)? {
                Value::Int(v) => Ok(Value::Int(-v)),
                Value::Double(v) => Ok(Value::Double(-v)),
                other => err(format!("cannot negate {other:?}")),
            },
            Expr::Unary(UnOp::Not, b) => Ok(Value::Int(!self.eval(b)?.truthy() as i64)),
            Expr::Unary(UnOp::Addr, b) => {
                let place = self.eval_place(b)?;
                Ok(match place {
                    Place::Heap { addr, ty } => Value::Ptr(PtrVal::Heap { addr, ty }),
                    Place::Local { frame, slot } => Value::Ptr(PtrVal::Local { frame, slot }),
                })
            }
            Expr::Unary(UnOp::Deref, _) | Expr::Index(_, _) | Expr::Member(_, _, _) => {
                let place = self.eval_place(e)?;
                self.load(&place)
            }
            Expr::Unary(op @ (UnOp::PreInc | UnOp::PreDec), b) => {
                let delta = if *op == UnOp::PreInc { 1 } else { -1 };
                self.incdec(b, delta, true)
            }
            Expr::Postfix(op, b) => {
                let delta = if *op == PostOp::Inc { 1 } else { -1 };
                self.incdec(b, delta, false)
            }
            Expr::Binary(op, a, b) => {
                match op {
                    BinOp::And => {
                        let l = self.eval(a)?;
                        if !l.truthy() {
                            return Ok(Value::Int(0));
                        }
                        return Ok(Value::Int(self.eval(b)?.truthy() as i64));
                    }
                    BinOp::Or => {
                        let l = self.eval(a)?;
                        if l.truthy() {
                            return Ok(Value::Int(1));
                        }
                        return Ok(Value::Int(self.eval(b)?.truthy() as i64));
                    }
                    _ => {}
                }
                let l = self.eval(a)?;
                let r = self.eval(b)?;
                self.binop(*op, l, r)
            }
            Expr::Assign(op, lhs, rhs) => {
                let rv = self.eval(rhs)?;
                let place = self.eval_place(lhs)?;
                let result = if *op == AssignOp::Set {
                    rv
                } else {
                    let old = self.load(&place)?;
                    let bop = match op {
                        AssignOp::Add => BinOp::Add,
                        AssignOp::Sub => BinOp::Sub,
                        AssignOp::Mul => BinOp::Mul,
                        AssignOp::Div => BinOp::Div,
                        AssignOp::Set => unreachable!(),
                    };
                    self.binop(bop, old, rv)?
                };
                self.store(&place, result.clone())?;
                Ok(result)
            }
            Expr::Cond(c, t, f) => {
                if self.eval(c)?.truthy() {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            Expr::Cast(ty, b) => {
                let v = self.eval(b)?;
                Ok(cast(v, ty))
            }
            Expr::SizeofType(t) => Ok(Value::Int(size_of(&self.prog, t) as i64)),
            Expr::SizeofExpr(b) => {
                // Unevaluated: infer the type statically.
                let env = TypeEnv::new(&self.prog);
                let t = env.infer(b).unwrap_or(Type::Int);
                Ok(Value::Int(size_of(&self.prog, &t) as i64))
            }
            Expr::Call(name, args) => self.eval_call(name, args),
            Expr::KernelLaunch {
                name,
                grid,
                block,
                shmem,
                stream,
                args,
            } => {
                let g = self.eval(grid)?.as_int()?;
                let b = self.eval(block)?.as_int()?;
                if let Some(sh) = shmem {
                    // Dynamic shared memory has no cost model; evaluate
                    // for effects and validity, then ignore.
                    self.eval(sh)?.as_int()?;
                }
                // Stream 0 is the legacy default stream: synchronizing,
                // exactly like a launch with no stream clause.
                let st = match stream {
                    Some(se) => match self.eval(se)?.as_int()? {
                        0 => None,
                        s if s > 0 && (s as usize) < self.machine.stream_count() => {
                            Some(hetsim::StreamId(s as usize))
                        }
                        s => return err(format!("launch on unknown stream {s}")),
                    },
                    None => None,
                };
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                self.launch_kernel(name, g, b, st, vals)?;
                Ok(Value::Void)
            }
        }
    }

    fn cuda_index(&self, base: &str, field: &str) -> RResult<Value> {
        let Some(k) = &self.kernel else {
            return err(format!("`{base}.{field}` outside a kernel"));
        };
        if field != "x" {
            return err(format!("only .x is supported on `{base}`"));
        }
        Ok(Value::Int(match base {
            "threadIdx" => k.tid as i64 % k.block,
            "blockIdx" => k.tid as i64 / k.block,
            "blockDim" => k.block,
            "gridDim" => k.grid,
            _ => unreachable!(),
        }))
    }

    fn incdec(&mut self, lv: &Expr, delta: i64, pre: bool) -> RResult<Value> {
        let place = self.eval_place(lv)?;
        let old = self.load(&place)?;
        let new = match &old {
            Value::Int(v) => Value::Int(v.wrapping_add(delta)),
            Value::Double(v) => Value::Double(v + delta as f64),
            Value::Ptr(PtrVal::Heap { addr, ty }) => Value::Ptr(PtrVal::Heap {
                addr: ptr_add(*addr, delta, size_of(&self.prog, ty) as i64)?,
                ty: ty.clone(),
            }),
            other => return err(format!("cannot increment {other:?}")),
        };
        self.store(&place, new.clone())?;
        Ok(if pre { new } else { old })
    }

    fn binop(&mut self, op: BinOp, l: Value, r: Value) -> RResult<Value> {
        use BinOp::*;
        // Pointer arithmetic.
        if let (Value::Ptr(PtrVal::Heap { addr, ty }), Value::Int(n)) = (&l, &r) {
            if matches!(op, Add | Sub) {
                let sz = size_of(&self.prog, ty) as i64;
                let stride = if op == Add { sz } else { -sz };
                return Ok(Value::Ptr(PtrVal::Heap {
                    addr: ptr_add(*addr, *n, stride)?,
                    ty: ty.clone(),
                }));
            }
        }
        if let (Value::Int(n), Value::Ptr(PtrVal::Heap { addr, ty })) = (&l, &r) {
            if op == Add {
                return Ok(Value::Ptr(PtrVal::Heap {
                    addr: ptr_add(*addr, *n, size_of(&self.prog, ty) as i64)?,
                    ty: ty.clone(),
                }));
            }
        }
        if let (Value::Ptr(a), Value::Ptr(b)) = (&l, &r) {
            let av = ptr_addr(a);
            let bv = ptr_addr(b);
            return Ok(Value::Int(match op {
                Sub => av as i64 - bv as i64,
                Eq => (av == bv) as i64,
                Ne => (av != bv) as i64,
                Lt => (av < bv) as i64,
                Gt => (av > bv) as i64,
                Le => (av <= bv) as i64,
                Ge => (av >= bv) as i64,
                _ => return err("unsupported pointer operation"),
            }));
        }
        // Numeric.
        let float = matches!(l, Value::Double(_)) || matches!(r, Value::Double(_));
        if float {
            let a = l.as_double()?;
            let b = r.as_double()?;
            Ok(match op {
                Add => Value::Double(a + b),
                Sub => Value::Double(a - b),
                Mul => Value::Double(a * b),
                Div => Value::Double(a / b),
                Rem => Value::Double(a % b),
                Eq => Value::Int((a == b) as i64),
                Ne => Value::Int((a != b) as i64),
                Lt => Value::Int((a < b) as i64),
                Gt => Value::Int((a > b) as i64),
                Le => Value::Int((a <= b) as i64),
                Ge => Value::Int((a >= b) as i64),
                _ => return err("bitwise operation on floating point"),
            })
        } else {
            let a = l.as_int()?;
            let b = r.as_int()?;
            Ok(Value::Int(match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div => {
                    if b == 0 {
                        return err("integer division by zero");
                    }
                    a / b
                }
                Rem => {
                    if b == 0 {
                        return err("integer remainder by zero");
                    }
                    a % b
                }
                Eq => (a == b) as i64,
                Ne => (a != b) as i64,
                Lt => (a < b) as i64,
                Gt => (a > b) as i64,
                Le => (a <= b) as i64,
                Ge => (a >= b) as i64,
                BitAnd => a & b,
                BitOr => a | b,
                BitXor => a ^ b,
                Shl => a.wrapping_shl(b as u32),
                Shr => a.wrapping_shr(b as u32),
                And | Or => unreachable!("short-circuited"),
            }))
        }
    }

    // ------------------------------------------------------------------
    // Places (l-values)
    // ------------------------------------------------------------------

    fn eval_place(&mut self, e: &Expr) -> RResult<Place> {
        match e {
            Expr::Ident(n) => match self.lookup(e) {
                Some((frame, slot)) => Ok(Place::Local { frame, slot }),
                None => err(format!("use of undeclared variable `{n}`")),
            },
            Expr::Unary(UnOp::Deref, b) => {
                let p = self.eval(b)?;
                self.ptr_to_place(p)
            }
            Expr::Index(b, i) => {
                let base = self.eval(b)?;
                let idx = self.eval(i)?.as_int()?;
                match base {
                    Value::Ptr(PtrVal::Heap { addr, ty }) => Ok(Place::Heap {
                        addr: ptr_add(addr, idx, size_of(&self.prog, &ty) as i64)?,
                        ty,
                    }),
                    Value::Ptr(PtrVal::Null) => err("index through null pointer"),
                    other => err(format!("cannot index {other:?}")),
                }
            }
            Expr::Member(b, f, true) => {
                let base = self.eval(b)?;
                match base {
                    Value::Ptr(PtrVal::Heap { addr, ty }) => {
                        let Type::Struct(sname) = &ty else {
                            return err(format!("`->{f}` on non-struct pointer {ty}"));
                        };
                        let off = field_offset(&self.prog, sname, f).ok_or_else(|| RunError {
                            message: format!("no field `{f}` in struct {sname}"),
                            sim: None,
                        })?;
                        let fty = field_type(&self.prog, sname, f).unwrap().clone();
                        Ok(Place::Heap {
                            addr: addr + off,
                            ty: fty,
                        })
                    }
                    Value::Ptr(PtrVal::Null) => err("member access through null pointer"),
                    other => err(format!("cannot apply `->` to {other:?}")),
                }
            }
            Expr::Member(_, f, false) => err(format!(
                "`.{f}`: struct values are only supported through pointers"
            )),
            Expr::Call(name, args) if is_trace_wrapper(name) => self.trace_place(name, args),
            Expr::Cast(_, b) => self.eval_place(b),
            other => err(format!("not an l-value: {other:?}")),
        }
    }

    /// A source-level instrumentation wrapper `traceR/W/RW(lv)`: record
    /// the access in the tracer, then behave as the inner l-value.
    fn trace_place(&mut self, name: &str, args: &[Expr]) -> RResult<Place> {
        let inner = args.first().ok_or_else(|| RunError {
            message: format!("{name} requires an argument"),
            sim: None,
        })?;
        let place = self.eval_place(inner)?;
        if let Place::Heap { addr, ty } = &place {
            let size = size_of(&self.prog, ty) as u32;
            let dev = self.cur_dev();
            match name {
                "traceR" => self.tracer.trace_r(dev, *addr, size),
                "traceW" => self.tracer.trace_w(dev, *addr, size),
                _ => self.tracer.trace_rw(dev, *addr, size),
            }
        }
        Ok(place)
    }

    fn ptr_to_place(&mut self, p: Value) -> RResult<Place> {
        match p {
            Value::Ptr(PtrVal::Heap { addr, ty }) => Ok(Place::Heap { addr, ty }),
            Value::Ptr(PtrVal::Local { frame, slot }) => Ok(Place::Local { frame, slot }),
            Value::Ptr(PtrVal::Null) => err("dereference of null pointer"),
            other => err(format!("cannot dereference {other:?}")),
        }
    }

    fn load(&mut self, place: &Place) -> RResult<Value> {
        match place {
            Place::Local { frame, slot } => Ok(self.var_mut(*frame, *slot)?.clone()),
            Place::Heap { addr, ty } => {
                let m = &mut self.machine;
                Ok(match ty {
                    Type::Int => Value::Int(m.try_read_scalar::<i32>(*addr)? as i64),
                    Type::Float => Value::Double(m.try_read_scalar::<f32>(*addr)? as f64),
                    Type::Double => Value::Double(m.try_read_scalar::<f64>(*addr)?),
                    Type::Char => Value::Int(m.try_read_scalar::<u8>(*addr)? as i64),
                    Type::SizeT => Value::Int(m.try_read_scalar::<u64>(*addr)? as i64),
                    Type::Ptr(inner) => {
                        let raw = m.try_read_scalar::<u64>(*addr)?;
                        if raw == 0 {
                            Value::Ptr(PtrVal::Null)
                        } else {
                            Value::Ptr(PtrVal::Heap {
                                addr: raw,
                                ty: (**inner).clone(),
                            })
                        }
                    }
                    Type::Void => return err("load of void"),
                    Type::Struct(s) => return err(format!("struct {s} cannot be loaded by value")),
                })
            }
        }
    }

    fn store(&mut self, place: &Place, v: Value) -> RResult<()> {
        match place {
            Place::Local { frame, slot } => {
                *self.var_mut(*frame, *slot)? = v;
                Ok(())
            }
            Place::Heap { addr, ty } => {
                let m = &mut self.machine;
                match ty {
                    Type::Int => m.try_write_scalar::<i32>(*addr, v.as_int()? as i32)?,
                    Type::Float => m.try_write_scalar::<f32>(*addr, v.as_double()? as f32)?,
                    Type::Double => m.try_write_scalar::<f64>(*addr, v.as_double()?)?,
                    Type::Char => m.try_write_scalar::<u8>(*addr, v.as_int()? as u8)?,
                    Type::SizeT => m.try_write_scalar::<u64>(*addr, v.as_int()? as u64)?,
                    Type::Ptr(_) => {
                        let raw = match &v {
                            Value::Ptr(p) => ptr_addr(p),
                            Value::Int(n) => *n as u64,
                            other => return err(format!("cannot store {other:?} into pointer")),
                        };
                        m.try_write_scalar::<u64>(*addr, raw)?;
                    }
                    Type::Void => return err("store to void"),
                    Type::Struct(s) => return err(format!("struct {s} cannot be stored by value")),
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Kernels
    // ------------------------------------------------------------------

    fn launch_kernel(
        &mut self,
        name: &str,
        grid: i64,
        block: i64,
        stream: Option<hetsim::StreamId>,
        args: Vec<Value>,
    ) -> RResult<()> {
        if self.kernel.is_some() {
            return err("nested kernel launch");
        }
        let Some(id) = self.res.func_id(name) else {
            return err(format!("launch of unknown kernel `{name}`"));
        };
        let prog = Rc::clone(&self.prog);
        let f = self.res.func(&prog, id);
        if !f.is_kernel() {
            return err(format!("`{name}` is not a __global__ function"));
        }
        let threads = (grid.max(1) * block.max(1)) as usize;
        // Data effects run eagerly either way; a stream launch only
        // defers the *time* (and the ordering edges observers see).
        match stream {
            Some(s) => self.machine.kernel_begin_on(name, s),
            None => self.machine.kernel_begin(name),
        }
        for tid in 0..threads {
            self.kernel = Some(KState {
                tid,
                block: block.max(1),
                grid: grid.max(1),
            });
            let r = self.call_user_kernel(id, f, &args);
            if let Err(e) = r {
                self.kernel = None;
                let _ = self.machine.kernel_finish();
                return Err(e);
            }
        }
        self.kernel = None;
        match stream {
            Some(s) => {
                self.machine.kernel_finish_async(s);
            }
            None => {
                self.machine.kernel_finish_sync();
            }
        }
        Ok(())
    }

    fn call_user_kernel(&mut self, id: usize, f: &Func, args: &[Value]) -> RResult<()> {
        let Some(body) = &f.body else {
            return err(format!("kernel `{}` has no body", f.name));
        };
        check_arity(f, args)?;
        self.push_frame(id, f, args);
        let flow = self.exec_block(body);
        self.frames.pop();
        flow.map(|_| ())
    }

    // ------------------------------------------------------------------
    // Builtins
    // ------------------------------------------------------------------

    /// Try to handle `name` as a builtin; `Ok(None)` means "not a
    /// builtin, dispatch to user code".
    fn builtin(&mut self, name: &str, args: &[Value]) -> RResult<Option<Value>> {
        let traced = name.starts_with("trc");
        let v = match name {
            // --- allocation ---
            "cudaMalloc" | "trcMalloc" | "cudaMallocManaged" | "trcMallocManaged" => {
                let kind = if name.ends_with("Managed") {
                    AllocKind::Managed
                } else {
                    AllocKind::Device(0)
                };
                let bytes = args.get(1).ok_or_else(|| missing(name, 2))?.as_int()? as u64;
                let base = self.machine.try_malloc(bytes, kind)?;
                if traced {
                    self.tracer.trace_alloc(base, bytes, kind);
                }
                // Store through the out-parameter (a pointer-to-pointer).
                let out = args.first().ok_or_else(|| missing(name, 2))?.clone();
                let place = self.ptr_to_place(out)?;
                if let Place::Local { frame, slot } = place {
                    // The receiving variable names the allocation in
                    // runtime diagnostics (`cudaMalloc(&p, n)` → "p").
                    if let Some(var) = self.slot_decl(frame, slot).map(|v| v.name.clone()) {
                        self.machine.note_alloc_label(base, &var);
                    }
                }
                self.store_out_pointer(place, base)?;
                Value::Int(0)
            }
            "malloc" | "trcHostMalloc" | "__new" | "__new_array" => {
                let bytes = match name {
                    "__new" => args.first().ok_or_else(|| missing(name, 1))?.as_int()? as u64,
                    "__new_array" => {
                        let sz = args.first().ok_or_else(|| missing(name, 2))?.as_int()?;
                        let n = args.get(1).ok_or_else(|| missing(name, 2))?.as_int()?;
                        (sz * n) as u64
                    }
                    _ => args.first().ok_or_else(|| missing(name, 1))?.as_int()? as u64,
                };
                let base = self.machine.try_malloc(bytes, AllocKind::Host)?;
                if traced {
                    self.tracer.trace_alloc(base, bytes, AllocKind::Host);
                }
                if name == "__new" {
                    // `new T(init)` stores the initializer.
                    if let Some(init) = args.get(1) {
                        let sz = args.first().unwrap().as_int()?;
                        match sz {
                            4 => self
                                .machine
                                .try_write_scalar::<i32>(base, init.as_int()? as i32)?,
                            8 => self.machine.try_write_scalar::<i64>(base, init.as_int()?)?,
                            _ => {}
                        }
                    }
                }
                Value::Ptr(PtrVal::Heap {
                    addr: base,
                    ty: Type::Char,
                })
            }
            "cudaFree" | "trcFree" | "free" | "trcHostFree" | "__delete" => {
                let p = args.first().ok_or_else(|| missing(name, 1))?;
                if let Value::Ptr(pv) = p {
                    let addr = ptr_addr(pv);
                    if addr != 0 {
                        self.machine.try_free(addr)?;
                        if traced {
                            self.tracer.trace_free(addr);
                        }
                    }
                }
                Value::Int(0)
            }
            // --- transfer & advice ---
            "cudaMemcpy" | "trcMemcpy" => {
                let dst = ptr_of(args.first().ok_or_else(|| missing(name, 4))?)?;
                let src = ptr_of(args.get(1).ok_or_else(|| missing(name, 4))?)?;
                let bytes = args.get(2).ok_or_else(|| missing(name, 4))?.as_int()? as u64;
                let kind = copy_kind(args.get(3).ok_or_else(|| missing(name, 4))?.as_int()?)?;
                self.machine.try_memcpy(dst, src, bytes, kind)?;
                if traced {
                    self.tracer.trace_memcpy(dst, src, bytes, kind);
                }
                Value::Int(0)
            }
            "cudaMemAdvise" | "trcMemAdvise" => {
                let p = ptr_of(args.first().ok_or_else(|| missing(name, 4))?)?;
                let bytes = args.get(1).ok_or_else(|| missing(name, 4))?.as_int()? as u64;
                let advice = args.get(2).ok_or_else(|| missing(name, 4))?.as_int()?;
                let device = args.get(3).ok_or_else(|| missing(name, 4))?.as_int()?;
                let dev = if device < 0 {
                    Device::Cpu
                } else {
                    Device::Gpu(device as u8)
                };
                let adv = match advice {
                    1 => MemAdvise::SetReadMostly,
                    2 => MemAdvise::UnsetReadMostly,
                    3 => MemAdvise::SetPreferredLocation(dev),
                    4 => MemAdvise::UnsetPreferredLocation,
                    5 => MemAdvise::SetAccessedBy(dev),
                    6 => MemAdvise::UnsetAccessedBy(dev),
                    other => return err(format!("unknown cudaMemAdvise value {other}")),
                };
                self.machine.try_mem_advise(p, bytes, adv)?;
                Value::Int(0)
            }
            "cudaMemPrefetchAsync" | "trcMemPrefetchAsync" => {
                let ptr = ptr_of(args.first().ok_or_else(|| missing(name, 3))?)?;
                let bytes = args.get(1).ok_or_else(|| missing(name, 3))?.as_int()? as u64;
                let device = args.get(2).ok_or_else(|| missing(name, 3))?.as_int()?;
                let dst = if device < 0 {
                    Device::Cpu
                } else {
                    Device::Gpu(device as u8)
                };
                self.machine
                    .try_mem_prefetch(ptr, bytes, dst, hetsim::DEFAULT_STREAM)?;
                Value::Int(0)
            }
            "cudaDeviceSynchronize" => {
                let _ = self.machine.elapsed_ns();
                Value::Int(0)
            }
            // --- streams ---
            "cudaStreamCreate" => {
                // Out-param like cudaMalloc: `cudaStreamCreate(&s)` with
                // `int s` — MiniCU spells stream handles as plain ints.
                let out = args.first().ok_or_else(|| missing(name, 1))?.clone();
                let s = self.machine.create_stream();
                let place = self.ptr_to_place(out)?;
                self.store(&place, Value::Int(s.0 as i64))?;
                Value::Int(0)
            }
            "cudaStreamSynchronize" => {
                let s = args.first().ok_or_else(|| missing(name, 1))?.as_int()?;
                if s < 0 || s as usize >= self.machine.stream_count() {
                    return err(format!("cudaStreamSynchronize of unknown stream {s}"));
                }
                self.machine.sync_stream(hetsim::StreamId(s as usize));
                Value::Int(0)
            }
            "cudaStreamDestroy" => {
                // Streams live for the whole run; destroy is a no-op.
                args.first().ok_or_else(|| missing(name, 1))?.as_int()?;
                Value::Int(0)
            }
            // --- tracing API ---
            "traceKernelLaunch" => {
                let grid = args.first().ok_or_else(|| missing(name, 3))?.as_int()?;
                let block = args.get(1).ok_or_else(|| missing(name, 3))?.as_int()?;
                let Some(Value::Str(kname)) = args.get(2) else {
                    return err("traceKernelLaunch expects the kernel name");
                };
                let kname = kname.clone();
                self.tracer.trace_launch(&kname);
                self.launch_kernel(&kname, grid, block, None, args[3..].to_vec())?;
                Value::Int(0)
            }
            "XplAllocData" => {
                let addr = ptr_of(args.first().ok_or_else(|| missing(name, 3))?)?;
                let Some(Value::Str(label)) = args.get(1) else {
                    return err("XplAllocData expects a name string");
                };
                let sz = args.get(2).ok_or_else(|| missing(name, 3))?.as_int()? as u64;
                Value::Alloc(XplAllocData::new(addr, label.clone(), sz))
            }
            "tracePrint" => {
                let objects: Vec<XplAllocData> = args
                    .iter()
                    .filter_map(|a| match a {
                        Value::Alloc(d) => Some(d.clone()),
                        _ => None,
                    })
                    .collect();
                self.tracer.register_names(&objects);
                // The diagnostic point is where the anti-pattern analysis
                // runs (before the epoch reset wipes the shadow).
                self.reports.push(xplacer_core::analyze(
                    &self.tracer.smt,
                    &xplacer_core::AnalysisConfig::default(),
                ));
                let mut sink = Vec::new();
                diagnostic::trace_print(&mut self.tracer, &mut sink, true);
                self.stdout.push_str(&String::from_utf8_lossy(&sink));
                Value::Int(0)
            }
            // --- libc-ish ---
            "printf" => {
                let Some(Value::Str(fmt)) = args.first() else {
                    return err("printf expects a format string");
                };
                let text = format_printf(fmt, &args[1..])?;
                self.stdout.push_str(&text);
                Value::Int(0)
            }
            "sqrt" => Value::Double(
                args.first()
                    .ok_or_else(|| missing(name, 1))?
                    .as_double()?
                    .sqrt(),
            ),
            "fabs" => Value::Double(
                args.first()
                    .ok_or_else(|| missing(name, 1))?
                    .as_double()?
                    .abs(),
            ),
            "fmin" | "min" => {
                let a = args.first().ok_or_else(|| missing(name, 2))?.clone();
                let b = args.get(1).ok_or_else(|| missing(name, 2))?.clone();
                if matches!(a, Value::Double(_)) || matches!(b, Value::Double(_)) {
                    Value::Double(a.as_double()?.min(b.as_double()?))
                } else {
                    Value::Int(a.as_int()?.min(b.as_int()?))
                }
            }
            "fmax" | "max" => {
                let a = args.first().ok_or_else(|| missing(name, 2))?.clone();
                let b = args.get(1).ok_or_else(|| missing(name, 2))?.clone();
                if matches!(a, Value::Double(_)) || matches!(b, Value::Double(_)) {
                    Value::Double(a.as_double()?.max(b.as_double()?))
                } else {
                    Value::Int(a.as_int()?.max(b.as_int()?))
                }
            }
            _ => return Ok(None),
        };
        Ok(Some(v))
    }

    /// Store an allocation's base address through an out-parameter
    /// (`cudaMalloc((void**)&p, n)`), preserving the target pointer's
    /// pointee type so later `p[i]` accesses are typed: the type of the
    /// typed pointer it holds, else the one it was declared with (a null
    /// pointer carries no type at runtime).
    fn store_out_pointer(&mut self, place: Place, base: Addr) -> RResult<()> {
        let ty = match &place {
            Place::Local { frame, slot } => match self.var_mut(*frame, *slot)? {
                Value::Ptr(PtrVal::Heap { ty, .. }) => ty.clone(),
                _ => self
                    .slot_decl(*frame, *slot)
                    .and_then(|var| var.ty.pointee())
                    .cloned()
                    .unwrap_or(Type::Char),
            },
            Place::Heap { .. } => Type::Char,
        };
        self.store(&place, Value::Ptr(PtrVal::Heap { addr: base, ty }))
    }

    /// The declaration behind a frame slot.
    fn slot_decl(&self, frame: usize, slot: usize) -> Option<&resolve::Slot> {
        let slots = match self.frames.get(frame)?.func {
            Some(id) => &self.res.funcs[id].slots,
            None => &self.res.globals,
        };
        slots.get(slot)
    }

    fn eval_call(&mut self, name: &str, args: &[Expr]) -> RResult<Value> {
        // trace wrappers in value position go through place evaluation so
        // the access is recorded exactly once.
        if is_trace_wrapper(name) {
            let place = self.trace_place(name, args)?;
            return self.load(&place);
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a)?);
        }
        self.call(name, vals)
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

fn check_arity(f: &Func, args: &[Value]) -> RResult<()> {
    if f.params.len() != args.len() {
        return err(format!(
            "`{}` expects {} arguments, got {}",
            f.name,
            f.params.len(),
            args.len()
        ));
    }
    Ok(())
}

/// A compile-time integer (possibly negated literal), or `None`.
fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::IntLit(v) => Some(*v),
        Expr::Unary(UnOp::Neg, b) => match &**b {
            Expr::IntLit(v) => Some(-*v),
            _ => None,
        },
        _ => None,
    }
}

/// A compile-time numeric literal as a runtime value, or `None`.
fn const_num(e: &Expr) -> Option<Value> {
    match e {
        Expr::IntLit(v) => Some(Value::Int(*v)),
        Expr::FloatLit(v) => Some(Value::Double(*v)),
        Expr::Unary(UnOp::Neg, b) => match &**b {
            Expr::IntLit(v) => Some(Value::Int(-*v)),
            Expr::FloatLit(v) => Some(Value::Double(-*v)),
            _ => None,
        },
        _ => None,
    }
}

/// Encode `v` into `out` exactly as [`Interp::store`] would for an
/// element of type `ty`.
fn encode_scalar(ty: &Type, v: &Value, out: &mut [u8]) -> RResult<()> {
    match ty {
        Type::Int => out.copy_from_slice(&(v.as_int()? as i32).to_le_bytes()),
        Type::Float => out.copy_from_slice(&(v.as_double()? as f32).to_le_bytes()),
        Type::Double => out.copy_from_slice(&v.as_double()?.to_le_bytes()),
        Type::Char => out.copy_from_slice(&[v.as_int()? as u8]),
        Type::SizeT => out.copy_from_slice(&(v.as_int()? as u64).to_le_bytes()),
        other => return err(format!("cannot bulk-store {other}")),
    }
    Ok(())
}

/// Decode one element exactly as [`Interp::load`] would for type `ty`.
fn decode_scalar(ty: &Type, chunk: &[u8]) -> Value {
    match ty {
        Type::Int => Value::Int(i32::from_le_bytes(chunk.try_into().unwrap()) as i64),
        Type::Float => Value::Double(f32::from_le_bytes(chunk.try_into().unwrap()) as f64),
        Type::Double => Value::Double(f64::from_le_bytes(chunk.try_into().unwrap())),
        Type::Char => Value::Int(chunk[0] as i64),
        Type::SizeT => Value::Int(u64::from_le_bytes(chunk.try_into().unwrap()) as i64),
        _ => unreachable!("scalar types are checked before engaging the sweep"),
    }
}

/// `addr + n * stride` in the interpreter's signed pointer arithmetic.
/// Overflow is a runtime error: wrapping would silently alias another
/// address.
fn ptr_add(addr: Addr, n: i64, stride: i64) -> RResult<Addr> {
    n.checked_mul(stride)
        .and_then(|off| (addr as i64).checked_add(off))
        .map_or_else(|| err("pointer arithmetic overflows"), |a| Ok(a as Addr))
}

fn ptr_addr(p: &PtrVal) -> u64 {
    match p {
        PtrVal::Null => 0,
        PtrVal::Heap { addr, .. } => *addr,
        PtrVal::Local { .. } => 0,
    }
}

/// Whether a declaration initializer is (a cast of) a host allocator call,
/// so the declared variable can label the fresh allocation.
fn init_is_allocator(e: &Expr) -> bool {
    match e {
        Expr::Cast(_, inner) => init_is_allocator(inner),
        Expr::Call(name, _) => {
            matches!(
                name.as_str(),
                "malloc" | "trcHostMalloc" | "__new" | "__new_array"
            )
        }
        _ => false,
    }
}

fn ptr_of(v: &Value) -> RResult<Addr> {
    match v {
        Value::Ptr(PtrVal::Heap { addr, .. }) => Ok(*addr),
        Value::Ptr(PtrVal::Null) => Ok(0),
        other => err(format!("expected a pointer, got {other:?}")),
    }
}

fn missing(name: &str, n: usize) -> RunError {
    RunError {
        message: format!("`{name}` expects {n} arguments"),
        sim: None,
    }
}

fn copy_kind(v: i64) -> RResult<CopyKind> {
    Ok(match v {
        0 => CopyKind::HostToHost,
        1 => CopyKind::HostToDevice,
        2 => CopyKind::DeviceToHost,
        3 => CopyKind::DeviceToDevice,
        other => return err(format!("unknown cudaMemcpyKind {other}")),
    })
}

fn is_trace_wrapper(name: &str) -> bool {
    matches!(name, "traceR" | "traceW" | "traceRW")
}

fn is_ident(e: &Expr, name: &str) -> bool {
    matches!(e, Expr::Ident(n) if n == name)
}

fn is_cuda_builtin_struct(n: &str) -> bool {
    matches!(n, "threadIdx" | "blockIdx" | "blockDim" | "gridDim")
}

/// Identifier-level builtin constants (the CUDA enum spellings).
fn builtin_constant(n: &str) -> Option<Value> {
    Some(match n {
        "cudaMemcpyHostToHost" => Value::Int(0),
        "cudaMemcpyHostToDevice" => Value::Int(1),
        "cudaMemcpyDeviceToHost" => Value::Int(2),
        "cudaMemcpyDeviceToDevice" => Value::Int(3),
        "cudaMemAdviseSetReadMostly" => Value::Int(1),
        "cudaMemAdviseUnsetReadMostly" => Value::Int(2),
        "cudaMemAdviseSetPreferredLocation" => Value::Int(3),
        "cudaMemAdviseUnsetPreferredLocation" => Value::Int(4),
        "cudaMemAdviseSetAccessedBy" => Value::Int(5),
        "cudaMemAdviseUnsetAccessedBy" => Value::Int(6),
        "cudaCpuDeviceId" => Value::Int(-1),
        "cudaSuccess" => Value::Int(0),
        "NULL" | "nullptr" => Value::Ptr(PtrVal::Null),
        "out" | "cout" => Value::Str("<stdout>".into()),
        _ => return None,
    })
}

fn default_value(ty: &Type) -> Value {
    match ty {
        Type::Double | Type::Float => Value::Double(0.0),
        Type::Ptr(_) => Value::Ptr(PtrVal::Null),
        _ => Value::Int(0),
    }
}

/// Coerce a value to a declared type (declaration/parameter binding).
fn coerce(v: Value, ty: &Type) -> Value {
    match (ty, v) {
        (Type::Double | Type::Float, Value::Int(n)) => Value::Double(n as f64),
        (Type::Int | Type::Char | Type::SizeT, Value::Double(d)) => Value::Int(d as i64),
        (Type::Ptr(inner), Value::Ptr(PtrVal::Heap { addr, ty: t })) => {
            // Retype pointers on binding into typed declarations (e.g. a
            // `double* p` receiving the untyped result of cudaMalloc).
            let want = (**inner).clone();
            let keep = if want == Type::Void { t } else { want };
            Value::Ptr(PtrVal::Heap { addr, ty: keep })
        }
        (_, v) => v,
    }
}

fn cast(v: Value, ty: &Type) -> Value {
    match ty {
        Type::Int | Type::Char | Type::SizeT => match v {
            Value::Double(d) => Value::Int(d as i64),
            other => other,
        },
        Type::Double | Type::Float => match v {
            Value::Int(n) => Value::Double(n as f64),
            other => other,
        },
        Type::Ptr(inner) => match v {
            Value::Ptr(PtrVal::Heap { addr, .. }) if **inner != Type::Void => {
                Value::Ptr(PtrVal::Heap {
                    addr,
                    ty: (**inner).clone(),
                })
            }
            other => other,
        },
        _ => v,
    }
}

fn format_printf(fmt: &str, args: &[Value]) -> RResult<String> {
    let mut out = String::new();
    let mut ai = 0usize;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('%') => out.push('%'),
            Some('d') | Some('i') | Some('u') => {
                out.push_str(
                    &args
                        .get(ai)
                        .map(|v| v.as_int())
                        .transpose()?
                        .unwrap_or(0)
                        .to_string(),
                );
                ai += 1;
            }
            Some('f') => {
                let v = args
                    .get(ai)
                    .map(|v| v.as_double())
                    .transpose()?
                    .unwrap_or(0.0);
                out.push_str(&format!("{v:.6}"));
                ai += 1;
            }
            Some('g') => {
                let v = args
                    .get(ai)
                    .map(|v| v.as_double())
                    .transpose()?
                    .unwrap_or(0.0);
                out.push_str(&format!("{v}"));
                ai += 1;
            }
            Some('s') => {
                if let Some(Value::Str(s)) = args.get(ai) {
                    out.push_str(s);
                }
                ai += 1;
            }
            Some('p') => {
                if let Some(Value::Ptr(p)) = args.get(ai) {
                    out.push_str(&format!("0x{:x}", ptr_addr(p)));
                }
                ai += 1;
            }
            other => return err(format!("unsupported printf conversion %{other:?}")),
        }
    }
    Ok(out)
}

/// Parse, optionally instrument, and run a MiniCU source on a platform.
pub fn run_source(
    src: &str,
    platform: hetsim::Platform,
    instrumented: bool,
) -> RResult<(Outcome, Interp)> {
    run_source_on(src, Machine::new(platform), instrumented)
}

/// Like [`run_source`], but on a caller-prepared [`Machine`] — use this to
/// attach observer hooks (event log, heatmap) before the program runs.
pub fn run_source_on(
    src: &str,
    machine: Machine,
    instrumented: bool,
) -> RResult<(Outcome, Interp)> {
    let prog = xplacer_lang::parser::parse(src).map_err(|e| RunError {
        message: e.to_string(),
        sim: None,
    })?;
    let prog = if instrumented {
        xplacer_instrument::instrument(&prog).program
    } else {
        prog
    };
    let mut interp = Interp::new(prog, machine);
    let outcome = interp.run_main()?;
    Ok((outcome, interp))
}

#[cfg(test)]
mod tests;
