//! A miniature loop-nest IR with an automated block-annotation pass.
//!
//! This module is the reproduction's stand-in for the paper's LLVM pass
//! (§IV-A): kernels are written as [`Program`]s of nested [`Stmt::Loop`]s,
//! and [`Program::annotate`] — the "compiler pass" — finds every *innermost*
//! loop and brackets its body with explicit [`Stmt::BlockBegin`] /
//! [`Stmt::BlockEnd`] marker instructions carrying fresh static block ids.
//!
//! Because the markers are ordinary statements inserted *before* loop
//! transformations, optimizations like [`Program::unroll_innermost`]
//! replicate them together with the body — exactly the property the paper
//! relies on ("it preserves the original loop semantics in the presence of
//! compiler optimizations such as loop unrolling", §IV-A): the CBWS
//! hardware still sees one `BLOCK_BEGIN`/`BLOCK_END` pair per *original*
//! iteration.
//!
//! [`Program::execute`] runs the program into a committed-instruction
//! [`Trace`], emitting loop back-branches and `If` branches for the branch
//! predictor, and marking loads whose address was derived from loaded data
//! ([`Expr::Index`]) as [`Dependence::PrevLoad`] so the timing model
//! serializes them.
//!
//! Execution first *lowers* the statement tree once: every variable becomes
//! a slot in a flat environment, every table name a resolved slice, and
//! every subexpression built only from constants, variables, `+`, `-` and
//! `×` by a constant folds into one affine form `c0 + Σ kᵢ·slotᵢ`
//! (wrapping, so exact in ℤ/2⁶⁴). The paper's tight loops address memory
//! through exactly such expressions, so most accesses cost a few
//! multiply-adds instead of a tree walk with a map lookup per variable.

use cbws_trace::{Addr, BlockId, Dependence, MemAccess, MemKind, Pc, Trace, TraceBuilder};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A named integer variable (loop index or `let` binding).
pub type Var = &'static str;

/// Integer expressions over loop variables, constants, and table data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A constant.
    Const(i64),
    /// A variable reference.
    Var(Var),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two expressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Remainder (Euclidean; divisor of zero evaluates to 0).
    Rem(Box<Expr>, Box<Expr>),
    /// Quotient (Euclidean; divisor of zero evaluates to 0).
    Div(Box<Expr>, Box<Expr>),
    /// `table[idx % len]`: a value loaded from a named data table. Using an
    /// `Index` in an address expression models data-dependent addressing
    /// (the paper's `histo` case, Fig. 16) and marks the access as
    /// load-dependent.
    Index {
        /// The table name (registered via [`Program::table`]).
        table: &'static str,
        /// The index expression (wrapped modulo the table length).
        idx: Box<Expr>,
    },
}

impl Expr {
    /// Convenience: `self + other`. Deliberately named like the operator
    /// for DSL readability; `Expr` does not implement `std::ops::Add`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(other))
    }

    /// Convenience: `self * other`. See [`Expr::add`] on the naming.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(other))
    }

    /// Whether the expression reads any data table (drives the
    /// load-dependence marking).
    fn is_data_dependent(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Var(_) => false,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Rem(a, b)
            | Expr::Div(a, b) => a.is_data_dependent() || b.is_data_dependent(),
            Expr::Index { .. } => true,
        }
    }

    /// Substitutes `var` with `replacement` (used by unrolling).
    fn subst(&self, var: Var, replacement: &Expr) -> Expr {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Var(v) => {
                if *v == var {
                    replacement.clone()
                } else {
                    Expr::Var(v)
                }
            }
            Expr::Add(a, b) => Expr::Add(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Expr::Mul(a, b) => Expr::Mul(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Expr::Rem(a, b) => Expr::Rem(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Expr::Div(a, b) => Expr::Div(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Expr::Index { table, idx } => Expr::Index {
                table,
                idx: Box::new(idx.subst(var, replacement)),
            },
        }
    }
}

/// Shorthand constructors used by kernel authors.
pub mod e {
    use super::Expr;

    /// Constant expression.
    pub fn c(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// Variable reference.
    pub fn v(name: super::Var) -> Expr {
        Expr::Var(name)
    }

    /// Table read `table[idx % len]`.
    pub fn idx(table: &'static str, i: Expr) -> Expr {
        Expr::Index {
            table,
            idx: Box::new(i),
        }
    }
}

/// Branch conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond {
    /// `a < b`.
    Lt(Expr, Expr),
    /// `a != 0`.
    NonZero(Expr),
}

impl Cond {
    fn subst(&self, var: Var, replacement: &Expr) -> Cond {
        match self {
            Cond::Lt(a, b) => Cond::Lt(a.subst(var, replacement), b.subst(var, replacement)),
            Cond::NonZero(a) => Cond::NonZero(a.subst(var, replacement)),
        }
    }
}

/// Statements of the loop-nest IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `for var in 0..count { body }`. Emits a back-branch per iteration.
    Loop {
        /// Loop index variable, visible in `body`.
        var: Var,
        /// Trip count (evaluated once at loop entry; negative counts as 0).
        count: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A load from `addr` (byte address) by static PC `pc`.
    Load {
        /// Static PC of the load.
        pc: u64,
        /// Byte-address expression.
        addr: Expr,
    },
    /// A store to `addr` by static PC `pc`.
    Store {
        /// Static PC of the store.
        pc: u64,
        /// Byte-address expression.
        addr: Expr,
    },
    /// Binds `var` to the value of `value`.
    Let {
        /// Variable to bind.
        var: Var,
        /// Value expression.
        value: Expr,
    },
    /// `count` non-memory instructions at `pc`.
    Alu {
        /// Static PC.
        pc: u64,
        /// Instruction count.
        count: u32,
    },
    /// A conditional with an explicit branch at `pc`.
    If {
        /// Branch PC (for the predictor).
        pc: u64,
        /// Condition; `taken` in the trace means the condition held.
        cond: Cond,
        /// Statements executed when the condition holds.
        then: Vec<Stmt>,
        /// Statements executed otherwise.
        otherwise: Vec<Stmt>,
    },
    /// `BLOCK_BEGIN(id)` marker inserted by [`Program::annotate`].
    BlockBegin(BlockId),
    /// `BLOCK_END(id)` marker inserted by [`Program::annotate`].
    BlockEnd(BlockId),
}

impl Stmt {
    fn contains_loop(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Loop { .. } => true,
            Stmt::If {
                then, otherwise, ..
            } => Self::contains_loop(then) || Self::contains_loop(otherwise),
            _ => false,
        })
    }

    fn subst(&self, var: Var, replacement: &Expr) -> Stmt {
        match self {
            Stmt::Loop {
                var: lv,
                count,
                body,
            } => {
                if *lv == var {
                    // Shadowed: the inner loop's variable wins.
                    self.clone()
                } else {
                    Stmt::Loop {
                        var: lv,
                        count: count.subst(var, replacement),
                        body: body.iter().map(|s| s.subst(var, replacement)).collect(),
                    }
                }
            }
            Stmt::Load { pc, addr } => Stmt::Load {
                pc: *pc,
                addr: addr.subst(var, replacement),
            },
            Stmt::Store { pc, addr } => Stmt::Store {
                pc: *pc,
                addr: addr.subst(var, replacement),
            },
            Stmt::Let { var: lv, value } => Stmt::Let {
                var: lv,
                value: value.subst(var, replacement),
            },
            Stmt::Alu { .. } | Stmt::BlockBegin(_) | Stmt::BlockEnd(_) => self.clone(),
            Stmt::If {
                pc,
                cond,
                then,
                otherwise,
            } => Stmt::If {
                pc: *pc,
                cond: cond.subst(var, replacement),
                then: then.iter().map(|s| s.subst(var, replacement)).collect(),
                otherwise: otherwise
                    .iter()
                    .map(|s| s.subst(var, replacement))
                    .collect(),
            },
        }
    }
}

/// Errors raised by program execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DslError {
    /// A variable was read before being bound.
    UnboundVar(Var),
    /// An [`Expr::Index`] referenced a table never registered.
    UnknownTable(&'static str),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::UnboundVar(v) => write!(f, "unbound variable `{v}`"),
            DslError::UnknownTable(t) => write!(f, "unknown data table `{t}`"),
        }
    }
}

impl Error for DslError {}

/// A loop-nest program plus its data tables.
#[derive(Debug, Clone, Default)]
pub struct Program {
    body: Vec<Stmt>,
    tables: BTreeMap<&'static str, Vec<i64>>,
    next_block: u32,
    annotated: bool,
}

impl Program {
    /// Creates a program from its top-level statements.
    pub fn new(body: Vec<Stmt>) -> Self {
        Program {
            body,
            tables: BTreeMap::new(),
            next_block: 0,
            annotated: false,
        }
    }

    /// Registers a named data table readable via [`Expr::Index`]. Replaces
    /// any previous table of the same name; returns `self` for chaining.
    pub fn table(mut self, name: &'static str, data: Vec<i64>) -> Self {
        self.tables.insert(name, data);
        self
    }

    /// The top-level statements (inspection/tests).
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Whether [`Program::annotate`] has run.
    pub fn is_annotated(&self) -> bool {
        self.annotated
    }

    /// **The annotation pass**: brackets the body of every innermost loop
    /// with `BLOCK_BEGIN`/`BLOCK_END` markers carrying fresh static ids, in
    /// source order. Idempotent. Returns the number of loops annotated.
    pub fn annotate(&mut self) -> usize {
        if self.annotated {
            return 0;
        }
        self.annotated = true;
        let mut next = self.next_block;
        let mut body = std::mem::take(&mut self.body);
        let n = Self::annotate_stmts(&mut body, &mut next);
        self.body = body;
        self.next_block = next;
        n
    }

    fn annotate_stmts(stmts: &mut [Stmt], next: &mut u32) -> usize {
        let mut count = 0;
        for s in stmts {
            match s {
                Stmt::Loop { body, .. } => {
                    if Stmt::contains_loop(body) {
                        count += Self::annotate_stmts(body, next);
                    } else {
                        let id = BlockId(*next);
                        *next += 1;
                        body.insert(0, Stmt::BlockBegin(id));
                        body.push(Stmt::BlockEnd(id));
                        count += 1;
                    }
                }
                Stmt::If {
                    then, otherwise, ..
                } => {
                    count += Self::annotate_stmts(then, next);
                    count += Self::annotate_stmts(otherwise, next);
                }
                _ => {}
            }
        }
        count
    }

    /// Unrolls every innermost loop by `factor`, replicating the body with
    /// the loop variable rewritten to `var*factor + k`. Trip counts must be
    /// divisible by `factor` at run time for identical semantics (remaining
    /// iterations are dropped, as a real unroller's epilogue is omitted
    /// here). Annotation markers replicate with the body, preserving one
    /// block instance per original iteration.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn unroll_innermost(&mut self, factor: usize) {
        assert!(factor > 0, "unroll factor must be non-zero");
        let mut body = std::mem::take(&mut self.body);
        Self::unroll_stmts(&mut body, factor);
        self.body = body;
    }

    /// Splits every innermost loop's iteration range in two: the first loop
    /// runs iterations `0..count/2`, the second `count/2..count` (the other
    /// compiler transformation §IV-A names). Annotation markers replicate
    /// with the body, so each original iteration still commits exactly one
    /// `BLOCK_BEGIN`/`BLOCK_END` pair.
    pub fn split_innermost(&mut self) {
        let mut body = std::mem::take(&mut self.body);
        Self::split_stmts(&mut body);
        self.body = body;
    }

    fn split_stmts(stmts: &mut Vec<Stmt>) {
        let mut i = 0;
        while i < stmts.len() {
            let replace = match &mut stmts[i] {
                Stmt::Loop { var, count, body } => {
                    if Stmt::contains_loop(body) {
                        Self::split_stmts(body);
                        None
                    } else {
                        let var = *var;
                        let half = Expr::Div(Box::new(count.clone()), Box::new(Expr::Const(2)));
                        let rest = Expr::Sub(Box::new(count.clone()), Box::new(half.clone()));
                        let shifted: Vec<Stmt> = body
                            .iter()
                            .map(|s| s.subst(var, &Expr::Var(var).add(half.clone())))
                            .collect();
                        let first = Stmt::Loop {
                            var,
                            count: half,
                            body: std::mem::take(body),
                        };
                        let second = Stmt::Loop {
                            var,
                            count: rest,
                            body: shifted,
                        };
                        Some((first, second))
                    }
                }
                Stmt::If {
                    then, otherwise, ..
                } => {
                    Self::split_stmts(then);
                    Self::split_stmts(otherwise);
                    None
                }
                _ => None,
            };
            if let Some((first, second)) = replace {
                stmts[i] = first;
                stmts.insert(i + 1, second);
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    fn unroll_stmts(stmts: &mut Vec<Stmt>, factor: usize) {
        for s in stmts {
            match s {
                Stmt::Loop { var, count, body } => {
                    if Stmt::contains_loop(body) {
                        Self::unroll_stmts(body, factor);
                    } else {
                        let var = *var;
                        let mut new_body = Vec::with_capacity(body.len() * factor);
                        for k in 0..factor {
                            let rep = Expr::Var(var)
                                .mul(Expr::Const(factor as i64))
                                .add(Expr::Const(k as i64));
                            new_body.extend(body.iter().map(|st| st.subst(var, &rep)));
                        }
                        *body = new_body;
                        *count = Expr::Div(
                            Box::new(count.clone()),
                            Box::new(Expr::Const(factor as i64)),
                        );
                    }
                }
                Stmt::If {
                    then, otherwise, ..
                } => {
                    Self::unroll_stmts(then, factor);
                    Self::unroll_stmts(otherwise, factor);
                }
                _ => {}
            }
        }
    }

    /// Executes the program into a committed-instruction trace.
    ///
    /// # Errors
    ///
    /// Returns [`DslError`] on unbound variables or unknown tables.
    ///
    /// # Panics
    ///
    /// Panics if annotation markers are malformed (cannot happen for
    /// programs annotated by [`Program::annotate`]).
    pub fn execute(&self) -> Result<Trace, DslError> {
        let mut tb = TraceBuilder::new();
        self.execute_into(&mut tb)?;
        Ok(tb.finish())
    }

    /// Runs the program into an existing builder — the streaming
    /// generation path: a [`TraceBuilder::streaming`] sink sees the same
    /// event sequence [`Program::execute`] would materialize, flushed in
    /// chunks.
    ///
    /// Returns [`DslError`] on unbound variables or unknown tables; the
    /// caller finishes (or stream-finishes) the builder.
    pub fn execute_into(&self, tb: &mut TraceBuilder) -> Result<(), DslError> {
        let mut lower = Lowerer {
            tables: &self.tables,
            slots: BTreeMap::new(),
            names: Vec::new(),
        };
        let ops = lower.stmts(&self.body);
        let mut env = Env {
            vals: vec![None; lower.names.len()],
            names: lower.names,
        };
        run(&ops, &mut env, tb)
    }
}

/// A variable's index into the lowered environment.
type Slot = usize;

/// `c0 + Σ k·slot` in wrapping arithmetic: the folded form of an [`Expr`]
/// built only from constants, variables, `+`, `-` and `×` by a constant.
struct Affine {
    c0: i64,
    /// Every variable the source expression reads, once each, in the order
    /// the tree interpreter first reads it (left operand first). Terms
    /// whose coefficient folded to 0 stay, so reading an unbound variable
    /// is still an error.
    terms: Vec<(Slot, i64)>,
}

impl Affine {
    /// `ka·a + kb·b`, keeping `a`'s reads ahead of `b`'s.
    fn scaled_sum(a: Affine, ka: i64, b: Affine, kb: i64) -> Affine {
        let mut terms: Vec<(Slot, i64)> = a
            .terms
            .into_iter()
            .map(|(slot, k)| (slot, k.wrapping_mul(ka)))
            .collect();
        for (slot, k) in b.terms {
            let k = k.wrapping_mul(kb);
            match terms.iter_mut().find(|t| t.0 == slot) {
                Some(t) => t.1 = t.1.wrapping_add(k),
                None => terms.push((slot, k)),
            }
        }
        Affine {
            c0: a.c0.wrapping_mul(ka).wrapping_add(b.c0.wrapping_mul(kb)),
            terms,
        }
    }

    /// The value, when it does not depend on any variable.
    fn constant(&self) -> Option<i64> {
        self.terms.iter().all(|&(_, k)| k == 0).then_some(self.c0)
    }

    fn eval(&self, env: &Env) -> Result<i64, DslError> {
        let mut acc = self.c0;
        for &(slot, k) in &self.terms {
            acc = acc.wrapping_add(k.wrapping_mul(env.get(slot)?));
        }
        Ok(acc)
    }
}

/// An [`Expr`] after lowering. Affine subtrees are folded; `Rem`, `Div`,
/// `Index` and products of two variable operands keep their tree form.
enum Lowered<'p> {
    Affine(Affine),
    Add(Box<Lowered<'p>>, Box<Lowered<'p>>),
    Sub(Box<Lowered<'p>>, Box<Lowered<'p>>),
    Mul(Box<Lowered<'p>>, Box<Lowered<'p>>),
    Rem(Box<Lowered<'p>>, Box<Lowered<'p>>),
    Div(Box<Lowered<'p>>, Box<Lowered<'p>>),
    Index {
        name: &'static str,
        /// `None` for a table never registered: an error only when read.
        table: Option<&'p [i64]>,
        idx: Box<Lowered<'p>>,
    },
}

impl Lowered<'_> {
    /// Evaluates with the tree interpreter's semantics, errors included:
    /// operands left to right, except that `Rem`/`Div` read the divisor
    /// first and skip the dividend when it is 0, and `Index` resolves its
    /// table before reading the index.
    fn eval(&self, env: &Env) -> Result<i64, DslError> {
        Ok(match self {
            Lowered::Affine(a) => a.eval(env)?,
            Lowered::Add(a, b) => a.eval(env)?.wrapping_add(b.eval(env)?),
            Lowered::Sub(a, b) => a.eval(env)?.wrapping_sub(b.eval(env)?),
            Lowered::Mul(a, b) => a.eval(env)?.wrapping_mul(b.eval(env)?),
            Lowered::Rem(a, b) => match b.eval(env)? {
                0 => 0,
                d => a.eval(env)?.rem_euclid(d),
            },
            Lowered::Div(a, b) => match b.eval(env)? {
                0 => 0,
                d => a.eval(env)?.div_euclid(d),
            },
            Lowered::Index { name, table, idx } => {
                let t = table.ok_or(DslError::UnknownTable(name))?;
                if t.is_empty() {
                    0
                } else {
                    t[idx.eval(env)?.rem_euclid(t.len() as i64) as usize]
                }
            }
        })
    }
}

/// A [`Cond`] after lowering.
enum LoweredCond<'p> {
    Lt(Lowered<'p>, Lowered<'p>),
    NonZero(Lowered<'p>),
}

impl LoweredCond<'_> {
    fn eval(&self, env: &Env) -> Result<bool, DslError> {
        Ok(match self {
            LoweredCond::Lt(a, b) => a.eval(env)? < b.eval(env)?,
            LoweredCond::NonZero(a) => a.eval(env)? != 0,
        })
    }
}

/// A [`Stmt`] after lowering, with everything that does not depend on the
/// environment precomputed.
enum Op<'p> {
    Loop {
        slot: Slot,
        count: Lowered<'p>,
        back_pc: Pc,
        body: Vec<Op<'p>>,
    },
    /// A load or store; `access.addr` is overwritten per execution.
    Mem {
        access: MemAccess,
        addr: Lowered<'p>,
    },
    Let {
        slot: Slot,
        value: Lowered<'p>,
    },
    Alu {
        pc: Pc,
        count: u32,
    },
    If {
        pc: Pc,
        cond: LoweredCond<'p>,
        then: Vec<Op<'p>>,
        otherwise: Vec<Op<'p>>,
    },
    BlockBegin(BlockId),
    BlockEnd(BlockId),
}

/// The lowered environment: one value per slot, `None` until bound.
struct Env {
    vals: Vec<Option<i64>>,
    names: Vec<Var>,
}

impl Env {
    fn get(&self, slot: Slot) -> Result<i64, DslError> {
        self.vals[slot].ok_or(DslError::UnboundVar(self.names[slot]))
    }
}

/// The lowering pass: assigns slots and resolves tables as it goes.
struct Lowerer<'p> {
    tables: &'p BTreeMap<&'static str, Vec<i64>>,
    slots: BTreeMap<Var, Slot>,
    names: Vec<Var>,
}

impl<'p> Lowerer<'p> {
    fn slot(&mut self, var: Var) -> Slot {
        *self.slots.entry(var).or_insert_with(|| {
            self.names.push(var);
            self.names.len() - 1
        })
    }

    fn expr(&mut self, expr: &Expr) -> Lowered<'p> {
        let mut pair = |a: &Expr, b: &Expr| (self.expr(a), self.expr(b));
        match expr {
            Expr::Const(c) => Lowered::Affine(Affine {
                c0: *c,
                terms: Vec::new(),
            }),
            Expr::Var(v) => Lowered::Affine(Affine {
                c0: 0,
                terms: vec![(self.slot(v), 1)],
            }),
            Expr::Add(a, b) => match pair(a, b) {
                (Lowered::Affine(a), Lowered::Affine(b)) => {
                    Lowered::Affine(Affine::scaled_sum(a, 1, b, 1))
                }
                (a, b) => Lowered::Add(Box::new(a), Box::new(b)),
            },
            Expr::Sub(a, b) => match pair(a, b) {
                (Lowered::Affine(a), Lowered::Affine(b)) => {
                    Lowered::Affine(Affine::scaled_sum(a, 1, b, -1))
                }
                (a, b) => Lowered::Sub(Box::new(a), Box::new(b)),
            },
            Expr::Mul(a, b) => match pair(a, b) {
                (Lowered::Affine(a), Lowered::Affine(b)) => match (a.constant(), b.constant()) {
                    (_, Some(k)) => Lowered::Affine(Affine::scaled_sum(a, k, b, 0)),
                    (Some(k), None) => Lowered::Affine(Affine::scaled_sum(a, 0, b, k)),
                    (None, None) => {
                        Lowered::Mul(Box::new(Lowered::Affine(a)), Box::new(Lowered::Affine(b)))
                    }
                },
                (a, b) => Lowered::Mul(Box::new(a), Box::new(b)),
            },
            Expr::Rem(a, b) => {
                let (a, b) = pair(a, b);
                Lowered::Rem(Box::new(a), Box::new(b))
            }
            Expr::Div(a, b) => {
                let (a, b) = pair(a, b);
                Lowered::Div(Box::new(a), Box::new(b))
            }
            Expr::Index { table, idx } => Lowered::Index {
                name: table,
                table: self.tables.get(table).map(Vec::as_slice),
                idx: Box::new(self.expr(idx)),
            },
        }
    }

    fn cond(&mut self, cond: &Cond) -> LoweredCond<'p> {
        match cond {
            Cond::Lt(a, b) => LoweredCond::Lt(self.expr(a), self.expr(b)),
            Cond::NonZero(a) => LoweredCond::NonZero(self.expr(a)),
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Vec<Op<'p>> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &Stmt) -> Op<'p> {
        let mut mem = |pc: u64, addr: &Expr, kind: MemKind| Op::Mem {
            access: MemAccess {
                pc: Pc(pc),
                addr: Addr(0),
                kind,
                dep: if addr.is_data_dependent() {
                    Dependence::PrevLoad
                } else {
                    Dependence::None
                },
            },
            addr: self.expr(addr),
        };
        match stmt {
            Stmt::Loop { var, count, body } => Op::Loop {
                count: self.expr(count),
                slot: self.slot(var),
                // A stable back-branch PC from the loop variable's
                // address-independent identity.
                back_pc: Pc(0xB100_0000 | (fnv(var) & 0xFF_FFFF)),
                body: self.stmts(body),
            },
            Stmt::Load { pc, addr } => mem(*pc, addr, MemKind::Load),
            Stmt::Store { pc, addr } => mem(*pc, addr, MemKind::Store),
            Stmt::Let { var, value } => Op::Let {
                value: self.expr(value),
                slot: self.slot(var),
            },
            Stmt::Alu { pc, count } => Op::Alu {
                pc: Pc(*pc),
                count: *count,
            },
            Stmt::If {
                pc,
                cond,
                then,
                otherwise,
            } => Op::If {
                pc: Pc(*pc),
                cond: self.cond(cond),
                then: self.stmts(then),
                otherwise: self.stmts(otherwise),
            },
            Stmt::BlockBegin(id) => Op::BlockBegin(*id),
            Stmt::BlockEnd(id) => Op::BlockEnd(*id),
        }
    }
}

/// Executes lowered statements — the only production execution path.
fn run(ops: &[Op<'_>], env: &mut Env, tb: &mut TraceBuilder) -> Result<(), DslError> {
    for op in ops {
        match op {
            Op::Loop {
                slot,
                count,
                back_pc,
                body,
            } => {
                let n = count.eval(env)?.max(0);
                for i in 0..n {
                    env.vals[*slot] = Some(i);
                    run(body, env, tb)?;
                    tb.branch(*back_pc, i + 1 != n);
                }
            }
            Op::Mem { access, addr } => {
                let a = addr.eval(env)?.max(0) as u64;
                tb.mem(MemAccess {
                    addr: Addr(a),
                    ..*access
                });
            }
            Op::Let { slot, value } => {
                let v = value.eval(env)?;
                env.vals[*slot] = Some(v);
            }
            Op::Alu { pc, count } => tb.alu(*pc, *count),
            Op::If {
                pc,
                cond,
                then,
                otherwise,
            } => {
                let taken = cond.eval(env)?;
                tb.branch(*pc, taken);
                run(if taken { then } else { otherwise }, env, tb)?;
            }
            Op::BlockBegin(id) => tb.begin_block(*id),
            Op::BlockEnd(id) => tb.end_block(*id),
        }
    }
    Ok(())
}

/// FNV-1a over a static string, for stable synthetic PCs.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod oracle {
    //! The tree interpreter the lowered executor replaced — every variable
    //! a map lookup by name, every address tree walked on every access —
    //! kept as the reference the lowered executor is checked against,
    //! events and errors alike, on random programs.

    use super::*;
    use cbws_trace::TraceEvent;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex};

    type Tables = BTreeMap<&'static str, Vec<i64>>;

    fn eval(expr: &Expr, env: &BTreeMap<Var, i64>, tables: &Tables) -> Result<i64, DslError> {
        Ok(match expr {
            Expr::Const(c) => *c,
            Expr::Var(v) => *env.get(v).ok_or(DslError::UnboundVar(v))?,
            Expr::Add(a, b) => eval(a, env, tables)?.wrapping_add(eval(b, env, tables)?),
            Expr::Sub(a, b) => eval(a, env, tables)?.wrapping_sub(eval(b, env, tables)?),
            Expr::Mul(a, b) => eval(a, env, tables)?.wrapping_mul(eval(b, env, tables)?),
            Expr::Rem(a, b) => {
                let d = eval(b, env, tables)?;
                if d == 0 {
                    0
                } else {
                    eval(a, env, tables)?.rem_euclid(d)
                }
            }
            Expr::Div(a, b) => {
                let d = eval(b, env, tables)?;
                if d == 0 {
                    0
                } else {
                    eval(a, env, tables)?.div_euclid(d)
                }
            }
            Expr::Index { table, idx } => {
                let t = tables.get(table).ok_or(DslError::UnknownTable(table))?;
                if t.is_empty() {
                    0
                } else {
                    let i = eval(idx, env, tables)?.rem_euclid(t.len() as i64) as usize;
                    t[i]
                }
            }
        })
    }

    fn cond(c: &Cond, env: &BTreeMap<Var, i64>, tables: &Tables) -> Result<bool, DslError> {
        Ok(match c {
            Cond::Lt(a, b) => eval(a, env, tables)? < eval(b, env, tables)?,
            Cond::NonZero(a) => eval(a, env, tables)? != 0,
        })
    }

    fn exec_stmts(
        stmts: &[Stmt],
        env: &mut BTreeMap<Var, i64>,
        tables: &Tables,
        tb: &mut TraceBuilder,
    ) -> Result<(), DslError> {
        for s in stmts {
            match s {
                Stmt::Loop { var, count, body } => {
                    let n = eval(count, env, tables)?.max(0);
                    let back_pc = Pc(0xB100_0000 | (fnv(var) & 0xFF_FFFF));
                    for i in 0..n {
                        env.insert(var, i);
                        exec_stmts(body, env, tables, tb)?;
                        tb.branch(back_pc, i + 1 != n);
                    }
                }
                Stmt::Load { pc, addr } | Stmt::Store { pc, addr } => {
                    let a = eval(addr, env, tables)?.max(0) as u64;
                    tb.mem(MemAccess {
                        pc: Pc(*pc),
                        addr: Addr(a),
                        kind: if matches!(s, Stmt::Load { .. }) {
                            MemKind::Load
                        } else {
                            MemKind::Store
                        },
                        dep: if addr.is_data_dependent() {
                            Dependence::PrevLoad
                        } else {
                            Dependence::None
                        },
                    });
                }
                Stmt::Let { var, value } => {
                    let v = eval(value, env, tables)?;
                    env.insert(var, v);
                }
                Stmt::Alu { pc, count } => tb.alu(Pc(*pc), *count),
                Stmt::If {
                    pc,
                    cond: c,
                    then,
                    otherwise,
                } => {
                    let taken = cond(c, env, tables)?;
                    tb.branch(Pc(*pc), taken);
                    if taken {
                        exec_stmts(then, env, tables, tb)?;
                    } else {
                        exec_stmts(otherwise, env, tables, tb)?;
                    }
                }
                Stmt::BlockBegin(id) => tb.begin_block(*id),
                Stmt::BlockEnd(id) => tb.end_block(*id),
            }
        }
        Ok(())
    }

    /// Every event a run emits, in order — including those before an
    /// error — and its result, or `None` if it panicked (`i64::MIN % -1`).
    type Outcome = (Vec<TraceEvent>, Option<Result<(), DslError>>);

    fn record(run: impl FnOnce(&mut TraceBuilder) -> Result<(), DslError>) -> Outcome {
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        // One-event frames: every event reaches the sink, decoded, as soon
        // as it is emitted, so a panicking run still reports its prefix.
        let mut tb = TraceBuilder::streaming(1, move |frame: cbws_trace::PackedTrace| {
            sink.lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(frame.cursor())
        });
        let result = catch_unwind(AssertUnwindSafe(|| run(&mut tb))).ok();
        let events = events.lock().unwrap_or_else(|e| e.into_inner()).clone();
        (events, result)
    }

    fn interpreted(p: &Program) -> Outcome {
        record(|tb| exec_stmts(&p.body, &mut BTreeMap::new(), &p.tables, tb))
    }

    fn lowered(p: &Program) -> Outcome {
        record(|tb| p.execute_into(tb))
    }

    const VARS: [Var; 4] = ["i", "j", "k", "n"];
    const TABLES: [&str; 4] = ["t", "t", "empty", "ghost"];

    fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
        xs[rng.below(xs.len() as u64) as usize]
    }

    fn constant(rng: &mut TestRng) -> i64 {
        match rng.below(8) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => rng.next_u64() as i64,
            _ => rng.below(12) as i64 - 4,
        }
    }

    fn bin(f: fn(Box<Expr>, Box<Expr>) -> Expr, a: Expr, b: Expr) -> Expr {
        f(Box::new(a), Box::new(b))
    }

    fn expr(rng: &mut TestRng, depth: u32) -> Expr {
        if depth == 0 || rng.below(3) == 0 {
            return if rng.below(2) == 0 {
                Expr::Const(constant(rng))
            } else {
                Expr::Var(pick(rng, &VARS))
            };
        }
        let sub = |rng: &mut TestRng| expr(rng, depth - 1);
        match rng.below(9) {
            0 => bin(Expr::Add, sub(rng), sub(rng)),
            1 => bin(Expr::Sub, sub(rng), sub(rng)),
            2 => bin(Expr::Mul, sub(rng), sub(rng)),
            3 => bin(Expr::Mul, sub(rng), Expr::Const(constant(rng))),
            4 => bin(Expr::Rem, sub(rng), sub(rng)),
            5 => bin(Expr::Div, sub(rng), sub(rng)),
            6 => Expr::Index {
                table: pick(rng, &TABLES),
                idx: Box::new(sub(rng)),
            },
            // Terms that cancel: the fold's coefficient is 0, but the
            // variables are still read.
            7 => {
                let e = sub(rng);
                bin(Expr::Sub, e.clone(), e)
            }
            _ => bin(Expr::Mul, sub(rng), Expr::Const(0)),
        }
    }

    /// A trip count in `-2..=4`, possibly computed (and possibly failing).
    fn count(rng: &mut TestRng) -> Expr {
        match rng.below(4) {
            0 => Expr::Const(rng.below(7) as i64 - 2),
            1 => Expr::Const(1 + rng.below(4) as i64),
            _ => bin(
                Expr::Sub,
                bin(Expr::Rem, expr(rng, 2), Expr::Const(7)),
                Expr::Const(2),
            ),
        }
    }

    fn stmts(rng: &mut TestRng, depth: u32, min: u64, max: u64) -> Vec<Stmt> {
        (0..min + rng.below(max - min + 1))
            .map(|_| stmt(rng, depth))
            .collect()
    }

    fn stmt(rng: &mut TestRng, depth: u32) -> Stmt {
        let pc = rng.below(64);
        match rng.below(if depth == 0 { 5 } else { 8 }) {
            0 => Stmt::Load {
                pc,
                addr: expr(rng, 3),
            },
            1 => Stmt::Store {
                pc,
                addr: expr(rng, 3),
            },
            2 | 3 => Stmt::Let {
                var: pick(rng, &VARS),
                value: expr(rng, 2),
            },
            4 => Stmt::Alu {
                pc,
                count: rng.below(3) as u32,
            },
            5 => {
                let cond = if rng.below(2) == 0 {
                    Cond::Lt(expr(rng, 2), expr(rng, 2))
                } else {
                    Cond::NonZero(expr(rng, 2))
                };
                Stmt::If {
                    pc,
                    cond,
                    then: stmts(rng, depth - 1, 0, 2),
                    otherwise: stmts(rng, depth - 1, 0, 2),
                }
            }
            _ => Stmt::Loop {
                var: pick(rng, &VARS),
                count: count(rng),
                body: stmts(rng, depth - 1, 1, 3),
            },
        }
    }

    /// Random programs: a few leading bindings, nested loops and ifs,
    /// annotated or not, then unrolled and/or split or left as they are.
    struct Programs;

    impl Strategy for Programs {
        type Value = Program;

        fn sample(&self, rng: &mut TestRng) -> Program {
            let mut body = Vec::new();
            for var in VARS {
                if rng.below(4) != 0 {
                    body.push(Stmt::Let {
                        var,
                        value: Expr::Const(constant(rng)),
                    });
                }
            }
            for _ in 0..1 + rng.below(3) {
                let s = match rng.below(2) {
                    0 => Stmt::Loop {
                        var: pick(rng, &VARS),
                        count: count(rng),
                        body: stmts(rng, 2, 1, 3),
                    },
                    _ => stmt(rng, 3),
                };
                body.push(s);
            }
            let t = (0..1 + rng.below(4)).map(|_| constant(rng)).collect();
            let mut p = Program::new(body).table("t", t).table("empty", Vec::new());
            if rng.below(4) != 0 {
                p.annotate();
            }
            match rng.below(4) {
                0 => {}
                1 => p.unroll_innermost(1 + rng.below(3) as usize),
                2 => p.split_innermost(),
                _ => {
                    p.split_innermost();
                    p.unroll_innermost(2);
                }
            }
            p
        }
    }

    proptest! {
        #[test]
        fn lowered_executor_matches_the_tree_interpreter(
            programs in collection::vec(Programs, 8..9)
        ) {
            for p in &programs {
                prop_assert_eq!(lowered(p), interpreted(p), "program: {:?}", p);
            }
        }
    }

    fn load(addr: Expr) -> Program {
        Program::new(vec![Stmt::Load { pc: 0, addr }])
    }

    /// The lowered result, after checking it against the interpreter.
    fn checked(p: &Program) -> Option<Result<(), DslError>> {
        let got = lowered(p);
        assert_eq!(got, interpreted(p));
        got.1
    }

    use super::e::{c, idx, v};

    #[test]
    fn unbound_errors_name_the_first_variable_read() {
        let err = |v| Some(Err(DslError::UnboundVar(v)));
        assert_eq!(checked(&load(v("a").add(v("b")))), err("a"));
        // The divisor is read first, and a zero divisor skips the dividend.
        let rem = Expr::Rem(Box::new(v("a")), Box::new(v("b")));
        assert_eq!(checked(&load(rem)), err("b"));
        let div = Expr::Div(Box::new(v("a")), Box::new(c(0)));
        assert_eq!(checked(&load(div)), Some(Ok(())));
        // Cancelling terms still read their variable.
        let cancel = Expr::Sub(Box::new(v("a")), Box::new(v("a")));
        assert_eq!(checked(&load(cancel)), err("a"));
        assert_eq!(checked(&load(v("a").mul(c(0)))), err("a"));
    }

    #[test]
    fn unknown_tables_fail_before_their_index_is_read() {
        assert_eq!(
            checked(&load(idx("ghost", v("a")))),
            Some(Err(DslError::UnknownTable("ghost")))
        );
        let empty = load(idx("empty", v("a"))).table("empty", Vec::new());
        assert_eq!(checked(&empty), Some(Ok(())));
    }

    #[test]
    fn folding_wraps_like_the_interpreter() {
        let p = Program::new(vec![
            Stmt::Let {
                var: "x",
                value: c(i64::MAX),
            },
            Stmt::Load {
                pc: 0,
                addr: Expr::Sub(Box::new(v("x").mul(c(3))), Box::new(c(i64::MIN))),
            },
        ]);
        assert_eq!(checked(&p), Some(Ok(())));
    }
}

#[cfg(test)]
mod tests {
    use super::e::{c, idx, v};
    use super::*;
    use cbws_trace::TraceEvent;

    fn simple_nest() -> Program {
        // for i in 0..3 { for j in 0..4 { load A[i*4+j]; } }
        Program::new(vec![Stmt::Loop {
            var: "i",
            count: c(3),
            body: vec![Stmt::Loop {
                var: "j",
                count: c(4),
                body: vec![Stmt::Load {
                    pc: 0x10,
                    addr: v("i").mul(c(4 * 64)).add(v("j").mul(c(64))),
                }],
            }],
        }])
    }

    #[test]
    fn annotate_marks_innermost_only() {
        let mut p = simple_nest();
        assert_eq!(p.annotate(), 1);
        let trace = p.execute().unwrap();
        let s = trace.stats();
        assert_eq!(s.dynamic_blocks, 12); // 3 * 4 iterations
        assert_eq!(s.static_blocks, 1);
    }

    #[test]
    fn annotate_is_idempotent() {
        let mut p = simple_nest();
        assert_eq!(p.annotate(), 1);
        assert_eq!(p.annotate(), 0);
    }

    #[test]
    fn annotate_handles_sibling_loops_and_ifs() {
        let mut p = Program::new(vec![
            Stmt::Loop {
                var: "a",
                count: c(2),
                body: vec![Stmt::Alu { pc: 0, count: 1 }],
            },
            Stmt::If {
                pc: 0x99,
                cond: Cond::Lt(c(0), c(1)),
                then: vec![Stmt::Loop {
                    var: "b",
                    count: c(2),
                    body: vec![Stmt::Alu { pc: 0, count: 1 }],
                }],
                otherwise: vec![],
            },
        ]);
        assert_eq!(p.annotate(), 2);
        let trace = p.execute().unwrap();
        assert_eq!(trace.stats().static_blocks, 2);
    }

    #[test]
    fn execution_addresses_are_affine() {
        let mut p = simple_nest();
        p.annotate();
        let trace = p.execute().unwrap();
        let addrs: Vec<u64> = trace
            .iter()
            .filter_map(|e| e.mem().map(|m| m.addr.0))
            .collect();
        let expect: Vec<u64> = (0..3)
            .flat_map(|i| (0..4).map(move |j| (i * 4 + j) * 64))
            .collect();
        assert_eq!(addrs, expect);
    }

    #[test]
    fn unroll_preserves_per_iteration_blocks() {
        let mut p = simple_nest();
        p.annotate();
        let before = p.execute().unwrap();
        p.unroll_innermost(2);
        let after = p.execute().unwrap();
        // Same dynamic block count and same access sequence.
        assert_eq!(before.stats().dynamic_blocks, after.stats().dynamic_blocks);
        let a1: Vec<u64> = before
            .iter()
            .filter_map(|e| e.mem().map(|m| m.addr.0))
            .collect();
        let a2: Vec<u64> = after
            .iter()
            .filter_map(|e| e.mem().map(|m| m.addr.0))
            .collect();
        assert_eq!(a1, a2);
    }

    #[test]
    fn unroll_reduces_back_branches() {
        let mut p = simple_nest();
        p.annotate();
        let before = p.execute().unwrap().stats().branches;
        p.unroll_innermost(2);
        let after = p.execute().unwrap().stats().branches;
        assert!(after < before, "unrolling should halve inner back-branches");
    }

    #[test]
    fn split_preserves_access_stream_and_blocks() {
        let mut plain = simple_nest();
        plain.annotate();
        let before = plain.execute().unwrap();
        let mut split = simple_nest();
        split.annotate();
        split.split_innermost();
        let after = split.execute().unwrap();
        assert_eq!(before.stats().dynamic_blocks, after.stats().dynamic_blocks);
        let a1: Vec<u64> = before
            .iter()
            .filter_map(|e| e.mem().map(|m| m.addr.0))
            .collect();
        let a2: Vec<u64> = after
            .iter()
            .filter_map(|e| e.mem().map(|m| m.addr.0))
            .collect();
        assert_eq!(a1, a2, "splitting must not change the access stream");
    }

    #[test]
    fn split_handles_odd_trip_counts() {
        let mut p = Program::new(vec![Stmt::Loop {
            var: "i",
            count: c(7),
            body: vec![Stmt::Load {
                pc: 0x10,
                addr: v("i").mul(c(64)),
            }],
        }]);
        p.annotate();
        p.split_innermost();
        let trace = p.execute().unwrap();
        let addrs: Vec<u64> = trace
            .iter()
            .filter_map(|e| e.mem().map(|m| m.addr.0))
            .collect();
        let expect: Vec<u64> = (0..7).map(|i| i * 64).collect();
        assert_eq!(addrs, expect);
        assert_eq!(trace.stats().dynamic_blocks, 7);
    }

    #[test]
    fn split_then_unroll_composes() {
        let mut p = simple_nest();
        p.annotate();
        p.split_innermost();
        p.unroll_innermost(2);
        let trace = p.execute().unwrap();
        // 3 outer x (2 + 2) inner iterations survive both transforms.
        assert_eq!(trace.stats().dynamic_blocks, 12);
    }

    #[test]
    fn index_reads_table_and_marks_dependence() {
        let mut p = Program::new(vec![Stmt::Loop {
            var: "i",
            count: c(4),
            body: vec![
                Stmt::Load {
                    pc: 0x10,
                    addr: v("i").mul(c(64)),
                },
                Stmt::Load {
                    pc: 0x14,
                    addr: idx("t", v("i")).mul(c(64)),
                },
            ],
        }])
        .table("t", vec![7, 3, 9, 1]);
        p.annotate();
        let trace = p.execute().unwrap();
        let mems: Vec<&MemAccess> = trace.iter().filter_map(|e| e.mem()).collect();
        assert_eq!(mems[1].addr.0, 7 * 64);
        assert_eq!(mems[1].dep, Dependence::PrevLoad);
        assert_eq!(mems[0].dep, Dependence::None);
    }

    #[test]
    fn if_emits_branch_events() {
        let mut p = Program::new(vec![Stmt::Loop {
            var: "i",
            count: c(4),
            body: vec![Stmt::If {
                pc: 0x20,
                cond: Cond::Lt(Expr::Rem(Box::new(v("i")), Box::new(c(2))), c(1)),
                then: vec![Stmt::Store {
                    pc: 0x24,
                    addr: c(0),
                }],
                otherwise: vec![Stmt::Alu { pc: 0x28, count: 1 }],
            }],
        }]);
        p.annotate();
        let trace = p.execute().unwrap();
        let dirs: Vec<bool> = trace
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Branch(b) if b.pc == Pc(0x20) => Some(b.taken),
                _ => None,
            })
            .collect();
        assert_eq!(dirs, vec![true, false, true, false]);
        assert_eq!(trace.stats().stores, 2);
    }

    #[test]
    fn unbound_variable_errors() {
        let p = Program::new(vec![Stmt::Load {
            pc: 0,
            addr: v("nope"),
        }]);
        assert_eq!(p.execute().unwrap_err(), DslError::UnboundVar("nope"));
    }

    #[test]
    fn unknown_table_errors() {
        let p = Program::new(vec![Stmt::Load {
            pc: 0,
            addr: idx("ghost", c(0)),
        }]);
        assert_eq!(p.execute().unwrap_err(), DslError::UnknownTable("ghost"));
    }

    #[test]
    fn zero_and_negative_trip_counts() {
        let mut p = Program::new(vec![Stmt::Loop {
            var: "i",
            count: c(-5),
            body: vec![Stmt::Load { pc: 0, addr: c(0) }],
        }]);
        p.annotate();
        let trace = p.execute().unwrap();
        assert_eq!(trace.stats().mem_accesses, 0);
        assert_eq!(trace.stats().dynamic_blocks, 0);
    }

    #[test]
    fn cbws_sees_identical_working_sets_after_unroll() {
        // The paper's §IV-A claim, end to end: per-iteration CBWS vectors
        // are invariant under unrolling because the markers replicate.
        use cbws_core::analysis::collect_block_histories;
        let make = || {
            let mut p = Program::new(vec![Stmt::Loop {
                var: "i",
                count: c(8),
                body: vec![
                    Stmt::Load {
                        pc: 0x10,
                        addr: v("i").mul(c(4096)),
                    },
                    Stmt::Load {
                        pc: 0x14,
                        addr: v("i").mul(c(4096)).add(c(1 << 20)),
                    },
                ],
            }]);
            p.annotate();
            p
        };
        let plain = make().execute().unwrap();
        let mut unrolled_p = make();
        unrolled_p.unroll_innermost(4);
        let unrolled = unrolled_p.execute().unwrap();
        let h1 = collect_block_histories(&plain, 16);
        let h2 = collect_block_histories(&unrolled, 16);
        let v1: Vec<_> = h1[&BlockId(0)]
            .instances
            .iter()
            .map(|w| w.lines().to_vec())
            .collect();
        let v2: Vec<_> = h2[&BlockId(0)]
            .instances
            .iter()
            .map(|w| w.lines().to_vec())
            .collect();
        assert_eq!(v1, v2);
    }
}
