//! Tuple programs: a maximal σ/π/ω chain compiled to one flat
//! instruction list, run a row at a time over borrowed values.
//!
//! The stateless operators of FRA are pure functions of their input row,
//! so a chain of them is one function too. [`TupleProgram::compile`]
//! takes the maximal run of σ, π and ω at the root of a plan, bottom
//! first — a δ or any stateful operator ends it — and writes it as the
//! instruction sequence a small interpreter ([`TupleProgram::run`])
//! executes per row:
//!
//! * a σ is one truth computation per top-level conjunct, each followed
//!   by a `Filter` instruction, so a row leaves at its first failing
//!   conjunct;
//! * comparisons of a column against a column or a literal, `AND`, `OR`,
//!   `XOR`, `NOT` and `IS NULL` are instructions of their own that read
//!   their operands in place — nothing is cloned to be compared, and an
//!   `=`, `<>`, `<`, `<=`, `>` or `>=` yields its truth without building
//!   a value;
//! * a π item that is a column or a literal is copied into the row being
//!   assembled; every other expression, in a predicate or a π item, is
//!   one `Test` / `Eval` instruction run by [`ScalarExpr::eval`];
//! * an ω fans the rest of the program out over the list's elements.
//!
//! Semantics are those of [`ScalarExpr::eval`] operator by operator
//! (`crates/algebra/tests/program_props.rs` holds the two equal):
//! Kleene logic, and a failing operand is `null` to the expression
//! around it, so a predicate that fails drops the row and a π item that
//! fails is `null`.
//!
//! The dataflow network runs each chain as one node, registration
//! streams full bags through the same program (`pgq_ivm::network`), and
//! the one-shot evaluator runs the chain above each of its operators as
//! one (`pgq_eval`).

use std::fmt;

use pgq_common::value::Value;
use pgq_parser::ast::{BinOp, UnOp};

use crate::expr::{apply_binary, comparison, truth, ScalarExpr};
use crate::fra::Fra;

/// A value an instruction reads in place.
#[derive(Clone, Debug, PartialEq)]
enum Operand {
    /// A column of the current row.
    Col(usize),
    /// A constant.
    Lit(Value),
}

impl Operand {
    fn of(e: &ScalarExpr) -> Option<Operand> {
        match e {
            ScalarExpr::Col(i) => Some(Operand::Col(*i)),
            ScalarExpr::Lit(v) => Some(Operand::Lit(v.clone())),
            _ => None,
        }
    }

    #[inline]
    fn get<'a>(&'a self, row: &'a [Value]) -> &'a Value {
        match self {
            Operand::Col(i) => &row[*i],
            Operand::Lit(v) => v,
        }
    }
}

/// One instruction. Truth instructions push onto, or combine on, a stack
/// of Kleene truth values (`None` is `null`); value instructions append
/// one value to the row a π is assembling; stage instructions end a σ, π
/// or ω.
#[derive(Clone, Debug, PartialEq)]
enum Instr {
    /// Push the truth of a comparison (`=`, `<>`, `<`, `<=`, `>`, `>=`,
    /// `IN`, `STARTS WITH`, `ENDS WITH`, `CONTAINS`) of two operands.
    Cmp(BinOp, Operand, Operand),
    /// Push whether the operand is `null` (is not, when the flag is set).
    IsNull(Operand, bool),
    /// Pop two truths, push their Kleene conjunction.
    And,
    /// Pop two truths, push their Kleene disjunction.
    Or,
    /// Pop two truths, push their exclusive or (`null` if either is).
    Xor,
    /// Negate the top truth.
    Not,
    /// Push the truth of any other expression.
    Test(ScalarExpr),
    /// Append an operand.
    Copy(Operand),
    /// Append the value of any other expression (`null` if it fails).
    Eval(ScalarExpr),
    /// σ: pop a truth; the row goes on only if it is `true`.
    Filter,
    /// π: the values appended since the stage began are the row.
    Project,
    /// ω: the rest of the program runs once per element of the list the
    /// expression yields, on the row with the element appended — not at
    /// all for `null`, a non-list or a failure.
    Unwind(ScalarExpr),
}

/// What a run hands on for one surviving row.
#[derive(Clone, Copy, Debug)]
pub enum Emit<'a> {
    /// The input row itself: every stage it went through was a σ.
    Input,
    /// A row assembled in the scratch buffers.
    Row(&'a [Value]),
}

/// A program's reusable working memory: its truth stack and one row
/// buffer per π/ω. Kept beside the program by its caller, so steady-state
/// runs allocate only what the consumer keeps.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    truths: Vec<Option<bool>>,
    rows: Vec<Vec<Value>>,
}

/// A compiled σ/π/ω chain (module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TupleProgram {
    instrs: Vec<Instr>,
    /// The chain's operator glyphs, bottom first.
    glyphs: Vec<char>,
    /// Row buffers a run needs: one per π/ω, plus the one the last
    /// stage's successor would fill (never written).
    buffers: usize,
}

impl TupleProgram {
    /// The maximal σ/π/ω chain at the root of `fra`, compiled, and the
    /// plan below it; `None` when the root is not σ, π or ω.
    pub fn compile(fra: &Fra) -> Option<(TupleProgram, &Fra)> {
        let mut chain = Vec::new();
        let mut below = fra;
        while let Fra::Filter { input, .. }
        | Fra::Project { input, .. }
        | Fra::Unwind { input, .. } = below
        {
            chain.push(below);
            below = input;
        }
        if chain.is_empty() {
            return None;
        }
        let mut program = TupleProgram {
            buffers: 1,
            ..TupleProgram::default()
        };
        for op in chain.into_iter().rev() {
            match op {
                Fra::Filter { predicate, .. } => {
                    for conjunct in predicate.clone().operands(BinOp::And) {
                        program.truth(&conjunct);
                        program.instrs.push(Instr::Filter);
                    }
                    program.glyphs.push('σ');
                }
                Fra::Project { items, .. } => {
                    for (e, _) in items {
                        program.instrs.push(match Operand::of(e) {
                            Some(a) => Instr::Copy(a),
                            None => Instr::Eval(e.clone()),
                        });
                    }
                    program.instrs.push(Instr::Project);
                    program.glyphs.push('π');
                    program.buffers += 1;
                }
                Fra::Unwind { expr, .. } => {
                    program.instrs.push(Instr::Unwind(expr.clone()));
                    program.glyphs.push('ω');
                    program.buffers += 1;
                }
                _ => unreachable!("the chain holds σ/π/ω only"),
            }
        }
        Some((program, below))
    }

    /// Append the instructions pushing `e`'s truth.
    fn truth(&mut self, e: &ScalarExpr) {
        use BinOp::*;
        let instr = match e {
            ScalarExpr::Binary(op @ (And | Or | Xor), l, r) => {
                self.truth(l);
                self.truth(r);
                match op {
                    And => Instr::And,
                    Or => Instr::Or,
                    _ => Instr::Xor,
                }
            }
            ScalarExpr::Unary(UnOp::Not, x) => {
                self.truth(x);
                Instr::Not
            }
            ScalarExpr::Binary(
                op @ (Eq | Neq | Lt | Le | Gt | Ge | In | StartsWith | EndsWith | Contains),
                l,
                r,
            ) => match (Operand::of(l), Operand::of(r)) {
                (Some(a), Some(b)) => Instr::Cmp(*op, a, b),
                _ => Instr::Test(e.clone()),
            },
            ScalarExpr::IsNull { expr, negated } => match Operand::of(expr) {
                Some(a) => Instr::IsNull(a, *negated),
                None => Instr::Test(e.clone()),
            },
            _ => Instr::Test(e.clone()),
        };
        self.instrs.push(instr);
    }

    /// Is every stage a σ? Then a row comes out as itself or not at all,
    /// so a consolidated input stays consolidated.
    pub fn is_filter(&self) -> bool {
        self.glyphs.iter().all(|&g| g == 'σ')
    }

    /// Run the program over `row`, handing `emit` every row that comes
    /// out of it.
    pub fn run(&self, row: &[Value], scratch: &mut Scratch, mut emit: impl FnMut(Emit<'_>)) {
        if scratch.rows.len() < self.buffers {
            scratch.rows.resize_with(self.buffers, Vec::new);
        }
        let Scratch { truths, rows } = scratch;
        self.run_from(0, row, true, truths, rows, &mut emit);
    }

    /// Run from instruction `pc` on `row` (the program's input when
    /// `input`); `rows[0]` is where the next π/ω assembles.
    fn run_from<F: FnMut(Emit<'_>)>(
        &self,
        pc: usize,
        row: &[Value],
        input: bool,
        truths: &mut Vec<Option<bool>>,
        rows: &mut [Vec<Value>],
        emit: &mut F,
    ) {
        let (next, rest) = rows.split_first_mut().expect("a buffer per π/ω");
        next.clear();
        for (at, instr) in self.instrs.iter().enumerate().skip(pc) {
            match instr {
                Instr::Cmp(op, l, r) => {
                    let (l, r) = (l.get(row), r.get(row));
                    truths.push(match op {
                        BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                            comparison(*op, l, r)
                        }
                        _ => truth(&apply_binary(*op, l, r).unwrap_or(Value::Null)),
                    });
                }
                Instr::IsNull(a, negated) => truths.push(Some(a.get(row).is_null() != *negated)),
                Instr::And | Instr::Or | Instr::Xor => {
                    let (r, l) = (pop(truths), pop(truths));
                    truths.push(match instr {
                        Instr::And => match (l, r) {
                            (Some(false), _) | (_, Some(false)) => Some(false),
                            (Some(true), Some(true)) => Some(true),
                            _ => None,
                        },
                        Instr::Or => match (l, r) {
                            (Some(true), _) | (_, Some(true)) => Some(true),
                            (Some(false), Some(false)) => Some(false),
                            _ => None,
                        },
                        _ => l.zip(r).map(|(a, b)| a != b),
                    });
                }
                Instr::Not => {
                    let t = pop(truths);
                    truths.push(t.map(|b| !b));
                }
                Instr::Test(e) => truths.push(truth(&e.eval(row).unwrap_or(Value::Null))),
                Instr::Copy(a) => next.push(a.get(row).clone()),
                Instr::Eval(e) => next.push(e.eval(row).unwrap_or(Value::Null)),
                Instr::Filter => {
                    if pop(truths) != Some(true) {
                        return;
                    }
                }
                Instr::Project => return self.run_from(at + 1, next, false, truths, rest, emit),
                Instr::Unwind(e) => {
                    let owned;
                    let list = match e {
                        ScalarExpr::Col(i) => &row[*i],
                        e => {
                            owned = e.eval(row).unwrap_or(Value::Null);
                            &owned
                        }
                    };
                    if let Value::List(items) = list {
                        for item in items.iter() {
                            next.clear();
                            next.extend_from_slice(row);
                            next.push(item.clone());
                            self.run_from(at + 1, next, false, truths, rest, emit);
                        }
                    }
                    return;
                }
            }
        }
        emit(if input { Emit::Input } else { Emit::Row(row) });
    }
}

/// The EXPLAIN line naming the programs the network runs `plan`'s σ/π/ω
/// chains as, outermost first: `programs: σ→π [7], π [4]`.
pub(crate) fn explain_programs(plan: &Fra) -> String {
    fn collect(fra: &Fra, out: &mut Vec<String>) {
        let below = match TupleProgram::compile(fra) {
            Some((program, below)) => {
                out.push(program.to_string());
                below
            }
            None => fra,
        };
        match below {
            Fra::HashJoin { left, right, .. } | Fra::SemiJoin { left, right, .. } => {
                collect(left, out);
                collect(right, out);
            }
            Fra::VarLengthJoin { left: input, .. }
            | Fra::Distinct { input }
            | Fra::Aggregate { input, .. } => collect(input, out),
            Fra::MultiwayJoin { inputs, .. } => inputs.iter().for_each(|i| collect(i, out)),
            _ => {}
        }
    }
    let mut programs = Vec::new();
    collect(
        &crate::canon::canonicalize(plan).with_restored_order(),
        &mut programs,
    );
    if programs.is_empty() {
        programs.push("none".into());
    }
    format!("programs: {}\n", programs.join(", "))
}

fn pop(truths: &mut Vec<Option<bool>>) -> Option<bool> {
    truths.pop().expect("an operand truth")
}

/// `σ→π [4]`: the chain's glyphs bottom first, then the instruction count.
impl fmt::Display for TupleProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let chain: Vec<String> = self.glyphs.iter().map(char::to_string).collect();
        write!(f, "{} [{}]", chain.join("→"), self.instrs.len())
    }
}
