//! Stateless operators: σ, π and ω, run as one compiled
//! [`TupleProgram`] per maximal chain.
//!
//! Because FRA expressions are pure functions of their input tuple (the
//! payoff of the paper's schema inference), these operators keep **no
//! state**: a chain of them maps one row to zero or more rows, with
//! multiplicities untouched (σ/π) or fanned out (ω).
//! [`pgq_algebra::program`] compiles the chain; this module is where its
//! rows come from and go to. Every path runs it row by row on borrowed
//! values in front of the consumer (`Programmed`): maintenance over a
//! shared input's delta ([`program_into`]) or inside the step of the one
//! node it reads (a fused pair, see `network::schedule`), registration
//! over a full bag. A row the program passes through unchanged is handed
//! on as the row it received (a refcount bump for a held tuple), an
//! assembled one is allocated only where a consumer keeps it.

use pgq_algebra::program::{Emit, Scratch, TupleProgram};

use crate::delta::{Delta, Row, RowSink};

/// A program, if any, in front of a consumer: every row pushed in runs
/// through the program on borrowed values, and only what comes out
/// reaches `out`; without a program every row goes straight through.
pub(crate) struct Programmed<'a, S: RowSink + ?Sized> {
    pub(crate) program: Option<(&'a TupleProgram, &'a mut Scratch)>,
    pub(crate) out: &'a mut S,
}

impl<S: RowSink + ?Sized> RowSink for Programmed<'_, S> {
    #[inline]
    fn push_row(&mut self, row: Row<'_>, mult: i64) {
        let out = &mut *self.out;
        match &mut self.program {
            None => out.push_row(row, mult),
            Some((program, scratch)) => {
                program.run(row.values(), scratch, |emitted| match emitted {
                    Emit::Input => out.push_row(row, mult),
                    Emit::Row(values) => out.push_row(Row::Assembled(values), mult),
                })
            }
        }
    }
}

/// Run `program` over every row of `input`, appending what comes out to
/// `out`; `scratch` is the node's own, so steady-state maintenance
/// allocates nothing here beyond the output tuples.
#[inline(never)]
pub fn program_into(
    program: &TupleProgram,
    input: &Delta,
    scratch: &mut Scratch,
    out: &mut (impl RowSink + ?Sized),
) {
    let mut sink = Programmed {
        program: Some((program, scratch)),
        out,
    };
    for (t, m) in input.iter() {
        sink.push_row(Row::Held(t), *m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_algebra::expr::ScalarExpr;
    use pgq_algebra::fra::Fra;
    use pgq_common::tuple::Tuple;
    use pgq_common::value::Value;
    use pgq_parser::ast::BinOp;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    fn d(entries: &[(&[i64], i64)]) -> Delta {
        entries.iter().map(|(v, m)| (t(v), *m)).collect()
    }

    /// The program of `op` stacked on a unit scan.
    fn program(op: impl FnOnce(Box<Fra>) -> Fra) -> TupleProgram {
        TupleProgram::compile(&op(Box::new(Fra::Unit))).unwrap().0
    }

    fn run(program: &TupleProgram, input: Delta) -> Delta {
        let mut out = Delta::new();
        program_into(program, &input, &mut Scratch::default(), &mut out);
        out
    }

    fn gt5() -> TupleProgram {
        program(|input| Fra::Filter {
            input,
            predicate: ScalarExpr::Binary(
                BinOp::Gt,
                Box::new(ScalarExpr::col(0)),
                Box::new(ScalarExpr::lit(5)),
            ),
        })
    }

    fn unwind(expr: ScalarExpr) -> TupleProgram {
        program(|input| Fra::Unwind {
            input,
            expr,
            alias: "x".into(),
        })
    }

    #[test]
    fn filter_keeps_true_only() {
        let input = d(&[(&[3], 1), (&[7], 1), (&[9], -1)]);
        let want = vec![(t(&[7]), 1), (t(&[9]), -1)];
        assert_eq!(run(&gt5(), input).into_entries(), want);
    }

    #[test]
    fn project_applies_expressions() {
        let p = program(|input| Fra::Project {
            input,
            items: vec![(
                ScalarExpr::Binary(
                    BinOp::Add,
                    Box::new(ScalarExpr::col(0)),
                    Box::new(ScalarExpr::lit(1)),
                ),
                "x".into(),
            )],
        });
        assert_eq!(run(&p, d(&[(&[1], 2)])).into_entries(), vec![(t(&[2]), 2)]);
    }

    #[test]
    fn project_error_yields_null() {
        // Negating a string errors → column becomes null, row survives.
        let p = program(|input| Fra::Project {
            input,
            items: vec![(
                ScalarExpr::Unary(
                    pgq_parser::ast::UnOp::Neg,
                    Box::new(ScalarExpr::lit("oops")),
                ),
                "x".into(),
            )],
        });
        let entries = run(&p, d(&[(&[1], 1)])).into_entries();
        assert_eq!(entries[0].0.get(0), &Value::Null);
    }

    #[test]
    fn unwind_fans_out_and_preserves_sign() {
        let list = ScalarExpr::List(vec![ScalarExpr::lit(10), ScalarExpr::lit(20)]);
        let out = run(&unwind(list), d(&[(&[1], -2)]));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, m)| *m == -2));
    }

    #[test]
    fn unwind_of_null_and_scalar_is_empty() {
        assert!(run(&unwind(ScalarExpr::Lit(Value::Null)), d(&[(&[1], 1)])).is_empty());
        assert!(run(&unwind(ScalarExpr::lit(5)), d(&[(&[1], 1)])).is_empty());
    }
}
