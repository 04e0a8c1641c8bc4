//! Stateless operators: filter, project, unwind.
//!
//! Because FRA expressions are pure functions of their input tuple (the
//! payoff of the paper's schema inference), these operators keep **no
//! state**: each maps one row to zero or more rows, with multiplicities
//! untouched (filter/project) or fanned out (unwind). [`Stage`] is that
//! per-row map; maintenance loops it over a delta, registration chains
//! it behind a full-bag enumeration ([`Chain`]).

use pgq_algebra::expr::ScalarExpr;
use pgq_common::value::Value;

use crate::delta::{Delta, Row, RowSink};

/// One stateless operator, applied a row at a time — the one σ/π/ω
/// implementation: maintenance loops it over a delta, registration
/// streams an enumeration through a [`Chain`] of them.
#[derive(Clone, Copy, Debug)]
pub enum Stage<'a> {
    /// σ: keep the rows whose predicate is `true`.
    Filter(&'a ScalarExpr),
    /// π: one row of item values per row. Expression errors produce
    /// `null` in the affected column, mirroring Cypher's lenient runtime.
    Project(&'a [(ScalarExpr, String)]),
    /// ω: one row per list element appended to the row; `null` and
    /// non-list values produce no rows (openCypher `UNWIND null` yields
    /// nothing). Paths are unwound through `nodes()`/`relationships()`.
    Unwind(&'a ScalarExpr),
}

impl Stage<'_> {
    /// Hand `emit` what this operator makes of `row`: the row itself or
    /// nothing (σ), or rows assembled in `buf` (π, ω) — borrowed, so a
    /// row costs an allocation only where a consumer keeps it.
    #[inline]
    pub fn apply(&self, row: Row<'_>, buf: &mut Vec<Value>, mut emit: impl FnMut(Row<'_>)) {
        match *self {
            Stage::Filter(predicate) => {
                if predicate.matches(row.values()) {
                    emit(row);
                }
            }
            Stage::Project(items) => {
                buf.clear();
                buf.extend(
                    items
                        .iter()
                        .map(|(e, _)| e.eval(row.values()).unwrap_or(Value::Null)),
                );
                emit(Row::Assembled(buf));
            }
            Stage::Unwind(expr) => {
                if let Ok(Value::List(items)) = expr.eval(row.values()) {
                    for item in items.iter() {
                        buf.clear();
                        buf.extend_from_slice(row.values());
                        buf.push(item.clone());
                        emit(Row::Assembled(buf));
                    }
                }
            }
        }
    }

    /// Does the operator keep a consolidated input consolidated? σ keeps
    /// a subset; π and ω can map two rows to one.
    pub fn keeps_consolidated(&self) -> bool {
        matches!(self, Stage::Filter(_))
    }
}

/// A σ/π/ω chain in front of a consumer: every row pushed in runs up the
/// stages on borrowed values, and only the rows that come out of the top
/// reach `out`.
pub struct Chain<'a, S: RowSink + ?Sized> {
    /// Bottom stage first, each with its row-assembly buffer.
    stages: Vec<(Stage<'a>, Vec<Value>)>,
    out: &'a mut S,
}

impl<'a, S: RowSink + ?Sized> Chain<'a, S> {
    /// `stages` bottom first, in front of `out`.
    pub fn new(stages: impl IntoIterator<Item = Stage<'a>>, out: &'a mut S) -> Chain<'a, S> {
        Chain {
            stages: stages.into_iter().map(|s| (s, Vec::new())).collect(),
            out,
        }
    }
}

fn run_up<S: RowSink + ?Sized>(
    stages: &mut [(Stage<'_>, Vec<Value>)],
    row: Row<'_>,
    mult: i64,
    out: &mut S,
) {
    match stages.split_first_mut() {
        None => out.push_row(row, mult),
        Some(((stage, buf), above)) => stage.apply(row, buf, |r| run_up(above, r, mult, out)),
    }
}

impl<S: RowSink + ?Sized> RowSink for Chain<'_, S> {
    fn push_row(&mut self, row: Row<'_>, mult: i64) {
        run_up(&mut self.stages, row, mult, self.out);
    }
}

/// Run `stage` over every row of `input`, appending what comes out to
/// `out` (tuple clones of a σ are refcount bumps); `buf` is the caller's
/// row-assembly buffer (the network keeps one per π node, so steady-state
/// maintenance allocates nothing here beyond the output tuples).
fn stage_into(stage: Stage<'_>, input: &Delta, buf: &mut Vec<Value>, out: &mut Delta) {
    for (t, m) in input.iter() {
        stage.apply(Row::Held(t), buf, |row| out.push_row(row, *m));
    }
}

/// Apply σ to a borrowed delta, appending passing rows to `out`.
pub fn filter_into(predicate: &ScalarExpr, input: &Delta, out: &mut Delta) {
    stage_into(Stage::Filter(predicate), input, &mut Vec::new(), out);
}

/// Apply π to a borrowed delta, appending rewritten rows to `out`;
/// `scratch` is the caller-owned assembly buffer.
pub fn project_into(
    items: &[(ScalarExpr, String)],
    input: &Delta,
    scratch: &mut Vec<Value>,
    out: &mut Delta,
) {
    stage_into(Stage::Project(items), input, scratch, out);
}

/// Apply ω to a borrowed delta, appending fanned-out rows to `out`.
pub fn unwind_into(expr: &ScalarExpr, input: &Delta, out: &mut Delta) {
    stage_into(Stage::Unwind(expr), input, &mut Vec::new(), out);
}

/// Apply σ to an owned delta, in place (the entry vector is reused).
pub fn filter_delta(predicate: &ScalarExpr, input: Delta) -> Delta {
    let mut entries = input.into_entries();
    entries.retain(|(t, _)| {
        let mut keep = false;
        Stage::Filter(predicate).apply(Row::Held(t), &mut Vec::new(), |_| keep = true);
        keep
    });
    Delta::from_entries(entries)
}

/// Apply π to an owned delta, rewriting each row in place through one
/// reused scratch buffer.
pub fn project_delta(items: &[(ScalarExpr, String)], input: Delta) -> Delta {
    let mut entries = input.into_entries();
    let mut buf: Vec<Value> = Vec::with_capacity(items.len());
    for (t, _) in entries.iter_mut() {
        let mut projected = None;
        Stage::Project(items).apply(Row::Held(t), &mut buf, |row| {
            projected = Some(row.to_tuple())
        });
        if let Some(p) = projected {
            *t = p;
        }
    }
    Delta::from_entries(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_common::tuple::Tuple;
    use pgq_parser::ast::BinOp;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&i| Value::Int(i)).collect()
    }

    fn d(entries: &[(&[i64], i64)]) -> Delta {
        entries.iter().map(|(v, m)| (t(v), *m)).collect()
    }

    fn unwind_delta(expr: &ScalarExpr, input: Delta) -> Delta {
        let mut out = Delta::new();
        unwind_into(expr, &input, &mut out);
        out
    }

    #[test]
    fn filter_keeps_true_only() {
        let pred = ScalarExpr::Binary(
            BinOp::Gt,
            Box::new(ScalarExpr::col(0)),
            Box::new(ScalarExpr::lit(5)),
        );
        let out = filter_delta(&pred, d(&[(&[3], 1), (&[7], 1), (&[9], -1)]));
        assert_eq!(
            out.consolidate().into_entries(),
            vec![(t(&[7]), 1), (t(&[9]), -1)]
        );
    }

    #[test]
    fn project_applies_expressions() {
        let items = vec![(
            ScalarExpr::Binary(
                BinOp::Add,
                Box::new(ScalarExpr::col(0)),
                Box::new(ScalarExpr::lit(1)),
            ),
            "x".to_string(),
        )];
        let out = project_delta(&items, d(&[(&[1], 2)]));
        assert_eq!(out.consolidate().into_entries(), vec![(t(&[2]), 2)]);
    }

    #[test]
    fn project_error_yields_null() {
        // Negating a string errors → column becomes null, row survives.
        let items = vec![(
            ScalarExpr::Unary(
                pgq_parser::ast::UnOp::Neg,
                Box::new(ScalarExpr::lit("oops")),
            ),
            "x".to_string(),
        )];
        let out = project_delta(&items, d(&[(&[1], 1)]));
        let entries = out.consolidate().into_entries();
        assert_eq!(entries[0].0.get(0), &Value::Null);
    }

    #[test]
    fn unwind_fans_out_and_preserves_sign() {
        let expr = ScalarExpr::List(vec![ScalarExpr::lit(10), ScalarExpr::lit(20)]);
        let out = unwind_delta(&expr, d(&[(&[1], -2)]));
        let entries = out.consolidate().into_entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|(_, m)| *m == -2));
    }

    #[test]
    fn unwind_of_null_and_scalar_is_empty() {
        let out = unwind_delta(&ScalarExpr::Lit(Value::Null), d(&[(&[1], 1)]));
        assert!(out.is_empty());
        let out = unwind_delta(&ScalarExpr::lit(5), d(&[(&[1], 1)]));
        assert!(out.is_empty());
    }
}
