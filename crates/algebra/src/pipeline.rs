//! The full compilation pipeline: openCypher AST → GRA → NRA → FRA, plus
//! the maintainability verdict.

use std::collections::HashMap;

use pgq_parser::ast::{Expr, Query};

use crate::compile::{split_aggregates, Compiler};
use crate::error::AlgebraError;
use crate::expr::ScalarExpr;
use crate::flatten::flatten;
use crate::fra::Fra;
use crate::gra::{Gra, VarKind};
use crate::nra::Nra;
use crate::to_nra::to_nra;

/// A fully compiled read query, carrying all three pipeline stages (for
/// EXPLAIN and the golden-text experiments) and the executable FRA plan.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    /// Stage-1 graph relational algebra.
    pub gra: Gra,
    /// Stage-2 nested relational algebra.
    pub nra: Nra,
    /// Stage-3 flat relational algebra (executable).
    pub fra: Fra,
    /// Output column names.
    pub columns: Vec<String>,
    /// Kind of each query variable.
    pub kinds: HashMap<String, VarKind>,
    /// `ORDER BY` keys over the *output* columns (baseline evaluator
    /// only; makes the view non-maintainable).
    pub order_by: Vec<(ScalarExpr, bool)>,
    /// `SKIP` count.
    pub skip: Option<usize>,
    /// `LIMIT` count.
    pub limit: Option<usize>,
    /// Reasons this query is not incrementally maintainable (empty =
    /// maintainable; the paper's fragment check).
    pub not_maintainable: Vec<String>,
}

impl CompiledQuery {
    /// Is the query inside the incrementally maintainable fragment?
    pub fn is_maintainable(&self) -> bool {
        self.not_maintainable.is_empty()
    }

    /// Run the cost-based planner over this query's FRA under `stats`
    /// and render the chosen plan with estimated cardinalities per
    /// operator — the programmatic `EXPLAIN` (the engine and shell wrap
    /// this with a statistics snapshot of the live graph).
    pub fn explain_plan(&self, stats: &crate::plan::PlanStats) -> String {
        let opts = crate::plan::PlanOptions::default();
        let (planned, report) = crate::plan::plan_with_report(&self.fra, stats, &opts);
        let mut out = String::new();
        out.push_str(if planned.changed {
            "planner: reordered the plan (estimated cardinalities below)\n"
        } else {
            "planner: kept the syntactic order (estimated cardinalities below)\n"
        });
        for d in &report.fuse_decisions {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(
            &planned
                .fra
                .explain_with(&mut |op| crate::plan::estimate_note(op, stats)),
        );
        out.push_str(&crate::program::explain_programs(&planned.fra));
        out
    }
}

/// Compile a read-only query through all three stages.
pub fn compile_query(query: &Query) -> Result<CompiledQuery, AlgebraError> {
    compile_query_params(query, &[])
}

/// Compile a one-shot read statement whose `$name` parameters are
/// `params`: `$params[i]` becomes the slot [`ScalarExpr::Param`]`(i)`,
/// to be filled by [`Fra::bind`] before evaluation. `SKIP` / `LIMIT`
/// and `ORDER BY` take no parameters.
pub fn compile_query_params(
    query: &Query,
    params: &[String],
) -> Result<CompiledQuery, AlgebraError> {
    if query.is_update() {
        return Err(AlgebraError::InvalidQuery(
            "data-modification query; use the engine's execute() instead of a view".into(),
        ));
    }
    let ret = query
        .return_clause()
        .ok_or_else(|| AlgebraError::InvalidQuery("query has no RETURN clause".into()))?
        .clone();

    let mut compiler = Compiler::default();
    let plan = compiler.compile_reading(query)?;

    // Build the RETURN part of the GRA tree.
    let mut gra = match split_aggregates(&ret)? {
        Some((group, aggs)) => {
            let agg = Gra::Aggregate {
                input: Box::new(plan.body),
                group: group.clone(),
                aggs: aggs.clone(),
            };
            // Aggregate schema is group ++ aggs; restore RETURN order.
            let agg_schema: Vec<String> = group
                .iter()
                .map(|(_, n)| n.clone())
                .chain(aggs.iter().map(|(_, n)| n.clone()))
                .collect();
            let return_names: Vec<String> = ret.items.iter().map(|i| i.name()).collect();
            if agg_schema == return_names {
                agg
            } else {
                Gra::Project {
                    input: Box::new(agg),
                    items: return_names
                        .iter()
                        .map(|n| (Expr::Variable(n.clone()), n.clone()))
                        .collect(),
                }
            }
        }
        None => Gra::Project {
            input: Box::new(plan.body),
            items: ret
                .items
                .iter()
                .map(|i| (i.expr.clone(), i.name()))
                .collect(),
        },
    };
    if ret.distinct {
        gra = Gra::Distinct {
            input: Box::new(gra),
        };
    }

    let mut cq = lower(gra, plan.kinds, params)?;

    // ORDER BY / SKIP / LIMIT: parsed and resolved for the baseline
    // evaluator, recorded as non-maintainability reasons (the paper's
    // explicit trade-off: no ordering, no top-k).
    if !ret.order_by.is_empty() {
        cq.not_maintainable
            .push("ORDER BY requires maintained ordering (ORD)".to_string());
        for (e, asc) in &ret.order_by {
            let resolved = resolve_over_output(e, &cq.columns)?;
            cq.order_by.push((resolved, *asc));
        }
    }
    if let Some(e) = &ret.skip {
        cq.not_maintainable
            .push("SKIP requires maintained ordering".to_string());
        cq.skip = Some(usize_literal(e, "SKIP")?);
    }
    if let Some(e) = &ret.limit {
        cq.not_maintainable
            .push("LIMIT is a top-k construct".to_string());
        cq.limit = Some(usize_literal(e, "LIMIT")?);
    }
    Ok(cq)
}

/// Compile the *reading* part of a (possibly updating) query and project
/// the given items — used by the engine to bind update clauses. Items may
/// be plain variables or arbitrary expressions over the matched pattern
/// (e.g. the right-hand side of a `SET`).
pub fn compile_bindings(
    query: &Query,
    items: &[(Expr, String)],
) -> Result<CompiledQuery, AlgebraError> {
    compile_bindings_params(query, items, &[])
}

/// [`compile_bindings`] for a statement with the parameters `params`
/// (slots as in [`compile_query_params`]).
pub fn compile_bindings_params(
    query: &Query,
    items: &[(Expr, String)],
    params: &[String],
) -> Result<CompiledQuery, AlgebraError> {
    let mut compiler = Compiler::default();
    let plan = compiler.compile_reading(query)?;
    for (e, _) in items {
        for v in e.free_variables() {
            if !plan.kinds.contains_key(&v) {
                return Err(AlgebraError::UnknownVariable(v));
            }
        }
    }
    let gra = Gra::Project {
        input: Box::new(plan.body),
        items: items.to_vec(),
    };
    lower(gra, plan.kinds, params)
}

/// Stages 2 and 3 of a compiled GRA plan whose variables are `kinds`: a
/// query with no ORDER BY, SKIP or LIMIT yet.
fn lower(
    gra: Gra,
    kinds: HashMap<String, VarKind>,
    params: &[String],
) -> Result<CompiledQuery, AlgebraError> {
    let nra = to_nra(&gra, &kinds)?;
    let fra = flatten(&nra, &kinds, params)?;
    Ok(CompiledQuery {
        columns: fra.schema(),
        gra,
        nra,
        fra,
        kinds,
        order_by: Vec::new(),
        skip: None,
        limit: None,
        not_maintainable: Vec::new(),
    })
}

fn usize_literal(e: &Expr, what: &str) -> Result<usize, AlgebraError> {
    match e {
        Expr::Literal(pgq_common::value::Value::Int(n)) if *n >= 0 => Ok(*n as usize),
        _ => Err(AlgebraError::Unsupported(format!(
            "{what} must be a non-negative integer literal"
        ))),
    }
}

/// Resolve an ORDER BY expression against the output schema (aliases and
/// returned column names only).
fn resolve_over_output(e: &Expr, columns: &[String]) -> Result<ScalarExpr, AlgebraError> {
    // Output columns behave like plain value variables.
    Ok(match e {
        Expr::Literal(v) => ScalarExpr::Lit(v.clone()),
        Expr::Variable(name) => {
            ScalarExpr::Col(columns.iter().position(|c| c == name).ok_or_else(|| {
                AlgebraError::Unsupported(format!(
                    "ORDER BY expression references `{name}`, which is not a \
                         returned column"
                ))
            })?)
        }
        Expr::Property(base, key) => {
            // Allow `alias.prop` only when the *textual* name is a
            // returned column (e.g. RETURN n.len ... ORDER BY n.len).
            let text = format!("{}.{key}", base);
            if let Some(i) = columns.iter().position(|c| c == &text) {
                ScalarExpr::Col(i)
            } else {
                return Err(AlgebraError::Unsupported(format!(
                    "ORDER BY expression `{text}` is not a returned column"
                )));
            }
        }
        Expr::Binary(op, l, r) => ScalarExpr::Binary(
            *op,
            Box::new(resolve_over_output(l, columns)?),
            Box::new(resolve_over_output(r, columns)?),
        ),
        Expr::Unary(op, x) => ScalarExpr::Unary(*op, Box::new(resolve_over_output(x, columns)?)),
        Expr::Function {
            name,
            distinct: false,
            args,
        } => ScalarExpr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| resolve_over_output(a, columns))
                .collect::<Result<_, _>>()?,
        },
        other => {
            return Err(AlgebraError::Unsupported(format!(
                "ORDER BY expression {other} is not supported"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_parser::parse_query;

    fn compile(src: &str) -> CompiledQuery {
        compile_query(&parse_query(src).unwrap()).unwrap()
    }

    #[test]
    fn running_example_compiles_end_to_end() {
        let cq =
            compile("MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t");
        assert_eq!(cq.columns, vec!["p".to_string(), "t".to_string()]);
        assert!(cq.is_maintainable());
        // FRA must contain a variable-length join and two pushed props.
        fn has_varlen(f: &Fra) -> bool {
            match f {
                Fra::VarLengthJoin { .. } => true,
                Fra::HashJoin { left, right, .. } => has_varlen(left) || has_varlen(right),
                Fra::Filter { input, .. }
                | Fra::Project { input, .. }
                | Fra::Distinct { input }
                | Fra::Aggregate { input, .. }
                | Fra::Unwind { input, .. } => has_varlen(input),
                _ => false,
            }
        }
        assert!(has_varlen(&cq.fra));
    }

    #[test]
    fn push_down_reaches_the_scan() {
        let cq = compile("MATCH (p:Post) WHERE p.lang = 'en' RETURN p");
        fn scan_props(f: &Fra) -> Vec<String> {
            match f {
                Fra::ScanVertices { props, .. } => props.iter().map(|p| p.col.clone()).collect(),
                Fra::HashJoin { left, right, .. } => {
                    let mut v = scan_props(left);
                    v.extend(scan_props(right));
                    v
                }
                Fra::Filter { input, .. }
                | Fra::Project { input, .. }
                | Fra::Distinct { input }
                | Fra::Aggregate { input, .. }
                | Fra::Unwind { input, .. } => scan_props(input),
                Fra::VarLengthJoin { left, .. } => scan_props(left),
                _ => vec![],
            }
        }
        assert_eq!(scan_props(&cq.fra), vec!["p.lang".to_string()]);
    }

    #[test]
    fn order_by_marks_not_maintainable() {
        let cq = compile("MATCH (n:Post) RETURN n.lang AS l ORDER BY l LIMIT 3");
        assert!(!cq.is_maintainable());
        assert_eq!(cq.not_maintainable.len(), 2);
        assert_eq!(cq.limit, Some(3));
    }

    #[test]
    fn order_by_unreturned_column_rejected() {
        let q = parse_query("MATCH (n:Post) RETURN n.lang AS l ORDER BY n.score").unwrap();
        assert!(compile_query(&q).is_err());
    }

    #[test]
    fn aggregates_compile() {
        let cq = compile("MATCH (n:Post) RETURN n.lang AS l, count(*) AS c");
        assert_eq!(cq.columns, vec!["l".to_string(), "c".to_string()]);
        assert!(cq.is_maintainable());
    }

    #[test]
    fn aggregate_return_order_restored() {
        let cq = compile("MATCH (n:Post) RETURN count(*) AS c, n.lang AS l");
        assert_eq!(cq.columns, vec!["c".to_string(), "l".to_string()]);
    }

    #[test]
    fn update_query_rejected_for_views() {
        let q = parse_query("CREATE (n:Post)").unwrap();
        assert!(matches!(
            compile_query(&q),
            Err(AlgebraError::InvalidQuery(_))
        ));
    }

    #[test]
    fn missing_return_rejected() {
        let q = parse_query("MATCH (n:Post) SET n.x = 1").unwrap();
        assert!(compile_query(&q).is_err());
    }

    #[test]
    fn compile_bindings_projects_requested_vars() {
        let q = parse_query("MATCH (n:Post)-[r:REPLY]->(m) SET n.x = 1").unwrap();
        let items = vec![
            (Expr::Variable("n".into()), "n".to_string()),
            (Expr::Variable("r".into()), "r".to_string()),
        ];
        let cq = compile_bindings(&q, &items).unwrap();
        assert_eq!(cq.columns, vec!["n".to_string(), "r".to_string()]);
    }

    #[test]
    fn compile_bindings_rejects_unknown_vars() {
        let q = parse_query("MATCH (n:Post) SET n.x = 1").unwrap();
        let items = vec![(Expr::Variable("zz".into()), "zz".to_string())];
        assert!(matches!(
            compile_bindings(&q, &items),
            Err(AlgebraError::UnknownVariable(_))
        ));
    }

    #[test]
    fn unwind_path_nodes_with_props() {
        // Property access on an UNWIND alias forces an auxiliary scan join.
        let cq =
            compile("MATCH t = (a:Post)-[:REPLY*]->(b:Comm) UNWIND nodes(t) AS n RETURN n.lang");
        assert_eq!(cq.columns, vec!["n.lang".to_string()]);
    }

    #[test]
    fn distinct_produces_distinct_node() {
        let cq = compile("MATCH (n:Post) RETURN DISTINCT n.lang");
        assert!(matches!(cq.fra, Fra::Distinct { .. }));
    }
}
