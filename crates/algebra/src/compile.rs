//! Step 1 of the paper's workflow: compile openCypher reading clauses to
//! graph relational algebra (GRA), following the mapping of
//! Marton/Szárnyas/Varró (ADBIS 2017) that the paper builds on.

use std::collections::HashMap;

use pgq_common::intern::Symbol;
use pgq_parser::ast::{Clause, Expr, NodePattern, PathPattern, Query, ReturnClause};

use crate::error::AlgebraError;
use crate::gra::{Gra, PathMode, VarKind, VarLen};

/// Result of compiling the reading part of a query.
#[derive(Clone, Debug)]
pub(crate) struct ReadPlan {
    /// The GRA tree *before* the final RETURN projection.
    pub(crate) body: Gra,
    /// Kind of every bound variable.
    pub(crate) kinds: HashMap<String, VarKind>,
}

/// Compiler state threaded through clause compilation.
#[derive(Default)]
pub(crate) struct Compiler {
    /// Currently-in-scope variables (narrowed by WITH).
    kinds: HashMap<String, VarKind>,
    /// Every variable ever bound (the algebra tree below a WITH still
    /// references pre-WITH variables, so later pipeline stages need the
    /// full map).
    all_kinds: HashMap<String, VarKind>,
    /// Names dropped by a WITH projection: re-binding them later would
    /// make the generated `var.prop` column names ambiguous, so it is
    /// rejected (rename in the WITH instead).
    retired: std::collections::HashSet<String>,
    fresh: usize,
}

impl Compiler {
    /// Fresh internal variable name (cannot collide with user names, which
    /// never start with `_` followed by our prefixes... they can, so we
    /// include a NUL-free but unlikely marker).
    fn fresh(&mut self, prefix: &str) -> String {
        let name = format!("_{prefix}{}", self.fresh);
        self.fresh += 1;
        name
    }

    fn bind(&mut self, var: &str, kind: VarKind) -> Result<(), AlgebraError> {
        if self.retired.contains(var) && !self.kinds.contains_key(var) {
            return Err(AlgebraError::Unsupported(format!(
                "re-binding `{var}` after it was dropped by WITH; use a different \
                 name or carry it through the WITH"
            )));
        }
        match self.kinds.get(var) {
            None => {
                self.kinds.insert(var.to_string(), kind);
                self.all_kinds.insert(var.to_string(), kind);
                Ok(())
            }
            Some(k) if *k == kind => Ok(()),
            Some(k) => Err(AlgebraError::InvalidQuery(format!(
                "variable `{var}` is already bound as {k:?}, cannot rebind as {kind:?}"
            ))),
        }
    }

    fn is_bound(&self, var: &str) -> bool {
        self.kinds.contains_key(var)
    }

    /// Compile the reading clauses (`MATCH`/`UNWIND`) of `query` into a
    /// GRA body. `RETURN`, update clauses and rejected constructs are
    /// handled by the caller ([`crate::pipeline`]).
    pub(crate) fn compile_reading(&mut self, query: &Query) -> Result<ReadPlan, AlgebraError> {
        let mut acc = Gra::Unit;
        for clause in &query.clauses {
            match clause {
                Clause::Match { optional: true, .. } => {
                    return Err(AlgebraError::Unsupported(
                        "OPTIONAL MATCH (listed as future work in the paper)".into(),
                    ))
                }
                Clause::Match {
                    optional: false,
                    pattern,
                    where_clause,
                } => {
                    let mut match_edges: Vec<String> = Vec::new();
                    let mut preds: Vec<Expr> = Vec::new();
                    for path in &pattern.paths {
                        acc = self.compile_path(acc, path, &mut match_edges, &mut preds)?;
                    }
                    // Cypher relationship-uniqueness: single-hop edges of
                    // one MATCH must be pairwise distinct.
                    for i in 0..match_edges.len() {
                        for j in (i + 1)..match_edges.len() {
                            preds.push(Expr::Binary(
                                pgq_parser::ast::BinOp::Neq,
                                Box::new(Expr::Variable(match_edges[i].clone())),
                                Box::new(Expr::Variable(match_edges[j].clone())),
                            ));
                        }
                    }
                    if let Some(w) = where_clause {
                        // Top-level HasLabel conjuncts become joins with ©
                        // (σ_{n:L}(r) ≡ r ⋈ ©(n:L)); `[NOT] exists(pattern)`
                        // conjuncts become semi-/antijoins; the rest stays
                        // in σ.
                        for conj in conjuncts(w) {
                            match conj {
                                Expr::PatternPredicate(p) => {
                                    let sub = self.compile_subpattern(p)?;
                                    acc = Gra::SemiJoin {
                                        left: Box::new(acc),
                                        right: Box::new(sub),
                                        anti: false,
                                    };
                                }
                                Expr::Unary(pgq_parser::ast::UnOp::Not, inner)
                                    if matches!(inner.as_ref(), Expr::PatternPredicate(_)) =>
                                {
                                    let Expr::PatternPredicate(p) = inner.as_ref() else {
                                        unreachable!()
                                    };
                                    let sub = self.compile_subpattern(p)?;
                                    acc = Gra::SemiJoin {
                                        left: Box::new(acc),
                                        right: Box::new(sub),
                                        anti: true,
                                    };
                                }
                                Expr::HasLabel(base, labels) => match base.as_ref() {
                                    Expr::Variable(v) if self.is_bound(v) => {
                                        acc = Gra::Join {
                                            left: Box::new(acc),
                                            right: Box::new(Gra::GetVertices {
                                                var: v.clone(),
                                                labels: labels
                                                    .iter()
                                                    .map(|l| Symbol::intern(l))
                                                    .collect(),
                                            }),
                                        };
                                    }
                                    Expr::Variable(v) => {
                                        return Err(AlgebraError::UnknownVariable(v.clone()))
                                    }
                                    _ => {
                                        return Err(AlgebraError::Unsupported(
                                            "label predicate on a non-variable".into(),
                                        ))
                                    }
                                },
                                other => preds.push(other.clone()),
                            }
                        }
                    }
                    if let Some(pred) = conjoin(preds) {
                        acc = Gra::Select {
                            input: Box::new(acc),
                            predicate: pred,
                        };
                    }
                }
                Clause::Unwind { expr, alias } => {
                    if self.is_bound(alias) {
                        return Err(AlgebraError::InvalidQuery(format!(
                            "UNWIND alias `{alias}` is already bound"
                        )));
                    }
                    let kind = unwind_kind(expr);
                    self.bind(alias, kind)?;
                    acc = Gra::Unwind {
                        input: Box::new(acc),
                        expr: expr.clone(),
                        alias: alias.clone(),
                    };
                }
                Clause::With { body, where_clause } => {
                    acc = self.compile_with(acc, body, where_clause.as_ref())?;
                }
                Clause::Return(_)
                | Clause::Create(_)
                | Clause::Delete { .. }
                | Clause::Set(_)
                | Clause::Remove(_) => {
                    // Handled by the pipeline / engine layers.
                }
            }
        }
        Ok(ReadPlan {
            body: acc,
            kinds: self.all_kinds.clone(),
        })
    }

    /// Compile one path pattern, joining it onto `acc`.
    fn compile_path(
        &mut self,
        acc: Gra,
        path: &PathPattern,
        match_edges: &mut Vec<String>,
        preds: &mut Vec<Expr>,
    ) -> Result<Gra, AlgebraError> {
        let (start_var, start_scan) = self.node_part(&path.start, preds)?;
        let mut cur = match start_scan {
            Some(scan) => join(acc, scan),
            None => acc,
        };

        let named_path = match &path.variable {
            Some(t) => {
                self.bind(t, VarKind::Path)?;
                cur = Gra::PathStart {
                    input: Box::new(cur),
                    node: start_var.clone(),
                    path: t.clone(),
                };
                Some(t.clone())
            }
            None => None,
        };

        let mut prev_var = start_var;
        let mut prev_labels: Vec<Symbol> = path
            .start
            .labels
            .iter()
            .map(|l| Symbol::intern(l))
            .collect();

        for (rel, node) in &path.steps {
            let (dst_var, dst_prebound) = match &node.variable {
                Some(v) if self.is_bound(v) => (v.clone(), true),
                Some(v) => {
                    self.bind(v, VarKind::Node)?;
                    (v.clone(), false)
                }
                None => {
                    let v = self.fresh("v");
                    self.bind(&v, VarKind::Node)?;
                    (v, false)
                }
            };
            let _ = dst_prebound; // natural-join semantics close cycles
            for (k, e) in &node.props {
                preds.push(prop_eq(&dst_var, k, e));
            }

            let edge_var = match &rel.variable {
                Some(v) => v.clone(),
                None => self.fresh("e"),
            };
            let dst_labels: Vec<Symbol> = node.labels.iter().map(|l| Symbol::intern(l)).collect();
            let types: Vec<Symbol> = rel.types.iter().map(|t| Symbol::intern(t)).collect();

            match rel.range {
                None => {
                    // Single hop.
                    if let Some(v) = &rel.variable {
                        self.bind(v, VarKind::Rel)?;
                    } else {
                        self.bind(&edge_var, VarKind::Rel)?;
                    }
                    match_edges.push(edge_var.clone());
                    for (k, e) in &rel.props {
                        preds.push(prop_eq(&edge_var, k, e));
                    }
                    let path_mode = match &named_path {
                        Some(t) => PathMode::Append(t.clone()),
                        None => PathMode::None,
                    };
                    cur = Gra::Expand {
                        input: Box::new(cur),
                        src: prev_var.clone(),
                        edge: edge_var,
                        dst: dst_var.clone(),
                        types,
                        src_labels: prev_labels.clone(),
                        dst_labels: dst_labels.clone(),
                        dir: rel.direction,
                        range: None,
                        path: path_mode,
                        edge_prop_filters: Vec::new(),
                        rel_alias: None,
                    };
                }
                Some(range) => {
                    // Variable-length: edge properties must be literals
                    // (checked per traversed edge inside the operator).
                    let mut edge_prop_filters = Vec::new();
                    for (k, e) in &rel.props {
                        match e {
                            Expr::Literal(v) => {
                                edge_prop_filters.push((Symbol::intern(k), v.clone()))
                            }
                            _ => {
                                return Err(AlgebraError::Unsupported(
                                    "non-literal edge property constraint on a \
                                     variable-length relationship"
                                        .into(),
                                ))
                            }
                        }
                    }
                    let rel_alias = match &rel.variable {
                        Some(v) => {
                            self.bind(v, VarKind::Value)?;
                            Some(v.clone())
                        }
                        None => None,
                    };
                    let path_mode = match &named_path {
                        Some(t) => PathMode::Concat {
                            segment: self.fresh("p"),
                            into: t.clone(),
                        },
                        None => PathMode::Emit(self.fresh("p")),
                    };
                    cur = Gra::Expand {
                        input: Box::new(cur),
                        src: prev_var.clone(),
                        edge: self.fresh("e"),
                        dst: dst_var.clone(),
                        types,
                        src_labels: prev_labels.clone(),
                        dst_labels: dst_labels.clone(),
                        dir: rel.direction,
                        range: Some(VarLen {
                            min: range.min,
                            max: range.max,
                        }),
                        path: path_mode,
                        edge_prop_filters,
                        rel_alias,
                    };
                }
            }
            prev_var = dst_var;
            prev_labels = dst_labels;
        }
        Ok(cur)
    }

    /// Compile a `WITH` clause (extension beyond the paper's fragment):
    /// project or aggregate the accumulated bindings, narrow the variable
    /// scope to the projected names, and apply the optional post-WHERE
    /// (the HAVING pattern).
    fn compile_with(
        &mut self,
        acc: Gra,
        body: &ReturnClause,
        where_clause: Option<&Expr>,
    ) -> Result<Gra, AlgebraError> {
        if !body.order_by.is_empty() || body.skip.is_some() || body.limit.is_some() {
            return Err(AlgebraError::NotMaintainable(
                "ORDER BY / SKIP / LIMIT in WITH requires maintained ordering".into(),
            ));
        }
        // Kind of each projected item, under the *current* scope.
        let mut new_kinds: HashMap<String, VarKind> = HashMap::new();
        for item in &body.items {
            let name = item.name();
            let kind = match &item.expr {
                Expr::Variable(v) => *self
                    .kinds
                    .get(v)
                    .ok_or_else(|| AlgebraError::UnknownVariable(v.clone()))?,
                _ => VarKind::Value,
            };
            if new_kinds.insert(name.clone(), kind).is_some() {
                return Err(AlgebraError::InvalidQuery(format!(
                    "duplicate column `{name}` in WITH"
                )));
            }
            self.all_kinds.insert(item.name(), kind);
        }
        let mut out = match split_aggregates(body)? {
            Some((group, aggs)) => {
                let agg = Gra::Aggregate {
                    input: Box::new(acc),
                    group: group.clone(),
                    aggs: aggs.clone(),
                };
                let agg_schema: Vec<String> = group
                    .iter()
                    .map(|(_, n)| n.clone())
                    .chain(aggs.iter().map(|(_, n)| n.clone()))
                    .collect();
                let names: Vec<String> = body.items.iter().map(|i| i.name()).collect();
                if agg_schema == names {
                    agg
                } else {
                    Gra::Project {
                        input: Box::new(agg),
                        items: names
                            .iter()
                            .map(|n| (Expr::Variable(n.clone()), n.clone()))
                            .collect(),
                    }
                }
            }
            None => Gra::Project {
                input: Box::new(acc),
                items: body
                    .items
                    .iter()
                    .map(|i| (i.expr.clone(), i.name()))
                    .collect(),
            },
        };
        if body.distinct {
            out = Gra::Distinct {
                input: Box::new(out),
            };
        }
        // Scope narrows to the projected names; dropped names are retired.
        for name in self.kinds.keys() {
            if !new_kinds.contains_key(name) {
                self.retired.insert(name.clone());
            }
        }
        self.kinds = new_kinds;
        if let Some(w) = where_clause {
            // Post-WITH predicates reference projected columns only;
            // label predicates and exists() still work on projected
            // node variables.
            for conj in conjuncts(w) {
                match conj {
                    Expr::PatternPredicate(p) => {
                        let sub = self.compile_subpattern(p)?;
                        out = Gra::SemiJoin {
                            left: Box::new(out),
                            right: Box::new(sub),
                            anti: false,
                        };
                    }
                    Expr::Unary(pgq_parser::ast::UnOp::Not, inner)
                        if matches!(inner.as_ref(), Expr::PatternPredicate(_)) =>
                    {
                        let Expr::PatternPredicate(p) = inner.as_ref() else {
                            unreachable!()
                        };
                        let sub = self.compile_subpattern(p)?;
                        out = Gra::SemiJoin {
                            left: Box::new(out),
                            right: Box::new(sub),
                            anti: true,
                        };
                    }
                    other => {
                        out = Gra::Select {
                            input: Box::new(out),
                            predicate: other.clone(),
                        };
                    }
                }
            }
        }
        Ok(out)
    }

    /// Compile the pattern inside `[NOT] exists(...)` into a standalone
    /// subplan. Variables shared with the enclosing query become the
    /// correlation (join) variables; fresh variables stay existential.
    /// Property values inside the subpattern must be literals.
    fn compile_subpattern(&mut self, p: &PathPattern) -> Result<Gra, AlgebraError> {
        if p.variable.is_some() {
            return Err(AlgebraError::Unsupported(
                "named path inside exists(...)".into(),
            ));
        }
        for (_, e) in p.start.props.iter().chain(
            p.steps
                .iter()
                .flat_map(|(r, n)| r.props.iter().chain(n.props.iter())),
        ) {
            if !matches!(e, Expr::Literal(_)) {
                return Err(AlgebraError::Unsupported(
                    "non-literal property value inside exists(...)".into(),
                ));
            }
        }
        let mut preds: Vec<Expr> = Vec::new();
        let mut sub_edges: Vec<String> = Vec::new();
        // Force a © scan for the start variable even when it is bound
        // outside, so the subplan is self-contained and correlates via a
        // natural semijoin on the shared name.
        let start_var = match &p.start.variable {
            Some(v) => {
                if !self.is_bound(v) {
                    self.bind(v, VarKind::Node)?;
                }
                v.clone()
            }
            None => {
                let v = self.fresh("v");
                self.bind(&v, VarKind::Node)?;
                v
            }
        };
        for (k, e) in &p.start.props {
            preds.push(prop_eq(&start_var, k, e));
        }
        let base = Gra::GetVertices {
            var: start_var.clone(),
            labels: p.start.labels.iter().map(|l| Symbol::intern(l)).collect(),
        };
        let shim = PathPattern {
            variable: None,
            start: NodePattern {
                variable: Some(start_var),
                labels: Vec::new(), // labels handled by `base`
                props: Vec::new(),  // props handled above
            },
            steps: p.steps.clone(),
        };
        let mut sub = self.compile_path(base, &shim, &mut sub_edges, &mut preds)?;
        for i in 0..sub_edges.len() {
            for j in (i + 1)..sub_edges.len() {
                preds.push(Expr::Binary(
                    pgq_parser::ast::BinOp::Neq,
                    Box::new(Expr::Variable(sub_edges[i].clone())),
                    Box::new(Expr::Variable(sub_edges[j].clone())),
                ));
            }
        }
        if let Some(pred) = conjoin(preds) {
            sub = Gra::Select {
                input: Box::new(sub),
                predicate: pred,
            };
        }
        Ok(sub)
    }

    /// Handle the first node of a path: returns its variable and the ©
    /// scan to join in (if any).
    fn node_part(
        &mut self,
        node: &NodePattern,
        preds: &mut Vec<Expr>,
    ) -> Result<(String, Option<Gra>), AlgebraError> {
        let var = match &node.variable {
            Some(v) => v.clone(),
            None => self.fresh("v"),
        };
        let labels: Vec<Symbol> = node.labels.iter().map(|l| Symbol::intern(l)).collect();
        for (k, e) in &node.props {
            preds.push(prop_eq(&var, k, e));
        }
        let scan = if self.is_bound(&var) {
            if matches!(self.kinds.get(&var), Some(k) if *k != VarKind::Node) {
                return Err(AlgebraError::InvalidQuery(format!(
                    "variable `{var}` used in a node pattern is not a node"
                )));
            }
            if labels.is_empty() {
                None
            } else {
                Some(Gra::GetVertices {
                    var: var.clone(),
                    labels,
                })
            }
        } else {
            self.bind(&var, VarKind::Node)?;
            Some(Gra::GetVertices {
                var: var.clone(),
                labels,
            })
        };
        Ok((var, scan))
    }
}

fn join(left: Gra, right: Gra) -> Gra {
    if left == Gra::Unit {
        return right;
    }
    Gra::Join {
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn prop_eq(var: &str, key: &str, value: &Expr) -> Expr {
    Expr::Binary(
        pgq_parser::ast::BinOp::Eq,
        Box::new(Expr::Property(
            Box::new(Expr::Variable(var.to_string())),
            key.to_string(),
        )),
        Box::new(value.clone()),
    )
}

/// Split a predicate into top-level AND conjuncts.
pub(crate) fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary(pgq_parser::ast::BinOp::And, l, r) => {
            let mut out = conjuncts(l);
            out.extend(conjuncts(r));
            out
        }
        other => vec![other],
    }
}

/// Conjoin predicates back into one expression.
pub(crate) fn conjoin(preds: Vec<Expr>) -> Option<Expr> {
    preds
        .into_iter()
        .reduce(|a, b| Expr::Binary(pgq_parser::ast::BinOp::And, Box::new(a), Box::new(b)))
}

/// Infer what an `UNWIND` alias denotes from its source expression.
fn unwind_kind(expr: &Expr) -> VarKind {
    match expr {
        Expr::Function { name, .. } if name == "nodes" => VarKind::Node,
        Expr::Function { name, .. } if name == "relationships" => VarKind::Rel,
        _ => VarKind::Value,
    }
}

/// Split RETURN items into (group items, aggregate items) when the clause
/// aggregates; `None` when it is a plain projection.
#[allow(clippy::type_complexity)]
pub(crate) fn split_aggregates(
    ret: &ReturnClause,
) -> Result<Option<(Vec<(Expr, String)>, Vec<(Expr, String)>)>, AlgebraError> {
    if !ret.items.iter().any(|i| i.expr.contains_aggregate()) {
        return Ok(None);
    }
    let mut group = Vec::new();
    let mut aggs = Vec::new();
    for item in &ret.items {
        let name = item.name();
        if item.expr.is_aggregate() {
            aggs.push((item.expr.clone(), name));
        } else if item.expr.contains_aggregate() {
            return Err(AlgebraError::Unsupported(
                "expressions mixing aggregates with other terms \
                 (e.g. `count(*) + 1`); project the aggregate alone"
                    .into(),
            ));
        } else {
            group.push((item.expr.clone(), name));
        }
    }
    Ok(Some((group, aggs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_parser::parse_query;

    fn compile(src: &str) -> ReadPlan {
        let q = parse_query(src).unwrap();
        Compiler::default().compile_reading(&q).unwrap()
    }

    #[test]
    fn running_example_shape() {
        let plan =
            compile("MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t");
        // σ on top, then the transitive expand, path start, and ©.
        let Gra::Select { input, .. } = &plan.body else {
            panic!("expected Select at top, got {:?}", plan.body)
        };
        let Gra::Expand {
            input, range, path, ..
        } = input.as_ref()
        else {
            panic!("expected Expand")
        };
        assert!(range.is_some());
        assert!(matches!(path, PathMode::Concat { .. }));
        let Gra::PathStart { input, .. } = input.as_ref() else {
            panic!("expected PathStart")
        };
        assert!(matches!(input.as_ref(), Gra::GetVertices { .. }));
        assert_eq!(plan.kinds.get("t"), Some(&VarKind::Path));
        assert_eq!(plan.kinds.get("p"), Some(&VarKind::Node));
    }

    #[test]
    fn inline_props_become_selections() {
        let plan = compile("MATCH (p:Post {lang: 'en'}) RETURN p");
        let Gra::Select { predicate, .. } = &plan.body else {
            panic!("expected Select")
        };
        assert!(predicate.to_string().contains("p.lang"));
    }

    #[test]
    fn edge_uniqueness_filters_added() {
        let plan = compile("MATCH (a)-[e1:R]->(b)-[e2:R]->(c) RETURN a");
        let Gra::Select { predicate, .. } = &plan.body else {
            panic!("expected uniqueness Select, got {:?}", plan.body)
        };
        assert!(predicate.to_string().contains("<>"));
    }

    #[test]
    fn label_predicate_in_where_becomes_join() {
        let plan = compile("MATCH (n) WHERE n:Post RETURN n");
        assert!(matches!(plan.body, Gra::Join { .. }));
    }

    #[test]
    fn optional_match_rejected() {
        let q = parse_query("MATCH (a) OPTIONAL MATCH (a)-[:R]->(b) RETURN a, b").unwrap();
        let err = Compiler::default().compile_reading(&q).unwrap_err();
        assert!(matches!(err, AlgebraError::Unsupported(_)));
    }

    #[test]
    fn with_narrows_scope_and_projects() {
        let plan = compile("MATCH (a:Post) WITH a AS x RETURN x");
        // The body ends in the WITH projection; `a` is retired, `x` live.
        assert!(plan.kinds.contains_key("x"));
        assert!(matches!(plan.body, Gra::Project { .. }));
    }

    #[test]
    fn rebinding_as_other_kind_rejected() {
        let q = parse_query("MATCH (a)-[r:R]->(b) MATCH (r) RETURN r").unwrap();
        let err = Compiler::default().compile_reading(&q).unwrap_err();
        assert!(matches!(err, AlgebraError::InvalidQuery(_)));
    }

    #[test]
    fn nonliteral_varlen_edge_prop_rejected() {
        let q = parse_query("MATCH (a)-[:R* {w: a.x}]->(b) RETURN b").unwrap();
        let err = Compiler::default().compile_reading(&q).unwrap_err();
        assert!(matches!(err, AlgebraError::Unsupported(_)));
    }

    #[test]
    fn named_varlen_rel_binds_list() {
        let plan = compile("MATCH (a)-[es:R*]->(b) RETURN es");
        assert_eq!(plan.kinds.get("es"), Some(&VarKind::Value));
    }

    #[test]
    fn aggregate_split() {
        let q = parse_query("MATCH (n:Post) RETURN n.lang AS l, count(*) AS c").unwrap();
        let ret = q.return_clause().unwrap();
        let (group, aggs) = split_aggregates(ret).unwrap().unwrap();
        assert_eq!(group.len(), 1);
        assert_eq!(aggs.len(), 1);
    }

    #[test]
    fn mixed_aggregate_expression_rejected() {
        let q = parse_query("MATCH (n) RETURN count(*) + 1").unwrap();
        let ret = q.return_clause().unwrap();
        assert!(split_aggregates(ret).is_err());
    }
}
