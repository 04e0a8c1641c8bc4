//! Step 3 of the paper's workflow: flatten NRA to FRA with **query-driven
//! schema inference**.
//!
//! Property graphs have no a-priori schema, so the schema of every nested
//! base relation is inferred from the query itself: the µ unnest operators
//! introduced in step 2 are collected and *pushed down* into the © / ⇑
//! base operators (`©(p:Post{lang→pL})` in the paper's notation). After
//! this pass every operator is flat and positional, and every expression
//! references columns only. An unnest whose variable no scan below binds
//! (an `UNWIND` alias, or a column a `WITH` dropped) joins an auxiliary
//! scan that fetches the property; schema inference is the only way a
//! query flattens.

use std::collections::{HashMap, HashSet};

use pgq_common::intern::Symbol;
use pgq_parser::ast::Expr;

use crate::error::AlgebraError;
use crate::expr::{AggCall, AggFunc, ScalarExpr};
use crate::fra::{Fra, PropPush, VarLenSpec};
use crate::gra::VarKind;
use crate::nra::Nra;

/// Flatten `nra` into an executable FRA tree. `params` names the
/// parameters the statement may use: `$name` resolves to the slot
/// `ScalarExpr::Param(position of name)`, any other parameter is an
/// error (a view passes none — canonical plans, fingerprints and node
/// sharing need the literals).
pub(crate) fn flatten(
    nra: &Nra,
    kinds: &HashMap<String, VarKind>,
    params: &[String],
) -> Result<Fra, AlgebraError> {
    let mut wanted: HashMap<String, Vec<(Symbol, String)>> = HashMap::new();
    collect_wanted(nra, &mut wanted);
    let mut cx = Cx {
        kinds,
        wanted,
        satisfied: HashSet::new(),
        fresh: 0,
        params,
    };
    cx.build(nra)
}

/// Resolve a value expression that reads no variable (`-1`, `$k + 1`):
/// a constant up to its parameters, which an update clause evaluates
/// once instead of projecting it through its bindings. `$params[i]`
/// becomes the slot [`ScalarExpr::Param`]`(i)`.
pub fn resolve_constant(e: &Expr, params: &[String]) -> Result<ScalarExpr, AlgebraError> {
    resolve(e, &[], params)
}

fn collect_wanted(nra: &Nra, wanted: &mut HashMap<String, Vec<(Symbol, String)>>) {
    match nra {
        Nra::Unnest {
            input,
            var,
            prop,
            col,
        } => {
            let entry = wanted.entry(var.clone()).or_default();
            if !entry.iter().any(|(_, c)| c == col) {
                entry.push((*prop, col.clone()));
            }
            collect_wanted(input, wanted);
        }
        Nra::NaturalJoin { left, right, .. } => {
            collect_wanted(left, wanted);
            collect_wanted(right, wanted);
        }
        Nra::SemiJoin { left, .. } => collect_wanted(left, wanted),
        Nra::TransitiveJoin { left, .. } => collect_wanted(left, wanted),
        Nra::PathStart { input, .. }
        | Nra::Select { input, .. }
        | Nra::Project { input, .. }
        | Nra::Distinct { input }
        | Nra::Aggregate { input, .. }
        | Nra::Unwind { input, .. } => collect_wanted(input, wanted),
        Nra::Unit | Nra::GetVertices { .. } | Nra::GetEdges(_) => {}
    }
}

struct Cx<'a> {
    kinds: &'a HashMap<String, VarKind>,
    wanted: HashMap<String, Vec<(Symbol, String)>>,
    satisfied: HashSet<String>,
    fresh: usize,
    params: &'a [String],
}

fn pos(schema: &[String], name: &str) -> Result<usize, AlgebraError> {
    schema
        .iter()
        .position(|c| c == name)
        .ok_or_else(|| AlgebraError::UnknownVariable(name.to_string()))
}

/// Identity projection items over `schema`.
fn identity(schema: &[String]) -> Vec<(ScalarExpr, String)> {
    schema
        .iter()
        .enumerate()
        .map(|(i, n)| (ScalarExpr::Col(i), n.clone()))
        .collect()
}

impl Cx<'_> {
    fn take_props(&mut self, var: &str) -> Vec<PropPush> {
        if self.satisfied.contains(var) {
            return Vec::new();
        }
        match self.wanted.get(var) {
            Some(props) if !props.is_empty() => {
                self.satisfied.insert(var.to_string());
                props
                    .iter()
                    .map(|(prop, col)| PropPush {
                        prop: *prop,
                        col: col.clone(),
                    })
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    fn build(&mut self, nra: &Nra) -> Result<Fra, AlgebraError> {
        Ok(match nra {
            Nra::Unit => Fra::Unit,
            Nra::GetVertices { var, labels } => Fra::ScanVertices {
                var: var.clone(),
                labels: labels.clone(),
                props: self.take_props(var),
            },
            Nra::GetEdges(ge) => {
                let src_props = self.take_props(&ge.src);
                let edge_props = self.take_props(&ge.edge);
                let dst_props = self.take_props(&ge.dst);
                let scan = Fra::ScanEdges {
                    src: ge.src.clone(),
                    edge: ge.edge.clone(),
                    dst: ge.dst.clone(),
                    types: ge.types.clone(),
                    src_labels: ge.src_labels.clone(),
                    dst_labels: ge.dst_labels.clone(),
                    src_props,
                    edge_props,
                    dst_props,
                    dir: ge.dir,
                };
                // Edge-property equality filters on single hops are
                // normally σ conjuncts; filters attached to the ⇑ itself
                // (from variable-length patterns lowered to single scans)
                // become a Filter here.
                if ge.edge_prop_filters.is_empty() {
                    scan
                } else {
                    let schema = scan.schema();
                    let mut preds: Vec<ScalarExpr> = Vec::new();
                    for (prop, value) in &ge.edge_prop_filters {
                        // The filter needs the property as a column.
                        let col = crate::to_nra::prop_col(&ge.edge, &prop.resolve());
                        let idx = pos(&schema, &col)?;
                        preds.push(ScalarExpr::Binary(
                            pgq_parser::ast::BinOp::Eq,
                            Box::new(ScalarExpr::Col(idx)),
                            Box::new(ScalarExpr::Lit(value.clone())),
                        ));
                    }
                    let predicate = preds
                        .into_iter()
                        .reduce(|a, b| {
                            ScalarExpr::Binary(
                                pgq_parser::ast::BinOp::And,
                                Box::new(a),
                                Box::new(b),
                            )
                        })
                        .expect("non-empty");
                    Fra::Filter {
                        input: Box::new(scan),
                        predicate,
                    }
                }
            }
            Nra::SemiJoin { left, right, anti } => {
                let l = self.build(left)?;
                let ls = l.schema();
                // Fresh context: the existential branch resolves its own
                // attribute accesses against its own scans.
                let mut wanted = HashMap::new();
                collect_wanted(right, &mut wanted);
                let mut sub = Cx {
                    kinds: self.kinds,
                    wanted,
                    satisfied: HashSet::new(),
                    fresh: self.fresh + 1000,
                    params: self.params,
                };
                let r = sub.build(right)?;
                let rs = r.schema();
                let mut left_keys = Vec::new();
                let mut right_keys = Vec::new();
                for (ri, name) in rs.iter().enumerate() {
                    if let Some(li) = ls.iter().position(|c| c == name) {
                        left_keys.push(li);
                        right_keys.push(ri);
                    }
                }
                Fra::SemiJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    left_keys,
                    right_keys,
                    anti: *anti,
                }
            }
            Nra::NaturalJoin {
                left,
                right,
                path_append,
            } => {
                let l = self.build(left)?;
                let r = self.build(right)?;
                let ls = l.schema();
                let rs = r.schema();
                let mut left_keys = Vec::new();
                let mut right_keys = Vec::new();
                for (ri, name) in rs.iter().enumerate() {
                    if let Some(li) = ls.iter().position(|c| c == name) {
                        left_keys.push(li);
                        right_keys.push(ri);
                    }
                }
                let join = Fra::HashJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    left_keys,
                    right_keys,
                    value_keys: Vec::new(),
                };
                match path_append {
                    None => join,
                    Some((path, edge, dst)) => {
                        let schema = join.schema();
                        let pi = pos(&schema, path)?;
                        let ei = pos(&schema, edge)?;
                        let di = pos(&schema, dst)?;
                        let mut items = identity(&schema);
                        items[pi].0 = ScalarExpr::PathExtend(
                            Box::new(ScalarExpr::Col(pi)),
                            Box::new(ScalarExpr::Col(ei)),
                            Box::new(ScalarExpr::Col(di)),
                        );
                        Fra::Project {
                            input: Box::new(join),
                            items,
                        }
                    }
                }
            }
            Nra::TransitiveJoin {
                left,
                edges: ge,
                src,
                range,
                path_col,
                concat_into,
                rel_alias,
            } => {
                let l = self.build(left)?;
                let ls = l.schema();
                let src_col = pos(&ls, src)?;
                let prebound = ls.iter().any(|c| c == &ge.dst);
                let dst_out = if prebound {
                    self.fresh += 1;
                    format!("__dst{}", self.fresh)
                } else {
                    ge.dst.clone()
                };
                let spec = VarLenSpec {
                    types: ge.types.clone(),
                    dir: ge.dir,
                    dst_labels: ge.dst_labels.clone(),
                    dst_props: self.take_props(&ge.dst),
                    edge_prop_filters: ge.edge_prop_filters.clone(),
                    min: range.min,
                    max: range.max,
                };
                let mut cur = Fra::VarLengthJoin {
                    left: Box::new(l),
                    src_col,
                    spec,
                    dst: dst_out.clone(),
                    path: path_col.clone(),
                };
                if prebound {
                    let schema = cur.schema();
                    let new_i = pos(&schema, &dst_out)?;
                    let old_i = pos(&schema, &ge.dst)?;
                    cur = Fra::Filter {
                        input: Box::new(cur),
                        predicate: ScalarExpr::Binary(
                            pgq_parser::ast::BinOp::Eq,
                            Box::new(ScalarExpr::Col(new_i)),
                            Box::new(ScalarExpr::Col(old_i)),
                        ),
                    };
                    let items = identity(&schema)
                        .into_iter()
                        .filter(|(_, n)| n != &dst_out)
                        .collect();
                    cur = Fra::Project {
                        input: Box::new(cur),
                        items,
                    };
                }
                if let Some(alias) = rel_alias {
                    let schema = cur.schema();
                    let pi = pos(&schema, path_col)?;
                    let mut items = identity(&schema);
                    items.push((
                        ScalarExpr::Func {
                            name: "relationships".into(),
                            args: vec![ScalarExpr::Col(pi)],
                        },
                        alias.clone(),
                    ));
                    cur = Fra::Project {
                        input: Box::new(cur),
                        items,
                    };
                }
                if let Some(into) = concat_into {
                    let schema = cur.schema();
                    let ti = pos(&schema, into)?;
                    let pi = pos(&schema, path_col)?;
                    let mut items = identity(&schema);
                    items[ti].0 = ScalarExpr::PathConcat(
                        Box::new(ScalarExpr::Col(ti)),
                        Box::new(ScalarExpr::Col(pi)),
                    );
                    let items = items.into_iter().filter(|(_, n)| n != path_col).collect();
                    cur = Fra::Project {
                        input: Box::new(cur),
                        items,
                    };
                }
                cur
            }
            Nra::PathStart { input, node, path } => {
                let l = self.build(input)?;
                let schema = l.schema();
                let ni = pos(&schema, node)?;
                let mut items = identity(&schema);
                items.push((
                    ScalarExpr::PathSingle(Box::new(ScalarExpr::Col(ni))),
                    path.clone(),
                ));
                Fra::Project {
                    input: Box::new(l),
                    items,
                }
            }
            Nra::Unnest {
                input,
                var,
                prop,
                col,
            } => {
                let l = self.build(input)?;
                let schema = l.schema();
                if schema.iter().any(|c| c == col) {
                    // Push-down satisfied the request below us.
                    return Ok(l);
                }
                // The variable is not bound by any base scan in *this*
                // subtree (introduced by UNWIND, or its scan's pushed
                // column was dropped by a WITH projection): join with an
                // auxiliary © / ⇑ scan that fetches the missing property.
                self.join_aux_scan(l, var, *prop, col)?
            }
            Nra::Select { input, predicate } => {
                let l = self.build(input)?;
                let schema = l.schema();
                let predicate = resolve(predicate, &schema, self.params)?;
                Fra::Filter {
                    input: Box::new(l),
                    predicate,
                }
            }
            Nra::Project { input, items } => {
                let l = self.build(input)?;
                let schema = l.schema();
                let items = items
                    .iter()
                    .map(|(e, n)| Ok((resolve(e, &schema, self.params)?, n.clone())))
                    .collect::<Result<_, AlgebraError>>()?;
                Fra::Project {
                    input: Box::new(l),
                    items,
                }
            }
            Nra::Distinct { input } => Fra::Distinct {
                input: Box::new(self.build(input)?),
            },
            Nra::Aggregate { input, group, aggs } => {
                let l = self.build(input)?;
                let schema = l.schema();
                let group = group
                    .iter()
                    .map(|(e, n)| Ok((resolve(e, &schema, self.params)?, n.clone())))
                    .collect::<Result<Vec<_>, AlgebraError>>()?;
                let aggs = aggs
                    .iter()
                    .map(|(e, n)| Ok((resolve_agg(e, &schema, self.params)?, n.clone())))
                    .collect::<Result<Vec<_>, AlgebraError>>()?;
                Fra::Aggregate {
                    input: Box::new(l),
                    group,
                    aggs,
                }
            }
            Nra::Unwind { input, expr, alias } => {
                let l = self.build(input)?;
                let schema = l.schema();
                let expr = resolve(expr, &schema, self.params)?;
                Fra::Unwind {
                    input: Box::new(l),
                    expr,
                    alias: alias.clone(),
                }
            }
        })
    }

    /// Join an auxiliary base scan to obtain a property of a variable not
    /// bound by any scan in the current subtree (an `UNWIND` alias, or a
    /// pushed column dropped by a WITH projection). The scan always
    /// fetches `(prop → col)`, plus any still-unclaimed wanted props of
    /// the variable.
    fn join_aux_scan(
        &mut self,
        left: Fra,
        var: &str,
        prop: Symbol,
        col: &str,
    ) -> Result<Fra, AlgebraError> {
        let kind = self.kinds.get(var).copied();
        let ls = left.schema();
        let li = pos(&ls, var)?;
        let mut props = self.take_props(var);
        if !props.iter().any(|p| p.col == col) {
            props.push(PropPush {
                prop,
                col: col.to_string(),
            });
        }
        let right: Fra = match kind {
            Some(VarKind::Node) => Fra::ScanVertices {
                var: var.to_string(),
                labels: Vec::new(),
                props,
            },
            Some(VarKind::Rel) => {
                self.fresh += 1;
                let s = format!("__s{}", self.fresh);
                self.fresh += 1;
                let d = format!("__d{}", self.fresh);
                Fra::ScanEdges {
                    src: s,
                    edge: var.to_string(),
                    dst: d,
                    types: Vec::new(),
                    src_labels: Vec::new(),
                    dst_labels: Vec::new(),
                    src_props: Vec::new(),
                    edge_props: props,
                    dst_props: Vec::new(),
                    dir: pgq_common::dir::Direction::Out,
                }
            }
            _ => {
                return Err(AlgebraError::NotMaintainable(format!(
                    "property access on `{var}`, whose binding cannot be traced to a \
                     vertex or edge scan"
                )))
            }
        };
        let rs = right.schema();
        let ri = pos(&rs, var)?;
        Ok(Fra::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys: vec![li],
            right_keys: vec![ri],
            value_keys: Vec::new(),
        })
    }
}

/// Resolve a (rewritten) parser expression to a column-indexed
/// [`ScalarExpr`] against `schema`, parameters to their slots in
/// `params` (see [`flatten`]).
fn resolve(e: &Expr, schema: &[String], params: &[String]) -> Result<ScalarExpr, AlgebraError> {
    Ok(match e {
        Expr::Literal(v) => ScalarExpr::Lit(v.clone()),
        Expr::Variable(name) => ScalarExpr::Col(pos(schema, name)?),
        Expr::Property(base, key) => {
            // Only map-valued bases survive to this point (node/rel
            // property accesses were rewritten to columns in step 2).
            let b = resolve(base, schema, params)?;
            ScalarExpr::Index(
                Box::new(b),
                Box::new(ScalarExpr::Lit(pgq_common::value::Value::str(key))),
            )
        }
        Expr::Binary(op, l, r) => ScalarExpr::Binary(
            *op,
            Box::new(resolve(l, schema, params)?),
            Box::new(resolve(r, schema, params)?),
        ),
        Expr::Unary(op, x) => ScalarExpr::Unary(*op, Box::new(resolve(x, schema, params)?)),
        Expr::Function {
            name,
            distinct,
            args,
        } => {
            if AggFunc::from_name(name).is_some() {
                return Err(AlgebraError::InvalidQuery(format!(
                    "aggregate {name}() outside an aggregating RETURN"
                )));
            }
            if *distinct {
                return Err(AlgebraError::Unsupported(
                    "DISTINCT inside a non-aggregate function".into(),
                ));
            }
            ScalarExpr::Func {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| resolve(a, schema, params))
                    .collect::<Result<_, _>>()?,
            }
        }
        Expr::CountStar => {
            return Err(AlgebraError::InvalidQuery(
                "count(*) outside an aggregating RETURN".into(),
            ))
        }
        Expr::List(items) => ScalarExpr::List(
            items
                .iter()
                .map(|a| resolve(a, schema, params))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Map(entries) => ScalarExpr::Map(
            entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), resolve(v, schema, params)?)))
                .collect::<Result<_, AlgebraError>>()?,
        ),
        Expr::Index(b, i) => ScalarExpr::Index(
            Box::new(resolve(b, schema, params)?),
            Box::new(resolve(i, schema, params)?),
        ),
        Expr::IsNull { expr, negated } => ScalarExpr::IsNull {
            expr: Box::new(resolve(expr, schema, params)?),
            negated: *negated,
        },
        Expr::HasLabel(..) => {
            return Err(AlgebraError::NotMaintainable(
                "nested label predicate".into(),
            ))
        }
        Expr::Parameter(p) => match params.iter().position(|n| n == p) {
            Some(slot) => ScalarExpr::Param(slot),
            None => {
                return Err(AlgebraError::Unsupported(format!(
                    "query parameter ${p}: views take no parameters, and a one-shot \
                     statement binds them through GraphEngine::execute_with"
                )))
            }
        },
        Expr::PatternPredicate(_) => {
            return Err(AlgebraError::NotMaintainable(
                "exists(pattern) nested inside an expression".into(),
            ))
        }
    })
}

fn resolve_agg(e: &Expr, schema: &[String], params: &[String]) -> Result<AggCall, AlgebraError> {
    match e {
        Expr::CountStar => Ok(AggCall {
            func: AggFunc::CountStar,
            arg: None,
            distinct: false,
        }),
        Expr::Function {
            name,
            distinct,
            args,
        } => {
            let func = AggFunc::from_name(name).ok_or_else(|| {
                AlgebraError::InvalidQuery(format!("{name}() is not an aggregate"))
            })?;
            if args.len() != 1 {
                return Err(AlgebraError::InvalidQuery(format!(
                    "{name}() takes exactly one argument"
                )));
            }
            Ok(AggCall {
                func,
                arg: Some(resolve(&args[0], schema, params)?),
                distinct: *distinct,
            })
        }
        other => Err(AlgebraError::InvalidQuery(format!(
            "expected an aggregate call, found {other}"
        ))),
    }
}
