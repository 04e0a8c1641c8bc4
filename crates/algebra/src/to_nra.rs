//! Step 2 of the paper's workflow: transform GRA to NRA.
//!
//! Two rewrites happen here:
//!
//! 1. Every expand-out ↑ is replaced by a natural join with the nullary
//!    get-edges operator ⇑ (`↑(w:W)(v)[:E](r) ≡ r ⋈ ⇑(v:V)[w:W](:E)`), and
//!    every transitive expand ↑* by a transitive join `⋈*` — because
//!    expand operators cannot be maintained incrementally, while joins
//!    can.
//! 2. Every property access `var.prop` inside σ/π/γ/ω expressions becomes
//!    an explicit attribute-unnest `µ var.prop → ⟨var.prop⟩`, giving the
//!    next stage (schema inference) an explicit inventory of the
//!    attributes each operator needs.

use std::collections::{HashMap, HashSet};

use pgq_common::intern::Symbol;
use pgq_parser::ast::Expr;

use crate::error::AlgebraError;
use crate::gra::{Gra, PathMode, VarKind};
use crate::nra::{GetEdges, Nra};

/// Column name generated for the unnested property `var.prop`.
pub(crate) fn prop_col(var: &str, prop: &str) -> String {
    format!("{var}.{prop}")
}

/// Convert a GRA tree to NRA.
pub(crate) fn to_nra(gra: &Gra, kinds: &HashMap<String, VarKind>) -> Result<Nra, AlgebraError> {
    let mut cx = Cx {
        kinds,
        unnested: HashSet::new(),
    };
    cx.convert(gra)
}

struct Cx<'a> {
    kinds: &'a HashMap<String, VarKind>,
    /// `(var, prop)` pairs already unnested somewhere below the current
    /// spine position — unnesting is idempotent, so each pair appears
    /// exactly once in the tree.
    unnested: HashSet<(String, String)>,
}

impl Cx<'_> {
    fn convert(&mut self, gra: &Gra) -> Result<Nra, AlgebraError> {
        Ok(match gra {
            Gra::Unit => Nra::Unit,
            Gra::GetVertices { var, labels } => Nra::GetVertices {
                var: var.clone(),
                labels: labels.clone(),
            },
            Gra::PathStart { input, node, path } => Nra::PathStart {
                input: Box::new(self.convert(input)?),
                node: node.clone(),
                path: path.clone(),
            },
            Gra::Expand {
                input,
                src,
                edge,
                dst,
                types,
                src_labels,
                dst_labels,
                dir,
                range,
                path,
                edge_prop_filters,
                rel_alias,
            } => {
                let left = self.convert(input)?;
                let ge = GetEdges {
                    src: src.clone(),
                    edge: edge.clone(),
                    dst: dst.clone(),
                    types: types.clone(),
                    src_labels: src_labels.clone(),
                    dst_labels: dst_labels.clone(),
                    dir: *dir,
                    edge_prop_filters: edge_prop_filters.clone(),
                };
                match range {
                    None => Nra::NaturalJoin {
                        left: Box::new(left),
                        right: Box::new(Nra::GetEdges(ge)),
                        path_append: match path {
                            PathMode::Append(t) => Some((t.clone(), edge.clone(), dst.clone())),
                            PathMode::None => None,
                            other => {
                                return Err(AlgebraError::InvalidQuery(format!(
                                    "single-hop expand with path mode {other:?}"
                                )))
                            }
                        },
                    },
                    Some(r) => {
                        let (path_col, concat_into) = match path {
                            PathMode::Emit(p) => (p.clone(), None),
                            PathMode::Concat { segment, into } => {
                                (segment.clone(), Some(into.clone()))
                            }
                            other => {
                                return Err(AlgebraError::InvalidQuery(format!(
                                    "variable-length expand with path mode {other:?}"
                                )))
                            }
                        };
                        Nra::TransitiveJoin {
                            left: Box::new(left),
                            edges: ge,
                            src: src.clone(),
                            range: *r,
                            path_col,
                            concat_into,
                            rel_alias: rel_alias.clone(),
                        }
                    }
                }
            }
            Gra::SemiJoin { left, right, anti } => {
                let l = self.convert(left)?;
                // The existential branch gets its own unnest scope: its
                // attribute accesses must be satisfied by its own scans,
                // not deduplicated against the outer plan's.
                let mut sub = Cx {
                    kinds: self.kinds,
                    unnested: HashSet::new(),
                };
                let r = sub.convert(right)?;
                Nra::SemiJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    anti: *anti,
                }
            }
            Gra::Join { left, right } => Nra::NaturalJoin {
                left: Box::new(self.convert(left)?),
                right: Box::new(self.convert(right)?),
                path_append: None,
            },
            Gra::Select { input, predicate } => {
                let inner = self.convert(input)?;
                let (pred, unnests) = self.rewrite(predicate)?;
                Nra::Select {
                    input: Box::new(self.wrap(inner, unnests)),
                    predicate: pred,
                }
            }
            Gra::Project { input, items } => {
                let inner = self.convert(input)?;
                let mut unnests = Vec::new();
                let mut out = Vec::with_capacity(items.len());
                for (e, name) in items {
                    let (e2, mut u) = self.rewrite(e)?;
                    unnests.append(&mut u);
                    out.push((e2, name.clone()));
                }
                Nra::Project {
                    input: Box::new(self.wrap(inner, unnests)),
                    items: out,
                }
            }
            Gra::Distinct { input } => Nra::Distinct {
                input: Box::new(self.convert(input)?),
            },
            Gra::Aggregate { input, group, aggs } => {
                let inner = self.convert(input)?;
                let mut unnests = Vec::new();
                let mut g = Vec::with_capacity(group.len());
                for (e, name) in group {
                    let (e2, mut u) = self.rewrite(e)?;
                    unnests.append(&mut u);
                    g.push((e2, name.clone()));
                }
                let mut a = Vec::with_capacity(aggs.len());
                for (e, name) in aggs {
                    let (e2, mut u) = self.rewrite(e)?;
                    unnests.append(&mut u);
                    a.push((e2, name.clone()));
                }
                Nra::Aggregate {
                    input: Box::new(self.wrap(inner, unnests)),
                    group: g,
                    aggs: a,
                }
            }
            Gra::Unwind { input, expr, alias } => {
                let inner = self.convert(input)?;
                let (e2, unnests) = self.rewrite(expr)?;
                Nra::Unwind {
                    input: Box::new(self.wrap(inner, unnests)),
                    expr: e2,
                    alias: alias.clone(),
                }
            }
        })
    }

    fn wrap(&mut self, mut input: Nra, unnests: Vec<(String, String)>) -> Nra {
        for (var, prop) in unnests {
            if self.unnested.insert((var.clone(), prop.clone())) {
                input = Nra::Unnest {
                    input: Box::new(input),
                    col: prop_col(&var, &prop),
                    prop: Symbol::intern(&prop),
                    var,
                };
            }
        }
        input
    }

    /// Replace `var.prop` (on node/rel variables) with the column
    /// reference `⟨var.prop⟩`; collect the required unnests.
    #[allow(clippy::type_complexity)]
    fn rewrite(&self, e: &Expr) -> Result<(Expr, Vec<(String, String)>), AlgebraError> {
        let mut unnests = Vec::new();
        let out = self.rewrite_inner(e, &mut unnests)?;
        Ok((out, unnests))
    }

    fn rewrite_inner(
        &self,
        e: &Expr,
        unnests: &mut Vec<(String, String)>,
    ) -> Result<Expr, AlgebraError> {
        Ok(match e {
            Expr::Property(base, key) => match base.as_ref() {
                Expr::Variable(v) => match self.kinds.get(v) {
                    Some(VarKind::Node) | Some(VarKind::Rel) => {
                        unnests.push((v.clone(), key.clone()));
                        Expr::Variable(prop_col(v, key))
                    }
                    Some(VarKind::Path) => {
                        return Err(AlgebraError::InvalidQuery(format!(
                            "property access `{v}.{key}` on a path variable"
                        )))
                    }
                    Some(VarKind::Value) => {
                        // Map-valued variable: keep as runtime map access.
                        Expr::Property(base.clone(), key.clone())
                    }
                    None => return Err(AlgebraError::UnknownVariable(v.clone())),
                },
                _ => {
                    let inner = self.rewrite_inner(base, unnests)?;
                    Expr::Property(Box::new(inner), key.clone())
                }
            },
            Expr::Binary(op, l, r) => Expr::Binary(
                *op,
                Box::new(self.rewrite_inner(l, unnests)?),
                Box::new(self.rewrite_inner(r, unnests)?),
            ),
            Expr::Unary(op, x) => Expr::Unary(*op, Box::new(self.rewrite_inner(x, unnests)?)),
            Expr::Function {
                name,
                distinct,
                args,
            } => Expr::Function {
                name: name.clone(),
                distinct: *distinct,
                args: args
                    .iter()
                    .map(|a| self.rewrite_inner(a, unnests))
                    .collect::<Result<_, _>>()?,
            },
            Expr::List(items) => Expr::List(
                items
                    .iter()
                    .map(|a| self.rewrite_inner(a, unnests))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::Map(entries) => Expr::Map(
                entries
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), self.rewrite_inner(v, unnests)?)))
                    .collect::<Result<_, AlgebraError>>()?,
            ),
            Expr::Index(b, i) => Expr::Index(
                Box::new(self.rewrite_inner(b, unnests)?),
                Box::new(self.rewrite_inner(i, unnests)?),
            ),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.rewrite_inner(expr, unnests)?),
                negated: *negated,
            },
            Expr::HasLabel(..) => {
                return Err(AlgebraError::NotMaintainable(
                    "label predicate nested inside an expression; only top-level \
                     WHERE conjuncts of the form `var:Label` are supported"
                        .into(),
                ))
            }
            Expr::PatternPredicate(_) => {
                return Err(AlgebraError::NotMaintainable(
                    "exists(pattern) nested inside an expression; only top-level \
                     WHERE conjuncts of the form `[NOT] exists(...)` are supported"
                        .into(),
                ))
            }
            // A parameter is a constant; step 3 gives it its slot (or
            // rejects it).
            Expr::Literal(_) | Expr::Variable(_) | Expr::CountStar | Expr::Parameter(_) => {
                e.clone()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Compiler;
    use pgq_parser::parse_query;

    fn nra_of(src: &str) -> Nra {
        let q = parse_query(src).unwrap();
        let mut c = Compiler::default();
        let plan = c.compile_reading(&q).unwrap();
        to_nra(&plan.body, &plan.kinds).unwrap()
    }

    #[test]
    fn expand_becomes_join_with_get_edges() {
        let n = nra_of("MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p");
        let Nra::NaturalJoin { right, .. } = &n else {
            panic!("expected NaturalJoin at top, got {n:?}")
        };
        assert!(matches!(right.as_ref(), Nra::GetEdges(_)));
    }

    #[test]
    fn transitive_expand_becomes_transitive_join() {
        let n = nra_of("MATCH (p:Post)-[:REPLY*]->(c:Comm) RETURN p");
        assert!(matches!(n, Nra::TransitiveJoin { .. }));
    }

    #[test]
    fn property_access_introduces_unnest_once() {
        let n = nra_of(
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang AND p.lang = 'en' RETURN p",
        );
        // Expect exactly two unnests (p.lang, c.lang) even though p.lang
        // is referenced twice.
        fn count_unnests(n: &Nra) -> usize {
            match n {
                Nra::Unnest { input, .. } => 1 + count_unnests(input),
                Nra::Select { input, .. }
                | Nra::Distinct { input }
                | Nra::Project { input, .. }
                | Nra::Aggregate { input, .. }
                | Nra::Unwind { input, .. }
                | Nra::PathStart { input, .. } => count_unnests(input),
                Nra::NaturalJoin { left, right, .. } => count_unnests(left) + count_unnests(right),
                Nra::TransitiveJoin { left, .. } => count_unnests(left),
                _ => 0,
            }
        }
        assert_eq!(count_unnests(&n), 2);
    }

    #[test]
    fn path_property_access_rejected() {
        let q = parse_query("MATCH t = (a)-[:R*]->(b) WHERE t.x = 1 RETURN t").unwrap();
        let mut c = Compiler::default();
        let err = c
            .compile_reading(&q)
            .and_then(|p| to_nra(&p.body, &p.kinds))
            .unwrap_err();
        assert!(matches!(err, AlgebraError::InvalidQuery(_)));
    }
}
