//! Property suite for plan canonicalisation: `canon(p) == canon(rename(p))`
//! for arbitrary consistent alpha-renamings, over the full compiled query
//! pool — plus the structural invariants the network's hash-consing
//! relies on (bijective mappings, idempotence, stable arity).

use std::collections::HashMap;

use pgq_algebra::canon::{alpha_rename, canonicalize};
use pgq_algebra::expr::ScalarExpr;
use pgq_algebra::fra::{Fra, PropPush, VarLenSpec};
use pgq_algebra::pipeline::compile_query;
use pgq_common::dir::Direction;
use pgq_common::intern::Symbol;
use pgq_parser::ast::BinOp;
use pgq_parser::parse_query;
use proptest::prelude::*;

/// Queries covering every FRA operator: scans, joins, ⋈*, σ, π, δ, γ, ω,
/// semijoins/antijoins.
const QUERIES: &[&str] = &[
    "MATCH (p:Post) RETURN p",
    "MATCH (p:Post) WHERE p.lang = 'en' RETURN p, p.lang",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN c, p",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' AND c.lang = 'de' RETURN p",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
    "MATCH (a)-[:REPLY*1..3]->(b:Comm) RETURN a, b",
    "MATCH (p:Post) RETURN DISTINCT p.lang",
    "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS n",
    "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) UNWIND nodes(t) AS n RETURN n",
    "MATCH (p:Post) WHERE NOT exists((p)-[:REPLY]->(:Comm)) RETURN p",
    "MATCH (p:Post) WHERE exists((p)-[:REPLY]->(:Comm {lang: 'en'})) RETURN p",
    "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.age > 30 AND b.age > 40 RETURN a, b",
    // Label-only vertex scans that fold into edge-scan endpoints,
    // including a closing edge whose target gains its label that way.
    "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(a) RETURN a, b, c",
    "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N) RETURN count(*) AS wedges",
    // Property-carrying vertex scans that fold the same way, one joined
    // last by the planner's order.
    "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE a.country = c.country RETURN a, c",
    "MATCH (c:Comm) MATCH (p:Post)-[:REPLY]->(c) WHERE p.lang = c.lang RETURN p, c.lang",
];

fn compiled(ix: usize) -> Fra {
    compile_query(&parse_query(QUERIES[ix % QUERIES.len()]).unwrap())
        .unwrap()
        .fra
}

/// A consistent, injective renaming: every distinct name gets a fresh
/// name decorated with a per-name random salt.
fn renamer(salts: Vec<u32>) -> impl FnMut(&str) -> String {
    let mut seen: HashMap<String, String> = HashMap::new();
    move |name: &str| {
        let next = seen.len();
        seen.entry(name.to_string())
            .or_insert_with(|| {
                let salt = salts[next % salts.len().max(1)];
                format!("r{next}_{salt}")
            })
            .clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// The headline property: canonicalisation erases any alpha-renaming
    /// — the canonical plan AND the column mapping are unchanged, so a
    /// renamed duplicate hash-conses onto the original's nodes.
    #[test]
    fn canon_erases_random_renamings(
        query_ix in 0..QUERIES.len(),
        salts in proptest::collection::vec(0u32..1000, 1..8),
    ) {
        let fra = compiled(query_ix);
        let mut rename = renamer(salts);
        let renamed = alpha_rename(&fra, &mut rename);
        let base = canonicalize(&fra);
        let re = canonicalize(&renamed);
        prop_assert_eq!(&base.plan, &re.plan, "canonical plans diverge under renaming");
        prop_assert_eq!(&base.mapping, &re.mapping, "column mappings diverge under renaming");
        // Renamed duplicates therefore share the same fingerprint.
        prop_assert_eq!(
            base.with_restored_order().fingerprint(),
            re.with_restored_order().fingerprint()
        );
    }

    /// The mapping is a bijection of the plan's arity, and restoring the
    /// original order yields the original schema width.
    #[test]
    fn mapping_is_a_bijection(query_ix in 0..QUERIES.len()) {
        let fra = compiled(query_ix);
        let canon = canonicalize(&fra);
        let arity = fra.schema().len();
        prop_assert_eq!(canon.mapping.len(), arity);
        prop_assert_eq!(canon.plan.schema().len(), arity);
        let mut seen = vec![false; arity];
        for &j in &canon.mapping {
            prop_assert!(j < arity, "mapping out of range");
            prop_assert!(!seen[j], "mapping not injective");
            seen[j] = true;
        }
        prop_assert_eq!(canon.with_restored_order().schema().len(), arity);
    }

    /// Canonicalisation is idempotent: re-canonicalising a canonical
    /// plan is the identity (same plan, identity mapping) — the property
    /// that makes consing on canonical forms stable.
    #[test]
    fn canon_is_idempotent(query_ix in 0..QUERIES.len()) {
        let once = canonicalize(&compiled(query_ix));
        let twice = canonicalize(&once.plan);
        prop_assert_eq!(&once.plan, &twice.plan);
        prop_assert!(twice.is_identity());
    }
}

/// Textually alpha-renamed Cypher queries compile to plans that
/// canonicalise identically — end-to-end through the parser and all
/// three pipeline stages.
#[test]
fn renamed_cypher_queries_canonicalise_identically() {
    let pairs = [
        ("MATCH (a:Post) RETURN a", "MATCH (p:Post) RETURN p"),
        (
            "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c",
            "MATCH (x:Post)-[:REPLY]->(y:Comm) RETURN x, y",
        ),
        (
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' AND c.lang = 'de' RETURN p",
            "MATCH (q:Post)-[:REPLY]->(d:Comm) WHERE d.lang = 'de' AND q.lang = 'en' RETURN q",
        ),
        (
            "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
            "MATCH u = (a:Post)-[:REPLY*]->(b:Comm) WHERE a.lang = b.lang RETURN a, u",
        ),
    ];
    for (a, b) in pairs {
        let fa = compile_query(&parse_query(a).unwrap()).unwrap().fra;
        let fb = compile_query(&parse_query(b).unwrap()).unwrap().fra;
        let (ca, cb) = (canonicalize(&fa), canonicalize(&fb));
        assert_eq!(ca.plan, cb.plan, "{a}  vs  {b}");
        assert_eq!(ca.mapping, cb.mapping, "{a}  vs  {b}");
    }
}

/// Queries that differ in more than renaming must NOT be conflated.
#[test]
fn semantically_different_queries_stay_apart() {
    let pairs = [
        ("MATCH (a:Post) RETURN a", "MATCH (a:Comm) RETURN a"),
        (
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' RETURN p",
            "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'de' RETURN p",
        ),
        (
            "MATCH (p:Post) RETURN DISTINCT p.lang",
            "MATCH (p:Post) RETURN p.lang",
        ),
    ];
    for (a, b) in pairs {
        let fa = compile_query(&parse_query(a).unwrap()).unwrap().fra;
        let fb = compile_query(&parse_query(b).unwrap()).unwrap().fra;
        assert_ne!(
            canonicalize(&fa).plan,
            canonicalize(&fb).plan,
            "{a}  vs  {b}"
        );
    }
}

// ---- label-only © folds into the ⇑ endpoint that binds its variable ----

fn sym(x: &str) -> Symbol {
    Symbol::intern(x)
}

/// `⇑[(s:src_labels)-[e:E]-(d:dst_labels)]` in direction `dir`, columns
/// named after `tag`.
fn edges(tag: &str, src_labels: &[&str], dst_labels: &[&str], dir: Direction) -> Fra {
    Fra::ScanEdges {
        src: format!("s{tag}"),
        edge: format!("e{tag}"),
        dst: format!("d{tag}"),
        types: vec![sym("E")],
        src_labels: src_labels.iter().map(|l| sym(l)).collect(),
        dst_labels: dst_labels.iter().map(|l| sym(l)).collect(),
        src_props: vec![],
        edge_props: vec![],
        dst_props: vec![],
        dir,
    }
}

fn label_scan(labels: &[&str]) -> Fra {
    Fra::ScanVertices {
        var: "v".into(),
        labels: labels.iter().map(|l| sym(l)).collect(),
        props: vec![],
    }
}

/// `©(v:labels {p→v.p, …})`.
fn prop_scan(labels: &[&str], props: &[&str]) -> Fra {
    Fra::ScanVertices {
        var: "v".into(),
        labels: labels.iter().map(|l| sym(l)).collect(),
        props: props.iter().map(|p| push(p, &format!("v.{p}"))).collect(),
    }
}

fn push(prop: &str, col: &str) -> PropPush {
    PropPush {
        prop: sym(prop),
        col: col.into(),
    }
}

/// `edges(..)` pushing `src` / `dst` properties of its endpoints.
fn pushing_edges(
    tag: &str,
    src_labels: &[&str],
    src: &[&str],
    dst_labels: &[&str],
    dst: &[&str],
) -> Fra {
    let mut e = edges(tag, src_labels, dst_labels, Direction::Out);
    if let Fra::ScanEdges {
        src_props,
        dst_props,
        ..
    } = &mut e
    {
        *src_props = src
            .iter()
            .map(|p| push(p, &format!("s{tag}.{p}")))
            .collect();
        *dst_props = dst
            .iter()
            .map(|p| push(p, &format!("d{tag}.{p}")))
            .collect();
    }
    e
}

fn join(left: Fra, right: Fra, left_keys: &[usize], right_keys: &[usize]) -> Fra {
    Fra::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
        left_keys: left_keys.to_vec(),
        right_keys: right_keys.to_vec(),
        value_keys: vec![],
    }
}

fn count_ops(plan: &Fra, pred: &dyn Fn(&Fra) -> bool) -> usize {
    let below: usize = match plan {
        Fra::Unit | Fra::ScanVertices { .. } | Fra::ScanEdges { .. } => 0,
        Fra::HashJoin { left, right, .. } | Fra::SemiJoin { left, right, .. } => {
            count_ops(left, pred) + count_ops(right, pred)
        }
        Fra::VarLengthJoin { left, .. } => count_ops(left, pred),
        Fra::Filter { input, .. }
        | Fra::Project { input, .. }
        | Fra::Distinct { input }
        | Fra::Aggregate { input, .. }
        | Fra::Unwind { input, .. } => count_ops(input, pred),
        Fra::MultiwayJoin { inputs, .. } => inputs.iter().map(|i| count_ops(i, pred)).sum(),
    };
    below + usize::from(pred(plan))
}

fn vertex_scans(plan: &Fra) -> usize {
    count_ops(plan, &|f| matches!(f, Fra::ScanVertices { .. }))
}

fn hash_joins(plan: &Fra) -> usize {
    count_ops(plan, &|f| matches!(f, Fra::HashJoin { .. }))
}

/// `canon(©(v:L) ⋈[v] P) == canon(P with L on v's endpoint)`, with the ©
/// on the right (output = P's columns) — for a source, a target, both
/// endpoints of an undirected scan, and labels the scan already has.
#[test]
fn label_scan_joined_on_an_endpoint_becomes_the_endpoint_label() {
    for dir in [Direction::Out, Direction::In, Direction::Both] {
        let src = join(edges("", &[], &["M"], dir), label_scan(&["L"]), &[0], &[0]);
        assert_eq!(
            canonicalize(&src),
            canonicalize(&edges("", &["L"], &["M"], dir)),
            "source, {dir:?}"
        );
        let dst = join(
            edges("", &[], &["M"], dir),
            label_scan(&["L", "M"]),
            &[2],
            &[0],
        );
        assert_eq!(
            canonicalize(&dst),
            canonicalize(&edges("", &[], &["M", "L"], dir)),
            "target (one label already there), {dir:?}"
        );
    }
}

/// With the © on the left the join's output is `v` followed by P's other
/// columns: the plan is P's, and the mapping says where they went.
#[test]
fn label_scan_on_the_left_permutes_the_mapping_only() {
    let folded = canonicalize(&join(
        label_scan(&["L"]),
        edges("", &[], &[], Direction::Out),
        &[0],
        &[2],
    ));
    let direct = canonicalize(&edges("", &[], &["L"], Direction::Out));
    assert_eq!(folded.plan, direct.plan);
    // Join output (v = dst, src, edge) → scan columns (src, edge, dst).
    assert_eq!(folded.mapping, vec![2, 0, 1]);
}

/// The key column is traced through σ, bare-column π and either operand
/// of a left-deep join chain to the ⇑ that binds it.
#[test]
fn the_endpoint_is_found_through_filters_projections_and_join_chains() {
    let ne = |a: usize, b: usize| {
        ScalarExpr::Binary(
            BinOp::Neq,
            Box::new(ScalarExpr::Col(a)),
            Box::new(ScalarExpr::Col(b)),
        )
    };
    // (⇑0 ⋈[d0 = s1] ⇑1) σ[e0 <> e1] ⋈[d1 = s2] ⇑2, columns
    // (s0, e0, d0, e1, d1, e2, d2); π keeps (d2, s0, d1).
    let chain = |mid_dst: &[&str], last_dst: &[&str]| {
        let wedge = Fra::Filter {
            input: Box::new(join(
                edges("0", &[], &[], Direction::Out),
                edges("1", &[], mid_dst, Direction::Out),
                &[2],
                &[0],
            )),
            predicate: ne(1, 3),
        };
        Fra::Project {
            input: Box::new(join(
                wedge,
                edges("2", &[], last_dst, Direction::Out),
                &[4],
                &[0],
            )),
            items: vec![
                (ScalarExpr::Col(6), "z".into()),
                (ScalarExpr::Col(0), "a".into()),
                (ScalarExpr::Col(4), "m".into()),
            ],
        }
    };
    // `z` is ⇑2's target: a right operand's non-key column, under π.
    let on_z = join(chain(&[], &[]), label_scan(&["L"]), &[0], &[0]);
    assert_eq!(canonicalize(&on_z), canonicalize(&chain(&[], &["L"])));
    // `m` is ⇑1's target: through π, the outer join's left operand, σ,
    // and the inner join's right operand.
    let on_m = join(chain(&[], &[]), label_scan(&["L"]), &[2], &[0]);
    assert_eq!(canonicalize(&on_m), canonicalize(&chain(&["L"], &[])));
    assert_eq!(vertex_scans(&canonicalize(&on_m).plan), 0);
}

/// Where the © carries a σ, equates more than `v`, or `v` is not
/// bound by an ⇑ endpoint, the join stays — whether the © pushes
/// properties or not.
#[test]
fn label_scan_stays_when_it_is_more_than_a_label_filter() {
    let out = || edges("", &[], &[], Direction::Out);
    let path = Fra::VarLengthJoin {
        left: Box::new(label_scan(&["A"])),
        src_col: 0,
        spec: VarLenSpec {
            types: vec![sym("E")],
            dir: Direction::Out,
            dst_labels: vec![],
            dst_props: vec![],
            edge_prop_filters: vec![],
            min: 1,
            max: None,
        },
        dst: "t".into(),
        path: "p".into(),
    };
    let computed = Fra::Project {
        input: Box::new(out()),
        items: vec![(
            ScalarExpr::Binary(
                BinOp::Add,
                Box::new(ScalarExpr::Col(0)),
                Box::new(ScalarExpr::lit(0)),
            ),
            "x".into(),
        )],
    };
    let mut cases: Vec<(String, Fra)> = Vec::new();
    for (kind, scan) in [
        ("label-only", label_scan(&["L"])),
        ("pushing", prop_scan(&["L"], &["x"])),
    ] {
        cases.extend([
            (
                format!("{kind}: joins on more than v"),
                join(out(), scan.clone(), &[0, 2], &[0, 0]),
            ),
            (
                format!("{kind}: joins on nothing"),
                join(out(), scan.clone(), &[], &[]),
            ),
            (
                format!("{kind}: v is the edge column"),
                join(out(), scan.clone(), &[1], &[0]),
            ),
            (
                format!("{kind}: v is bound by another ©"),
                join(label_scan(&["A"]), scan.clone(), &[0], &[0]),
            ),
            (
                format!("{kind}: v is a ⋈* destination"),
                join(path.clone(), scan.clone(), &[1], &[0]),
            ),
            (
                format!("{kind}: v is computed"),
                join(computed.clone(), scan.clone(), &[0], &[0]),
            ),
            (
                // A one-sided conjunct the planner put on the ©: it
                // filters each vertex once, on the ⇑ it would filter
                // each of the vertex's edges.
                format!("{kind}: the © is filtered"),
                join(
                    out(),
                    Fra::Filter {
                        input: Box::new(scan.clone()),
                        predicate: ScalarExpr::Binary(
                            BinOp::Neq,
                            Box::new(ScalarExpr::Col(0)),
                            Box::new(ScalarExpr::lit(0)),
                        ),
                    },
                    &[0],
                    &[0],
                ),
            ),
        ]);
    }
    cases.push((
        "the © side joins on a property, not v".into(),
        join(out(), prop_scan(&["L"], &["x"]), &[0], &[1]),
    ));
    for (what, plan) in cases {
        let canon = canonicalize(&plan);
        assert_eq!(
            hash_joins(&canon.plan),
            hash_joins(&plan),
            "{what}: the join must stay"
        );
        assert_eq!(vertex_scans(&canon.plan), vertex_scans(&plan), "{what}");
    }
}

/// What the rule is for: a pattern over one label and one edge type
/// compiles to a plan whose canonical form has no © left, whatever
/// position the planner would have given it — and so does one whose ©s
/// push the properties a `WHERE` reads.
#[test]
fn single_label_patterns_canonicalise_without_vertex_scans() {
    for q in [
        "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(a) RETURN a, b, c",
        "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N)-[:E]->(d:N)-[:E]->(a) RETURN a, b, c, d",
        "MATCH (a:N)-[:E]->(b:N)-[:E]->(c:N) RETURN count(*) AS wedges",
        "MATCH (a:Comm)<-[:REPLY]-(b) RETURN a, b",
        "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WHERE a.country = c.country RETURN a, c",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'en' RETURN p, c",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p.lang AS lang, count(*) AS replies",
        "MATCH (c:Comm)<-[:REPLY]-(p) WHERE c.lang = 'en' RETURN p, c",
    ] {
        let fra = compile_query(&parse_query(q).unwrap()).unwrap().fra;
        assert!(vertex_scans(&fra) > 0, "{q}: compiled with a ©");
        assert_eq!(vertex_scans(&canonicalize(&fra).plan), 0, "{q}");
    }
}

// ---- a © that pushes properties folds the same way ----------------------

/// The fold, then canonicalising its result again, is the identity.
fn assert_idempotent(what: &str, plan: &Fra) {
    let once = canonicalize(plan);
    let twice = canonicalize(&once.plan);
    assert_eq!(once.plan, twice.plan, "{what}: idempotent");
    assert!(
        twice.is_identity(),
        "{what}: re-canonicalisation is the identity"
    );
}

/// `©(v:L {x}) ⋈[v] ⇑` is the ⇑ with `L` on the endpoint and `x` pushed
/// from it, in the join's own column order — on the source, on the
/// target, in every direction, and on both ends at once.
#[test]
fn pushing_scan_joined_on_an_endpoint_becomes_a_pushed_property() {
    for dir in [Direction::Out, Direction::In, Direction::Both] {
        let with_dir = |f: Fra| match f {
            Fra::ScanEdges {
                src,
                edge,
                dst,
                types,
                src_labels,
                dst_labels,
                src_props,
                edge_props,
                dst_props,
                ..
            } => Fra::ScanEdges {
                src,
                edge,
                dst,
                types,
                src_labels,
                dst_labels,
                src_props,
                edge_props,
                dst_props,
                dir,
            },
            other => other,
        };
        let bare = || with_dir(edges("", &[], &[], Direction::Out));
        let cases = [
            (
                "source",
                join(bare(), prop_scan(&["L"], &["x", "y"]), &[0], &[0]),
                with_dir(pushing_edges("", &["L"], &["x", "y"], &[], &[])),
            ),
            (
                "target",
                join(bare(), prop_scan(&["L"], &["x"]), &[2], &[0]),
                with_dir(pushing_edges("", &[], &[], &["L"], &["x"])),
            ),
            (
                "both ends",
                join(
                    join(bare(), prop_scan(&["A"], &["x"]), &[0], &[0]),
                    prop_scan(&["B"], &["y"]),
                    &[2],
                    &[0],
                ),
                with_dir(pushing_edges("", &["A"], &["x"], &["B"], &["y"])),
            ),
        ];
        for (what, folded, direct) in cases {
            let what = format!("{what}, {dir:?}");
            let got = canonicalize(&folded);
            assert_eq!(got, canonicalize(&direct), "{what}");
            assert_eq!(vertex_scans(&got.plan), 0, "{what}");
            assert_eq!(hash_joins(&got.plan), 0, "{what}");
            assert_eq!(
                got.with_restored_order().schema().len(),
                folded.schema().len(),
                "{what}: the view keeps its width"
            );
            assert_idempotent(&what, &folded);
        }
    }
}

/// With the © on the left the join's output is `v`, its properties, then
/// P's other columns: the plan is P's, and the mapping says where they
/// went.
#[test]
fn pushing_scan_on_the_left_permutes_the_mapping_only() {
    let folded = canonicalize(&join(
        prop_scan(&["L"], &["x"]),
        edges("", &[], &[], Direction::Out),
        &[0],
        &[2],
    ));
    let direct = canonicalize(&pushing_edges("", &[], &[], &["L"], &["x"]));
    assert_eq!(folded.plan, direct.plan);
    // Join output (v = dst, v.x, src, edge) → scan (src, edge, dst, dst.x).
    assert_eq!(folded.mapping, vec![2, 3, 0, 1]);
}

/// A property both the © and the ⇑ push is one scan column, and the
/// mapping reads it twice; the restored plan has the join's width.
#[test]
fn a_property_pushed_twice_is_one_scan_column_read_twice() {
    let pushed = || pushing_edges("", &[], &["x"], &[], &[]);
    let folded = canonicalize(&join(pushed(), prop_scan(&["L"], &["x"]), &[0], &[0]));
    let direct = canonicalize(&pushing_edges("", &["L"], &["x"], &[], &[]));
    assert_eq!(folded.plan, direct.plan, "one column for `x`");
    assert_eq!(folded.mapping, vec![0, 1, 2, 3, 3]);
    assert_eq!(folded.with_restored_order().schema().len(), 5);
    assert!(!folded.is_identity());
    assert_idempotent(
        "pushed twice",
        &join(pushed(), prop_scan(&["L"], &["x"]), &[0], &[0]),
    );

    // A column read twice survives every operator above it: a join on
    // either side (and either orientation), ω, ⋈*, ⨝ⁿ.
    let doubled = || join(pushed(), prop_scan(&["L"], &["x"]), &[0], &[0]);
    let other = || edges("o", &[], &[], Direction::Out);
    let above: Vec<(&str, Fra)> = vec![
        ("⋈ left", join(doubled(), other(), &[2], &[0])),
        ("⋈ right", join(other(), doubled(), &[2], &[0])),
        (
            "⋈ on the doubled column",
            join(doubled(), other(), &[4], &[0]),
        ),
        (
            "ω",
            Fra::Unwind {
                input: Box::new(doubled()),
                expr: ScalarExpr::List(vec![ScalarExpr::Col(3), ScalarExpr::Col(4)]),
                alias: "u".into(),
            },
        ),
        (
            "⋈*",
            Fra::VarLengthJoin {
                left: Box::new(doubled()),
                src_col: 2,
                spec: VarLenSpec {
                    types: vec![sym("E")],
                    dir: Direction::Out,
                    dst_labels: vec![],
                    dst_props: vec![],
                    edge_prop_filters: vec![],
                    min: 1,
                    max: Some(2),
                },
                dst: "t".into(),
                path: "p".into(),
            },
        ),
        (
            "⨝ⁿ",
            Fra::MultiwayJoin {
                inputs: vec![doubled(), other()],
                var_of: vec![vec![0, 1, 2, 3, 4], vec![2, 5, 6]],
                names: (0..7).map(|i| format!("x{i}")).collect(),
            },
        ),
    ];
    for (what, plan) in above {
        let canon = canonicalize(&plan);
        assert_eq!(vertex_scans(&canon.plan), 0, "{what}");
        assert_eq!(canon.mapping.len(), plan.schema().len(), "{what}");
        assert_eq!(
            canon.with_restored_order().schema().len(),
            plan.schema().len(),
            "{what}"
        );
        let renamed = alpha_rename(&plan, &mut |n| format!("{n}_r"));
        assert_eq!(canonicalize(&renamed), canon, "{what}: renaming");
        assert_idempotent(what, &plan);
    }
}

/// The property column is threaded up through σ, π and the join chain:
/// a π gains an item for it, the columns after it in a join's output
/// shift, and the predicates and keys above follow.
#[test]
fn a_pushed_property_is_threaded_through_filters_projections_and_joins() {
    let ne = |a: usize, b: usize| {
        ScalarExpr::Binary(
            BinOp::Neq,
            Box::new(ScalarExpr::Col(a)),
            Box::new(ScalarExpr::Col(b)),
        )
    };
    // (⇑0 ⋈[d0 = s1] ⇑1) σ[e0 <> e1] ⋈[d1 = s2] ⇑2; π keeps (d2, s0, d1),
    // and whatever a pushed property appends.
    let chain = |mid: Fra, last: Fra, keep: &[usize]| {
        let wedge = Fra::Filter {
            input: Box::new(join(edges("0", &[], &[], Direction::Out), mid, &[2], &[0])),
            predicate: ne(1, 3),
        };
        Fra::Project {
            input: Box::new(join(wedge, last, &[4], &[0])),
            items: keep
                .iter()
                .enumerate()
                .map(|(i, &c)| (ScalarExpr::Col(c), format!("k{i}")))
                .collect(),
        }
    };
    let plain = |tag: &str| edges(tag, &[], &[], Direction::Out);
    let bare = chain(plain("1"), plain("2"), &[6, 0, 4]);
    // `z` (⇑2's target): a right operand's non-key column, under π.
    let on_z = join(bare.clone(), prop_scan(&["L"], &["x"]), &[0], &[0]);
    let want_z = chain(
        plain("1"),
        pushing_edges("2", &[], &[], &["L"], &["x"]),
        &[6, 0, 4, 7],
    );
    assert_eq!(canonicalize(&on_z), canonicalize(&want_z));
    // `m` (⇑1's target): through π, the outer join's left operand, σ and
    // the inner join's right operand; ⇑2's columns shift one right.
    let on_m = join(bare, prop_scan(&["L"], &["x"]), &[2], &[0]);
    let want_m = chain(
        pushing_edges("1", &[], &[], &["L"], &["x"]),
        plain("2"),
        &[7, 0, 4, 5],
    );
    let got = canonicalize(&on_m);
    assert_eq!(got, canonicalize(&want_m));
    assert_eq!(vertex_scans(&got.plan), 0);
    assert_idempotent("through the chain", &on_m);
}

/// Threaded through a join's *right* operand, a new column shifts the
/// right keys that come after it: `⇑0 ⋈[d0 = d2] (⇑1 ⋈[d1 = s2] ⇑2)`
/// with the © on `s1`, whose property lands before `d2`.
#[test]
fn a_pushed_property_shifts_the_right_keys_after_it() {
    let plain = |tag: &str| edges(tag, &[], &[], Direction::Out);
    // Inner columns (s1, e1, d1, e2, d2); with `s1.x`: (s1, e1, d1,
    // s1.x, e2, d2).
    let outer = |first: Fra, right_key: usize| {
        join(
            plain("0"),
            join(first, plain("2"), &[2], &[0]),
            &[2],
            &[right_key],
        )
    };
    // Output (s0, e0, d0, s1, e1, d1, e2), `s1` at 3.
    let folded = join(outer(plain("1"), 4), prop_scan(&["L"], &["x"]), &[3], &[0]);
    let direct = outer(pushing_edges("1", &["L"], &["x"], &[], &[]), 5);
    let (got, want) = (canonicalize(&folded), canonicalize(&direct));
    assert_eq!(got.plan, want.plan);
    // The fold's output ends with `x`; the direct plan has it before `e2`.
    let m = &want.mapping;
    assert_eq!(got.mapping, [&m[..6], &[m[7], m[6]]].concat());
    assert_idempotent("through the right operand", &folded);
}
