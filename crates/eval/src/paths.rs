//! Non-incremental enumeration of edge-distinct variable-length paths
//! (DFS), used by the baseline evaluator's ⋈* implementation.

use pgq_algebra::fra::VarLenSpec;
use pgq_common::dir::Direction;
use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::path::PathValue;
use pgq_graph::store::PropertyGraph;

/// Enumerate every edge-distinct path from `src` whose hops satisfy
/// `spec` (types, direction, literal edge-property filters) and whose
/// length lies within `[spec.min, spec.max]`. Destination label/property
/// constraints are applied by the caller.
pub fn enumerate_paths(g: &PropertyGraph, src: VertexId, spec: &VarLenSpec) -> Vec<PathValue> {
    let mut out = Vec::new();
    if !g.has_vertex(src) {
        return out;
    }
    if spec.min == 0 {
        out.push(PathValue::single(src));
    }
    let mut used: Vec<EdgeId> = Vec::new();
    let mut path = PathValue::single(src);
    dfs(g, src, spec, &mut used, &mut path, &mut out);
    out
}

fn hop_matches(g: &PropertyGraph, e: EdgeId, spec: &VarLenSpec) -> bool {
    let Some(data) = g.edge(e) else { return false };
    if !spec.types.is_empty() && !spec.types.contains(&data.ty) {
        return false;
    }
    spec.edge_prop_filters
        .iter()
        .all(|(k, v)| data.props.get(*k) == Some(v))
}

fn neighbours(g: &PropertyGraph, v: VertexId, spec: &VarLenSpec) -> Vec<(EdgeId, VertexId)> {
    let mut out = Vec::new();
    let consider_out = matches!(spec.dir, Direction::Out | Direction::Both);
    let consider_in = matches!(spec.dir, Direction::In | Direction::Both);
    if consider_out {
        for &e in g.out_edges(v) {
            if hop_matches(g, e, spec) {
                out.push((e, g.edge(e).expect("indexed").dst));
            }
        }
    }
    if consider_in {
        for &e in g.in_edges(v) {
            // Avoid double-reporting self-loops in Both mode.
            let data = g.edge(e).expect("indexed");
            if consider_out && data.src == data.dst {
                continue;
            }
            if hop_matches(g, e, spec) {
                out.push((e, data.src));
            }
        }
    }
    out
}

fn dfs(
    g: &PropertyGraph,
    at: VertexId,
    spec: &VarLenSpec,
    used: &mut Vec<EdgeId>,
    path: &mut PathValue,
    out: &mut Vec<PathValue>,
) {
    if let Some(max) = spec.max {
        if path.len() as u32 >= max {
            return;
        }
    }
    for (e, next) in neighbours(g, at, spec) {
        if used.contains(&e) {
            continue;
        }
        used.push(e);
        let extended = path.extend(e, next);
        if extended.len() as u32 >= spec.min.max(1) {
            out.push(extended.clone());
        }
        let mut ext = extended;
        std::mem::swap(path, &mut ext);
        dfs(g, next, spec, used, path, out);
        std::mem::swap(path, &mut ext);
        used.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_common::intern::Symbol;
    use pgq_graph::props::Properties;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn spec(min: u32, max: Option<u32>) -> VarLenSpec {
        VarLenSpec {
            types: vec![sym("R")],
            dir: Direction::Out,
            dst_labels: vec![],
            dst_props: vec![],
            edge_prop_filters: vec![],
            min,
            max,
        }
    }

    #[test]
    fn chain_enumeration() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([sym("N")], Properties::new()).0;
        let b = g.add_vertex([sym("N")], Properties::new()).0;
        let c = g.add_vertex([sym("N")], Properties::new()).0;
        g.add_edge(a, b, sym("R"), Properties::new()).unwrap();
        g.add_edge(b, c, sym("R"), Properties::new()).unwrap();
        let paths = enumerate_paths(&g, a, &spec(1, None));
        assert_eq!(paths.len(), 2); // a→b, a→b→c
        let paths = enumerate_paths(&g, a, &spec(0, Some(1)));
        assert_eq!(paths.len(), 2); // ε, a→b
    }

    #[test]
    fn cycle_bounded_by_edge_distinctness() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([sym("N")], Properties::new()).0;
        let b = g.add_vertex([sym("N")], Properties::new()).0;
        g.add_edge(a, b, sym("R"), Properties::new()).unwrap();
        g.add_edge(b, a, sym("R"), Properties::new()).unwrap();
        let paths = enumerate_paths(&g, a, &spec(1, None));
        assert_eq!(paths.len(), 2); // a→b, a→b→a
    }

    #[test]
    fn type_filter_respected() {
        let mut g = PropertyGraph::new();
        let a = g.add_vertex([sym("N")], Properties::new()).0;
        let b = g.add_vertex([sym("N")], Properties::new()).0;
        g.add_edge(a, b, sym("OTHER"), Properties::new()).unwrap();
        assert!(enumerate_paths(&g, a, &spec(1, None)).is_empty());
    }
}
