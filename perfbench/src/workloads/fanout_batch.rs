//! `fanout_batch`: 128 standing views with a subscriber each, driven
//! through `apply_batch`. Routing, sink fold, subscriber fan-out and pass
//! coalescing are the work, not joins.

use super::Spec;
use crate::gen::fanout::{generate, view_queries, FanoutSize};
use crate::ops::Op;

pub const SIZE: FanoutSize = FanoutSize {
    branches: 48,
    family_views: 80,
    posts: 2_000,
    batch: 16,
};

pub fn spec(seed: u64, quick: bool) -> Spec {
    let size = if quick {
        FanoutSize { posts: 100, ..SIZE }
    } else {
        SIZE
    };
    let (load, mut model, digest) = generate(seed, size);
    let views = view_queries(size)
        .into_iter()
        .enumerate()
        .map(|(i, q)| (format!("v{i}"), q))
        .collect();
    Spec {
        durable: false,
        load,
        views,
        stream: Box::new(move |d| {
            let (txs, class) = model.next_batch(d);
            (Op::Batch(txs), class)
        }),
        digest,
        warmup: if quick { 8 } else { 64 },
        chunk: 256,
        vertices: size.branches * 13 + size.posts * 4,
    }
}
