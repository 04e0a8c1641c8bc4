//! The six workloads. Each is a `Spec`: a generated graph (as bulk-load
//! transactions), standing views, and an operation stream; the runner
//! does the rest. Sizes are chosen so one run — three set-ups, the
//! measured phase, the correctness gate — fits the driver's per-run
//! budget on a 2-core shared host (see README, "Sizes").

mod cypher_session;
mod fanout_batch;
mod motif_skew;
mod social;
mod view_churn;

use crate::digest::Digest;
use crate::gen::Class;
use crate::ops::Op;
use crate::surface::Transaction;

pub const NAMES: [&str; 6] = [
    "social_stream",
    "social_durable",
    "cypher_session",
    "view_churn",
    "motif_skew",
    "fanout_batch",
];

/// The operation stream: the next operation and its class, folding what
/// it generated into the digest.
pub type Stream = Box<dyn FnMut(&mut Digest) -> (Op, Class)>;

pub struct Spec {
    /// Open the engine through `open_durable_with(MemVfs)`?
    pub durable: bool,
    pub load: Vec<Transaction>,
    /// Standing views as `(name, cypher)`.
    pub views: Vec<(String, String)>,
    pub stream: Stream,
    /// Digest of the generated graph; the runner keeps folding operations.
    pub digest: Digest,
    /// Operations run before the clock starts.
    pub warmup: usize,
    /// Operations generated at a time, outside the timed calls.
    pub chunk: usize,
    /// Vertices loaded, for the report.
    pub vertices: usize,
}

pub fn spec(name: &str, seed: u64, quick: bool) -> Option<Spec> {
    Some(match name {
        "social_stream" => social::spec(seed, quick, false),
        "social_durable" => social::spec(seed, quick, true),
        "cypher_session" => cypher_session::spec(seed, quick),
        "view_churn" => view_churn::spec(seed, quick),
        "motif_skew" => motif_skew::spec(seed, quick),
        "fanout_batch" => fanout_batch::spec(seed, quick),
        _ => return None,
    })
}

fn named(queries: &[&str]) -> Vec<(String, String)> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| (format!("v{i}"), q.to_string()))
        .collect()
}
