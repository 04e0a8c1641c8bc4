//! `view_churn`: register → read → drop over a pool cycling three kinds
//! of view, four update transactions between lifecycles. It uses ivm the
//! other way round (bulk initial evaluation and node release rather than
//! delta propagation) and is the one place the front end — parse,
//! compile, plan, canon, fingerprint — is a visible share of an operation.

use super::{named, social, Spec};
use crate::gen::social::generate;
use crate::gen::Class;
use crate::ops::{ChurnKind, Op};

pub const PERSONS: usize = 1_500;

/// The cold view: a two-hop join no standing view maintains, built from
/// populated state. One shape (so the cold median is not a mixture's),
/// fresh variable names per lifecycle. Its size is 4 x |KNOWS| whatever
/// the seed: out-degree is flat, only in-degree is skewed.
fn cold(n: u64) -> String {
    format!(
        "MATCH (a{n}:Person)-[:KNOWS]->(b{n}:Person)-[:KNOWS]->(c{n}:Person) WHERE a{n}.country = c{n}.country RETURN a{n}, c{n}"
    )
}

/// Index into `social::VIEWS` of the standing view each shared
/// registration re-spells, and the re-spelling: fresh variable names per
/// lifecycle, so every registration is distinct text. (Operand order of
/// an `OR` is left alone: the canonicaliser sorts `AND` conjuncts but not
/// `OR` operands, so a swapped `OR` is a different plan at this commit.)
const SHARED_OF: [usize; 2] = [5, 6];

fn shared(of: usize, n: u64) -> String {
    match of {
        5 => format!(
            "MATCH (x{n}:Post)-[:REPLY]->(y{n}:Comm) WHERE x{n}.lang = 'en' OR y{n}.lang = 'de' RETURN x{n}, y{n}"
        ),
        _ => format!(
            "MATCH (x{n}:Post)-[:REPLY]->(y{n}:Comm) WHERE x{n}.lang = 'de' OR y{n}.lang = 'fr' RETURN x{n}, y{n}"
        ),
    }
}

/// New members of the standing WHERE family: same join, new predicate.
const PARTIAL: [&str; 3] = [
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'nl' OR c.lang = 'nl' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'hu' OR c.lang = 'en' RETURN p, c",
    "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'nl' OR c.lang = 'de' RETURN p, c",
];

pub fn spec(seed: u64, quick: bool) -> Spec {
    let size = social::size(if quick { 100 } else { PERSONS });
    let (load, mut model, digest) = generate(seed, size);
    // Step of the lifecycle: 0 register, 1 read, 2 drop, 3..=6 update.
    // Four updates rather than one, so that updates are 4/7 of the
    // operations and the all-operations median is a quantile of their
    // (continuous) cost range, not the boundary between two kinds.
    let mut step = 0u64;
    Spec {
        durable: false,
        load,
        views: named(&social::VIEWS),
        stream: Box::new(move |d| {
            let (lifecycle, phase) = (step / 7, step % 7);
            step += 1;
            match phase {
                0 => {
                    let pick = (lifecycle / 3) as usize;
                    let (kind, cypher, twin_of) = match lifecycle % 3 {
                        0 => (ChurnKind::Cold, cold(lifecycle), None),
                        1 => {
                            let of = SHARED_OF[pick % SHARED_OF.len()];
                            (ChurnKind::Shared, shared(of, lifecycle), Some(of))
                        }
                        _ => (
                            ChurnKind::Partial,
                            PARTIAL[pick % PARTIAL.len()].to_string(),
                            None,
                        ),
                    };
                    d.str(&cypher);
                    let class = match kind {
                        ChurnKind::Cold => Class::Heavy,
                        ChurnKind::Shared => Class::Light,
                        ChurnKind::Partial => Class::Other,
                    };
                    (
                        Op::Register {
                            name: format!("churn{lifecycle}"),
                            cypher,
                            kind,
                            twin_of,
                        },
                        class,
                    )
                }
                1 => (Op::Read, Class::Other),
                2 => (Op::Drop, Class::Other),
                _ => {
                    let (tx, _) = model.next_tx(d);
                    (Op::Tx(tx), Class::Other)
                }
            }
        }),
        digest,
        warmup: if quick { 21 } else { 42 },
        chunk: 84,
        vertices: size.vertices(),
    }
}
