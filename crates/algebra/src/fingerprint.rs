//! Canonical FRA subplan fingerprinting — the hash-consing key for the
//! shared dataflow network.
//!
//! The IVM engine compiles every registered view into one engine-owned
//! operator DAG and *shares* operator nodes between views whose subplans
//! are structurally identical (the Rete idea: identical alpha/beta
//! subnetworks are built once). Sharing is keyed by the fingerprint
//! computed here: a structural hash of an [`Fra`] subtree covering every
//! semantically relevant field — operator kind, scan labels/types/pushed
//! properties, join keys, predicates, projection items *including output
//! names*, and variable-length traversal specs.
//!
//! The fingerprint itself is deliberately *literal*: it hashes the plan
//! exactly as given, names included, and performs no normalisation.
//! Equivalence-up-to-renaming is the job of [`crate::canon`], which the
//! network runs **before** fingerprinting — plans reach this hash
//! already alpha-renamed to positional column names, with commutative
//! structure sorted and σ/π chains normalised, so alpha-equivalent
//! subplans arrive byte-identical and hash identically. Fingerprinting
//! a *raw* plan is still meaningful (and used in tests), just
//! conservative: plans differing only in variable names hash apart.
//!
//! Two subtrees with equal fingerprints are only *candidates* for
//! sharing; the consumer must confirm with a full structural equality
//! check (`Fra: PartialEq`), so a hash collision can never cause two
//! different plans to share state.
//!
//! Fingerprints are **content-derived and cross-process stable**: every
//! input to the hash is plan content. [`Symbol`](pgq_common::intern::Symbol)s
//! render their resolved *string* (not the interning-order-dependent
//! intern id) in `Debug` output, canonicalisation sorts commutative
//! symbol lists by resolved string, and [`FxHasher`] is unseeded — so
//! `fingerprint(canon(q))` is a pure function of the query text, however
//! interning happened to be ordered in the emitting process. Recovery
//! relies on this: a *different* process re-registers each view from its
//! text and must build the canonical plans and node sharing the
//! registering process built, and the image format's operator-state
//! sections (`pgq_durability`, written empty by the engine) are keyed by
//! fingerprint. The cross-process property is asserted by the
//! `fingerprint_stability` integration test, which re-runs itself as a
//! child process with a scrambled interner.

use std::hash::{Hash, Hasher};

use pgq_common::fxhash::FxHasher;

use crate::fra::Fra;

/// A structural hash of an FRA subplan, used as the hash-consing bucket
/// key when deduplicating operator nodes across views.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Hash the plan's full `Debug` rendering into `h` without
/// materialising an intermediate `String`.
fn hash_debug(h: &mut FxHasher, fra: &Fra) {
    struct HashWriter<'a>(&'a mut FxHasher);
    impl std::fmt::Write for HashWriter<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            s.as_bytes().hash(self.0);
            Ok(())
        }
    }
    use std::fmt::Write;
    write!(HashWriter(h), "{fra:?}").expect("Debug never fails");
}

impl Fra {
    /// Canonical structural fingerprint of this subplan.
    ///
    /// Implemented by hashing the operator tree's full `Debug`
    /// rendering: `Fra`'s derived `Debug` covers every field of every
    /// variant (scan labels, pushed properties, join keys, predicates,
    /// output names, variable-length specs), so the rendering is a
    /// faithful — if verbose — canonical form. Plans are tiny (tens of
    /// operators), so the O(plan size) string is irrelevant next to the
    /// initial evaluation a cache miss triggers.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FxHasher::default();
        hash_debug(&mut h, self);
        Fingerprint(h.finish())
    }

    /// A second, domain-separated structural hash over the same
    /// rendering. In-process hash-consing confirms a fingerprint match
    /// with a full plan-equality check; durable snapshots cannot ship
    /// the plan, so they store the `(fingerprint, check)` pair instead
    /// — a cross-plan collision must now defeat two independent 64-bit
    /// hashes before foreign operator state could be restored.
    pub fn snapshot_check(&self) -> Fingerprint {
        let mut h = FxHasher::default();
        // Domain separator: makes this hash independent of
        // `fingerprint()` despite sharing the rendering.
        b"pgq-snapshot-check".hash(&mut h);
        hash_debug(&mut h, self);
        Fingerprint(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_common::intern::Symbol;

    fn scan(var: &str, label: &str) -> Fra {
        Fra::ScanVertices {
            var: var.into(),
            labels: vec![Symbol::intern(label)],
            props: vec![],
        }
    }

    #[test]
    fn identical_plans_share_a_fingerprint() {
        let a = Fra::Distinct {
            input: Box::new(scan("n", "Post")),
        };
        let b = Fra::Distinct {
            input: Box::new(scan("n", "Post")),
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn structurally_different_plans_differ() {
        let a = scan("n", "Post");
        let b = scan("n", "Comm");
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Different operator over the same input also differs.
        let c = Fra::Distinct {
            input: Box::new(scan("n", "Post")),
        };
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn variable_names_are_part_of_the_fingerprint() {
        // Literal by design: the raw fingerprint does no renaming.
        // Alpha-equivalence is established by `canon` *before* plans
        // are fingerprinted for consing.
        assert_ne!(
            scan("n", "Post").fingerprint(),
            scan("m", "Post").fingerprint()
        );
    }

    #[test]
    fn fingerprint_ignores_interning_order() {
        // Two distinct label strings interned in opposite orders must
        // not influence each other's plan fingerprints: the hash reads
        // resolved strings, never intern ids. (The full cross-process
        // property is asserted by the `fingerprint_stability`
        // integration test; this guards the in-process half — symbol
        // identity is not part of the hash input.)
        let early = scan("n", "FpEarly");
        let fp_before = early.fingerprint();
        // Interning more symbols afterwards shifts every later id but
        // must leave existing fingerprints untouched.
        for i in 0..64 {
            Symbol::intern(&format!("fp-decoy-{i}"));
        }
        assert_eq!(scan("n", "FpEarly").fingerprint(), fp_before);
    }

    #[test]
    fn snapshot_check_is_independent_of_fingerprint() {
        let p = scan("n", "Post");
        // Same rendering, different domain → different hash function.
        assert_ne!(p.fingerprint(), p.snapshot_check());
        assert_eq!(p.snapshot_check(), p.clone().snapshot_check());
        assert_ne!(
            scan("n", "Post").snapshot_check(),
            scan("n", "Comm").snapshot_check()
        );
    }

    #[test]
    fn fingerprint_is_stable_across_clones() {
        let plan = Fra::HashJoin {
            left: Box::new(scan("a", "A")),
            right: Box::new(scan("b", "B")),
            left_keys: vec![0],
            right_keys: vec![0],
            value_keys: vec![],
        };
        assert_eq!(plan.fingerprint(), plan.clone().fingerprint());
    }

    /// A join renders — and so fingerprints — its value keys only when it
    /// has some: every plan without them hashes as before they existed.
    #[test]
    fn value_keys_are_rendered_only_when_present() {
        let join = |value_keys| Fra::HashJoin {
            left: Box::new(Fra::Unit),
            right: Box::new(Fra::Unit),
            left_keys: vec![],
            right_keys: vec![],
            value_keys,
        };
        assert_eq!(
            format!("{:?}", join(vec![])),
            "HashJoin { left: Unit, right: Unit, left_keys: [], right_keys: [] }"
        );
        assert_eq!(
            format!("{:?}", join(vec![(0, 1)])),
            "HashJoin { left: Unit, right: Unit, left_keys: [], right_keys: [], \
             value_keys: [(0, 1)] }"
        );
        assert_ne!(join(vec![]).fingerprint(), join(vec![(0, 1)]).fingerprint());
    }
}
