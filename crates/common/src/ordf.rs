//! Totally ordered, hashable `f64` wrapper.
//!
//! Tuples flowing through the dataflow must be `Eq + Hash` to key operator
//! memories, and the baseline evaluator needs a total order for `ORDER BY`.
//! IEEE `f64` offers neither, so [`OrdF64`] canonicalises NaN to a single
//! bit pattern and negative zero to positive zero before comparing/hashing.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A total-order, hash-consistent wrapper around `f64`.
///
/// All NaNs compare equal (and greater than every number, mirroring the
/// openCypher "NaN sorts last" rule); `-0.0 == 0.0` and both hash alike.
#[derive(Clone, Copy, Debug)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// Canonical bit pattern: one NaN, no negative zero.
    #[inline]
    fn canonical_bits(self) -> u64 {
        if self.0.is_nan() {
            f64::NAN.to_bits()
        } else if self.0 == 0.0 {
            0.0f64.to_bits()
        } else {
            self.0.to_bits()
        }
    }

    /// Inner float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.0.is_nan(), other.0.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => self.0.partial_cmp(&other.0).expect("no NaN here"),
        }
    }
}

impl Hash for OrdF64 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical_bits().hash(state);
    }
}

impl fmt::Display for OrdF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<f64> for OrdF64 {
    fn from(v: f64) -> Self {
        OrdF64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn h(v: OrdF64) -> u64 {
        crate::fxhash::FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn nan_equals_nan() {
        assert_eq!(OrdF64(f64::NAN), OrdF64(f64::NAN));
        assert_eq!(h(OrdF64(f64::NAN)), h(OrdF64(-f64::NAN)));
    }

    #[test]
    fn nan_sorts_last() {
        assert!(OrdF64(f64::NAN) > OrdF64(f64::INFINITY));
        assert!(OrdF64(1.0) < OrdF64(f64::NAN));
    }

    #[test]
    fn zeros_unify() {
        assert_eq!(OrdF64(0.0), OrdF64(-0.0));
        assert_eq!(h(OrdF64(0.0)), h(OrdF64(-0.0)));
    }

    #[test]
    fn regular_ordering() {
        assert!(OrdF64(-1.5) < OrdF64(0.0));
        assert!(OrdF64(2.0) > OrdF64(1.0));
        assert_eq!(OrdF64(3.25), OrdF64(3.25));
    }
}
