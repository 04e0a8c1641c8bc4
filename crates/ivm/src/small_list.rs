//! A list that holds zero or one element inline and spills to a `Vec`
//! beyond that — the per-key container of keyed operator state.
//!
//! Almost every key of an arrangement holds at most one tuple (on the
//! benchmark's `motif_skew`, 94% of arrangement updates land on such a
//! key), and almost every ⋈* vertex, edge and trie node has at
//! most one path ending at, leaving through or hanging under it. A plain
//! `Vec` per key pays an allocation, a free and a pointer chase for the
//! one element; [`SmallList`] keeps it in the map entry. Once spilled,
//! the `Vec` stays until the list is dropped, so a key that oscillates
//! around two elements does not allocate on every update.

use std::ops::{Deref, DerefMut};

/// Zero or one element inline, a `Vec` beyond; reads as a slice.
#[derive(Clone, Debug, Default)]
pub(crate) enum SmallList<T> {
    #[default]
    Empty,
    One(T),
    Many(Vec<T>),
}

impl<T> SmallList<T> {
    /// Append `x`; the second element moves the list to the heap.
    pub(crate) fn push(&mut self, x: T) {
        *self = match std::mem::take(self) {
            SmallList::Empty => SmallList::One(x),
            SmallList::One(a) => SmallList::Many(vec![a, x]),
            SmallList::Many(mut v) => {
                v.push(x);
                SmallList::Many(v)
            }
        };
    }

    /// Remove and return element `i`, moving the last one into its
    /// place (`Vec::swap_remove`).
    pub(crate) fn swap_remove(&mut self, i: usize) -> T {
        if let SmallList::Many(v) = self {
            return v.swap_remove(i);
        }
        match std::mem::take(self) {
            SmallList::One(x) if i == 0 => x,
            _ => panic!("swap_remove index {i} out of bounds"),
        }
    }

    /// Does the list hold its elements without a heap allocation?
    pub(crate) fn is_inline(&self) -> bool {
        !matches!(self, SmallList::Many(_))
    }
}

impl<T> Deref for SmallList<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            SmallList::Empty => &[],
            SmallList::One(x) => std::slice::from_ref(x),
            SmallList::Many(v) => v,
        }
    }
}

impl<T> DerefMut for SmallList<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            SmallList::Empty => &mut [],
            SmallList::One(x) => std::slice::from_mut(x),
            SmallList::Many(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            ..ProptestConfig::default()
        })]

        /// Any script of pushes and `swap_remove`s leaves the same
        /// elements, in the same order, as on a `Vec`; a list that never
        /// held two elements never left its inline form.
        #[test]
        fn small_list_equals_vec(
            // (push?, value, index seed)
            ops in proptest::collection::vec((0..3usize, 0..100u32, 0..8usize), 0..40),
        ) {
            let mut list = SmallList::default();
            let mut model: Vec<u32> = Vec::new();
            let mut peak = 0;
            for &(op, x, i) in &ops {
                if op > 0 || model.is_empty() {
                    list.push(x);
                    model.push(x);
                } else {
                    let i = i % model.len();
                    prop_assert_eq!(list.swap_remove(i), model.swap_remove(i));
                }
                peak = peak.max(model.len());
                prop_assert_eq!(&list[..], &model[..]);
                prop_assert_eq!(list.is_inline(), peak <= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn swap_remove_past_the_end_panics() {
        let mut list = SmallList::One(1);
        list.swap_remove(1);
    }
}
