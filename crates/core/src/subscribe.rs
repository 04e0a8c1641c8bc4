//! Active-query subscriptions — the "active graph database" behaviour of
//! Graphflow (Kankanamge et al., SIGMOD'17), which the paper discusses as
//! the closest related system: a registered callback fires with the
//! view's delta after every transaction that changes it.

use pgq_common::tuple::Tuple;

/// A change notification delivered to subscribers.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewDelta {
    /// Name of the view that changed.
    pub view: String,
    /// Rows that entered the result (with multiplicities).
    pub inserted: Vec<(Tuple, i64)>,
    /// Rows that left the result (multiplicities positive).
    pub removed: Vec<(Tuple, i64)>,
}

impl ViewDelta {
    /// Build from a consolidated delta.
    pub fn from_delta(view: &str, delta: &pgq_ivm::Delta) -> ViewDelta {
        let mut inserted = Vec::new();
        let mut removed = Vec::new();
        for (t, m) in delta.iter() {
            if *m > 0 {
                inserted.push((t.clone(), *m));
            } else if *m < 0 {
                removed.push((t.clone(), -m));
            }
        }
        ViewDelta {
            view: view.to_string(),
            inserted,
            removed,
        }
    }
}

/// Subscriber callback type.
pub(crate) type Subscriber = Box<dyn FnMut(&ViewDelta) + Send>;

#[cfg(test)]
mod tests {
    use super::*;
    use pgq_common::value::Value;

    #[test]
    fn splits_signs() {
        let delta: pgq_ivm::Delta = [
            (Tuple::new(vec![Value::Int(1)]), 2),
            (Tuple::new(vec![Value::Int(2)]), -1),
        ]
        .into_iter()
        .collect();
        let vd = ViewDelta::from_delta("v", &delta);
        assert_eq!(vd.inserted.len(), 1);
        assert_eq!(vd.inserted[0].1, 2);
        assert_eq!(vd.removed.len(), 1);
        assert_eq!(vd.removed[0].1, 1);
    }
}
