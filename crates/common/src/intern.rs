//! Global string interner for labels, edge types and property keys.
//!
//! Property graphs name things with a small, heavily repeated vocabulary
//! (`Post`, `REPLY`, `lang`, ...). Interning turns every name into a
//! copyable [`Symbol`] so pattern matching and schema inference compare
//! `u32`s instead of strings. The interner is global and append-only;
//! symbols are stable for the process lifetime.

use std::fmt;
use std::sync::{Arc, RwLock};

use crate::fxhash::FxHashMap;
use crate::sync::{read, write};

/// An interned string. Cheap to copy, O(1) to compare.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl fmt::Debug for Symbol {
    /// Renders the **resolved string**, not the intern id. The id is an
    /// interning-order artefact, different from process to process; every
    /// consumer that derives `Debug` over symbols (most importantly the
    /// plan fingerprint in `pgq_algebra`, which hashes the `Debug`
    /// rendering and keys durable operator-state snapshots) would
    /// otherwise leak process-local identity into output that must be
    /// content-stable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_str(|s| write!(f, "Symbol({s:?})"))
    }
}

#[derive(Default)]
struct Interner {
    map: FxHashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

fn interner() -> &'static RwLock<Interner> {
    use std::sync::OnceLock;
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::default()))
}

impl Symbol {
    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(s: &str) -> Symbol {
        {
            let guard = read(interner());
            if let Some(&id) = guard.map.get(s) {
                return Symbol(id);
            }
        }
        let mut guard = write(interner());
        if let Some(&id) = guard.map.get(s) {
            return Symbol(id);
        }
        let id = guard.strings.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        guard.strings.push(arc.clone());
        guard.map.insert(arc, id);
        Symbol(id)
    }

    /// Resolve the symbol back to its string.
    pub fn resolve(self) -> Arc<str> {
        read(interner()).strings[self.0 as usize].clone()
    }

    /// Run `f` with the symbol's string without cloning the `Arc`.
    pub fn with_str<R>(self, f: impl FnOnce(&str) -> R) -> R {
        f(&read(interner()).strings[self.0 as usize])
    }

    /// Numeric id of the symbol (for dense side tables).
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_str(|s| f.write_str(s))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Self {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("Post");
        let b = Symbol::intern("Post");
        assert_eq!(a, b);
        assert_eq!(a.resolve().as_ref(), "Post");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(Symbol::intern("Post"), Symbol::intern("Comm"));
    }

    #[test]
    fn display_roundtrip() {
        let s = Symbol::intern("REPLY");
        assert_eq!(s.to_string(), "REPLY");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("concurrent-key")))
            .collect();
        let syms: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }
}
