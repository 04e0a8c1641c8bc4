//! [`Text`], the string payload of [`Value::Str`](crate::value::Value::Str).
//!
//! Sixteen bytes, so that `Value` is sixteen bytes too: a string of at
//! most [`Text::INLINE_CAP`] UTF-8 bytes lives inline (no allocation, no
//! pointer chase), a longer one behind a thin `Arc<Box<str>>`. Which form
//! holds a string is decided by its length alone, so each string has
//! exactly one representation.
//!
//! `Text` is indistinguishable from `str` wherever the engine can
//! observe it: it compares and orders by bytes, hashes as `str` does
//! (the bytes, then `0xff`) and prints `str`'s `Debug`/`Display`. Hash
//! map iteration orders, plan fingerprints (a hash of a plan's `Debug`
//! text) and the on-disk codec therefore do not depend on the layout.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable UTF-8 string, cheap to clone: inline up to
/// [`Text::INLINE_CAP`] bytes, a shared thin `Arc` beyond.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the string; the rest is zero.
    Inline {
        len: u8,
        bytes: [u8; Text::INLINE_CAP],
    },
    /// Always longer than [`Text::INLINE_CAP`] bytes.
    Heap(Arc<Box<str>>),
}

impl Text {
    /// The longest string, in bytes, held without an allocation.
    pub const INLINE_CAP: usize = 14;

    /// The string. An inline one is checked as UTF-8 on each read (at
    /// most 14 bytes, safe code has no unchecked view).
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("inline text is built from a whole str"),
            Repr::Heap(s) => s,
        }
    }

    /// The string's UTF-8 bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// Is the string held inline (no allocation)?
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    fn inline(s: &str) -> Option<Text> {
        let len = s.len();
        (len <= Text::INLINE_CAP).then(|| {
            let mut bytes = [0; Text::INLINE_CAP];
            bytes[..len].copy_from_slice(s.as_bytes());
            Text(Repr::Inline {
                len: len as u8,
                bytes,
            })
        })
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text::inline(s).unwrap_or_else(|| Text(Repr::Heap(Arc::new(s.into()))))
    }
}

/// Moves the buffer into the heap form (no copy when the `String` has
/// no spare capacity); a short string is copied inline and its buffer
/// freed.
impl From<String> for Text {
    fn from(s: String) -> Text {
        Text::inline(&s).unwrap_or_else(|| Text(Repr::Heap(Arc::new(s.into_boxed_str()))))
    }
}

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    #[inline]
    fn eq(&self, other: &Text) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte-lexicographic, which is `str`'s order.
impl Ord for Text {
    #[inline]
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// What `str`'s `Hash` writes: the bytes, then `0xff`.
impl Hash for Text {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn form_follows_length() {
        assert!(Text::from("").is_inline());
        assert!(Text::from("fourteen bytes").is_inline());
        assert!(!Text::from("fifteen bytes..").is_inline());
        assert!(!Text::from(String::from("fifteen bytes..")).is_inline());
        // 13 ASCII bytes + a 2-byte char straddles the boundary: 15 bytes.
        assert!(!Text::from("thirteen byteé").is_inline());
        assert_eq!(Text::from("thirteen byteé").as_str(), "thirteen byteé");
    }

    #[test]
    fn forms_never_meet_but_compare_as_str() {
        let short = Text::from("abc");
        let long = Text::from("abcdefghijklmnopq");
        assert_eq!(short.cmp(&long), "abc".cmp("abcdefghijklmnopq"));
        assert_eq!(format!("{long:?}"), format!("{:?}", "abcdefghijklmnopq"));
        assert_eq!(short, Text::from(String::from("abc")));
    }
}
