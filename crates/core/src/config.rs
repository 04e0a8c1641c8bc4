//! The engine's environment knobs, parsed in one place.
//!
//! Four `PGQ_*` variables configure an engine: the propagation width
//! (`PGQ_THREADS`), the commit flush policy (`PGQ_FSYNC`), the
//! group-commit window (`PGQ_FLUSH_WINDOW`) and the switch cadence
//! (`PGQ_SNAPSHOT_EVERY`). One rule holds for all four: the value is
//! trimmed, unset or empty means the default, and anything else that
//! does not parse is a typed startup error naming the key and the value
//! — a typo must never silently mean a different engine. The crates
//! below take the parsed values (`WorkerPool::new(threads)`,
//! `StdVfs::new(dir, fsync)`) and read no environment.

use std::sync::OnceLock;

use pgq_durability::{DurabilityError, FsyncMode};

/// The four engine knobs, parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EngineConfig {
    /// Delta-propagation width (`PGQ_THREADS`, default 1; `0` means 1).
    pub threads: usize,
    /// Commit flush policy (`PGQ_FSYNC`: `always`/`1`/`true` or
    /// `never`/`0`/`false`, any case; default never).
    pub fsync: FsyncMode,
    /// Group-commit window under [`FsyncMode::Always`]
    /// (`PGQ_FLUSH_WINDOW`, an integer >= 1; default 1).
    pub flush_window: u64,
    /// Switch cadence in committed transactions (`PGQ_SNAPSHOT_EVERY`;
    /// default 1024, `0` disables it).
    pub snapshot_every: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: 1,
            fsync: FsyncMode::Never,
            flush_window: 1,
            snapshot_every: 1024,
        }
    }
}

impl EngineConfig {
    /// The knobs as the process environment sets them.
    pub(crate) fn from_env() -> Result<EngineConfig, DurabilityError> {
        EngineConfig::from_lookup(|key| std::env::var(key).ok())
    }

    /// The knobs as `lookup` (key → value, `None` when unset) sets them.
    pub(crate) fn from_lookup(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<EngineConfig, DurabilityError> {
        let default = EngineConfig::default();
        Ok(EngineConfig {
            threads: knob(
                &lookup,
                "PGQ_THREADS",
                default.threads,
                "an integer >= 0",
                |v| v.parse::<usize>().ok().map(|n| n.max(1)),
            )?,
            fsync: knob(
                &lookup,
                "PGQ_FSYNC",
                default.fsync,
                "`always` or `never`",
                |v| match v.to_ascii_lowercase().as_str() {
                    "always" | "1" | "true" => Some(FsyncMode::Always),
                    "never" | "0" | "false" => Some(FsyncMode::Never),
                    _ => None,
                },
            )?,
            flush_window: knob(
                &lookup,
                "PGQ_FLUSH_WINDOW",
                default.flush_window,
                "an integer >= 1",
                |v| v.parse().ok().filter(|&n| n >= 1),
            )?,
            snapshot_every: knob(
                &lookup,
                "PGQ_SNAPSHOT_EVERY",
                default.snapshot_every,
                "an integer >= 0",
                |v| v.parse().ok(),
            )?,
        })
    }

    /// The process environment's knobs, read once: what an engine
    /// without a durability directory runs with. Such an engine has no
    /// error channel, so a malformed knob leaves it on the defaults
    /// (width 1); every `open_durable*` reports the same knob as a
    /// typed error instead.
    pub(crate) fn process() -> &'static EngineConfig {
        static PROCESS: OnceLock<EngineConfig> = OnceLock::new();
        PROCESS.get_or_init(|| EngineConfig::from_env().unwrap_or_default())
    }
}

/// The one strict parser: `key`'s trimmed value through `parse`, the
/// default when unset or empty, and an error naming the key and the
/// value when `parse` rejects it.
fn knob<T>(
    lookup: &impl Fn(&str) -> Option<String>,
    key: &str,
    default: T,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, DurabilityError> {
    let raw = lookup(key).unwrap_or_default();
    let value = raw.trim();
    if value.is_empty() {
        return Ok(default);
    }
    parse(value).ok_or_else(|| {
        DurabilityError::config(format!(
            "unrecognized {key} value `{raw}` (expected {expected})"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The four knobs parse alike: unset, empty or blank means the
    /// default, a typo or a negative number is a startup error, and `0`
    /// is a value — except for the flush window, which has no zero, and
    /// the width, where it means 1.
    #[test]
    fn durability_knobs_parse_strictly_and_alike() {
        type Field = fn(&EngineConfig) -> String;
        let snapshot: Field = |c| c.snapshot_every.to_string();
        let window: Field = |c| c.flush_window.to_string();
        let fsync: Field = |c| format!("{:?}", c.fsync);
        let threads: Field = |c| c.threads.to_string();
        // (knob, value, the parse or `None` for an error)
        let table: &[(&str, Field, &str, Option<&str>)] = &[
            ("PGQ_SNAPSHOT_EVERY", snapshot, "", Some("1024")),
            ("PGQ_SNAPSHOT_EVERY", snapshot, "  ", Some("1024")),
            ("PGQ_SNAPSHOT_EVERY", snapshot, " 16 ", Some("16")),
            ("PGQ_SNAPSHOT_EVERY", snapshot, "1k", None),
            ("PGQ_SNAPSHOT_EVERY", snapshot, "-1", None),
            ("PGQ_SNAPSHOT_EVERY", snapshot, "0", Some("0")),
            ("PGQ_FLUSH_WINDOW", window, "", Some("1")),
            ("PGQ_FLUSH_WINDOW", window, "  ", Some("1")),
            ("PGQ_FLUSH_WINDOW", window, " 8 ", Some("8")),
            ("PGQ_FLUSH_WINDOW", window, "8x", None),
            ("PGQ_FLUSH_WINDOW", window, "-1", None),
            ("PGQ_FLUSH_WINDOW", window, "0", None),
            ("PGQ_FSYNC", fsync, "", Some("Never")),
            ("PGQ_FSYNC", fsync, "  ", Some("Never")),
            ("PGQ_FSYNC", fsync, " Always ", Some("Always")),
            ("PGQ_FSYNC", fsync, "alway", None),
            ("PGQ_FSYNC", fsync, "-1", None),
            ("PGQ_FSYNC", fsync, "0", Some("Never")),
            ("PGQ_THREADS", threads, "", Some("1")),
            ("PGQ_THREADS", threads, " 4 ", Some("4")),
            ("PGQ_THREADS", threads, "fuor", None),
            ("PGQ_THREADS", threads, "-2", None),
            ("PGQ_THREADS", threads, "0", Some("1")),
        ];
        for &(knob, field, value, want) in table {
            let env = HashMap::from([(knob, value)]);
            let parsed = EngineConfig::from_lookup(|k| env.get(k).map(|v| v.to_string()));
            match (parsed, want) {
                (Ok(config), Some(want)) => assert_eq!(field(&config), want, "{knob}={value:?}"),
                (Err(e), None) => {
                    let e = e.to_string();
                    assert!(e.contains(knob), "{knob}={value:?}: {e}");
                    assert!(e.contains(value.trim()), "{knob}={value:?}: {e}");
                }
                (got, want) => panic!("{knob}={value:?}: got {got:?}, want {want:?}"),
            }
        }
        // Nothing set is the default configuration.
        assert_eq!(
            EngineConfig::from_lookup(|_| None),
            Ok(EngineConfig::default())
        );
    }

    #[test]
    fn fsync_mode_parsing_is_strict() {
        let fsync = |value: &str| {
            EngineConfig::from_lookup(|k| (k == "PGQ_FSYNC").then(|| value.to_string()))
                .map(|c| c.fsync)
        };
        assert_eq!(fsync("always"), Ok(FsyncMode::Always));
        assert_eq!(fsync(" 1 "), Ok(FsyncMode::Always));
        assert_eq!(fsync("true"), Ok(FsyncMode::Always));
        assert_eq!(fsync("never"), Ok(FsyncMode::Never));
        assert_eq!(fsync("0"), Ok(FsyncMode::Never));
        assert_eq!(fsync(""), Ok(FsyncMode::Never));
        // The typo that used to silently drop durability.
        assert!(fsync("alway").is_err());
        assert!(fsync("yes").is_err());
        assert!(fsync("fsync").is_err());
    }
}
