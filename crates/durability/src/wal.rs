//! Write-ahead log: one framed record per committed transaction and
//! per view-catalog change.
//!
//! Record framing, all little-endian:
//!
//! ```text
//! [payload_len: u32][crc32(payload): u32][payload: payload_len bytes]
//! ```
//!
//! A payload is either a data transaction ([`crate::codec::encode_tx`])
//! or a catalog record ([`crate::codec::encode_record`]: a view
//! registered, with its catalog row, or a view dropped, by slot). The
//! two never collide: a catalog payload starts with a mark no
//! transaction's op count can equal, so transaction bytes are what
//! they were before catalog records existed and a log written by an
//! earlier build reads unchanged. View DDL therefore costs one small
//! append, like a commit, instead of an image of the graph; recovery
//! folds the catalog records into the base image's catalog
//! ([`crate::recovery`]) and the background fold skips them
//! ([`crate::fold`]).
//!
//! Appends are the only mutation — the log never rewrites in place, so
//! the only corruption a crash can produce is a **torn tail**: a final
//! record whose frame or payload is shorter than its header promises.
//! Bit rot (or a torn write that happens to look complete) is caught by
//! the checksum. Either way the scan stops **cleanly at the first bad
//! record** and reports how far it got; everything before that point is
//! trusted. Recovery never panics on log bytes.
//!
//! Logs are **generation-numbered**: the file for generation `g` is
//! `wal.<g>` ([`wal_file`]). Compaction switches to generation `g+1` by
//! writing snapshot `snap.<g+1>` and only then deleting `wal.<g>` — see
//! [`crate::recovery`] for how a crash anywhere in that switchover still
//! recovers a committed prefix.

use std::io;

use pgq_graph::tx::Transaction;

use crate::codec::{
    crc32, decode_catalog, decode_tx, encode_record, encode_tx, is_catalog, CatalogRecord, Record,
};
use crate::vfs::Vfs;

/// File name of generation `generation`'s write-ahead log.
pub fn wal_file(generation: u64) -> String {
    format!("wal.{generation}")
}

/// Parse a `wal.<g>` file name back to its generation number.
pub fn parse_wal_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal.")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Why a WAL scan stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalTail {
    /// The log ended exactly on a record boundary.
    Clean,
    /// The log ended mid-record (classic crash artifact): a frame header
    /// or payload was cut short at byte `offset`.
    Torn {
        /// Byte offset of the incomplete record's frame.
        offset: usize,
    },
    /// A complete-looking record failed its checksum (or decoded to
    /// garbage) at byte `offset`; it and everything after it is ignored.
    Corrupt {
        /// Byte offset of the bad record's frame.
        offset: usize,
    },
}

impl WalTail {
    /// Was the scan clean (no torn or corrupt tail)?
    pub fn is_clean(&self) -> bool {
        matches!(self, WalTail::Clean)
    }
}

/// Frame a payload for appending: length, checksum, bytes.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(8 + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&crc32(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// Append one framed record to generation `generation`'s log. Returns
/// the number of bytes appended (the frame length), so callers can
/// mirror the on-disk length for tail repair.
pub fn append_payload(vfs: &dyn Vfs, generation: u64, payload: &[u8]) -> io::Result<u64> {
    let f = frame(payload);
    vfs.append(&wal_file(generation), &f)?;
    Ok(f.len() as u64)
}

/// Append a committed transaction to generation `generation`'s log.
/// Returns the frame length in bytes.
pub fn append_tx(vfs: &dyn Vfs, generation: u64, tx: &Transaction) -> io::Result<u64> {
    append_payload(vfs, generation, &encode_tx(tx))
}

/// Append `record` to generation `generation`'s log. Returns the frame
/// length in bytes.
pub fn append(vfs: &dyn Vfs, generation: u64, record: Record<'_>) -> io::Result<u64> {
    append_payload(vfs, generation, &encode_record(record))
}

/// Scan raw log bytes into checksum-verified payload slices, stopping at
/// the first torn or corrupt record.
pub fn scan(bytes: &[u8]) -> (Vec<&[u8]>, WalTail) {
    let mut payloads = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            return (payloads, WalTail::Torn { offset: pos });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let want = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if bytes.len() - pos - 8 < len {
            return (payloads, WalTail::Torn { offset: pos });
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != want {
            return (payloads, WalTail::Corrupt { offset: pos });
        }
        payloads.push(payload);
        pos += 8 + len;
    }
    (payloads, WalTail::Clean)
}

/// Decoded contents of one generation's log.
pub struct WalContents {
    /// Every trustworthy transaction, in commit order.
    pub txs: Vec<Transaction>,
    /// Every trustworthy catalog record, in log order, each with its
    /// index among all the log's records (an index into `ends`).
    pub catalog: Vec<(usize, CatalogRecord)>,
    /// Byte offset just past each record, transactions and catalog
    /// records alike: `ends[i]` is the length of the valid prefix
    /// covering records `0..=i`. Used for tail repair and for failing
    /// replay mid-log without losing the good prefix.
    pub ends: Vec<u64>,
    /// Why the scan stopped.
    pub tail: WalTail,
}

impl WalContents {
    /// Length of the valid prefix (everything before the torn/corrupt
    /// tail, or the whole file when clean).
    pub fn valid_len(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Every record in file order.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record<'_>> {
        let mut txs = self.txs.iter();
        let mut catalog = self.catalog.iter().peekable();
        (0..self.ends.len()).map(move |i| match catalog.next_if(|(at, _)| *at == i) {
            Some((_, CatalogRecord::Register(v))) => Record::Register(v),
            Some((_, CatalogRecord::Drop(slot))) => Record::Drop(*slot),
            None => Record::Tx(
                txs.next()
                    .expect("a record is a transaction or in the catalog"),
            ),
        })
    }
}

/// Load and decode every trustworthy record in generation
/// `generation`'s log. A record whose checksum passes but whose payload
/// fails to decode is treated like a checksum failure: the scan stops
/// there with [`WalTail::Corrupt`]. An absent log file is an empty,
/// clean log.
pub fn load(vfs: &dyn Vfs, generation: u64) -> io::Result<WalContents> {
    let mut log = WalContents {
        txs: Vec::new(),
        catalog: Vec::new(),
        ends: Vec::new(),
        tail: WalTail::Clean,
    };
    let Some(bytes) = vfs.read(&wal_file(generation))? else {
        return Ok(log);
    };
    let (payloads, tail) = scan(&bytes);
    log.tail = tail;
    log.txs.reserve(payloads.len());
    log.ends.reserve(payloads.len());
    let mut offset = 0u64;
    for payload in payloads {
        let decoded = if is_catalog(payload) {
            decode_catalog(payload).map(|c| log.catalog.push((log.ends.len(), c)))
        } else {
            decode_tx(payload).map(|tx| log.txs.push(tx))
        };
        if decoded.is_err() {
            log.tail = WalTail::Corrupt {
                offset: offset as usize,
            };
            break;
        }
        offset += 8 + payload.len() as u64;
        log.ends.push(offset);
    }
    Ok(log)
}

/// Rewrite generation `generation`'s log to its first `valid_len` bytes
/// (atomically), discarding a torn or poisoned tail so future appends
/// extend a trustworthy prefix.
pub fn repair(vfs: &dyn Vfs, generation: u64, valid_len: u64) -> io::Result<()> {
    let name = wal_file(generation);
    let bytes = vfs.read(&name)?.unwrap_or_default();
    let keep = (valid_len as usize).min(bytes.len());
    vfs.write_atomic(&name, &bytes[..keep])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemDisk;
    use pgq_common::intern::Symbol;
    use pgq_common::value::Value;
    use pgq_graph::props::Properties;

    fn sample_tx(i: i64) -> Transaction {
        let mut tx = Transaction::new();
        tx.create_vertex(
            [Symbol::intern("Post")],
            Properties::from_iter([("n", Value::Int(i))]),
        );
        tx
    }

    #[test]
    fn wal_names_roundtrip() {
        assert_eq!(wal_file(0), "wal.0");
        assert_eq!(parse_wal_name("wal.0"), Some(0));
        assert_eq!(parse_wal_name("wal.17"), Some(17));
        assert_eq!(parse_wal_name("wal."), None);
        assert_eq!(parse_wal_name("wal.x7"), None);
        assert_eq!(parse_wal_name("snap.3"), None);
        assert_eq!(parse_wal_name("wal.3.tmp"), None);
    }

    #[test]
    fn append_then_load_roundtrips() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        let mut total = 0;
        for i in 0..5 {
            total += append_tx(&vfs, 0, &sample_tx(i)).unwrap();
        }
        assert_eq!(disk.len(&wal_file(0)).unwrap() as u64, total);
        let log = load(&vfs, 0).unwrap();
        assert_eq!(log.tail, WalTail::Clean);
        assert_eq!(log.txs.len(), 5);
        assert_eq!(log.txs[3].len(), 1);
        assert_eq!(log.valid_len(), total);
        assert!(log.ends.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn generations_are_independent_files() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        append_tx(&vfs, 0, &sample_tx(1)).unwrap();
        append_tx(&vfs, 1, &sample_tx(2)).unwrap();
        assert_eq!(load(&vfs, 0).unwrap().txs.len(), 1);
        assert_eq!(load(&vfs, 1).unwrap().txs.len(), 1);
        assert_eq!(load(&vfs, 2).unwrap().txs.len(), 0);
    }

    #[test]
    fn missing_log_is_empty_and_clean() {
        let disk = MemDisk::new();
        let log = load(&disk.vfs(), 0).unwrap();
        assert!(log.txs.is_empty());
        assert_eq!(log.tail, WalTail::Clean);
        assert_eq!(log.valid_len(), 0);
    }

    #[test]
    fn torn_tail_stops_cleanly_at_every_cut() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        append_tx(&vfs, 0, &sample_tx(1)).unwrap();
        let first = disk.len(&wal_file(0)).unwrap();
        append_tx(&vfs, 0, &sample_tx(2)).unwrap();
        let full = disk.len(&wal_file(0)).unwrap();

        for cut in first + 1..full {
            let disk2 = MemDisk::new();
            let bytes = disk.vfs().read(&wal_file(0)).unwrap().unwrap();
            disk2.vfs().append(&wal_file(0), &bytes[..cut]).unwrap();
            let log = load(&disk2.vfs(), 0).unwrap();
            assert_eq!(log.txs.len(), 1, "cut at {cut}");
            assert_eq!(log.tail, WalTail::Torn { offset: first }, "cut at {cut}");
            assert_eq!(log.valid_len(), first as u64, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_in_tail_record_is_quarantined() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        append_tx(&vfs, 0, &sample_tx(1)).unwrap();
        let first = disk.len(&wal_file(0)).unwrap();
        append_tx(&vfs, 0, &sample_tx(2)).unwrap();

        // Flip a payload byte of the second record.
        assert!(disk.corrupt(&wal_file(0), first + 10, 0x40));
        let log = load(&vfs, 0).unwrap();
        assert_eq!(log.txs.len(), 1);
        assert_eq!(log.tail, WalTail::Corrupt { offset: first });
    }

    #[test]
    fn bogus_length_header_reads_as_torn() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        append_tx(&vfs, 0, &sample_tx(1)).unwrap();
        // A frame header promising far more payload than exists.
        vfs.append(&wal_file(0), &[0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4, 9])
            .unwrap();
        let offset = disk.len(&wal_file(0)).unwrap() - 9;
        let log = load(&vfs, 0).unwrap();
        assert_eq!(log.txs.len(), 1);
        assert_eq!(log.tail, WalTail::Torn { offset });
    }

    #[test]
    fn repair_discards_the_torn_tail() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        append_tx(&vfs, 0, &sample_tx(1)).unwrap();
        let first = disk.len(&wal_file(0)).unwrap() as u64;
        append_tx(&vfs, 0, &sample_tx(2)).unwrap();
        disk.truncate(&wal_file(0), first as usize + 5);

        let log = load(&vfs, 0).unwrap();
        assert_eq!(log.valid_len(), first);
        repair(&vfs, 0, log.valid_len()).unwrap();
        assert_eq!(disk.len(&wal_file(0)).unwrap() as u64, first);
        let log = load(&vfs, 0).unwrap();
        assert_eq!(log.tail, WalTail::Clean);
        assert_eq!(log.txs.len(), 1);
        // Appends after repair extend a clean prefix.
        append_tx(&vfs, 0, &sample_tx(3)).unwrap();
        let log = load(&vfs, 0).unwrap();
        assert_eq!(log.tail, WalTail::Clean);
        assert_eq!(log.txs.len(), 2);
    }

    #[test]
    fn empty_transaction_records_are_fine() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        append_tx(&vfs, 0, &Transaction::new()).unwrap();
        let log = load(&vfs, 0).unwrap();
        assert_eq!(log.tail, WalTail::Clean);
        assert_eq!(log.txs.len(), 1);
        assert!(log.txs[0].is_empty());
    }

    #[test]
    fn catalog_records_interleave_with_transactions_in_file_order() {
        let disk = MemDisk::new();
        let vfs = disk.vfs();
        let view = crate::snapshot::SnapshotView {
            slot: 0,
            name: "v".into(),
            query: "MATCH (p:Post) RETURN p".into(),
            schema_mode: 0,
            plan: true,
            wcoj_mode: 1,
            wcoj_sorted: None,
        };
        append(&vfs, 0, Record::Register(&view)).unwrap();
        append_tx(&vfs, 0, &sample_tx(1)).unwrap();
        append(&vfs, 0, Record::Drop(0)).unwrap();
        append_tx(&vfs, 0, &sample_tx(2)).unwrap();
        let log = load(&vfs, 0).unwrap();
        assert_eq!(log.tail, WalTail::Clean);
        assert_eq!((log.txs.len(), log.ends.len()), (2, 4));
        assert_eq!(
            log.catalog,
            vec![
                (0, CatalogRecord::Register(view)),
                (2, CatalogRecord::Drop(0))
            ]
        );
        let kinds: Vec<&str> = log
            .records()
            .map(|r| match r {
                Record::Tx(_) => "tx",
                Record::Register(_) => "register",
                Record::Drop(_) => "drop",
            })
            .collect();
        assert_eq!(kinds, ["register", "tx", "drop", "tx"]);

        // A torn catalog record ends the log like a torn transaction.
        let whole = disk.len(&wal_file(0)).unwrap();
        append(&vfs, 0, Record::Drop(9)).unwrap();
        disk.truncate(&wal_file(0), whole + 10);
        let log = load(&vfs, 0).unwrap();
        assert_eq!(log.tail, WalTail::Torn { offset: whole });
        assert_eq!(log.ends.len(), 4);
    }
}
