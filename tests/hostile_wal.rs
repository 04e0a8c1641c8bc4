//! Logs whose record checksums hold but whose payloads are hostile. A
//! flipped byte under a stale checksum stops `wal::scan` cleanly, so
//! every payload byte of a small log — a view registration's catalog
//! record and three commits — is XORed with a mask and its record's
//! checksum patched to match. Each mangled log then goes through every
//! reader in turn — `wal::scan` and the record decoders,
//! `GraphEngine::open_durable_with` (which replays it and registers the
//! view it recovers) and one commit on the engine that opened — and
//! each must return `Ok` or a typed error: a panic or an abort (a huge
//! allocation included) fails the sweep. Hand-made catalog records (an
//! unknown kind, a cut text, invalid UTF-8, an option byte out of
//! range, and every byte of a registration flipped) must each decode or
//! end the log there, which recovery trims. A golden log pins the
//! transaction bytes an earlier build wrote. The sibling of
//! `hostile_images.rs`, which does the same to snapshot images.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pgq_common::ids::{EdgeId, VertexId};
use pgq_common::intern::Symbol;
use pgq_common::path::PathValue;
use pgq_common::value::Value;
use pgq_core::GraphEngine;
use pgq_durability::codec::{crc32, decode_catalog, decode_tx, encode_record, is_catalog};
use pgq_durability::wal::{self, parse_wal_name, wal_file, WalTail};
use pgq_durability::{MemDisk, Record, SnapshotView, Vfs};
use pgq_graph::props::Properties;
use pgq_graph::store::PropertyGraph;
use pgq_graph::tx::Transaction;

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

/// Every value kind the codec has, strings on both sides of the 14-byte
/// inline limit and multi-byte text among them.
fn every_value() -> Vec<(&'static str, Value)> {
    vec![
        ("b", Value::Bool(true)),
        ("i", Value::Int(-3)),
        ("f", Value::float(1.5)),
        ("s0", Value::str("")),
        ("s14", Value::str("fourteen bytes")),
        ("s15", Value::str("thirteen byteé")),
        ("s300", Value::str("x".repeat(300))),
        ("mb", Value::str("größe €😀")),
        ("n", Value::Node(VertexId(0))),
        ("r", Value::Rel(EdgeId(0))),
        (
            "xs",
            Value::list(vec![Value::Int(1), Value::str("a"), Value::Null]),
        ),
        ("m", Value::map([("k".to_string(), Value::Int(2))])),
        (
            "p",
            Value::path(PathValue::new(
                vec![VertexId(0), VertexId(1)],
                vec![EdgeId(0)],
            )),
        ),
    ]
}

/// The files of a durable engine after a view registration and three
/// commits that use every transaction op, and the name of its log —
/// which holds all four records.
fn small_log() -> (MemDisk, String) {
    let disk = MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    engine.set_snapshot_every(0);
    engine
        .register_view(
            "en",
            "MATCH (p:Post)-[:REPLY]->(c) WHERE p.lang = 'en' RETURN p, c",
        )
        .unwrap();
    let mut tx = Transaction::new();
    let post = tx.create_vertex(
        [sym("Post")],
        Properties::from_iter([("lang", Value::str("en"))]),
    );
    let comm = tx.create_vertex([sym("Comm")], Properties::from_iter(every_value()));
    tx.create_edge(
        post,
        comm,
        sym("REPLY"),
        Properties::from_iter(every_value()),
    );
    engine.apply(&tx).unwrap();

    let (v, e) = (VertexId(0), EdgeId(0));
    let mut tx = Transaction::new();
    for (k, val) in every_value() {
        tx.set_vertex_prop(v, sym(k), val.clone());
        tx.set_edge_prop(e, sym(k), val);
    }
    tx.add_label(v, sym("Hot")).remove_label(v, sym("Hot"));
    engine.apply(&tx).unwrap();

    let mut tx = Transaction::new();
    tx.delete_edge(e).delete_vertex(VertexId(1), true);
    engine.apply(&tx).unwrap();
    drop(engine);

    let vfs = disk.vfs();
    let log = vfs
        .list()
        .unwrap()
        .into_iter()
        .filter_map(|n| parse_wal_name(&n))
        .max();
    (disk, wal_file(log.expect("a log exists")))
}

/// The byte ranges of each record's payload in `log`.
fn payloads(log: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        out.push((pos + 8, pos + 8 + len));
        pos += 8 + len;
    }
    out
}

/// `log` with byte `at` of the payload `start..end` XORed by `mask` and
/// that record's checksum patched to match.
fn mangled(log: &[u8], (start, end): (usize, usize), at: usize, mask: u8) -> Vec<u8> {
    let mut bytes = log.to_vec();
    bytes[at] ^= mask;
    let crc = crc32(&bytes[start..end]);
    bytes[start - 4..start].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// Does `payload` decode as the record kind it says it is?
fn decodes(payload: &[u8]) -> bool {
    if is_catalog(payload) {
        decode_catalog(payload).is_ok()
    } else {
        decode_tx(payload).is_ok()
    }
}

/// How far the mangled logs got through the readers.
#[derive(Default)]
struct Reached {
    decoded: usize,
    opened: usize,
    committed: usize,
}

/// Run `log` through every reader, beside the other files of `disk`;
/// `Err` carries a panic's message.
fn read_everywhere(
    disk: &MemDisk,
    name: &str,
    log: &[u8],
    reached: &mut Reached,
) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (records, tail) = wal::scan(log);
        assert_eq!(tail, WalTail::Clean, "every checksum was patched");
        if records.iter().all(|r| decodes(r)) {
            reached.decoded += 1;
        }
        let copy = MemDisk::new();
        let (from, to) = (disk.vfs(), copy.vfs());
        for file in from.list().unwrap() {
            let bytes = if file == name {
                log.to_vec()
            } else {
                from.read(&file).unwrap().expect("listed")
            };
            to.write_atomic(&file, &bytes).unwrap();
        }
        if let Ok(mut engine) = GraphEngine::open_durable_with(Arc::new(to)) {
            reached.opened += 1;
            if engine.execute("CREATE (:Post {lang: 'en'})").is_ok() {
                reached.committed += 1;
            }
        }
    }))
    .map_err(|panic| match panic.downcast_ref::<String>() {
        Some(s) => s.clone(),
        None => format!("{:?}", panic.downcast_ref::<&str>()),
    })
}

#[test]
fn a_hostile_log_under_valid_record_checksums_never_panics() {
    let (disk, name) = small_log();
    let log = disk.vfs().read(&name).unwrap().expect("listed");
    let records = payloads(&log);
    assert_eq!(
        records.len(),
        4,
        "one record per registration and per commit"
    );
    let mut reached = Reached::default();
    assert!(read_everywhere(&disk, &name, &log, &mut reached).is_ok());
    assert_eq!(
        (reached.decoded, reached.committed),
        (1, 1),
        "the log itself replays"
    );

    let mut reached = Reached::default();
    let (mut probes, mut panics) = (0, Vec::new());
    for &record in &records {
        for at in record.0..record.1 {
            for mask in [0x01, 0x80, 0xFF] {
                probes += 1;
                let bytes = mangled(&log, record, at, mask);
                if let Err(why) = read_everywhere(&disk, &name, &bytes, &mut reached) {
                    panics.push(format!("byte {at} ^ {mask:#04x}: {why}"));
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {probes} mangled logs panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
    // The sweep reached every reader, not only the decoder's refusals.
    eprintln!(
        "{probes} mangled logs: {} decoded, {} opened, {} committed",
        reached.decoded, reached.opened, reached.committed
    );
    assert!(reached.decoded * 4 >= probes, "{} decoded", reached.decoded);
    assert!(reached.opened * 4 >= probes, "{} opened", reached.opened);
    assert!(
        reached.committed * 4 >= probes,
        "{} committed",
        reached.committed
    );
}

// ---- hand-made catalog records -----------------------------------------------

const VIEW: (&str, &str) = ("posts", "MATCH (p:Post) RETURN p");

fn post_tx(lang: &str) -> Transaction {
    let mut tx = Transaction::new();
    tx.create_vertex(
        [sym("Post")],
        Properties::from_iter([("lang", Value::str(lang))]),
    );
    tx
}

fn row(slot: u32, (name, query): (&str, &str)) -> SnapshotView {
    SnapshotView {
        slot,
        name: name.into(),
        query: query.into(),
        schema_mode: 0,
        plan: true,
        wcoj_mode: 1,
        wcoj_sorted: None,
    }
}

/// A `wal.0` of a registration, a commit, `payload` framed under a valid
/// checksum, and one more commit; with the log's length before
/// `payload`.
fn log_around(payload: &[u8]) -> (MemDisk, u64) {
    let disk = MemDisk::new();
    let vfs = disk.vfs();
    wal::append(&vfs, 0, Record::Register(&row(0, VIEW))).unwrap();
    wal::append(&vfs, 0, Record::Tx(&post_tx("en"))).unwrap();
    let before = disk.len(&wal_file(0)).unwrap() as u64;
    wal::append_payload(&vfs, 0, payload).unwrap();
    wal::append(&vfs, 0, Record::Tx(&post_tx("de"))).unwrap();
    (disk, before)
}

/// `payload` either decodes, and the log reads to its end, or the log
/// ends at it: the scan stops there, recovery trims it and everything
/// after, opens with the registration and the first commit, and takes a
/// commit. Nothing panics.
fn decodes_or_trims(payload: &[u8], what: &str) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (disk, before) = log_around(payload);
        let log = wal::load(&disk.vfs(), 0).unwrap();
        let opened = GraphEngine::open_durable_with(Arc::new(disk.vfs()));
        if log.tail.is_clean() {
            assert_eq!(log.ends.len(), 4, "{what}: a clean log holds every record");
            if let Ok(mut engine) = opened {
                let _ = engine.execute("CREATE (:Post {lang: 'fr'})");
            }
            return;
        }
        let offset = before as usize;
        assert_eq!(log.tail, WalTail::Corrupt { offset }, "{what}");
        assert_eq!((log.catalog.len(), log.txs.len()), (1, 1), "{what}");
        let mut engine = opened.unwrap_or_else(|e| panic!("{what}: open failed: {e}"));
        let report = engine.recovery_report().unwrap();
        assert!(
            report.trimmed.iter().any(|&(g, _)| g == 0),
            "{what}: {report:?}"
        );
        assert_eq!(engine.graph().vertex_count(), 1, "{what}");
        assert!(engine.view_by_name(VIEW.0).is_some(), "{what}");
        engine.execute("CREATE (:Post {lang: 'fr'})").unwrap();
        drop(engine);
        let reopened = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
        assert_eq!(
            reopened.graph().vertex_count(),
            2,
            "{what}: the commit landed"
        );
    }))
    .map_err(|panic| match panic.downcast_ref::<String>() {
        Some(s) => s.clone(),
        None => format!("{:?}", panic.downcast_ref::<&str>()),
    })
}

#[test]
fn a_hostile_catalog_record_gives_a_typed_error_or_a_trimmed_tail() {
    let good = encode_record(Record::Register(&row(
        1,
        ("other", "MATCH (c:Comm) RETURN c"),
    )));
    // Layout: mark (4), kind (1), slot (4), name (4 + 5), query (4 + n),
    // then five option bytes.
    let name_at = 4 + 1 + 4 + 4;
    let query_at = name_at + 5 + 4;
    let n = good.len();
    let with = |at: usize, byte: u8| {
        let mut p = good.clone();
        p[at] = byte;
        p
    };
    let mut cases: Vec<(String, Vec<u8>)> = vec![
        ("unknown record kind".into(), with(4, 7)),
        ("truncated name".into(), good[..name_at + 2].to_vec()),
        ("truncated query".into(), good[..query_at + 3].to_vec()),
        ("mark only".into(), good[..4].to_vec()),
        ("invalid UTF-8 name".into(), with(name_at, 0xFF)),
        ("invalid UTF-8 query".into(), with(query_at + 1, 0xC3)),
        ("schema mode 2".into(), with(n - 5, 2)),
        ("retired toggle 2".into(), with(n - 4, 2)),
        ("plan byte 2".into(), with(n - 3, 2)),
        ("wcoj mode 3".into(), with(n - 2, 3)),
        ("wcoj backend 3".into(), with(n - 1, 3)),
        ("trailing byte".into(), [good.as_slice(), &[0]].concat()),
        (
            "truncated drop".into(),
            encode_record(Record::Drop(0))[..7].to_vec(),
        ),
    ];
    for (what, payload) in &cases {
        assert!(is_catalog(payload), "{what}");
        assert!(decode_catalog(payload).is_err(), "{what} decoded");
    }
    // Every byte of a good registration, flipped three ways.
    for (at, byte) in good.iter().enumerate() {
        for mask in [0x01, 0x80, 0xFF] {
            cases.push((format!("byte {at} ^ {mask:#04x}"), with(at, byte ^ mask)));
        }
    }
    let panics: Vec<String> = cases
        .iter()
        .filter_map(|(what, payload)| decodes_or_trims(payload, what).err())
        .collect();
    assert!(panics.is_empty(), "{}", panics.join("\n"));
}

/// `wal.0` as an earlier build wrote it — before catalog records — for
/// [`golden_txs`]: its transaction bytes must decode unchanged.
const GOLDEN_LOG: &str = concat!(
    "710000008fb9a05b03000000000100000004000000506f737402000000040000",
    "006c616e670402000000656e010000006e020700000000000000000100000004",
    "000000436f6d6d00000000010100000000000000000101000000000000000500",
    "00005245504c5901000000010000007703000000000000f83f4e0000007ff88b",
    "0a0400000004000000000000000000040000006c616e67040200000064650500",
    "000000000000000100000077000600000000000000000003000000486f740700",
    "000000000000000003000000486f7417000000ec85e958020000000300000000",
    "0000000002010000000000000001",
);

/// The three transactions [`GOLDEN_LOG`] holds: every op kind.
fn golden_txs() -> Vec<Transaction> {
    let mut first = Transaction::new();
    let a = first.create_vertex(
        [sym("Post")],
        Properties::from_iter([("lang", Value::str("en")), ("n", Value::Int(7))]),
    );
    let b = first.create_vertex([sym("Comm")], Properties::new());
    first.create_edge(
        a,
        b,
        sym("REPLY"),
        Properties::from_iter([("w", Value::float(1.5))]),
    );
    let mut second = Transaction::new();
    second.set_vertex_prop(VertexId(0), sym("lang"), Value::str("de"));
    second.set_edge_prop(EdgeId(0), sym("w"), Value::Null);
    second
        .add_label(VertexId(0), sym("Hot"))
        .remove_label(VertexId(0), sym("Hot"));
    let mut third = Transaction::new();
    third
        .delete_edge(EdgeId(0))
        .delete_vertex(VertexId(1), true);
    vec![first, second, third]
}

#[test]
fn a_transaction_log_from_an_earlier_build_decodes_to_the_same_transactions() {
    let bytes: Vec<u8> = (0..GOLDEN_LOG.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_LOG[i..i + 2], 16).unwrap())
        .collect();
    let disk = MemDisk::new();
    disk.vfs().append(&wal_file(0), &bytes).unwrap();
    let log = wal::load(&disk.vfs(), 0).unwrap();
    assert_eq!(log.tail, WalTail::Clean);
    assert!(log.catalog.is_empty());
    assert_eq!(log.valid_len(), bytes.len() as u64);
    let want = golden_txs();
    assert_eq!(log.txs.len(), want.len());
    // Op by op, then by effect: a property map's order follows this
    // process's symbol ids, so compare the graphs the logs build.
    let (mut got_graph, mut want_graph) = (PropertyGraph::new(), PropertyGraph::new());
    for (got, want) in log.txs.iter().zip(&want) {
        assert_eq!(got.len(), want.len());
        for (x, y) in got.ops().iter().zip(want.ops()) {
            assert_eq!(std::mem::discriminant(x), std::mem::discriminant(y));
        }
        let got_events = format!("{:?}", got_graph.apply(got).unwrap());
        assert_eq!(got_events, format!("{:?}", want_graph.apply(want).unwrap()));
    }
    // And the engine opens it.
    let engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert!(engine.recovery_report().unwrap().is_pristine());
    assert_eq!(engine.graph().vertex_count(), 1);
}
