//! Images whose checksum holds but whose content is hostile. A flipped
//! byte under a stale checksum never reaches the parser
//! (`Snapshot::decode` checks the CRC first), so every body byte of a
//! small image is XORed with a mask and the checksum patched to match.
//! Each mangled image then goes through every reader in turn —
//! `Snapshot::decode`, `restore_graph`, `GraphEngine::open_durable_with`
//! and one commit on the engine that opened — and each must return `Ok`
//! or a typed error: a panic or an abort (a huge allocation included)
//! fails the sweep. Values no single flip reaches — ids and watermarks
//! at `u64::MAX`, extreme slots — are encoded directly, and option bytes
//! patched in, and go through the same readers. The retired option bytes
//! of a catalog row are patched in place: every value some build wrote
//! (schema mode 1 for the carry-maps flattening; planner off, binary or
//! forced ⨝ⁿ, a pinned backend) opens as the default registration of the
//! view's text; anything above is a typed error.

mod durability_script;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pgq_common::ids::{EdgeId, VertexId};
use pgq_core::GraphEngine;
use pgq_durability::codec::{crc32, CodecError};
use pgq_durability::snapshot::{snap_file, SnapshotError};
use pgq_durability::{MemDisk, Snapshot, Vfs};

/// Magic plus checksum: the body starts here.
const HEADER_LEN: usize = 12;

/// The second view of [`small_image`]: it reads properties of both
/// endpoints, which the retired schema mode read from carried maps.
const REPLIES: &str = "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p, c, c.lang";

/// The first view of [`small_image`].
const EN: &str = "MATCH (p:Post) WHERE p.lang = 'en' RETURN p";

/// A small image: every value kind the codec has, an edge with a
/// property, and two catalog rows.
fn small_image() -> Vec<u8> {
    let disk = MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    engine.set_snapshot_every(0);
    engine.register_view("en", EN).unwrap();
    engine.register_view("replies", REPLIES).unwrap();
    engine
        .execute(
            "CREATE (:Post {lang: 'en', n: -3, f: 1.5, ok: true, xs: [1, 'a', null], m: {k: 2}})\
             -[:REPLY {w: 2}]->(:Comm:Hot {lang: 'de'})",
        )
        .unwrap();
    engine.snapshot().unwrap();
    durability_script::newest_snapshot_bytes(&disk)
}

/// `image` with body byte `at` XORed by `mask` and the checksum
/// patched to match.
fn mangled(image: &[u8], at: usize, mask: u8) -> Vec<u8> {
    let mut bytes = image.to_vec();
    bytes[at] ^= mask;
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// `image` with body byte `at` set to `byte` and the checksum patched.
fn patched(image: &[u8], at: usize, byte: u8) -> Vec<u8> {
    mangled(image, at, image[at] ^ byte)
}

/// How far the mangled images got through the readers.
#[derive(Default)]
struct Reached {
    decoded: usize,
    restored: usize,
    opened: usize,
}

/// Run `bytes` through every reader; `Err` carries a panic's message.
fn read_everywhere(bytes: &[u8], reached: &mut Reached) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Ok(snap) = Snapshot::decode(bytes) {
            reached.decoded += 1;
            if snap.restore_graph().is_ok() {
                reached.restored += 1;
            }
        }
        let disk = MemDisk::new();
        disk.vfs().write_atomic(&snap_file(1), bytes).unwrap();
        if let Ok(mut engine) = GraphEngine::open_durable_with(Arc::new(disk.vfs())) {
            reached.opened += 1;
            let _ = engine.execute("CREATE (:Post {lang: 'en'})");
        }
    }))
    .map_err(|panic| match panic.downcast_ref::<String>() {
        Some(s) => s.clone(),
        None => format!("{:?}", panic.downcast_ref::<&str>()),
    })
}

#[test]
fn a_hostile_image_under_a_valid_checksum_never_panics() {
    let image = small_image();
    assert!(image.len() < 1024, "the image is {} bytes", image.len());
    let mut reached = Reached::default();
    let mut panics = Vec::new();
    for at in HEADER_LEN..image.len() {
        for mask in [0x01, 0x80, 0xFF] {
            if let Err(why) = read_everywhere(&mangled(&image, at, mask), &mut reached) {
                panics.push(format!("byte {at} ^ {mask:#04x}: {why}"));
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} mangled images panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
    // The sweep reached every reader, not only the decoder's refusals.
    let probes = 3 * (image.len() - HEADER_LEN);
    eprintln!(
        "{probes} mangled images: {} decoded, {} restored, {} opened",
        reached.decoded, reached.restored, reached.opened
    );
    assert!(reached.decoded * 4 >= probes, "{} decoded", reached.decoded);
    assert!(
        reached.restored * 4 >= probes,
        "{} restored",
        reached.restored
    );
    assert!(reached.opened * 4 >= probes, "{} opened", reached.opened);
}

#[test]
fn extreme_ids_watermarks_and_catalog_rows_never_panic() {
    let image = small_image();
    let good = Snapshot::decode(&image).unwrap();
    let mut cases: Vec<(&str, Snapshot)> = Vec::new();
    let mut s = good.clone();
    s.vertices[0].0 = VertexId(u64::MAX);
    s.edges.clear();
    cases.push(("vertex id u64::MAX", s));
    let mut s = good.clone();
    s.edges[0].0 = EdgeId(u64::MAX);
    cases.push(("edge id u64::MAX", s));
    let mut s = good.clone();
    (s.next_vertex, s.next_edge) = (u64::MAX, u64::MAX);
    cases.push(("watermarks u64::MAX", s));
    let mut s = good.clone();
    s.wal_records = u64::MAX;
    cases.push(("skip count u64::MAX", s));
    for (what, slot) in [("slot u32::MAX", u32::MAX), ("repeated slot", 0)] {
        let mut s = good.clone();
        s.views[1].slot = slot;
        cases.push((what, s));
    }
    let mut s = good.clone();
    s.views[0].name = s.views[1].name.clone();
    cases.push(("repeated view name", s));
    let mut s = good;
    s.views[0].query = "MATCH (p) RETURN p ORDER BY p".into();
    cases.push(("unmaintainable query", s));

    let mut cases: Vec<(&str, Vec<u8>)> = cases.into_iter().map(|(w, s)| (w, s.encode())).collect();
    // Both rows flip the planner and set the ⨝ⁿ mode: forced (2), then
    // out of range.
    for mode in [2, 3, 0xFF] {
        let mut bytes = image.clone();
        for query in [EN, REPLIES] {
            let at = option_bytes(&bytes, query) + 2;
            bytes = patched(&bytes, at, 0);
            bytes = patched(&bytes, at + 1, mode);
        }
        cases.push(("option bytes", bytes));
    }

    let mut reached = Reached::default();
    let mut panics = Vec::new();
    for (what, bytes) in cases {
        if let Err(why) = read_everywhere(&bytes, &mut reached) {
            panics.push(format!("{what}: {why}"));
        }
    }
    assert!(panics.is_empty(), "{}", panics.join("\n"));
}

/// Where the catalog row of `query` keeps its five retired option bytes,
/// right after the query text: schema mode, `optimize`, planner, ⨝ⁿ mode
/// and ⨝ⁿ backend.
fn option_bytes(image: &[u8], query: &str) -> usize {
    let query = query.as_bytes();
    let at = image
        .windows(query.len())
        .position(|w| w == query)
        .expect("the image holds the view's text");
    at + query.len()
}

#[test]
fn the_retired_schema_byte_opens_at_one_and_is_refused_above() {
    let image = small_image();
    let at = option_bytes(&image, REPLIES);
    // Rows are written with 0, so each mask `mangled` XORs in below is
    // the byte the row then holds.
    assert_eq!(image[at], 0);

    // 1: the row of a view an older build registered under the
    // carry-maps flattening. It opens, flattened by schema inference,
    // with the rows a fresh registration of its text gives.
    let one = mangled(&image, at, 1);
    let snap = Snapshot::decode(&one).unwrap();
    assert_eq!(snap.views[1].query, REPLIES);
    let disk = MemDisk::new();
    disk.vfs().write_atomic(&snap_file(1), &one).unwrap();
    let opened = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    let mut fresh = GraphEngine::from_graph(snap.restore_graph().unwrap());
    let fresh_id = fresh.register_view("replies", REPLIES).unwrap();
    // The image holds one reply, so each side has one row.
    let replies = opened.view_by_name("replies").unwrap();
    let recovered = opened.view_results(replies).unwrap();
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered, fresh.view_results(fresh_id).unwrap());

    // Above 1: a typed error on the decoder, and no reader panics.
    for byte in [2, 0xFF] {
        let bad = mangled(&image, at, byte);
        assert!(
            matches!(
                Snapshot::decode(&bad),
                Err(SnapshotError::Codec(CodecError::BadTag("schema-mode", b))) if b == byte
            ),
            "schema byte {byte:#04x}"
        );
        let mut reached = Reached::default();
        read_everywhere(&bad, &mut reached).unwrap();
        assert_eq!(reached.decoded, 0, "schema byte {byte:#04x}");
    }
}

/// The sorted labels of every node of `engine`'s network.
fn labels(engine: &GraphEngine) -> Vec<String> {
    let mut labels: Vec<String> = engine
        .network()
        .node_summaries()
        .into_iter()
        .map(|n| n.label)
        .collect();
    labels.sort();
    labels
}

#[test]
fn the_retired_mode_bytes_open_at_every_written_value_and_are_refused_above() {
    let image = small_image();
    // The planner, ⨝ⁿ mode and ⨝ⁿ backend bytes of `replies`' row. A
    // row is written as older builds wrote a default registration:
    // planner on, cost-based ⨝ⁿ, the catalog's backend.
    let at = option_bytes(&image, REPLIES) + 2;
    assert_eq!(image[at..at + 3], [1, 1, 0]);
    let good = Snapshot::decode(&image).unwrap();
    let mut fresh = GraphEngine::from_graph(good.restore_graph().unwrap());
    for v in &good.views {
        fresh.register_view(&v.name, &v.query).unwrap();
    }
    let want = fresh
        .view_results(fresh.view_by_name("replies").unwrap())
        .unwrap();
    assert_eq!(want.len(), 1, "the image holds one reply");

    // Every value some build wrote: the planner off or on, ⨝ⁿ disabled,
    // cost-based or forced, the backend the catalog's, hash tries or
    // sorted runs. The row opens as the default registration of its
    // text: the rows and the network a fresh registration gives.
    for plan in 0..=1 {
        for mode in 0..=2 {
            for backend in 0..=2 {
                let what = format!("planner {plan}, mode {mode}, backend {backend}");
                let bytes = [(0, plan), (1, mode), (2, backend)]
                    .iter()
                    .fold(image.clone(), |b, &(i, v)| patched(&b, at + i, v));
                assert_eq!(
                    Snapshot::decode(&bytes).unwrap().views,
                    good.views,
                    "{what}"
                );
                let disk = MemDisk::new();
                disk.vfs().write_atomic(&snap_file(1), &bytes).unwrap();
                let opened = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
                let replies = opened.view_by_name("replies").unwrap();
                assert_eq!(opened.view_results(replies).unwrap(), want, "{what}");
                assert_eq!(labels(&opened), labels(&fresh), "{what}");
            }
        }
    }

    // Above those: a typed error on the decoder, and no reader panics.
    for (offset, byte, tag) in [
        (0, 2, "bool"),
        (0, 0xFF, "bool"),
        (1, 3, "wcoj-mode"),
        (1, 0xFF, "wcoj-mode"),
        (2, 3, "wcoj-sorted"),
        (2, 0xFF, "wcoj-sorted"),
    ] {
        let bad = patched(&image, at + offset, byte);
        assert!(
            matches!(
                Snapshot::decode(&bad),
                Err(SnapshotError::Codec(CodecError::BadTag(t, b))) if t == tag && b == byte
            ),
            "{tag} byte {byte:#04x}"
        );
        let mut reached = Reached::default();
        read_everywhere(&bad, &mut reached).unwrap();
        assert_eq!(reached.decoded, 0, "{tag} byte {byte:#04x}");
    }
}
