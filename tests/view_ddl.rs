//! View DDL is a log record, not an image. On a durable engine,
//! `register_view` appends one catalog record (the view's catalog row)
//! and `drop_view` one more (its slot); neither writes an image of the
//! graph, moves the log generation or joins a fold. So a registration
//! costs what the view costs, not O(graph). A reopen replays the
//! records into the catalog and builds what survives them.

mod durability_script;

use std::collections::HashMap;
use std::sync::Arc;

use durability_script::graph_identity;
use pgq_algebra::pipeline::compile_query;
use pgq_core::{EngineError, GraphEngine};
use pgq_durability::codec::encode_record;
use pgq_durability::snapshot::parse_snap_name;
use pgq_durability::{DurOp, Fault, FsyncMode, MemDisk, Record, Snapshot, SnapshotView};
use pgq_graph::tx::Transaction;
use pgq_parser::parse_query;
use pgq_workloads::social::{generate_social, SocialParams};

/// The eight standing views of the social benchmark: the paper's thread
/// view, the friend-likes three-way join, two aggregates, and four
/// members of one WHERE family.
const SOCIAL_VIEWS: [(&str, &str); 8] = [
    (
        "threads",
        "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
    ),
    (
        "friend_likes",
        "MATCH (a:Person)-[:CREATED]->(p:Post) MATCH (a)-[:KNOWS]->(b:Person) \
         MATCH (b)-[:LIKES]->(p) RETURN a, b, p",
    ),
    (
        "posts_by_lang",
        "MATCH (p:Post) RETURN p.lang AS lang, count(*) AS posts",
    ),
    (
        "replies_by_lang",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) RETURN p.lang AS lang, count(*) AS replies",
    ),
    (
        "en_en",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'en' RETURN p, c",
    ),
    (
        "en_de",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'en' OR c.lang = 'de' RETURN p, c",
    ),
    (
        "de_fr",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'de' OR c.lang = 'fr' RETURN p, c",
    ),
    (
        "fr_hu",
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = 'fr' OR c.lang = 'hu' RETURN p, c",
    ),
];

/// A generated social network as one transaction.
fn social_load() -> Transaction {
    let net = generate_social(SocialParams::scale(0.5, 7));
    let snap = Snapshot::capture_graph(&net.graph);
    let mut tx = Transaction::new();
    let mut refs = HashMap::new();
    for (id, labels, props) in snap.vertices {
        refs.insert(id, tx.create_vertex(labels, props));
    }
    for (_, src, dst, ty, props) in snap.edges {
        tx.create_edge(refs[&src], refs[&dst], ty, props);
    }
    tx
}

/// The frame a registration's record takes in the log: length,
/// checksum, payload.
fn register_frame(slot: u32, (name, query): (&str, &str)) -> u64 {
    let row = SnapshotView {
        slot,
        name: name.into(),
        query: query.into(),
        schema_mode: 0,
        plan: true,
        wcoj_mode: 1,
        wcoj_sorted: None,
    };
    8 + encode_record(Record::Register(&row)).len() as u64
}

fn images(disk: &MemDisk) -> Vec<String> {
    let mut names = disk.file_names();
    names.retain(|n| parse_snap_name(n).is_some());
    names
}

fn assert_views_equal_recompute(engine: &GraphEngine, what: &str) {
    for (id, view) in engine.views() {
        let q = engine.view_query(id).unwrap();
        let plan = compile_query(&parse_query(q).unwrap()).unwrap();
        assert_eq!(
            view.results(),
            pgq_eval::evaluate_consolidated(&plan.fra, engine.graph()),
            "{what}: view {} diverged from recompute",
            view.name()
        );
    }
}

#[test]
fn registering_the_social_views_appends_eight_records_and_writes_no_image() {
    let disk = MemDisk::new();
    let mut engine = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    engine.set_snapshot_every(0);
    engine.apply(&social_load()).unwrap();
    let loaded = engine.durability_health().unwrap();
    assert!(engine.graph().vertex_count() > 500);

    for (name, query) in SOCIAL_VIEWS {
        engine.register_view(name, query).unwrap();
    }
    let registered = engine.durability_health().unwrap();
    assert_eq!(registered.snapshots_written, 0);
    assert_eq!(registered.generation, loaded.generation);
    assert_eq!(registered.wal_records, loaded.wal_records + 8);
    // The log grew by exactly the eight catalog rows, whatever the
    // graph holds.
    let rows: u64 = (0u32..)
        .zip(SOCIAL_VIEWS)
        .map(|(s, v)| register_frame(s, v))
        .sum();
    assert_eq!(registered.wal_len, loaded.wal_len + rows);
    assert!(images(&disk).is_empty(), "{:?}", disk.file_names());

    let dropped = engine.view_by_name(SOCIAL_VIEWS[1].0).unwrap();
    engine.drop_view(dropped).unwrap();
    let after = engine.durability_health().unwrap();
    assert_eq!(after.snapshots_written, 0);
    assert_eq!(after.generation, loaded.generation);
    assert_eq!(after.wal_records, registered.wal_records + 1);
    assert!(images(&disk).is_empty(), "{:?}", disk.file_names());

    // A reopen replays the load and the nine catalog records and builds
    // the seven views that survive them.
    let identity = graph_identity(engine.graph());
    drop(engine);
    let reopened = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    assert!(reopened.recovery_report().unwrap().is_pristine());
    assert_eq!(graph_identity(reopened.graph()), identity);
    let names: Vec<&str> = reopened.views().map(|(_, v)| v.name()).collect();
    let want: Vec<&str> = SOCIAL_VIEWS
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| *n != SOCIAL_VIEWS[1].0)
        .collect();
    assert_eq!(names, want);
    assert_views_equal_recompute(&reopened, "reopened");
}

#[test]
fn a_name_whose_drop_failed_can_be_registered_again_and_reopens_as_the_new_view() {
    const OLD: (&str, &str) = ("posts", "MATCH (p:Post) RETURN p");
    const NEW: (&str, &str) = ("posts", "MATCH (p:Post) WHERE p.lang = 'en' RETURN p");
    // Op 0 is the registration's record, op 1 the drop's.
    let disk = MemDisk::new();
    let mut engine =
        GraphEngine::open_durable_with(Arc::new(disk.vfs_with_fault(1, Fault::Eio))).unwrap();
    engine.set_snapshot_every(0).set_fsync(FsyncMode::Never);
    let old = engine.register_view(OLD.0, OLD.1).unwrap();
    match engine.drop_view(old) {
        Err(EngineError::Durability(e)) => assert_eq!(e.op, DurOp::WalAppend, "{e}"),
        other => panic!("the drop's record must fail: {other:?}"),
    }
    // Gone from memory, still registered in the log; the name is free.
    engine.register_view(NEW.0, NEW.1).unwrap();
    engine
        .execute("CREATE (:Post {lang: 'en'}), (:Post {lang: 'de'})")
        .unwrap();
    drop(engine);

    let reopened = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    let views: Vec<(&str, &str)> = reopened
        .views()
        .map(|(id, v)| (v.name(), reopened.view_query(id).unwrap()))
        .collect();
    assert_eq!(views, vec![NEW]);
    assert_eq!(
        reopened
            .view(reopened.view_by_name(NEW.0).unwrap())
            .unwrap()
            .rows()
            .len(),
        1
    );
}

#[test]
fn a_degraded_engine_refuses_view_ddl() {
    let disk = MemDisk::new();
    let mut engine =
        GraphEngine::open_durable_with(Arc::new(disk.vfs_with_fault(1, Fault::Eio))).unwrap();
    engine
        .set_snapshot_every(0)
        .set_fsync(FsyncMode::Never)
        .set_max_durability_failures(1);
    let kept = engine
        .register_view("posts", "MATCH (p:Post) RETURN p")
        .unwrap();
    assert!(engine.execute("CREATE (:Post)").is_err());
    assert!(engine.is_degraded());
    let refused = engine.register_view("comms", "MATCH (c:Comm) RETURN c");
    assert!(
        matches!(refused, Err(EngineError::ReadOnly(_))),
        "{refused:?}"
    );
    assert!(engine.view_by_name("comms").is_none());
    let refused = engine.drop_view(kept);
    assert!(
        matches!(refused, Err(EngineError::ReadOnly(_))),
        "{refused:?}"
    );
    assert!(engine.view(kept).is_ok());
    // Reset re-baselines disk to memory; DDL is accepted again.
    engine.reset_durability().unwrap();
    engine.drop_view(kept).unwrap();
}
