//! Active-query subscriptions: callbacks fire with exact deltas.

use std::sync::{Arc, Mutex};

use pgq_core::{GraphEngine, ViewDelta};

#[test]
fn subscriber_sees_inserts_and_removals() {
    let mut e = GraphEngine::new();
    let view = e
        .register_view("en-posts", "MATCH (p:Post) WHERE p.lang = 'en' RETURN p")
        .unwrap();
    let log: Arc<Mutex<Vec<ViewDelta>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = log.clone();
    e.subscribe(view, move |d| sink.lock().unwrap().push(d.clone()))
        .unwrap();

    e.execute("CREATE (:Post {lang: 'en'})").unwrap();
    e.execute("CREATE (:Post {lang: 'de'})").unwrap(); // no delta for this view
    e.execute("MATCH (p:Post {lang: 'en'}) SET p.lang = 'fr'")
        .unwrap();

    let log = log.lock().unwrap();
    assert_eq!(log.len(), 2, "{log:?}");
    assert_eq!(log[0].inserted.len(), 1);
    assert!(log[0].removed.is_empty());
    assert!(log[1].inserted.is_empty());
    assert_eq!(log[1].removed.len(), 1);
    assert_eq!(log[0].view, "en-posts");
}

#[test]
fn multiple_subscribers_on_one_view() {
    let mut e = GraphEngine::new();
    let view = e.register_view("v", "MATCH (p:Post) RETURN p").unwrap();
    let count = Arc::new(Mutex::new(0usize));
    for _ in 0..3 {
        let c = count.clone();
        e.subscribe(view, move |_| *c.lock().unwrap() += 1).unwrap();
    }
    e.execute("CREATE (:Post)").unwrap();
    assert_eq!(*count.lock().unwrap(), 3);
}

#[test]
fn subscribe_to_unknown_view_errors() {
    let mut e = GraphEngine::new();
    let view = e.register_view("v", "MATCH (p:Post) RETURN p").unwrap();
    e.drop_view(view).unwrap();
    assert!(e.subscribe(view, |_| {}).is_err());
}

#[test]
fn clone_drops_subscribers_but_keeps_views() {
    let mut e = GraphEngine::new();
    let view = e.register_view("v", "MATCH (p:Post) RETURN p").unwrap();
    let count = Arc::new(Mutex::new(0usize));
    let c = count.clone();
    e.subscribe(view, move |_| *c.lock().unwrap() += 1).unwrap();

    let mut clone = e.clone();
    clone.execute("CREATE (:Post)").unwrap();
    // The clone maintains its views but does not fire the original's
    // callbacks.
    assert_eq!(*count.lock().unwrap(), 0);
    assert_eq!(clone.view_results(view).unwrap().len(), 1);

    // The original still fires.
    e.execute("CREATE (:Post)").unwrap();
    assert_eq!(*count.lock().unwrap(), 1);
}

#[test]
fn view_stats_expose_network_shape() {
    let mut e = GraphEngine::new();
    e.execute("CREATE (:Post {lang:'en'})-[:REPLY]->(:Comm {lang:'en'})")
        .unwrap();
    let view = e
        .register_view(
            "threads",
            "MATCH t = (p:Post)-[:REPLY*]->(c:Comm) WHERE p.lang = c.lang RETURN p, t",
        )
        .unwrap();
    let stats = e.view_stats(view).unwrap();
    let rendered = stats.to_string();
    assert!(rendered.contains("⋈*"), "{rendered}");
    assert!(rendered.contains("©"), "{rendered}");
    assert!(stats.total_tuples() > 0);
}

#[test]
fn dropped_view_frees_its_subscribers_and_its_id() {
    let mut e = GraphEngine::new();
    let query = "MATCH (p:Post) RETURN p";
    let view = e.register_view("v", query).unwrap();
    let count = Arc::new(Mutex::new(0usize));
    let c = count.clone();
    e.subscribe(view, move |_| *c.lock().unwrap() += 1).unwrap();
    assert_eq!(Arc::strong_count(&count), 2);

    e.drop_view(view).unwrap();
    // The callback (and everything it captured) went with the view.
    assert_eq!(Arc::strong_count(&count), 1);

    // The same name and query again is a *new* view: the stale id does
    // not resolve to it, and the old callback never fires for it.
    let again = e.register_view("v", query).unwrap();
    assert_ne!(again, view);
    assert!(e.view(view).is_err());
    assert!(e.subscribe(view, |_| {}).is_err());
    assert!(e.drop_view(view).is_err());
    e.execute("CREATE (:Post)").unwrap();
    assert_eq!(*count.lock().unwrap(), 0);
    assert_eq!(e.view_results(again).unwrap().len(), 1);
}

#[test]
fn view_walks_stay_flat_under_register_drop_churn() {
    use std::time::{Duration, Instant};

    const CYCLES: usize = 5_000;
    let standing = |e: &mut GraphEngine| {
        e.register_view("posts", "MATCH (p:Post) RETURN p").unwrap();
        e.register_view("comms", "MATCH (c:Comm) RETURN c").unwrap();
    };
    // Best of five timings of a batch of name lookups that miss, so each
    // one walks every view the engine still keeps.
    let lookup_cost = |e: &GraphEngine| -> Duration {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..2_000 {
                    assert!(std::hint::black_box(e.view_by_name("missing")).is_none());
                }
                t.elapsed()
            })
            .min()
            .unwrap()
    };

    let mut fresh = GraphEngine::new();
    standing(&mut fresh);
    let mut churned = GraphEngine::new();
    standing(&mut churned);
    let fired = Arc::new(Mutex::new(0usize));
    for i in 0..CYCLES {
        let id = churned
            .register_view(&format!("churn{i}"), "MATCH (p:Post) RETURN p")
            .unwrap();
        let f = fired.clone();
        churned
            .subscribe(id, move |_| *f.lock().unwrap() += 1)
            .unwrap();
        churned.drop_view(id).unwrap();
    }
    // Nothing of the 5k dropped views is left: no view, no callback.
    assert_eq!(churned.views().count(), 2);
    assert_eq!(Arc::strong_count(&fired), 1);
    churned.execute("CREATE (:Post)").unwrap();
    assert_eq!(*fired.lock().unwrap(), 0);

    // A lookup costs what two live views cost, not what 5 002 slots do
    // (a ~2 500x walk before; the bound leaves two orders of magnitude
    // for timer noise).
    let (base, after) = (lookup_cost(&fresh), lookup_cost(&churned));
    assert!(
        after <= base * 20 + Duration::from_millis(2),
        "view_by_name: {after:?} after {CYCLES} register/drop cycles vs {base:?} fresh"
    );
}

/// The sink fold walks the roots the pass produced, not every sink, yet
/// reports the changed sinks in sink-id order whatever the arena and
/// depth order of their roots — so subscribers of several views changed
/// by one transaction keep being called in view-registration order.
#[test]
fn callbacks_fire_in_registration_order_whatever_the_root_depths() {
    let mut e = GraphEngine::new();
    // Roots at depths 3+, 0, (shared with the first), 1; the dropped
    // view leaves a sink slot that the last registration reuses.
    let queries = [
        "MATCH (p:Post)-[:REPLY]->(c:Comm) WHERE p.lang = c.lang RETURN p, c",
        "MATCH (c:Comm) RETURN c",
        "MATCH (x:Post)-[:REPLY]->(y:Comm) WHERE x.lang = y.lang RETURN x, y",
        "MATCH (p:Post) RETURN count(*) AS n",
    ];
    let doomed = e
        .register_view("doomed", "MATCH (p:Post) RETURN p")
        .unwrap();
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut names = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        if i == 3 {
            e.drop_view(doomed).unwrap();
        }
        let name = format!("v{i}");
        let view = e.register_view(&name, q).unwrap();
        let log = order.clone();
        e.subscribe(view, move |d| log.lock().unwrap().push(d.view.clone()))
            .unwrap();
        names.push(name);
    }
    for _ in 0..3 {
        order.lock().unwrap().clear();
        e.execute("CREATE (:Post {lang: 'en'})-[:REPLY]->(:Comm {lang: 'en'})")
            .unwrap();
        assert_eq!(*order.lock().unwrap(), names);
        let changed = e.network().changed_sinks();
        assert_eq!(changed.len(), names.len());
        assert!(changed.windows(2).all(|w| w[0] < w[1]), "{changed:?}");
    }
}

#[test]
fn apply_with_deltas_is_a_full_commit() {
    // The delta-returning twin of `apply` must not be a lesser commit:
    // subscribers hear about it, the snapshot cadence counts it, and a
    // transaction that changes nothing reports no stale delta.
    use pgq_common::intern::Symbol;
    use pgq_durability::MemDisk;
    use pgq_graph::props::Properties;
    use pgq_graph::tx::Transaction;

    let disk = MemDisk::new();
    let mut e = GraphEngine::open_durable_with(Arc::new(disk.vfs())).unwrap();
    let view = e.register_view("v", "MATCH (p:Post) RETURN p").unwrap();
    e.set_snapshot_every(2);
    let heard = Arc::new(Mutex::new(0usize));
    let h = heard.clone();
    e.subscribe(view, move |d| *h.lock().unwrap() += d.inserted.len())
        .unwrap();
    // Images written, and the cadence fold still in flight.
    let ticks = |e: &GraphEngine| {
        let h = e.durability_health().unwrap();
        h.snapshots_written + u64::from(h.fold_in_flight)
    };
    let before = ticks(&e);

    let mut create = Transaction::new();
    create.create_vertex([Symbol::intern("Post")], Properties::default());
    for round in 1..=2 {
        let deltas = e.apply_with_deltas(&create).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].1.len(), 1, "round {round}: one inserted row");
        assert_eq!(*heard.lock().unwrap(), round);
    }
    assert_eq!(ticks(&e), before + 1, "two commits at cadence 2 tick once");

    let deltas = e.apply_with_deltas(&Transaction::new()).unwrap();
    assert!(
        deltas[0].1.is_empty(),
        "an empty transaction changes nothing"
    );
}
