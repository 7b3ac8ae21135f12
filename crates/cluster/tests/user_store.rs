//! The user store's contract: one shard per virtual partition, states
//! created from the caller's prior, partition-wide drop / iterate /
//! install, and `velox_online_state_bytes` equal to the bytes of the states
//! held through every one of those. A shard lock that was held on arrival
//! shows up in `velox_user_store_lock_wait_ns`; one that was free does not.
//!
//! The root package's `tests/user_store.rs` mounts this file as a module,
//! so tier-1 `cargo test -q` runs the suite too.

use std::sync::mpsc;
use std::time::Duration;

use velox_cluster::{PartitionMap, StoreMetrics, UserStore, RIDGE_LAMBDA, USER_SALT};
use velox_data::linalg::{IncrementalRidge, Vector};

const DIM: usize = 3;

fn map() -> PartitionMap {
    PartitionMap::bootstrap(2, 1, USER_SALT).unwrap()
}

/// Bytes of one state at `DIM`.
fn per_user() -> i64 {
    IncrementalRidge::new(DIM, RIDGE_LAMBDA).state_bytes() as i64
}

fn x(i: u64) -> Vector {
    Vector::from_vec(vec![1.0, (i % 4) as f64 / 3.0, -0.5])
}

fn bits(v: &Vector) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Users of partition `p` among the first few hundred ids.
fn users_of(store: &UserStore, p: u32) -> Vec<u64> {
    (0..400).filter(|&uid| store.partition_of(uid) == p).collect()
}

#[test]
fn shards_follow_the_partition_map() {
    let map = map();
    let store = UserStore::new(&map, StoreMetrics::default());
    for uid in 0..1_000 {
        assert_eq!(store.partition_of(uid), map.partition_of(uid));
    }
}

#[test]
fn a_state_is_created_once_from_the_callers_prior() {
    let store = UserStore::new(&map(), StoreMetrics::default());
    let prior = Vector::from_vec(vec![0.5, -1.0, 2.0]);
    let from_prior = || IncrementalRidge::from_prior(&prior, RIDGE_LAMBDA);
    let w = store.upsert(7, from_prior, |s| s.weights().clone());
    assert_eq!(bits(&w), bits(&prior), "the prior is exact before any observation");
    store.upsert(7, from_prior, |s| s.observe(&x(1), 1.0)).unwrap();
    let again = store.upsert(7, || panic!("the user has a state"), |s| s.n_obs());
    assert_eq!(again, 1);

    let mut reference = IncrementalRidge::from_prior(&prior, RIDGE_LAMBDA);
    reference.observe(&x(1), 1.0).unwrap();
    assert_eq!(store.read(7, |s| bits(s.weights())), Some(bits(reference.weights())));
    assert_eq!(store.read(8, |s| s.n_obs()), None);
}

#[test]
fn observe_starts_at_the_zero_prior_and_refuses_another_width() {
    let store = UserStore::new(&map(), StoreMetrics::default());
    assert_eq!(store.fits(1, &Vector::zeros(5)), Ok(()), "an unknown user takes any width");
    store.observe(1, &x(2), 0.5).unwrap();
    let mut reference = IncrementalRidge::new(DIM, RIDGE_LAMBDA);
    reference.observe(&x(2), 0.5).unwrap();
    assert_eq!(store.read(1, |s| bits(s.weights())), Some(bits(reference.weights())));

    let wide = Vector::zeros(DIM + 1);
    let refusal = store.fits(1, &wide).unwrap_err();
    assert!(refusal.contains("4 features") && refusal.contains("model 3"), "{refusal}");
    assert_eq!(store.observe(1, &wide, 1.0), Err(refusal));
    assert_eq!(
        store.read(1, |s| (s.n_obs(), bits(s.weights()))),
        Some((1, bits(reference.weights())))
    );
}

#[test]
fn a_partition_is_iterated_installed_and_dropped_alone() {
    let store = UserStore::new(&map(), StoreMetrics::default());
    let (p, q) = (3, 4);
    let (in_p, in_q) = (users_of(&store, p), users_of(&store, q));
    assert!(in_p.len() >= 3 && in_q.len() >= 3);
    for &uid in in_p.iter().chain(&in_q) {
        store.observe(uid, &x(uid), 1.0).unwrap();
    }

    let mut listed = store.partition_entries(p, |uid, s| (uid, s.n_obs()));
    listed.sort_unstable();
    assert_eq!(listed, in_p.iter().map(|&uid| (uid, 1)).collect::<Vec<_>>());
    assert!(store.partition_entries(9_999, |uid, _| uid).is_empty(), "no such partition");

    // Install keeps a state the user already has and adds the rest.
    let fresh = || IncrementalRidge::new(DIM, RIDGE_LAMBDA);
    assert!(!store.install(in_p[0], fresh));
    assert_eq!(store.read(in_p[0], |s| s.n_obs()), Some(1));
    let newcomer = (400..).find(|&uid| store.partition_of(uid) == p).unwrap();
    assert!(store.install(newcomer, fresh));
    assert_eq!(store.partition_entries(p, |uid, _| uid).len(), in_p.len() + 1);

    assert_eq!(store.drop_partition(p), in_p.len() + 1);
    assert!(store.partition_entries(p, |uid, _| uid).is_empty());
    assert_eq!(store.len(), in_q.len(), "the other partition is untouched");
    assert_eq!(store.drop_partition(9_999), 0);
}

#[test]
fn the_gauge_counts_every_resident_state() {
    let metrics = StoreMetrics::default();
    let gauge = || metrics.state_bytes.get();
    let store = UserStore::new(&map(), metrics.clone());
    assert_eq!(gauge(), 0, "empty shards hold no bytes");
    for uid in 0..10 {
        store.observe(uid, &x(uid), 1.0).unwrap();
        store.observe(uid, &x(uid + 1), 0.0).unwrap();
    }
    assert_eq!(gauge(), 10 * per_user(), "created once per user, whatever the observes");

    assert!(store.remove(0));
    assert!(!store.remove(0));
    assert_eq!(gauge(), 9 * per_user());
    let p = store.partition_of(1);
    let dropped = store.drop_partition(p) as i64;
    assert_eq!(gauge(), (9 - dropped) * per_user());

    // A state replaced with one of another width changes the count.
    let wider = || IncrementalRidge::new(DIM + 1, RIDGE_LAMBDA);
    let uid = (2..10).find(|&uid| store.partition_of(uid) != p).unwrap();
    store.upsert(uid, wider, |s| *s = wider());
    let wider_bytes = wider().state_bytes() as i64;
    assert_eq!(gauge(), (8 - dropped) * per_user() + wider_bytes);

    store.clear();
    assert_eq!((gauge(), store.len()), (0, 0));
    store.observe(3, &x(3), 1.0).unwrap();
    drop(store);
    assert_eq!(gauge(), 0, "a dropped store takes its bytes along");
}

#[test]
fn only_a_contended_shard_records_its_wait() {
    let metrics = StoreMetrics::default();
    let store = UserStore::new(&map(), metrics.clone());
    for uid in 0..50 {
        store.observe(uid, &x(uid), 1.0).unwrap();
        store.read(uid, |s| s.n_obs());
    }
    assert_eq!(metrics.lock_wait_ns.count(), 0, "free shards are never timed");

    // One thread holds user 1's shard while another asks for it. A reader
    // that arrives after the holder let go waits for nothing, so try a few
    // times.
    for _ in 0..5 {
        let (held, hold) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                store.upsert(
                    1,
                    || unreachable!(),
                    |_| {
                        held.send(()).unwrap();
                        std::thread::sleep(Duration::from_millis(50));
                    },
                )
            });
            hold.recv().unwrap();
            store.read(1, |s| s.n_obs());
        });
        if metrics.lock_wait_ns.count() > 0 {
            break;
        }
    }
    assert_eq!(metrics.lock_wait_ns.count(), 1, "the blocked read is timed once");
    assert!(metrics.lock_wait_ns.snapshot().p50() > 0);
}
