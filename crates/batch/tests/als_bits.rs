//! Bit-identity of ALS training against the path it replaced.
//!
//! `AlsModel::train_warm_start` reads each entity's ratings from a CSR
//! index and accumulates its normal equations straight from the fixed
//! side's flat factor table, and computes the training curve as a parallel
//! map plus a serial fold. It promises the *same bits* (`f64::to_bits`) as
//! the old path: per-entity `Vec<(id, centred)>` lists, the rated factors
//! cloned and stacked with `Matrix::from_rows`, the one-row-at-a-time Gram
//! and `Aᵀy` loops, Cholesky, and a serial RMSE. That path lives on here,
//! and only here, as the reference.
//!
//! The root package's `tests/als_bits.rs` mounts this file as a module, so
//! tier-1 `cargo test -q` runs the suite too.

// The references are the old indexed loops, kept as they were.
#![allow(clippy::needless_range_loop)]

use velox_batch::{AlsConfig, AlsModel, JobExecutor};
use velox_data::{Rating, VeloxRng};
use velox_linalg::{Cholesky, LinalgError, Matrix, Vector};

const RANKS: [usize; 6] = [1, 2, 3, 5, 20, 21];
const WORKERS: [usize; 4] = [1, 2, 4, 8];
const USERS: usize = 24;
const ITEMS: usize = 18;

/// The old `init_factor`, verbatim: splitmix64 → (−0.5, 0.5) / √rank.
fn ref_init_factor(entity: u64, salt: u64, rank: usize) -> Vector {
    let scale = 1.0 / (rank as f64).sqrt();
    let mut v = Vec::with_capacity(rank);
    for k in 0..rank as u64 {
        let mut z = entity
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt)
            .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        v.push((u - 0.5) * scale);
    }
    Vector::from_vec(v)
}

/// The old `Matrix::gram`: upper triangle row by row, skipping a zero left
/// factor, then mirrored.
fn ref_gram(x: &Matrix) -> Matrix {
    let d = x.cols();
    let mut g = vec![0.0; d * d];
    for r in 0..x.rows() {
        let row = x.row(r);
        for i in 0..d {
            let ri = row[i];
            if ri == 0.0 {
                continue;
            }
            for j in i..d {
                g[i * d + j] += ri * row[j];
            }
        }
    }
    for i in 0..d {
        for j in (i + 1)..d {
            g[j * d + i] = g[i * d + j];
        }
    }
    Matrix::from_row_major(d, d, g).unwrap()
}

/// The old `Matrix::matvec_transpose`: an axpy per row, skipping a zero
/// coefficient.
fn ref_matvec_transpose(x: &Matrix, y: &Vector) -> Vector {
    let mut out = vec![0.0; x.cols()];
    for r in 0..x.rows() {
        let alpha = y[r];
        if alpha == 0.0 {
            continue;
        }
        for (o, &v) in out.iter_mut().zip(x.row(r)) {
            *o += alpha * v;
        }
    }
    Vector::from_vec(out)
}

/// The old `ridge_fit`.
fn ref_ridge_fit(x: &Matrix, y: &Vector, lambda: f64) -> Result<Vector, LinalgError> {
    let mut gram = ref_gram(x);
    gram.add_scaled_identity(lambda)?;
    let xty = ref_matvec_transpose(x, y);
    Cholesky::factor(&gram)?.solve(&xty)
}

/// The old `half_step`: clone every rated factor, stack, solve.
fn ref_half_step(
    by_left: &[Vec<(u64, f64)>],
    right_factors: &[Vector],
    rank: usize,
    lambda: f64,
    current: &[Vector],
) -> Vec<Vector> {
    (0..by_left.len())
        .map(|e| {
            let obs = &by_left[e];
            if obs.is_empty() {
                return current[e].clone();
            }
            let rows: Vec<Vector> =
                obs.iter().map(|(j, _)| right_factors[*j as usize].clone()).collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let y = Vector::from_vec(obs.iter().map(|(_, r)| *r).collect());
            let lam = lambda * obs.len() as f64;
            ref_ridge_fit(&x, &y, lam).unwrap_or_else(|_| Vector::zeros(rank))
        })
        .collect()
}

/// The old serial `AlsModel::rmse`.
fn ref_rmse(ratings: &[Rating], users: &[Vector], items: &[Vector], mean: f64) -> f64 {
    if ratings.is_empty() {
        return 0.0;
    }
    let sse: f64 = ratings
        .iter()
        .map(|r| {
            let p = mean + users[r.uid as usize].dot(&items[r.item_id as usize]).unwrap();
            let e = p - r.value;
            e * e
        })
        .sum();
    (sse / ratings.len() as f64).sqrt()
}

/// The old `train_warm_start`; returns (users, items, curve).
fn ref_train_warm_start(
    ratings: &[Rating],
    mut users: Vec<Vector>,
    mut items: Vec<Vector>,
    config: &AlsConfig,
) -> (Vec<Vector>, Vec<Vector>, Vec<f64>) {
    let mean = if ratings.is_empty() {
        0.0
    } else {
        ratings.iter().map(|r| r.value).sum::<f64>() / ratings.len() as f64
    };
    let mut by_user: Vec<Vec<(u64, f64)>> = vec![Vec::new(); users.len()];
    let mut by_item: Vec<Vec<(u64, f64)>> = vec![Vec::new(); items.len()];
    for r in ratings {
        let centered = r.value - mean;
        by_user[r.uid as usize].push((r.item_id, centered));
        by_item[r.item_id as usize].push((r.uid, centered));
    }
    let mut curve = Vec::new();
    for _ in 0..config.iterations {
        users = ref_half_step(&by_user, &items, config.rank, config.lambda, &users);
        items = ref_half_step(&by_item, &users, config.rank, config.lambda, &items);
        curve.push(ref_rmse(ratings, &users, &items, mean));
    }
    (users, items, curve)
}

fn table_bits(table: &[Vector]) -> Vec<u64> {
    table.iter().flat_map(|v| v.iter().map(|x| x.to_bits())).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts the real trainer equals the reference, at every worker count.
fn assert_same_bits(
    ratings: &[Rating],
    users: &[Vector],
    items: &[Vector],
    config: &AlsConfig,
    case: &str,
) {
    let (ref_users, ref_items, ref_curve) =
        ref_train_warm_start(ratings, users.to_vec(), items.to_vec(), config);
    for workers in WORKERS {
        let model = AlsModel::train_warm_start(
            ratings,
            users.to_vec(),
            items.to_vec(),
            config.clone(),
            &JobExecutor::new(workers),
        );
        let at = format!("{case}, rank {}, {workers} workers", config.rank);
        assert_eq!(table_bits(&model.user_factors), table_bits(&ref_users), "users: {at}");
        assert_eq!(table_bits(&model.item_factors), table_bits(&ref_items), "items: {at}");
        assert_eq!(bits(&model.training_curve), bits(&ref_curve), "curve: {at}");
    }
}

/// A log over `USERS × ITEMS` whose mean is exactly 3.0 — ratings come in
/// pairs `v`, `6 − v` on a quarter grid, plus some exact 3.0s, so a few
/// centred labels are exactly `0.0`. User `USERS − 1` and item `ITEMS − 1`
/// have no ratings; user `USERS − 2` and item `ITEMS − 2` have exactly one.
fn ratings(seed: u64) -> Vec<Rating> {
    let mut rng = VeloxRng::seed_from(seed);
    let mut pairs = Vec::new();
    for _ in 0..(USERS - 2) * 9 {
        let uid = rng.below(USERS as u64 - 2);
        let item_id = rng.below(ITEMS as u64 - 2);
        pairs.push((uid, item_id));
    }
    pairs.push((USERS as u64 - 2, rng.below(ITEMS as u64 - 2)));
    pairs.push((rng.below(USERS as u64 - 2), ITEMS as u64 - 2));
    let n = pairs.len();
    let mut values: Vec<f64> = Vec::with_capacity(n);
    while values.len() + 2 <= n {
        if values.len().is_multiple_of(5) {
            values.push(3.0);
        } else {
            let v = 1.0 + 0.25 * rng.below(17) as f64;
            values.extend([v, 6.0 - v]);
        }
    }
    values.resize(n, 3.0);
    rng.shuffle(&mut values);
    let log: Vec<Rating> = pairs
        .into_iter()
        .zip(values)
        .enumerate()
        .map(|(ts, ((uid, item_id), value))| Rating { uid, item_id, value, timestamp: ts as u64 })
        .collect();
    let mean = log.iter().map(|r| r.value).sum::<f64>() / log.len() as f64;
    assert_eq!(mean, 3.0);
    assert!(log.iter().any(|r| r.value == 3.0));
    log
}

fn config(rank: usize, iterations: usize) -> AlsConfig {
    AlsConfig { rank, lambda: 0.05, iterations, seed: 0xA15 + rank as u64 }
}

fn cold_tables(config: &AlsConfig) -> (Vec<Vector>, Vec<Vector>) {
    let users = (0..USERS as u64).map(|u| ref_init_factor(u, config.seed, config.rank)).collect();
    let items = (0..ITEMS as u64)
        .map(|i| ref_init_factor(i, config.seed ^ 0xDEAD_BEEF, config.rank))
        .collect();
    (users, items)
}

#[test]
fn cold_start_matches_the_stacked_path_at_every_rank() {
    let log = ratings(0xA15_0001);
    for rank in RANKS {
        let config = config(rank, 3);
        let (users, items) = cold_tables(&config);
        assert_same_bits(&log, &users, &items, &config, "cold start");
        // `train` initializes exactly as the old code did.
        let model = AlsModel::train(&log, USERS, ITEMS, config.clone(), &JobExecutor::new(2));
        let (ref_users, ref_items, _) = ref_train_warm_start(&log, users, items, &config);
        assert_eq!(table_bits(&model.user_factors), table_bits(&ref_users), "train, rank {rank}");
        assert_eq!(table_bits(&model.item_factors), table_bits(&ref_items), "train, rank {rank}");
    }
}

#[test]
fn unrated_entities_keep_their_factors_and_single_ratings_solve() {
    let log = ratings(0xA15_0002);
    let config = config(5, 2);
    let (users, items) = cold_tables(&config);
    let model = AlsModel::train_warm_start(
        &log,
        users.clone(),
        items.clone(),
        config.clone(),
        &JobExecutor::new(4),
    );
    assert_eq!(table_bits(&model.user_factors[USERS - 1..]), table_bits(&users[USERS - 1..]));
    assert_eq!(table_bits(&model.item_factors[ITEMS - 1..]), table_bits(&items[ITEMS - 1..]));
    assert_ne!(
        table_bits(&model.user_factors[USERS - 2..USERS - 1]),
        table_bits(&users[USERS - 2..USERS - 1])
    );
    assert_same_bits(&log, &users, &items, &config, "unrated and single-rating entities");
}

#[test]
fn zero_and_negative_zero_components_match() {
    let log = ratings(0xA15_0003);
    let mut rng = VeloxRng::seed_from(0xA15_0013);
    for rank in RANKS {
        let config = config(rank, 2);
        let (mut users, mut items) = cold_tables(&config);
        // Every fourth component of both tables becomes ±0.0, and two item
        // rows are entirely zero: the skipped-term rule decides those bits.
        for (t, table) in [&mut users, &mut items].into_iter().enumerate() {
            for (e, row) in table.iter_mut().enumerate() {
                for k in 0..rank {
                    if (e + k + t) % 4 == 0 {
                        row[k] = if rng.below(2) == 0 { 0.0 } else { -0.0 };
                    }
                }
            }
        }
        items[0] = Vector::zeros(rank);
        items[3] = Vector::from_vec(vec![-0.0; rank]);
        assert_same_bits(&log, &users, &items, &config, "±0.0 components");
    }
}

#[test]
fn non_finite_factors_match_whatever_the_stacked_path_produced() {
    let log = ratings(0xA15_0004);
    for rank in RANKS {
        let config = config(rank, 2);
        let (users, mut items) = cold_tables(&config);
        items[1][0] = f64::INFINITY;
        items[2][rank - 1] = f64::NAN;
        items[4] = Vector::filled(rank, f64::NEG_INFINITY);
        if rank > 1 {
            items[5][1] = 0.0;
            items[5][0] = f64::INFINITY;
        }
        assert_same_bits(&log, &users, &items, &config, "inf / NaN in the item table");
    }
}

#[test]
fn warm_start_from_a_trained_model_matches() {
    let first = ratings(0xA15_0005);
    let mut grown = first.clone();
    grown.extend(ratings(0xA15_0006));
    for rank in [3, 20] {
        let config = config(rank, 3);
        let trained = AlsModel::train(&first, USERS, ITEMS, config.clone(), &JobExecutor::new(2));
        assert_same_bits(
            &grown,
            &trained.user_factors,
            &trained.item_factors,
            &config,
            "warm start",
        );
    }
}

#[test]
fn an_empty_log_keeps_every_factor() {
    let config = config(3, 2);
    let (users, items) = cold_tables(&config);
    assert_same_bits(&[], &users, &items, &config, "empty log");
    let model = AlsModel::train_warm_start(&[], users.clone(), items, config, &JobExecutor::new(2));
    assert_eq!(table_bits(&model.user_factors), table_bits(&users));
    assert_eq!(model.training_curve, vec![0.0, 0.0]);
}

#[test]
fn the_curve_is_one_serial_sum_over_a_log_of_many_slices() {
    // More ratings than one RMSE stage takes (2¹⁷), so every worker count
    // splits the log into several slices and two stages: any partial sum
    // per slice or per stage would move the curve's bits.
    let (users, items) = (400u64, 300u64);
    let mut rng = VeloxRng::seed_from(0xA15_0007);
    let log: Vec<Rating> = (0..140_000u64)
        .map(|ts| Rating {
            uid: rng.below(users),
            item_id: rng.below(items),
            value: rng.range(1.0, 5.0),
            timestamp: ts,
        })
        .collect();
    let config = config(1, 1);
    let init = |n: u64, salt: u64| -> Vec<Vector> {
        (0..n).map(|e| ref_init_factor(e, salt, 1)).collect()
    };
    assert_same_bits(&log, &init(users, 1), &init(items, 2), &config, "a 140 k-rating log");
}
