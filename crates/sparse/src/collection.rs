//! Synthetic matrix collections standing in for the UFL Sparse Matrix
//! collection (paper §IV: 54 training and 100 test matrices, the test set
//! drawn as ~10 matrices from each of 9 groups plus 13 stencil matrices).

use nitro_core::rayon::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::CsrMatrix;
use crate::gen;
use crate::spmv::SpmvInput;

/// The nine structural "groups" the synthetic collection spans.
pub const GROUPS: [&str; 9] = [
    "banded",
    "stencil2d",
    "stencil3d",
    "uniform",
    "power_law",
    "random",
    "clustered",
    "block_diag",
    "mixed",
];

/// Generate the `idx`-th matrix of a group, deterministically.
pub fn group_matrix(group: &str, idx: usize, seed: u64) -> CsrMatrix {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9) ^ hash(group));
    let n = rng.random_range(3_000..12_000);
    match group {
        "banded" => gen::banded(
            n,
            rng.random_range(2..8),
            rng.random_range(0.6..1.0),
            rng.random(),
        ),
        "stencil2d" => {
            let side = rng.random_range(55..110);
            gen::stencil_2d(side, side, rng.random_bool(0.5))
        }
        "stencil3d" => {
            let side = rng.random_range(14..22);
            gen::stencil_3d(side, side, side)
        }
        "uniform" => {
            let window = if rng.random_bool(0.5) {
                n
            } else {
                rng.random_range(64..512)
            };
            gen::uniform_rows(n, rng.random_range(4..24), window, rng.random())
        }
        "power_law" => gen::power_law(
            n,
            rng.random_range(4.0..16.0),
            rng.random_range(1.3..2.2),
            rng.random(),
        ),
        "random" => gen::random_uniform(n, rng.random_range(3..20), rng.random()),
        "clustered" => gen::clustered(
            n,
            rng.random_range(6..28),
            rng.random_range(32..128),
            rng.random(),
        ),
        "block_diag" => gen::block_diag(
            n,
            rng.random_range(8..48),
            rng.random_range(0.3..0.9),
            rng.random(),
        ),
        "mixed" => {
            // A banded core plus scattered noise: between the regimes.
            let base = gen::banded(n, rng.random_range(1..4), 1.0, rng.random());
            let noise = gen::power_law(n, rng.random_range(1.0..4.0), 1.8, rng.random());
            add(&base, &noise)
        }
        other => panic!("unknown group '{other}'"),
    }
}

/// Entrywise sum of two equally sized matrices.
fn add(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!((a.n_rows, a.n_cols), (b.n_rows, b.n_cols));
    let mut coo = crate::coo::CooMatrix::new(a.n_rows, a.n_cols);
    for m in [a, b] {
        for r in 0..m.n_rows {
            let (cols, vals) = m.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r, c as usize, v);
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// The SpMV training collection: 54 matrices, 6 per group (paper: 54
/// UFL training matrices chosen so every variant is well represented).
pub fn spmv_training_set(seed: u64) -> Vec<SpmvInput> {
    let plan: Vec<(&str, usize)> = GROUPS
        .iter()
        .flat_map(|&group| (0..6).map(move |idx| (group, idx)))
        .collect();
    plan.par_iter()
        .map(|&(group, idx)| {
            let m = group_matrix(group, idx, seed);
            SpmvInput::new(format!("train/{group}/{idx}"), group, m)
        })
        .collect()
}

/// The SpMV test collection: 100 matrices — ~10 per group minus a short
/// "williams"-style group, plus 13 stencil instances (paper §IV). Uses an
/// index offset so test instances never collide with training ones.
pub fn spmv_test_set(seed: u64) -> Vec<SpmvInput> {
    // `None` marks the 13 stencil-related extras that follow the groups.
    let mut plan: Vec<(Option<&str>, usize)> = Vec::with_capacity(100);
    for (g, &group) in GROUPS.iter().enumerate() {
        // 10 each from 8 groups, 7 from the last ("williams has only 7").
        let count = if g == GROUPS.len() - 1 { 7 } else { 10 };
        plan.extend((0..count).map(|idx| (Some(group), idx)));
    }
    plan.extend((0..13).map(|idx| (None, idx)));
    plan.par_iter()
        .map(|&(group, idx)| match group {
            Some(group) => {
                let m = group_matrix(group, 100 + idx, seed);
                SpmvInput::new(format!("test/{group}/{idx}"), group, m)
            }
            None => {
                let m = if idx % 2 == 0 {
                    let side = 50 + idx * 7;
                    gen::stencil_2d(side, side, idx % 4 == 0)
                } else {
                    let side = 13 + idx;
                    gen::stencil_3d(side, side, side)
                };
                SpmvInput::new(format!("test/stencil/{idx}"), "stencil_extra", m)
            }
        })
        .collect()
}

/// A miniature train/test pair for unit and integration tests: same group
/// structure, much smaller matrices.
pub fn spmv_small_sets(seed: u64) -> (Vec<SpmvInput>, Vec<SpmvInput>) {
    let make = |tag: &str, idx_base: usize, count: usize| -> Vec<SpmvInput> {
        let plan: Vec<(&str, usize)> = SMALL_GROUPS
            .iter()
            .flat_map(|&group| (0..count).map(move |idx| (group, idx)))
            .collect();
        plan.par_iter()
            .map(|&(group, idx)| {
                let m = small_matrix(group, idx_base + idx, seed);
                SpmvInput::new(format!("{tag}/{group}/{idx}"), group, m)
            })
            .collect()
    };
    (make("train", 0, 4), make("test", 50, 5))
}

/// The groups of [`spmv_small_sets`].
const SMALL_GROUPS: [&str; 4] = ["banded", "uniform", "power_law", "clustered"];

/// The `idx`-th matrix of a miniature group.
fn small_matrix(group: &str, idx: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed ^ hash(group) ^ idx as u64);
    // Large enough that format choice matters (launch overhead
    // dominates tiny matrices and collapses the labels).
    let n = rng.random_range(2_500..6_000);
    match group {
        "banded" => gen::banded(n, 4, 0.9, rng.random()),
        "uniform" => gen::uniform_rows(n, 8, n, rng.random()),
        "power_law" => gen::power_law(n, 8.0, 1.6, rng.random()),
        _ => gen::clustered(n, 12, 48, rng.random()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_set_has_paper_count() {
        let t = spmv_training_set(42);
        assert_eq!(t.len(), 54);
        // 6 per group.
        let banded = t.iter().filter(|i| i.group == "banded").count();
        assert_eq!(banded, 6);
    }

    #[test]
    fn test_set_has_paper_count() {
        let t = spmv_test_set(42);
        assert_eq!(t.len(), 100);
        let stencil_extra = t.iter().filter(|i| i.group == "stencil_extra").count();
        assert_eq!(stencil_extra, 13);
    }

    #[test]
    fn collections_are_deterministic() {
        let a = spmv_training_set(7);
        let b = spmv_training_set(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.csr, y.csr);
        }
    }

    #[test]
    fn train_and_test_do_not_collide() {
        let train = spmv_training_set(7);
        let test = spmv_test_set(7);
        for tr in &train {
            for te in &test {
                assert_ne!(tr.name, te.name);
            }
        }
        // Same group, different index space → different matrices.
        assert_ne!(train[0].csr, test[0].csr);
    }

    #[test]
    fn every_group_generates_valid_matrices() {
        for group in GROUPS {
            let m = group_matrix(group, 0, 1);
            assert!(m.n_rows > 0);
            assert!(m.nnz() > 0, "group {group} generated an empty matrix");
            // CSR invariant: sorted columns in each row.
            for r in 0..m.n_rows.min(50) {
                let (cols, _) = m.row(r);
                assert!(
                    cols.windows(2).all(|w| w[0] < w[1]),
                    "unsorted row in {group}"
                );
            }
        }
    }

    /// The parallel generators against the serial loops they replaced.
    #[test]
    fn small_sets_equal_serial_generation() {
        let seed = 11;
        let serial = |tag: &str, idx_base: usize, count: usize| {
            let mut v = Vec::new();
            for group in ["banded", "uniform", "power_law", "clustered"] {
                for idx in 0..count {
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ hash(group) ^ (idx_base + idx) as u64);
                    let n = rng.random_range(2_500..6_000);
                    let m = match group {
                        "banded" => gen::banded(n, 4, 0.9, rng.random()),
                        "uniform" => gen::uniform_rows(n, 8, n, rng.random()),
                        "power_law" => gen::power_law(n, 8.0, 1.6, rng.random()),
                        _ => gen::clustered(n, 12, 48, rng.random()),
                    };
                    v.push((format!("{tag}/{group}/{idx}"), group.to_string(), m));
                }
            }
            v
        };
        let (train, test) = spmv_small_sets(seed);
        for (par, ser) in [
            (train, serial("train", 0, 4)),
            (test, serial("test", 50, 5)),
        ] {
            assert_eq!(par.len(), ser.len());
            for (p, (name, group, csr)) in par.iter().zip(&ser) {
                assert_eq!((&p.name, &p.group, &p.csr), (name, group, csr));
            }
        }
    }

    #[test]
    fn small_sets_are_small() {
        let (train, test) = spmv_small_sets(3);
        assert_eq!(train.len(), 16);
        assert_eq!(test.len(), 20);
        assert!(train.iter().all(|i| i.csr.n_rows < 6000));
    }
}
