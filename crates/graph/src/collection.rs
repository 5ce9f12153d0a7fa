//! Graph collections standing in for the paper's training set (20 graphs)
//! and DIMACS10 test set (148 graphs).

use nitro_core::rayon::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bfs::BfsInput;
use crate::gen;
use crate::graph::CsrGraph;

/// Group names (DIMACS10 regimes).
pub const GROUPS: [&str; 6] = ["grid2d", "grid3d", "road", "rmat", "regular", "small_world"];

/// Sources per instance (the paper runs 100 random traversals; we use a
/// smaller deterministic sample — the TEPS average is stable well before
/// that).
pub const SOURCES_PER_GRAPH: usize = 3;

/// Generate the `idx`-th graph of a group.
pub fn group_graph(group: &str, idx: usize, seed: u64) -> CsrGraph {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9) ^ hash(group));
    match group {
        "grid2d" => {
            let nx = rng.random_range(40..120);
            let ny = rng.random_range(40..120);
            gen::grid_2d(nx, ny)
        }
        "grid3d" => {
            let s = rng.random_range(10..22);
            gen::grid_3d(s, s, s)
        }
        "road" => {
            let nx = rng.random_range(40..100);
            gen::road_like(nx, nx, rng.random_range(10..60), rng.random())
        }
        "rmat" => gen::rmat(
            rng.random_range(11..14),
            rng.random_range(8..32),
            rng.random(),
        ),
        "regular" => gen::random_regular(
            rng.random_range(3_000..12_000),
            rng.random_range(4..40),
            rng.random(),
        ),
        "small_world" => gen::small_world(
            rng.random_range(3_000..10_000),
            rng.random_range(2..6),
            rng.random_range(0.01..0.2),
            rng.random(),
        ),
        other => panic!("unknown graph group '{other}'"),
    }
}

fn hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Training set: 20 graphs (paper count), spread over all groups.
pub fn bfs_training_set(seed: u64) -> Vec<BfsInput> {
    let plan: [(&str, usize); 6] = [
        ("grid2d", 4),
        ("grid3d", 3),
        ("road", 3),
        ("rmat", 4),
        ("regular", 3),
        ("small_world", 3),
    ];
    build("train", &plan, 0, seed)
}

/// Test set: 148 graphs (the paper's DIMACS10 count).
pub fn bfs_test_set(seed: u64) -> Vec<BfsInput> {
    let plan: [(&str, usize); 6] = [
        ("grid2d", 25),
        ("grid3d", 25),
        ("road", 24),
        ("rmat", 25),
        ("regular", 25),
        ("small_world", 24),
    ];
    build("test", &plan, 1000, seed)
}

/// Miniature train/test pair for tests.
pub fn bfs_small_sets(seed: u64) -> (Vec<BfsInput>, Vec<BfsInput>) {
    let train: [(&str, usize); 3] = [("grid2d", 3), ("rmat", 3), ("regular", 2)];
    let test: [(&str, usize); 3] = [("grid2d", 4), ("rmat", 4), ("regular", 3)];
    (
        build_sized("train", &train, 0, seed, true),
        build_sized("test", &test, 500, seed, true),
    )
}

fn build(tag: &str, plan: &[(&str, usize)], idx_base: usize, seed: u64) -> Vec<BfsInput> {
    build_sized(tag, plan, idx_base, seed, false)
}

fn build_sized(
    tag: &str,
    plan: &[(&str, usize)],
    idx_base: usize,
    seed: u64,
    small: bool,
) -> Vec<BfsInput> {
    let instances: Vec<(&str, usize)> = plan
        .iter()
        .flat_map(|&(group, count)| (0..count).map(move |idx| (group, idx)))
        .collect();
    instances
        .par_iter()
        .map(|&(group, idx)| {
            let g = if small {
                small_graph(group, idx_base + idx, seed)
            } else {
                group_graph(group, idx_base + idx, seed)
            };
            BfsInput::new(format!("{tag}/{group}/{idx}"), group, g, SOURCES_PER_GRAPH)
        })
        .collect()
}

fn small_graph(group: &str, idx: usize, seed: u64) -> CsrGraph {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9) ^ hash(group));
    match group {
        "grid2d" => gen::grid_2d(rng.random_range(20..40), rng.random_range(20..40)),
        "rmat" => gen::rmat(
            rng.random_range(8..10),
            rng.random_range(10..28),
            rng.random(),
        ),
        _ => gen::random_regular(
            rng.random_range(400..1200),
            rng.random_range(4..32),
            rng.random(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_sizes_match_paper() {
        assert_eq!(bfs_training_set(1).len(), 20);
        assert_eq!(bfs_test_set(1).len(), 148);
    }

    #[test]
    fn sets_are_deterministic() {
        let a = bfs_training_set(9);
        let b = bfs_training_set(9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph, y.graph);
            assert_eq!(x.sources, y.sources);
        }
    }

    #[test]
    fn every_group_generates_nonempty_graphs() {
        for group in GROUPS {
            let g = group_graph(group, 0, 2);
            assert!(g.n > 0 && g.n_edges() > 0, "group {group}");
        }
    }

    /// The parallel generator against the serial loop it replaced.
    #[test]
    fn small_sets_equal_serial_generation() {
        let seed = 17;
        let (train, test) = bfs_small_sets(seed);
        let train_plan = [("grid2d", 3), ("rmat", 3), ("regular", 2)];
        let test_plan = [("grid2d", 4), ("rmat", 4), ("regular", 3)];
        for (par, tag, plan, idx_base) in [
            (train, "train", train_plan, 0),
            (test, "test", test_plan, 500),
        ] {
            let mut serial = Vec::new();
            for (group, count) in plan {
                for idx in 0..count {
                    let g = small_graph(group, idx_base + idx, seed);
                    let name = format!("{tag}/{group}/{idx}");
                    serial.push(BfsInput::new(name, group, g, SOURCES_PER_GRAPH));
                }
            }
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!((&p.name, &p.group, &p.graph), (&s.name, &s.group, &s.graph));
                assert_eq!((&p.sources, p.gpu_seed), (&s.sources, s.gpu_seed));
            }
        }
    }

    #[test]
    fn small_sets_are_small() {
        let (train, test) = bfs_small_sets(4);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 11);
        assert!(train.iter().all(|i| i.graph.n <= 1600));
    }
}
