//! Synthetic linear-system collections (paper §IV: 26 training and 100
//! test systems of symmetric sparse matrices from the UFL collection).
//!
//! Groups are engineered to span the paper's observed behaviours:
//! well-conditioned SPD systems every variant solves, weak-diagonal and
//! nonsymmetric systems that defeat specific (solver, preconditioner)
//! combinations, block-structured systems where Blocked Jacobi shines,
//! and a few systems nothing solves (the paper found 6 such among its
//! 100).

use nitro_core::rayon::prelude::*;
use nitro_sparse::{gen, CooMatrix, CsrMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::variants::SolverInput;

/// Group names for the solver collection.
pub const GROUPS: [&str; 6] = [
    "spd_dominant",
    "spd_marginal",
    "spd_weak",
    "nonsym_dominant",
    "block",
    "hopeless",
];

/// Generate the `idx`-th system of a group.
pub fn group_system(group: &str, idx: usize, seed: u64) -> CsrMatrix {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E37_79B9) ^ hash(group));
    let n = rng.random_range(400..1_500);
    match group {
        // Strongly dominant SPD: everything converges fast; the cheapest
        // preconditioner usually wins on time.
        "spd_dominant" => gen::make_spd(
            &gen::random_uniform(n, rng.random_range(3..8), rng.random()),
            rng.random_range(1.5..3.0),
        ),
        // Marginally dominant SPD: many iterations; stronger
        // preconditioners pay off.
        "spd_marginal" => gen::make_spd(
            &gen::random_uniform(n, rng.random_range(4..10), rng.random()),
            rng.random_range(1.01..1.08),
        ),
        // Weak diagonals: Jacobi-family preconditioners misbehave, but a
        // sturdier combination usually still converges (the paper's "35 of
        // 94 systems had at least one non-converging variant").
        "spd_weak" => gen::weak_diagonal(
            n,
            rng.random_range(3..8),
            rng.random_range(0.08..0.35),
            rng.random(),
        ),
        // Nonsymmetric dominant: CG breaks down, BiCGStab succeeds.
        "nonsym_dominant" => nonsym_dominant(
            n,
            rng.random_range(3..8),
            rng.random_range(1.2..2.0),
            rng.random(),
        ),
        // Block structure: Blocked Jacobi captures the coupling.
        "block" => {
            let b = gen::block_diag(n, 8, rng.random_range(0.5..0.9), rng.random());
            // Weak cross-block coupling keeps it solvable but makes point
            // Jacobi slow.
            let noise = gen::banded(n, 12, 0.15, rng.random());
            let scaled = scale(&noise, 0.08);
            gen::make_spd(&add(&b, &scaled), 1.05)
        }
        // Indefinite, non-dominant, nonsymmetric: nothing converges.
        "hopeless" => hopeless(n, rng.random()),
        other => panic!("unknown solver group '{other}'"),
    }
}

/// Nonsymmetric diagonally dominant matrix.
fn nonsym_dominant(n: usize, k: usize, dominance: f64, seed: u64) -> CsrMatrix {
    let base = gen::random_uniform(n, k, seed);
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        let (cols, vals) = base.row(r);
        let off: f64 = cols
            .iter()
            .zip(vals)
            .filter(|(&c, _)| c as usize != r)
            .map(|(_, v)| v.abs())
            .sum();
        for (&c, &v) in cols.iter().zip(vals) {
            if c as usize != r {
                coo.push(r, c as usize, v);
            }
        }
        coo.push(r, r, off * dominance + 0.5);
    }
    CsrMatrix::from_coo(&coo)
}

/// Indefinite, skew-heavy system designed to defeat all six variants.
fn hopeless(n: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        // Alternating-sign tiny diagonal: indefinite and non-dominant.
        let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
        coo.push(r, r, sign * 0.01);
        for _ in 0..4 {
            let c = rng.random_range(0..n);
            if c != r {
                // Skew component: A[r][c] positive, A[c][r] negative.
                coo.push(r, c, rng.random_range(0.5..1.5));
                coo.push(c, r, -rng.random_range(0.5..1.5));
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn add(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let mut coo = CooMatrix::new(a.n_rows, a.n_cols);
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

fn scale(a: &CsrMatrix, s: f64) -> CsrMatrix {
    let mut out = a.clone();
    for v in out.vals.iter_mut() {
        *v *= s;
    }
    out
}

fn hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Training set: 26 systems (paper count) spread over the solvable groups
/// plus one hopeless example.
pub fn solver_training_set(seed: u64) -> Vec<SolverInput> {
    let plan: [(&str, usize); 6] = [
        ("spd_dominant", 5),
        ("spd_marginal", 5),
        ("spd_weak", 5),
        ("nonsym_dominant", 5),
        ("block", 5),
        ("hopeless", 1),
    ];
    build_set("train", &plan, 0, seed)
}

/// Test set: 100 systems with ~6 hopeless ones (paper: "no variant was
/// able to solve linear systems represented by 6 matrices").
pub fn solver_test_set(seed: u64) -> Vec<SolverInput> {
    let plan: [(&str, usize); 6] = [
        ("spd_dominant", 19),
        ("spd_marginal", 19),
        ("spd_weak", 19),
        ("nonsym_dominant", 19),
        ("block", 18),
        ("hopeless", 6),
    ];
    build_set("test", &plan, 1000, seed)
}

/// A small train/test pair for unit and integration tests.
pub fn solver_small_sets(seed: u64) -> (Vec<SolverInput>, Vec<SolverInput>) {
    let train: [(&str, usize); 4] = [
        ("spd_dominant", 3),
        ("spd_marginal", 3),
        ("nonsym_dominant", 3),
        ("spd_weak", 3),
    ];
    let test: [(&str, usize); 4] = [
        ("spd_dominant", 4),
        ("spd_marginal", 4),
        ("nonsym_dominant", 4),
        ("spd_weak", 4),
    ];
    (
        build_set("train", &train, 0, seed),
        build_set("test", &test, 500, seed),
    )
}

fn build_set(tag: &str, plan: &[(&str, usize)], idx_base: usize, seed: u64) -> Vec<SolverInput> {
    let instances: Vec<(&str, usize)> = plan
        .iter()
        .flat_map(|&(group, count)| (0..count).map(move |idx| (group, idx)))
        .collect();
    instances
        .par_iter()
        .map(|&(group, idx)| {
            let a = group_system(group, idx_base + idx, seed);
            SolverInput::new(format!("{tag}/{group}/{idx}"), group, a)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::{run_variant, VARIANTS};
    use nitro_simt::DeviceConfig;

    #[test]
    fn set_sizes_match_paper() {
        assert_eq!(solver_training_set(1).len(), 26);
        assert_eq!(solver_test_set(1).len(), 100);
    }

    #[test]
    fn sets_are_deterministic() {
        let a = solver_training_set(5);
        let b = solver_training_set(5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.a, y.a);
        }
    }

    /// The parallel generator against the serial loop it replaced.
    #[test]
    fn small_sets_equal_serial_generation() {
        let seed = 13;
        let (train, test) = solver_small_sets(seed);
        let groups = [
            "spd_dominant",
            "spd_marginal",
            "nonsym_dominant",
            "spd_weak",
        ];
        for (par, tag, idx_base, count) in [(train, "train", 0, 3), (test, "test", 500, 4)] {
            let mut serial = Vec::new();
            for group in groups {
                for idx in 0..count {
                    let a = group_system(group, idx_base + idx, seed);
                    serial.push(SolverInput::new(format!("{tag}/{group}/{idx}"), group, a));
                }
            }
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!(
                    (&p.name, &p.group, &p.a, &p.b),
                    (&s.name, &s.group, &s.a, &s.b)
                );
            }
        }
    }

    #[test]
    fn hopeless_systems_defeat_every_variant() {
        let cfg = DeviceConfig::fermi_c2050().noiseless();
        let inp = SolverInput::new("h", "hopeless", group_system("hopeless", 0, 3));
        for (m, p, name) in VARIANTS {
            let (out, _) = run_variant(m, p, &inp, &cfg);
            assert!(
                !out.converged,
                "{name} unexpectedly solved a hopeless system"
            );
        }
    }

    #[test]
    fn dominant_spd_solvable_by_all() {
        let cfg = DeviceConfig::fermi_c2050().noiseless();
        let inp = SolverInput::new("s", "spd", group_system("spd_dominant", 2, 3));
        for (m, p, name) in VARIANTS {
            let (out, _) = run_variant(m, p, &inp, &cfg);
            assert!(out.converged, "{name} failed on dominant SPD");
        }
    }

    #[test]
    fn nonsym_defeats_cg_not_bicgstab() {
        let cfg = DeviceConfig::fermi_c2050().noiseless();
        let inp = SolverInput::new("ns", "nonsym", group_system("nonsym_dominant", 1, 7));
        use crate::variants::{Method, Precond};
        let (cg_out, _) = run_variant(Method::Cg, Precond::Jacobi, &inp, &cfg);
        let (bi_out, _) = run_variant(Method::BiCgStab, Precond::Jacobi, &inp, &cfg);
        assert!(
            bi_out.converged,
            "BiCGStab should handle nonsymmetric dominant"
        );
        assert!(
            !cg_out.converged || cg_out.iterations > bi_out.iterations,
            "CG should struggle on nonsymmetric systems"
        );
    }
}
