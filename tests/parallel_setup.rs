//! Parallel set-up changes no bit: profiling a collection across workers
//! (`ProfileTable::build`) yields exactly the table a serial walk over
//! `ProfileTable::profile_one` assembles, for every benchmark suite.

use nitro::core::{CodeVariant, Context};
use nitro::simt::DeviceConfig;
use nitro::tuner::ProfileTable;

/// The table a serial loop over the inputs produces.
fn serial_table<I: Send + Sync>(cv: &CodeVariant<I>, inputs: &[I]) -> ProfileTable {
    let mut table = ProfileTable {
        objective: cv.policy().objective,
        variant_names: cv.variant_names(),
        feature_names: cv.active_feature_names(),
        costs: Vec::new(),
        features: Vec::new(),
        feature_cost_ns: Vec::new(),
        allowed: Vec::new(),
    };
    for input in inputs {
        let (features, fcost, costs, allowed) = ProfileTable::profile_one(cv, input);
        table.features.push(features);
        table.feature_cost_ns.push(fcost);
        table.costs.push(costs);
        table.allowed.push(allowed);
    }
    table
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn assert_parallel_equals_serial<I: Send + Sync>(
    build: fn(&Context, &DeviceConfig) -> CodeVariant<I>,
    sets: (Vec<I>, Vec<I>),
) {
    let cv = build(&Context::new(), &DeviceConfig::fermi_c2050());
    let (train, test) = sets;
    for inputs in [&train, &test] {
        let parallel = ProfileTable::build(&cv, inputs);
        let serial = serial_table(&cv, inputs);
        assert_eq!(parallel.len(), inputs.len());
        assert_eq!(bits(&parallel.costs), bits(&serial.costs), "{}", cv.name());
        assert_eq!(bits(&parallel.features), bits(&serial.features));
        assert_eq!(
            bits(&[parallel.feature_cost_ns]),
            bits(&[serial.feature_cost_ns])
        );
        assert_eq!(parallel.allowed, serial.allowed);
        assert_eq!(
            (&parallel.variant_names, &parallel.feature_names),
            (&serial.variant_names, &serial.feature_names)
        );
    }
}

#[test]
fn parallel_profile_tables_equal_serial_ones() {
    let seed = 0x5E7;
    assert_parallel_equals_serial(
        nitro::sparse::build_code_variant,
        nitro::sparse::collection::spmv_small_sets(seed),
    );
    assert_parallel_equals_serial(
        nitro::solvers::variants::build_code_variant,
        nitro::solvers::collection::solver_small_sets(seed),
    );
    assert_parallel_equals_serial(
        nitro::graph::build_code_variant,
        nitro::graph::collection::bfs_small_sets(seed),
    );
    assert_parallel_equals_serial(
        nitro::histogram::build_code_variant,
        nitro::histogram::data::hist_small_sets(seed),
    );
    assert_parallel_equals_serial(
        nitro::sort::build_code_variant,
        nitro::sort::keys::sort_small_sets(seed),
    );
}
