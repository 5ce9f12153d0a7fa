//! Property-based tests for the SIMT cost model invariants.

use nitro_simt::block::AtomicSpace;
use nitro_simt::{DeviceConfig, Gpu, KernelTally, Schedule, TexCache, SEGMENT_BYTES, WARP_SIZE};
use proptest::prelude::*;

fn quiet_gpu() -> Gpu {
    Gpu::new(DeviceConfig::fermi_c2050().noiseless())
}

/// Sorted, deduplicated copy of one warp's keys.
fn sorted_distinct(keys: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = keys.collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The warp-level tallies computed the way the simulator once did: by
/// sorting each 32-lane group. The sort-free accounting must match it to
/// the bit, f64 accumulation order included.
fn reference_tally(cfg: &DeviceConfig, addrs: &[u64], hot: f64) -> KernelTally {
    let mut t = KernelTally::default();
    for chunk in addrs.chunks(WARP_SIZE) {
        let tx = sorted_distinct(chunk.iter().map(|a| a / SEGMENT_BYTES)).len() as u64;
        t.transactions += tx;
        t.dram_bytes += (tx * SEGMENT_BYTES) as f64;
        t.memory_cycles += tx as f64 * cfg.cycles_per_transaction;
    }
    let line = cfg.tex_line_bytes as u64;
    let mut tex = TexCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes, cfg.tex_assoc);
    for chunk in addrs.chunks(WARP_SIZE) {
        for l in sorted_distinct(chunk.iter().map(|a| a / line)) {
            if tex.access(l * line) {
                t.tex_hits += 1;
                t.memory_cycles += cfg.tex_hit_cycles;
            } else {
                t.tex_misses += 1;
                t.memory_cycles += cfg.tex_miss_cycles;
                t.dram_bytes += cfg.tex_line_bytes as f64;
            }
        }
    }
    let bank_degree = |chunk: &[u64]| {
        let mut per_bank = [0u32; 32];
        for a in sorted_distinct(chunk.iter().copied()) {
            per_bank[((a / 4) % 32) as usize] += 1;
        }
        per_bank.iter().copied().max().unwrap_or(0).max(1)
    };
    for chunk in addrs.chunks(WARP_SIZE) {
        t.compute_cycles += bank_degree(chunk) as f64 * 2.0;
    }
    for space in [AtomicSpace::Shared, AtomicSpace::Global] {
        let per_op = match space {
            AtomicSpace::Shared => cfg.shared_atomic_cycles,
            AtomicSpace::Global => cfg.global_atomic_cycles,
        };
        for chunk in addrs.chunks(WARP_SIZE) {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable();
            let (mut max_mult, mut run) = (1u64, 1u64);
            for i in 1..sorted.len() {
                run = if sorted[i] == sorted[i - 1] {
                    run + 1
                } else {
                    1
                };
                max_mult = max_mult.max(run);
            }
            let mut serialized = max_mult as f64;
            if space == AtomicSpace::Global {
                serialized += cfg.hot_address_factor * hot.clamp(0.0, 1.0);
                t.dram_bytes += (chunk.len() as u64 * 4) as f64;
            } else {
                serialized = serialized.max(bank_degree(chunk) as f64);
            }
            t.atomic_cycles += serialized * per_op;
        }
    }
    t
}

/// Addresses mixing hot repeats (histogram-bin style), unaligned small
/// offsets, large addresses and lines that all fall in one texture-cache
/// set (more of them than it has ways, so the order of accesses decides
/// the LRU victims), in drawn, ascending or descending order, either all
/// below 8 KiB or spread wide; lengths that are not warp multiples leave
/// a partial last warp.
fn lane_addresses() -> impl Strategy<Value = Vec<u64>> {
    let cfg = DeviceConfig::fermi_c2050();
    let set_stride = (cfg.tex_cache_bytes / cfg.tex_assoc) as u64;
    (
        prop::collection::vec((0u8..5, 0u64..1 << 20, 0u64..u64::MAX / 2), 1..400),
        0u8..3,
        0u8..2,
    )
        .prop_map(move |(draws, order, narrow)| {
            let mut addrs: Vec<u64> = draws
                .into_iter()
                .map(|(kind, small, large)| match kind {
                    0 => (small % 8) * 4,
                    1 => small * 4,
                    2 => small * 13 + 1,
                    3 => (small % 10) * set_stride + (small >> 10) % 32,
                    _ => large,
                })
                .map(|a| if narrow == 1 { a % 8192 } else { a })
                .collect();
            match order {
                1 => addrs.sort_unstable(),
                2 => addrs.sort_unstable_by(|a, b| b.cmp(a)),
                _ => {}
            }
            addrs
        })
}

proptest! {
    /// The sort-free `warp_gather`, `tex_gather`, `warp_shared_access` and
    /// `warp_atomic` tally exactly what the sort-based accounting did.
    #[test]
    fn sort_free_warp_tallies_match_sorting_reference(
        addrs in lane_addresses(),
        hot in 0.0f64..1.0,
    ) {
        let gpu = quiet_gpu();
        let stats = gpu.launch("lanes", 1, Schedule::EvenShare, |_, ctx| {
            ctx.warp_gather(&addrs, 4);
            ctx.tex_gather(&addrs);
            ctx.warp_shared_access(&addrs);
            ctx.warp_atomic(&addrs, AtomicSpace::Shared, hot);
            ctx.warp_atomic(&addrs, AtomicSpace::Global, hot);
        });
        let mut got = stats.tally;
        got.launch_cycles = 0.0;
        prop_assert_eq!(got, reference_tally(gpu.config(), &addrs, hot));
    }

    /// A warp gather costs between 1 and 32 transactions per 32-lane group.
    #[test]
    fn gather_transactions_bounded(addrs in prop::collection::vec(0u64..1_000_000, 1..256)) {
        let gpu = quiet_gpu();
        let n_warps = addrs.len().div_ceil(WARP_SIZE) as u64;
        let stats = gpu.launch("g", 1, Schedule::EvenShare, |_, ctx| {
            ctx.warp_gather(&addrs, 4);
        });
        prop_assert!(stats.tally.transactions >= n_warps);
        prop_assert!(stats.tally.transactions <= n_warps * WARP_SIZE as u64);
    }

    /// Cache hit rate is always within [0, 1], and hits + misses == accesses.
    #[test]
    fn cache_accounting_consistent(addrs in prop::collection::vec(0u64..100_000, 1..2000)) {
        let mut cache = TexCache::new(4096, 32, 4);
        for &a in &addrs {
            cache.access(a);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
        prop_assert!((0.0..=1.0).contains(&cache.hit_rate()));
    }

    /// Sorting addresses makes each distinct segment contiguous, so the
    /// sorted transaction count is at most #distinct-segments plus one
    /// boundary split per extra warp — and every layout costs at least
    /// #distinct-segments. (Sorting CAN be one worse per warp boundary.)
    #[test]
    fn sorted_gather_close_to_optimal(mut addrs in prop::collection::vec(0u64..1_000_000, 32..512)) {
        let gpu = quiet_gpu();
        let n_warps = addrs.len().div_ceil(WARP_SIZE) as u64;
        let mut segs: Vec<u64> = addrs.iter().map(|a| a / 128).collect();
        segs.sort_unstable();
        segs.dedup();
        let distinct = segs.len() as u64;

        let unsorted = gpu.launch("g", 1, Schedule::EvenShare, |_, ctx| {
            ctx.warp_gather(&addrs, 4);
        });
        addrs.sort_unstable();
        let sorted = gpu.launch("g", 1, Schedule::EvenShare, |_, ctx| {
            ctx.warp_gather(&addrs, 4);
        });
        prop_assert!(sorted.tally.transactions < distinct + n_warps);
        prop_assert!(unsorted.tally.transactions >= distinct);
    }

    /// Elapsed time is monotone in added compute work.
    #[test]
    fn elapsed_monotone_in_work(base in 1.0e3f64..1.0e6, extra in 0.0f64..1.0e6) {
        let gpu = quiet_gpu();
        let t1 = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| ctx.charge_cycles(base)).elapsed_ns;
        let t2 = gpu.launch("k", 14, Schedule::EvenShare, |_, ctx| ctx.charge_cycles(base + extra)).elapsed_ns;
        prop_assert!(t2 >= t1);
    }

    /// Dynamic (greedy) scheduling satisfies Graham's bound: busiest SM
    /// load ≤ mean load + one block, regardless of cost distribution.
    #[test]
    fn dynamic_satisfies_graham_bound(
        costs in prop::collection::vec(0.0f64..1.0e6, 1..200)
    ) {
        let gpu = quiet_gpu();
        let cycle_ns = gpu.config().cycle_ns();
        let dispatch = 40.0; // per-block dynamic dispatch cycles
        let dy = gpu.launch("k", costs.len(), Schedule::Dynamic, |b, ctx| ctx.charge_cycles(costs[b]));
        let busy = dy.elapsed_ns - gpu.config().launch_overhead_ns;
        let per_block: Vec<f64> = costs.iter().map(|c| (c + dispatch) * cycle_ns).collect();
        let mean = per_block.iter().sum::<f64>() / gpu.config().num_sms as f64;
        let max_block = per_block.iter().cloned().fold(0.0, f64::max);
        prop_assert!(busy <= mean + max_block + 1e-6,
            "busy {} mean {} max_block {}", busy, mean, max_block);
    }

    /// The bandwidth roofline holds: elapsed >= dram_bytes / bandwidth.
    #[test]
    fn roofline_lower_bound(bytes in 1.0e3f64..1.0e8) {
        let gpu = quiet_gpu();
        let s = gpu.launch("stream", 14, Schedule::EvenShare, |_, ctx| {
            ctx.bulk_mem(bytes / 14.0, 1.0);
        });
        prop_assert!(s.elapsed_ns + 1e-9 >= gpu.config().dram_ns(s.tally.dram_bytes));
    }
}
