//! The three sorting code variants and their simulated costs.
//!
//! * **Radix Sort** (CUB): LSD radix over the bit-flipped IEEE keys —
//!   cost ∝ `passes × key_bytes`, so it is superb on 32-bit keys and
//!   loses ground on 64-bit ones (twice the passes *and* twice the bytes
//!   per pass), exactly the paper's observation.
//! * **Merge Sort** (ModernGPU): tile blocksort plus `log(N/tile)`
//!   oblivious merge passes.
//! * **Locality Sort** (ModernGPU): merge sort that detects already
//!   ordered tile boundaries and merges only the overlapping windows, so
//!   nearly-sorted inputs move almost no data — "for almost sorted
//!   sequences, Locality Sort performs best" (§V-A).
//!
//! All three really sort (tests verify the output); the data movement
//! each one charges to the simulated GPU is measured from the actual
//! execution.

use nitro_core::{CodeVariant, Context, FnFeature, FnVariant, Predicate};
use nitro_simt::{DeviceConfig, Gpu, Schedule};

use crate::keys::{Keys, SortInput};

/// Tile size for blocksort (one thread block's share).
const TILE: usize = 512;

/// Variant names in registration order.
pub const VARIANT_NAMES: [&str; 3] = ["Merge", "Locality", "Radix"];

/// Sorting method selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// ModernGPU-style merge sort.
    Merge,
    /// ModernGPU-style locality sort.
    Locality,
    /// CUB-style LSD radix sort.
    Radix,
}

/// Run one variant; returns the sorted keys and simulated nanoseconds.
pub fn run_variant(method: Method, input: &SortInput, cfg: &DeviceConfig) -> (Keys, f64) {
    let gpu = Gpu::with_seed(cfg.clone(), input.gpu_seed ^ method as u64);
    match (&input.keys, method) {
        (Keys::F32(v), m) => {
            let (sorted, ns) = sort_typed(v, 4, m, &gpu);
            (Keys::F32(sorted), ns)
        }
        (Keys::F64(v), m) => {
            let (sorted, ns) = sort_typed(v, 8, m, &gpu);
            (Keys::F64(sorted), ns)
        }
    }
}

/// Shared typed driver.
fn sort_typed<T>(keys: &[T], key_bytes: u64, method: Method, gpu: &Gpu) -> (Vec<T>, f64)
where
    T: Copy + PartialOrd + RadixKey,
{
    match method {
        Method::Merge => merge_sort(keys, key_bytes, gpu, false),
        Method::Locality => merge_sort(keys, key_bytes, gpu, true),
        Method::Radix => radix_sort(keys, key_bytes, gpu),
    }
}

/// Keys that can be converted to an order-preserving unsigned integer.
pub trait RadixKey {
    /// Order-preserving bit representation.
    fn to_bits_ordered(self) -> u64;
    /// Inverse of [`RadixKey::to_bits_ordered`].
    fn from_bits_ordered(bits: u64) -> Self;
    /// Bits that participate in radix passes.
    fn radix_bits() -> u32;
}

impl RadixKey for f32 {
    fn to_bits_ordered(self) -> u64 {
        let b = self.to_bits();
        let flipped = if b & 0x8000_0000 != 0 {
            !b
        } else {
            b ^ 0x8000_0000
        };
        flipped as u64
    }
    fn from_bits_ordered(bits: u64) -> Self {
        let flipped = bits as u32;
        f32::from_bits(if flipped & 0x8000_0000 != 0 {
            flipped ^ 0x8000_0000
        } else {
            !flipped
        })
    }
    fn radix_bits() -> u32 {
        32
    }
}

impl RadixKey for f64 {
    fn to_bits_ordered(self) -> u64 {
        let b = self.to_bits();
        if b & 0x8000_0000_0000_0000 != 0 {
            !b
        } else {
            b ^ 0x8000_0000_0000_0000
        }
    }
    fn from_bits_ordered(bits: u64) -> Self {
        f64::from_bits(if bits & 0x8000_0000_0000_0000 != 0 {
            bits ^ 0x8000_0000_0000_0000
        } else {
            !bits
        })
    }
    fn radix_bits() -> u32 {
        64
    }
}

/// LSD radix sort with 8-bit digits over the order-preserving bits.
fn radix_sort<T: Copy + RadixKey>(keys: &[T], key_bytes: u64, gpu: &Gpu) -> (Vec<T>, f64) {
    let n = keys.len();
    let passes = (T::radix_bits() / 8) as usize;
    // Functional LSD radix directly on the ordered bits: the mapping is a
    // bijection, so equal bits are equal keys and no index is needed.
    let mut items: Vec<u64> = keys.iter().map(|&k| k.to_bits_ordered()).collect();
    // Every pass's digit histogram in one read.
    let mut counts = vec![[0usize; 256]; passes];
    for &bits in &items {
        for (p, c) in counts.iter_mut().enumerate() {
            c[((bits >> (8 * p)) & 0xFF) as usize] += 1;
        }
    }
    let mut buffer = vec![0u64; n];
    for (p, c) in counts.iter().enumerate() {
        // A digit every key shares leaves a stable pass's order as is.
        if c.contains(&n) {
            continue;
        }
        let shift = 8 * p;
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (d, &count) in c.iter().enumerate() {
            next[d] = sum;
            sum += count;
        }
        for &bits in &items {
            let d = ((bits >> shift) & 0xFF) as usize;
            buffer[next[d]] = bits;
            next[d] += 1;
        }
        std::mem::swap(&mut items, &mut buffer);
    }
    let sorted: Vec<T> = items.into_iter().map(T::from_bits_ordered).collect();

    // Cost: each pass streams the keys in and scatters them out (poorly
    // coalesced), plus digit histogram/scan work.
    let blocks = n.div_ceil(TILE).max(1);
    let stats = gpu.launch("radix_sort", blocks, Schedule::EvenShare, |b, ctx| {
        let s0 = b * TILE;
        let s1 = (s0 + TILE).min(n);
        if s0 >= s1 {
            return;
        }
        let tile = (s1 - s0) as f64;
        for _ in 0..passes {
            // Histogram read + rank read, then a poorly coalesced scatter.
            ctx.bulk_read(tile * key_bytes as f64 * 2.0, 1.0);
            ctx.bulk_write(tile * key_bytes as f64, 0.25);
            ctx.bulk_ops(tile, 1.0);
        }
    });
    (sorted, stats.elapsed_ns)
}

/// Tile blocksort + merge passes. With `locality`, tile-pair boundaries
/// that are already ordered skip their merge, and real merges only charge
/// the overlapping window.
fn merge_sort<T: Copy + PartialOrd>(
    keys: &[T],
    key_bytes: u64,
    gpu: &Gpu,
    locality: bool,
) -> (Vec<T>, f64) {
    let n = keys.len();
    let mut data: Vec<T> = keys.to_vec();

    // --- Blocksort: sort each tile; locality sort skips pre-sorted tiles.
    let mut presorted_tiles = 0usize;
    let n_tiles = n.div_ceil(TILE).max(1);
    for t in 0..n_tiles {
        let s0 = t * TILE;
        let s1 = (s0 + TILE).min(n);
        let tile = &mut data[s0..s1];
        if locality && tile.windows(2).all(|w| w[0] <= w[1]) {
            presorted_tiles += 1;
            continue;
        }
        tile.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    }

    // --- Merge passes, measuring movement. Merges touch only the
    // overlap window (see `merge_window`), which is exact when the keys
    // are totally ordered; a NaN key breaks that, so such inputs merge
    // whole runs instead.
    let nan_free = keys.iter().all(|k| k.partial_cmp(k).is_some());
    let mut width = TILE;
    let mut buffer: Vec<T> = Vec::with_capacity(n);
    let mut moved = 0u64; // elements actually shuffled by merges
    let mut checks = 0u64; // boundary probes
    let mut passes = 0u64;
    while width < n {
        passes += 1;
        let mut s0 = 0;
        while s0 < n {
            let mid = (s0 + width).min(n);
            let s1 = (s0 + 2 * width).min(n);
            if mid < s1 {
                checks += 1;
                let trivially_ordered = data[mid - 1] <= data[mid];
                if !(locality && trivially_ordered) {
                    let (lo, hi) = merge_window(&data, s0, mid, s1);
                    // Locality sort charges the window it moves; merge
                    // sort is oblivious and charges both whole runs.
                    moved += (if locality { hi - lo } else { s1 - s0 }) as u64;
                    let (lo, hi) = if nan_free { (lo, hi) } else { (s0, s1) };
                    merge_runs(&mut data[lo..hi], mid - lo, &mut buffer);
                }
            }
            s0 = s1;
        }
        width *= 2;
    }

    // --- Cost accounting.
    let blocks = n.div_ceil(TILE).max(1);
    let sorted_tiles = n_tiles - presorted_tiles;
    let stats = gpu.launch(
        if locality {
            "locality_sort"
        } else {
            "merge_sort"
        },
        blocks,
        Schedule::EvenShare,
        |b, ctx| {
            // Spread the measured totals evenly over blocks.
            let share = |x: u64| x as f64 / blocks as f64;
            if b == 0 {
                // Per-pass boundary probing (tiny).
                ctx.bulk_ops(checks as f64 * 2.0, 1.0);
            }
            // Blocksort traffic: read + write each non-presorted tile.
            let tile_elems = share(sorted_tiles as u64 * TILE as u64);
            ctx.bulk_read(tile_elems * key_bytes as f64, 1.0);
            ctx.bulk_write(tile_elems * key_bytes as f64, 1.0);
            ctx.bulk_ops(tile_elems * 9.0, 1.0); // ~log2(TILE) compares
                                                 // Merge traffic: read + write every moved element, plus the
                                                 // stream of merge-path probes.
            let merged = share(moved);
            ctx.bulk_read(merged * key_bytes as f64, 0.9);
            ctx.bulk_write(merged * key_bytes as f64, 0.9);
            ctx.bulk_ops(merged * 2.0, 1.0);
            let _ = passes;
        },
    );
    (data, stats.elapsed_ns)
}

/// The overlap window `[s0 + lcut, mid + rcut)` of merging the sorted runs
/// `data[s0..mid]` and `data[mid..s1]`: the `lcut` left keys `<=` the
/// right run's first key already precede every right key, and the right
/// keys from `rcut` on (those not `<` the left run's last key) already
/// follow every left key, so a stable merge leaves both in place.
/// Requires totally ordered keys (no NaN).
fn merge_window<T: Copy + PartialOrd>(
    data: &[T],
    s0: usize,
    mid: usize,
    s1: usize,
) -> (usize, usize) {
    let (right_first, left_last) = (data[mid], data[mid - 1]);
    let lcut = data[s0..mid].partition_point(|v| *v <= right_first);
    let rcut = data[mid..s1].partition_point(|v| *v < left_last);
    (s0 + lcut, mid + rcut)
}

/// Stable in-place merge of the sorted runs `run[..mid]` and `run[mid..]`
/// (ties take the left run first); only the left run is staged in
/// `buffer`, since the write position never passes the right run's read
/// position.
fn merge_runs<T: Copy + PartialOrd>(run: &mut [T], mid: usize, buffer: &mut Vec<T>) {
    buffer.clear();
    buffer.extend_from_slice(&run[..mid]);
    let (mut i, mut j, mut k) = (0, mid, 0);
    while i < buffer.len() && j < run.len() {
        if buffer[i] <= run[j] {
            run[k] = buffer[i];
            i += 1;
        } else {
            run[k] = run[j];
            j += 1;
        }
        k += 1;
    }
    // What is left of the left run fills the tail; what is left of the
    // right run is already in place.
    run[k..k + buffer.len() - i].copy_from_slice(&buffer[i..]);
}

/// Assemble the Sort `code_variant`: 3 variants, 3 features (`N`,
/// `Nbits`, `NAscSeq` — Figure 4). Default: Merge (robust everywhere).
pub fn build_code_variant(ctx: &Context, cfg: &DeviceConfig) -> CodeVariant<SortInput> {
    let mut cv = CodeVariant::new("sort", ctx);
    for (method, name) in [
        (Method::Merge, "Merge"),
        (Method::Locality, "Locality"),
        (Method::Radix, "Radix"),
    ] {
        let cfg = cfg.clone();
        cv.add_variant(FnVariant::new(name, move |inp: &SortInput| {
            run_variant(method, inp, &cfg).1
        }));
    }
    cv.set_default(0);

    cv.add_input_feature(FnFeature::with_cost(
        "N",
        |i: &SortInput| i.keys.len() as f64,
        |_| 8.0,
    ));
    cv.add_input_feature(FnFeature::with_cost(
        "Nbits",
        |i: &SortInput| i.keys.bits() as f64,
        |_| 8.0,
    ));
    cv.add_input_feature(FnFeature::with_cost(
        "NAscSeq",
        |i: &SortInput| i.keys.ascending_runs() as f64,
        |i: &SortInput| 8.0 + i.keys.len() as f64 * 0.8,
    ));

    // Radix is only allowed on 32-bit keys (feature 1 = Nbits): on
    // 64-bit keys it pays twice the passes and twice the bytes per pass
    // and the merge family always wins (§V-A), so this declarative
    // guard never changes a label — it encodes the cost model's own
    // conclusion where the whole-configuration analyses can see it.
    cv.add_predicate_constraint(2, "radix_32bit", Predicate::le(1, 32.0))
        .expect("Radix is registered");
    cv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::generate;

    fn cfg() -> DeviceConfig {
        DeviceConfig::fermi_c2050().noiseless()
    }

    fn assert_sorted(k: &Keys) {
        assert!(k.is_sorted(), "output not sorted");
    }

    #[test]
    fn all_variants_sort_correctly() {
        for wide in [false, true] {
            for category in [
                "uniform",
                "reverse",
                "almost_sorted",
                "normal",
                "exponential",
            ] {
                let inp = generate(category, 5_000, wide, 11, "t");
                for m in [Method::Merge, Method::Locality, Method::Radix] {
                    let (sorted, ns) = run_variant(m, &inp, &cfg());
                    assert_sorted(&sorted);
                    assert_eq!(sorted.len(), 5_000);
                    assert!(ns > 0.0);
                }
            }
        }
    }

    #[test]
    fn radix_handles_negative_and_special_floats() {
        let keys = Keys::F64(vec![3.5, -0.0, -7.25, 0.0, 1e300, -1e300, 42.0]);
        let inp = SortInput::new("neg", "misc", keys);
        let (sorted, _) = run_variant(Method::Radix, &inp, &cfg());
        if let Keys::F64(v) = sorted {
            assert_eq!(v[0], -1e300);
            assert_eq!(*v.last().unwrap(), 1e300);
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
        } else {
            panic!("wrong key type");
        }
    }

    #[test]
    fn radix_wins_on_32bit_random() {
        let inp = generate("uniform", 100_000, false, 5, "u32");
        let (_, radix) = run_variant(Method::Radix, &inp, &cfg());
        let (_, merge) = run_variant(Method::Merge, &inp, &cfg());
        assert!(radix < merge, "radix {radix} vs merge {merge} on 32-bit");
    }

    #[test]
    fn merge_family_wins_on_64bit_random() {
        let inp = generate("uniform", 100_000, true, 5, "u64");
        let (_, radix) = run_variant(Method::Radix, &inp, &cfg());
        let (_, merge) = run_variant(Method::Merge, &inp, &cfg());
        assert!(merge < radix, "merge {merge} vs radix {radix} on 64-bit");
    }

    #[test]
    fn locality_wins_on_almost_sorted() {
        let inp = generate("almost_sorted", 100_000, true, 7, "a");
        let (_, locality) = run_variant(Method::Locality, &inp, &cfg());
        let (_, merge) = run_variant(Method::Merge, &inp, &cfg());
        let (_, radix) = run_variant(Method::Radix, &inp, &cfg());
        assert!(locality < merge, "locality {locality} vs merge {merge}");
        assert!(locality < radix, "locality {locality} vs radix {radix}");
    }

    #[test]
    fn locality_matches_merge_on_random_data() {
        let inp = generate("uniform", 50_000, true, 9, "r");
        let (_, locality) = run_variant(Method::Locality, &inp, &cfg());
        let (_, merge) = run_variant(Method::Merge, &inp, &cfg());
        // Window accounting on random data covers nearly everything.
        assert!(
            (locality / merge) < 1.25,
            "locality {locality} vs merge {merge}"
        );
    }

    /// The full stable merge the windowed one replaced.
    fn full_merge(left: &[f64], right: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(left.len() + right.len());
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            if left[i] <= right[j] {
                out.push(left[i]);
                i += 1;
            } else {
                out.push(right[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&left[i..]);
        out.extend_from_slice(&right[j..]);
        out
    }

    #[test]
    fn windowed_merge_equals_full_merge() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        // Few distinct values (ties, and -0.0 beside 0.0: equal but not
        // bit-identical, so a tie broken the other way shows).
        let values = [-3.0, -0.0, 0.0, 0.5, 1.0, 2.0, 8.0];
        let mut buffer = Vec::new();
        for _ in 0..2000 {
            let run = |rng: &mut StdRng| {
                let len = 1 + rng.random_range(0..40);
                // Overlapping, touching and disjoint value ranges.
                let lo = rng.random_range(0..4);
                let mut v: Vec<f64> = (0..len)
                    .map(|_| values[rng.random_range(lo..lo + 4)])
                    .collect();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v
            };
            let left = run(&mut rng);
            let right = run(&mut rng);
            let (nl, nr) = (left.len(), right.len());
            let expect = full_merge(&left, &right);
            let mut data = [left, right].concat();
            let (lo, hi) = merge_window(&data, 0, nl, nl + nr);
            merge_runs(&mut data[lo..hi], nl - lo, &mut buffer);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&data),
                bits(&expect),
                "left {nl} right {nr} window {lo}..{hi}"
            );
        }
    }

    #[test]
    fn merge_sorts_equal_a_stable_reference_sort() {
        for category in ["uniform", "reverse", "almost_sorted", "normal"] {
            let inp = generate(category, 6_000, true, 3, "w");
            let Keys::F64(keys) = &inp.keys else {
                unreachable!("wide keys are f64")
            };
            let mut expect = keys.clone();
            expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for m in [Method::Merge, Method::Locality, Method::Radix] {
                let (Keys::F64(got), _) = run_variant(m, &inp, &cfg()) else {
                    unreachable!("wide keys sort to f64")
                };
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expect), "{m:?} on {category}");
            }
        }
    }

    /// The merge sorts' functional path as first written: stable tile
    /// sorts, then whole-run merges (locality sort skipping boundaries
    /// that are already ordered).
    fn reference_merge_sort(keys: &[f64], locality: bool) -> Vec<f64> {
        let mut data = keys.to_vec();
        let n = data.len();
        for tile in data.chunks_mut(TILE) {
            tile.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        }
        let mut width = TILE;
        while width < n {
            for s0 in (0..n).step_by(2 * width) {
                let (mid, s1) = ((s0 + width).min(n), (s0 + 2 * width).min(n));
                if mid < s1 && !(locality && data[mid - 1] <= data[mid]) {
                    let merged = full_merge(&data[s0..mid], &data[mid..s1]);
                    data[s0..s1].copy_from_slice(&merged);
                }
            }
            width *= 2;
        }
        data
    }

    #[test]
    fn merge_sorts_equal_the_reference_on_any_keys() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0f10a7);
        for case in 0..12 {
            let n = rng.random_range(1..5_000);
            // Ties, -0.0 beside 0.0 (equal, yet not bit-identical), and in
            // half the cases NaNs, which no total order covers.
            let mut keys: Vec<f64> = (0..n)
                .map(|_| match rng.random_range(0..8) {
                    0 => -0.0,
                    1 => 0.0,
                    2 if case % 2 == 1 => f64::NAN,
                    _ => rng.random_range(-50..50) as f64,
                })
                .collect();
            // Drawn, ascending or descending order.
            if case % 3 != 0 {
                keys.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            }
            if case % 3 == 2 {
                keys.reverse();
            }
            let inp = SortInput::new("any", "misc", Keys::F64(keys.clone()));
            for (m, locality) in [(Method::Merge, false), (Method::Locality, true)] {
                let (Keys::F64(got), _) = run_variant(m, &inp, &cfg()) else {
                    unreachable!("f64 keys sort to f64")
                };
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let expect = reference_merge_sort(&keys, locality);
                assert_eq!(bits(&got), bits(&expect), "{m:?}, case {case}");
            }
        }
    }

    #[test]
    fn code_variant_matches_paper_inventory() {
        let ctx = Context::new();
        let cv = build_code_variant(&ctx, &cfg());
        assert_eq!(cv.n_variants(), 3);
        assert_eq!(cv.feature_names(), vec!["N", "Nbits", "NAscSeq"]);
    }
}
