//! Monte-Carlo transcript-distance estimation for instances beyond exact
//! reach.
//!
//! With `T·w ≤ 64` transcript bits a transcript packs into a `u64`, so
//! the empirical transcript histograms are exact objects and the only
//! error is sampling noise (`≈ sqrt(|support| / samples)` upward bias on
//! TV). Every estimate is a [`DepthProfile`] whose sampled
//! [`Provenance`](crate::exec::Provenance) carries the sample counts its
//! noise floor is read from.
//!
//! # Histogram representation
//!
//! Transcripts are collected as packed `u64` keys and *sorted* — no
//! per-sample hashing. [`wide_prefix_key`]
//! stores turn `t`'s `w`-bit message in bits `[64 − (t+1)·w, 64 − t·w)`
//! — turn-major from the top of the key — so the keys of any prefix
//! length group contiguously under the full-key sort order, and a TV
//! merge at turn depth `t` is a merge at *bit* depth `t·w`: one sort pays
//! for TV merges at every depth, which is what
//! [`crate::exec::AdaptiveEstimator`] exploits for whole depth profiles.
//! The merges themselves are one pass per side pair: consecutive keys'
//! common prefix says which depths' groups close, so every depth's TV
//! and support come out of a single walk over the two sorted arrays,
//! summed in the same order a per-depth merge would sum them. At
//! `w = 1` the key is the transcript's bit reversal (turn `t` at bit
//! `63 − t`), so a bit protocol ([`bcc_congest::FnProtocol`]) samples
//! exactly as the bit model would. The sort itself is [`radix_sort_u64`],
//! an LSD radix sort that skips the constant low bytes this packing
//! produces.
//!
//! Keys are drawn by a fused loop that refills one input buffer, runs the
//! protocol and packs each message into the key as it is produced, so a
//! transcript costs its RNG words and its messages and no allocation.

use bcc_congest::wide::{WideTranscript, WideTurnProtocol};
use bcc_f2::kernel::{self, WordKernel};
use rand::Rng;

use crate::exec::{profile_from_sorted_sides, DepthProfile};

/// Packs a wide transcript with turn `t`'s `w`-bit message at bits
/// `[64 − (t+1)·w, 64 − t·w)` (turn-major from the top), so `t`-turn
/// prefixes group contiguously under the full-key sort order at bit depth
/// `t·w`. At width 1 this is the bit reversal of
/// [`WideTranscript::as_u64`].
#[inline]
pub fn wide_prefix_key(transcript: &WideTranscript) -> u64 {
    let width = transcript.width();
    let mut key = 0u64;
    for t in 0..transcript.len() {
        key |= transcript.message(t) << (64 - (t + 1) * width);
    }
    key
}

/// Fills `out` with `samples` sorted [`wide_prefix_key`]s of `protocol`
/// run on inputs drawn by `fill` — the one key collector of every
/// sampler, including the per-batch chunks of the adaptive estimator.
/// The caller checks the key packing ([`check_key_packing`]).
///
/// The draw is fused: `fill` refills one reused input buffer (the
/// estimators pass [`ProductInput::sample_into`]), the speaker schedule
/// is read once per call, and each message is ORed into the key as it is
/// produced. Every key equals
/// `wide_prefix_key(&run_wide_protocol(protocol, &inputs))`, with the
/// same input and message checks, and nothing is allocated per
/// transcript.
///
/// [`ProductInput::sample_into`]: crate::input::ProductInput::sample_into
pub(crate) fn collect_sorted_wide_keys<P, R, F>(
    protocol: &P,
    mut fill: F,
    samples: usize,
    rng: &mut R,
    out: &mut Vec<u64>,
) where
    P: WideTurnProtocol + ?Sized,
    R: Rng + ?Sized,
    F: FnMut(&mut R, &mut Vec<u64>),
{
    let (n, width) = (protocol.n(), protocol.width());
    let input_bits = protocol.input_bits();
    let limit = 1u64 << input_bits;
    let speakers: Vec<usize> = (0..protocol.horizon())
        .map(|t| protocol.speaker(t))
        .collect();
    let mut inputs = Vec::with_capacity(n);
    out.clear();
    out.reserve(samples);
    for _ in 0..samples {
        fill(rng, &mut inputs);
        assert_eq!(inputs.len(), n, "one input per processor");
        for &x in &inputs {
            assert!(x < limit, "input exceeds {input_bits} bits");
        }
        let mut transcript = WideTranscript::empty(width);
        let mut key = 0u64;
        let mut shift = 64;
        for &s in &speakers {
            let message = protocol.message(s, inputs[s], &transcript);
            transcript.push(message);
            shift -= width;
            key |= message << shift;
        }
        out.push(key);
    }
    radix_sort_u64(out);
}

/// Refuses a horizon whose `horizon × width` transcript bits overflow the
/// 64-bit key packing.
pub(crate) fn check_key_packing(horizon: u32, width: u32) {
    assert!(
        u64::from(horizon) * u64::from(width) <= 64,
        "horizon {horizon} at width {width} exceeds the u64 key packing"
    );
}

/// Merges two sorted key arrays into `out` (cleared first), preserving
/// duplicates — the incremental half of the adaptive estimator: a grown
/// budget merges its freshly sorted batch into the keys already drawn
/// instead of re-sampling and re-sorting from scratch.
pub(crate) fn merge_sorted_u64(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]));
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Merges `k` sorted key arrays into `out` (cleared first) in one pass
/// with a binary heap of cursors, preserving duplicates. For a wide
/// family of `m` member chunks this writes each key **once** —
/// `O(N log m)` comparisons for `N` output keys — where the pairwise
/// fold it replaces re-copied early chunks at every step (`Σ i·Δ ≈ m²Δ/2`
/// merge writes per batch). Delegates to [`merge_sorted_u64`] below
/// three lists.
pub(crate) fn merge_sorted_k_u64(lists: &[&[u64]], out: &mut Vec<u64>) {
    match lists {
        [] => out.clear(),
        [a] => {
            out.clear();
            out.extend_from_slice(a);
        }
        [a, b] => merge_sorted_u64(a, b, out),
        _ => {
            debug_assert!(lists.iter().all(|l| l.windows(2).all(|w| w[0] <= w[1])));
            let total: usize = lists.iter().map(|l| l.len()).sum();
            out.clear();
            out.reserve(total);
            // Min-heap of (next key, list index); the list index
            // tie-break is irrelevant to the output (keys are a
            // multiset) but keeps the heap order total.
            let mut heap = std::collections::BinaryHeap::with_capacity(lists.len());
            let mut cursors = vec![0usize; lists.len()];
            for (li, l) in lists.iter().enumerate() {
                if let Some(&k) = l.first() {
                    heap.push(std::cmp::Reverse((k, li)));
                }
            }
            while let Some(std::cmp::Reverse((k, li))) = heap.pop() {
                out.push(k);
                cursors[li] += 1;
                if let Some(&next) = lists[li].get(cursors[li]) {
                    heap.push(std::cmp::Reverse((next, li)));
                }
            }
        }
    }
}

/// Below this length the comparison sort's cache behaviour beats the
/// counting passes, and the scratch allocation is not worth it.
const RADIX_CUTOFF: usize = 256;

/// Beyond this many varying bytes the counting passes' scattered writes
/// cost more than a comparison sort, so the hybrid falls back. Four
/// bytes (32 transcript bits) is the widest shape it still radix-sorts;
/// the `transcript_sort/*_h32` rows of the `e20_walk_hot_path` benchmark
/// time it against `sort_unstable`.
const RADIX_MAX_VARYING_BYTES: u32 = 4;

/// Sorts packed transcript keys ascending with an LSD radix sort (byte
/// digits, stable counting passes), producing exactly the order
/// `sort_unstable` would.
///
/// The win over a comparison sort comes from the key shape: a prefix key
/// packs turns from the top (see [`wide_prefix_key`]), so a protocol with
/// `T` transcript bits leaves the low `64 − T` bits zero and only
/// `⌈T/8⌉` of the 8 counting passes touch varying bytes. A cheap OR/AND
/// pre-scan finds the bytes that are constant across the whole array,
/// and their passes are skipped outright — a 12-turn workload sorts in
/// two counting passes over the data. Shapes radix handles badly (short
/// arrays, or more than four varying bytes, where scattered writes
/// outweigh the comparison sort) fall back to `sort_unstable`.
pub fn radix_sort_u64(keys: &mut Vec<u64>) {
    let kernel = kernel::active();
    let n = keys.len();
    if n < RADIX_CUTOFF {
        keys.sort_unstable();
        return;
    }
    // A byte is constant across the array iff every key agrees with every
    // other there, i.e. the OR and the AND of all keys coincide on it.
    let (ones, zeros) = kernel.or_and_fold(keys);
    let varying = ones ^ zeros;
    let varying_bytes = (0..8).filter(|p| (varying >> (p * 8)) & 0xFF != 0).count() as u32;
    if varying_bytes > RADIX_MAX_VARYING_BYTES {
        keys.sort_unstable();
        return;
    }
    let mut scratch = vec![0u64; n];
    for pass in 0..8 {
        let shift = pass * 8;
        if (varying >> shift) & 0xFF == 0 {
            continue;
        }
        let mut hist = [0usize; 256];
        kernel.byte_histogram(keys, shift, &mut hist);
        let mut offsets = [0usize; 256];
        let mut running = 0usize;
        for (offset, &count) in offsets.iter_mut().zip(hist.iter()) {
            *offset = running;
            running += count;
        }
        kernel.byte_scatter(keys, shift, &mut offsets, &mut scratch);
        std::mem::swap(keys, &mut scratch);
    }
}

/// The per-depth TV and union support (distinct prefix groups) of two
/// sorted key arrays, read in **one** merge pass: entry `t` of each is
/// taken at prefix depth `t·bits_per_turn`, for `t in 0..=horizon`, with per-sample weights
/// `weight_a` / `weight_b` (normally `1/len`; the mixture side of
/// [`crate::exec::AdaptiveEstimator`] passes `1/(m·len)`).
///
/// Consecutive keys of the merged order share
/// `leading_zeros(prev ^ key) / bits_per_turn` whole turns, so each new
/// key closes the open group of every deeper depth, deepest first, and a
/// closed group's counts fold into its parent depth's open group. Each
/// depth therefore closes its groups in ascending order and adds
/// `|count_a·weight_a − count_b·weight_b|` in the order a per-depth merge
/// would: every sum keeps its bits. At depth 0 every key falls in one
/// group; unused low key bits are zero, so the deepest support is the
/// number of distinct full keys in the union.
pub(crate) fn sorted_depth_profile(
    a: &[u64],
    b: &[u64],
    weight_a: f64,
    weight_b: f64,
    horizon: u32,
    bits_per_turn: u32,
) -> (Vec<f64>, Vec<usize>) {
    let depths = horizon as usize + 1;
    let mut acc = DepthAccumulator {
        weight_a,
        weight_b,
        tv: vec![0.0; depths],
        support: vec![0; depths],
        open_a: vec![0; depths],
        open_b: vec![0; depths],
    };
    // Depth 0 is one group holding all mass on both sides, written out
    // so that an empty side at infinite weight reads as it always has.
    let total = a.len() + b.len();
    acc.tv[0] = (a.len() as f64 * weight_a - b.len() as f64 * weight_b).abs();
    acc.support[0] = usize::from(total > 0);
    if horizon > 0 && total > 0 {
        // Whole turns (capped at the horizon) shared by two keys whose
        // XOR has `z` leading zeros.
        let shared: [usize; 65] =
            std::array::from_fn(|z| (z as u32 / bits_per_turn).min(horizon) as usize);
        let deepest = horizon as usize;
        let (mut i, mut j) = (0usize, 0usize);
        let mut prev = a
            .first()
            .into_iter()
            .chain(b.first())
            .copied()
            .min()
            .expect("total > 0");
        loop {
            let (key, from_a) = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x <= y => (x, true),
                (_, Some(&y)) => (y, false),
                (Some(&x), None) => (x, true),
                (None, None) => break,
            };
            acc.close_deeper_than(shared[(prev ^ key).leading_zeros() as usize]);
            prev = key;
            if from_a {
                acc.open_a[deepest] += 1;
                i += 1;
            } else {
                acc.open_b[deepest] += 1;
                j += 1;
            }
        }
        acc.close_deeper_than(0);
    }
    for tv in &mut acc.tv {
        *tv /= 2.0;
    }
    (acc.tv, acc.support)
}

/// The running state of [`sorted_depth_profile`]: per depth, the TV sum
/// and count of the closed groups, and the counts of the open one.
struct DepthAccumulator {
    weight_a: f64,
    weight_b: f64,
    tv: Vec<f64>,
    support: Vec<usize>,
    open_a: Vec<usize>,
    open_b: Vec<usize>,
}

impl DepthAccumulator {
    /// Closes the open groups at every depth below `depth`, deepest
    /// first, folding each one's counts into its parent depth (depth 0's
    /// slot only collects the fold: its one group is read off the array
    /// lengths).
    #[inline]
    fn close_deeper_than(&mut self, depth: usize) {
        for d in (depth + 1..self.open_a.len()).rev() {
            let (count_a, count_b) = (self.open_a[d], self.open_b[d]);
            self.tv[d] += (count_a as f64 * self.weight_a - count_b as f64 * self.weight_b).abs();
            self.support[d] += 1;
            self.open_a[d - 1] += count_a;
            self.open_b[d - 1] += count_b;
            self.open_a[d] = 0;
            self.open_b[d] = 0;
        }
    }
}

/// Estimates `‖P(Π, A) − P(Π, B)‖` by running the protocol `samples`
/// times per side on inputs drawn from arbitrary joint samplers — the
/// tool for distributions with *dependent* rows, where no product
/// decomposition exists (e.g. the undirected planted clique of the
/// paper's §9 discussion). Each sampler refills the one input buffer it
/// is handed, reused across the side's transcripts; product inputs pass
/// `|r, v| a.sample_into(r, v)`.
///
/// Side `a` draws all its samples from `rng` first, then side `b`. The
/// result is a sampled [`DepthProfile`] with `a` as its single member and
/// `b` as the baseline: [`DepthProfile::tv`] is the full-transcript
/// distance and [`DepthProfile::noise_floor`] the plug-in floor
/// `min(1, sqrt(support / samples))`.
///
/// # Panics
///
/// Panics if `samples == 0` or if the protocol's `horizon × width`
/// exceeds the 64-bit key packing.
pub fn sampled_comparison_with<P, R, FA, FB>(
    protocol: &P,
    sample_a: FA,
    sample_b: FB,
    samples: usize,
    rng: &mut R,
) -> DepthProfile
where
    P: WideTurnProtocol + ?Sized,
    R: Rng + ?Sized,
    FA: FnMut(&mut R, &mut Vec<u64>),
    FB: FnMut(&mut R, &mut Vec<u64>),
{
    assert!(samples > 0, "need at least one sample");
    let (width, horizon) = (protocol.width(), protocol.horizon());
    check_key_packing(horizon, width);
    let (mut side_a, mut side_b) = (Vec::new(), Vec::new());
    collect_sorted_wide_keys(protocol, sample_a, samples, rng, &mut side_a);
    collect_sorted_wide_keys(protocol, sample_b, samples, rng, &mut side_b);
    profile_from_sorted_sides(horizon, width, samples, &side_b, &[&side_a], &side_a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Estimator, ExactEstimator, Provenance};
    use crate::input::{ProductInput, RowSupport};
    use bcc_congest::wide::FnWideProtocol;
    use bcc_congest::FnProtocol;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // The per-depth oracles of `sorted_depth_profile`: one merge per
    // depth.

    /// Empirical TV between two sorted key arrays at prefix depth `depth`,
    /// with per-sample weights `weight_a` / `weight_b` (normally `1/len`; the
    /// mixture side of [`crate::exec::AdaptiveEstimator`] passes `1/(m·len)`).
    fn sorted_tv_at_depth(a: &[u64], b: &[u64], weight_a: f64, weight_b: f64, depth: u32) -> f64 {
        if depth == 0 {
            // A single group holding all mass on both sides.
            return (a.len() as f64 * weight_a - b.len() as f64 * weight_b).abs() / 2.0;
        }
        let shift = 64 - depth;
        let group = |key: u64| key >> shift;
        let mut total = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            let ga = a.get(i).map(|&k| group(k));
            let gb = b.get(j).map(|&k| group(k));
            let g = match (ga, gb) {
                (Some(x), Some(y)) => x.min(y),
                (Some(x), None) => x,
                (None, Some(y)) => y,
                (None, None) => unreachable!("loop condition"),
            };
            let mut count_a = 0usize;
            while i < a.len() && group(a[i]) == g {
                count_a += 1;
                i += 1;
            }
            let mut count_b = 0usize;
            while j < b.len() && group(b[j]) == g {
                count_b += 1;
                j += 1;
            }
            total += (count_a as f64 * weight_a - count_b as f64 * weight_b).abs();
        }
        total / 2.0
    }

    /// Walks the two sorted arrays once per prefix depth `t·bits_per_turn`
    /// for `t in 0..=horizon`, counting the union support that drives the
    /// depth-resolved noise floors. At depth 0 every key falls in one
    /// group; unused low key bits are zero, so the deepest entry is the
    /// number of distinct full keys in the union.
    fn sorted_depth_stats(a: &[u64], b: &[u64], horizon: u32, bits_per_turn: u32) -> Vec<usize> {
        let mut support_by_depth = Vec::with_capacity(horizon as usize + 1);
        for t in 0..=horizon {
            let bits = t * bits_per_turn;
            if bits == 0 {
                support_by_depth.push(usize::from(!a.is_empty() || !b.is_empty()));
                continue;
            }
            let shift = 64 - bits;
            let group = |key: u64| key >> shift;
            let mut support = 0usize;
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.len() || j < b.len() {
                let g = match (a.get(i).map(|&k| group(k)), b.get(j).map(|&k| group(k))) {
                    (Some(x), Some(y)) => x.min(y),
                    (Some(x), None) => x,
                    (None, Some(y)) => y,
                    (None, None) => unreachable!("loop condition"),
                };
                while i < a.len() && group(a[i]) == g {
                    i += 1;
                }
                while j < b.len() && group(b[j]) == g {
                    j += 1;
                }
                support += 1;
            }
            support_by_depth.push(support);
        }
        support_by_depth
    }

    /// Runs [`sampled_comparison_with`] on two product inputs.
    fn sampled_pair<P: WideTurnProtocol + ?Sized>(
        protocol: &P,
        a: &ProductInput,
        b: &ProductInput,
        samples: usize,
        seed: u64,
    ) -> DepthProfile {
        let mut rng = StdRng::seed_from_u64(seed);
        sampled_comparison_with(
            protocol,
            |r, v| a.sample_into(r, v),
            |r, v| b.sample_into(r, v),
            samples,
            &mut rng,
        )
    }

    fn support_seen(profile: &DepthProfile) -> usize {
        match &profile.provenance {
            Provenance::Sampled {
                support_by_depth, ..
            } => support_by_depth[profile.horizon as usize],
            Provenance::Exact => panic!("sampled run"),
        }
    }

    /// The number of distinct keys in `a ∪ b`, counted the obvious way.
    fn naive_union_support(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .chain(b)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }

    #[test]
    fn sampled_matches_exact_on_small_instance() {
        let p = FnProtocol::new(2, 3, 4, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
        let a = ProductInput::uniform(2, 3);
        let b = ProductInput::new(vec![
            RowSupport::explicit(3, vec![1, 3, 5, 7]),
            RowSupport::uniform(3),
        ]);
        let exact = ExactEstimator
            .estimate(&p, std::slice::from_ref(&a), &b)
            .tv();
        let sampled = sampled_pair(&p, &a, &b, 40_000, 1);
        assert!(
            (sampled.tv() - exact).abs() < 0.02,
            "sampled {} vs exact {exact}",
            sampled.tv()
        );
    }

    #[test]
    fn identical_inputs_fall_below_noise_floor() {
        let p = FnProtocol::new(2, 2, 4, |_, input, tr| (input >> (tr.len() % 2)) & 1 == 1);
        let a = ProductInput::uniform(2, 2);
        let s = sampled_pair(&p, &a, &a, 20_000, 2);
        assert!(
            s.tv() <= s.noise_floor(),
            "tv {} floor {}",
            s.tv(),
            s.noise_floor()
        );
    }

    #[test]
    fn depth_stats_count_union_support() {
        // 2-bit turns, horizon 2. Keys place turn t's message at bits
        // [64-2(t+1), 64-2t): build them by hand.
        let key = |t0: u64, t1: u64| (t0 << 62) | (t1 << 60);
        // a: two copies of (0,1), one (2,3); b: one (0,1), one (2,0).
        let mut a = vec![key(0, 1), key(0, 1), key(2, 3)];
        let mut b = vec![key(0, 1), key(2, 0)];
        a.sort_unstable();
        b.sort_unstable();
        let support = sorted_depth_stats(&a, &b, 2, 2);
        assert_eq!(sorted_depth_profile(&a, &b, 1.0, 1.0, 2, 2).1, support);
        // Depth 0: one group, everything in it. Depth 1: groups 0 and 2.
        // Depth 2: (0,1), (2,0) and (2,3).
        assert_eq!(support, vec![1, 2, 3]);
        // The deepest support equals the full-key union.
        assert_eq!(support[2], naive_union_support(&a, &b));
    }

    #[test]
    fn depth_stats_handle_empty_and_single_key_inputs() {
        let empty = sorted_depth_stats(&[], &[], 3, 1);
        assert_eq!(sorted_depth_profile(&[], &[], 1.0, 1.0, 3, 1).1, empty);
        assert_eq!(empty, vec![0, 0, 0, 0]);
        let lone = sorted_depth_stats(&[1u64 << 63], &[], 1, 1);
        assert_eq!(
            sorted_depth_profile(&[1u64 << 63], &[], 1.0, 1.0, 1, 1).1,
            lone
        );
        assert_eq!(lone, vec![1, 1]);
    }

    #[test]
    fn noise_floor_of_zero_samples_is_infinite() {
        // The profile builder every sampler shares, fed no samples (the
        // samplers themselves reject samples == 0): the floor must be
        // +inf, not NaN.
        let s = profile_from_sorted_sides(3, 1, 0, &[], &[&[]], &[]);
        assert_eq!(s.noise_floor(), f64::INFINITY);
        assert!(!s.noise_floor().is_nan());
    }

    #[test]
    fn noise_floor_is_clamped_to_the_tv_bound_on_all_distinct_draws() {
        // Every draw distinct on both sides: the union support is
        // 2·samples, so the raw scale sqrt(2) would overstate the TV
        // bound.
        let p = FnProtocol::new(1, 16, 16, |_, input, tr| (input >> tr.len()) & 1 == 1);
        let a = ProductInput::uniform(1, 16);
        let s = sampled_pair(&p, &a, &a, 8, 5);
        assert_eq!(support_seen(&s), 16, "draws collided; pick another seed");
        assert_eq!(s.noise_floor(), 1.0);
    }

    #[test]
    fn sorted_tv_handles_disjoint_and_identical_histograms() {
        let a = vec![0b00u64.reverse_bits(), 0b01u64.reverse_bits()];
        let b = vec![0b10u64.reverse_bits(), 0b11u64.reverse_bits()];
        let mut a = a;
        let mut b = b;
        a.sort_unstable();
        b.sort_unstable();
        let w = 0.5;
        // Depth 2 separates them fully; depth 0 sees equal total mass.
        assert!((sorted_tv_at_depth(&a, &b, w, w, 2) - 1.0).abs() < 1e-12);
        assert!(sorted_tv_at_depth(&a, &b, w, w, 0).abs() < 1e-12);
        assert!(sorted_tv_at_depth(&a, &a, w, w, 2).abs() < 1e-12);
        // The one pass reads the same distances at every depth.
        let (tv, _) = sorted_depth_profile(&a, &b, w, w, 2, 1);
        assert_eq!(tv, vec![0.0, 0.0, 1.0]);
        assert_eq!(sorted_depth_profile(&a, &a, w, w, 2, 1).0, vec![0.0; 3]);
        // The deepest support (the last entry of `support_by_depth`) is
        // the full-key union.
        let deepest =
            |x: &[u64], y: &[u64]| *sorted_depth_profile(x, y, w, w, 2, 1).1.last().unwrap();
        assert_eq!(deepest(&a, &b), naive_union_support(&a, &b));
        assert_eq!(deepest(&a, &a), naive_union_support(&a, &a));
    }

    #[test]
    fn merge_sorted_matches_concat_and_sort() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(la, lb) in &[(0usize, 0usize), (0, 5), (7, 0), (100, 300), (512, 512)] {
            let mut a: Vec<u64> = (0..la).map(|_| rng.gen::<u64>() % 50).collect();
            let mut b: Vec<u64> = (0..lb).map(|_| rng.gen::<u64>() % 50).collect();
            a.sort_unstable();
            b.sort_unstable();
            let mut expected = [a.clone(), b.clone()].concat();
            expected.sort_unstable();
            let mut out = Vec::new();
            merge_sorted_u64(&a, &b, &mut out);
            assert_eq!(out, expected, "lens {la}/{lb}");
        }
    }

    #[test]
    fn merge_sorted_k_matches_concat_and_sort() {
        let mut rng = StdRng::seed_from_u64(29);
        for lens in &[
            vec![],
            vec![0usize],
            vec![5],
            vec![3, 0, 7],
            vec![100, 1, 50, 0, 9],
            vec![64; 8],
        ] {
            let lists: Vec<Vec<u64>> = lens
                .iter()
                .map(|&l| {
                    let mut v: Vec<u64> = (0..l).map(|_| rng.gen::<u64>() % 40).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let refs: Vec<&[u64]> = lists.iter().map(|l| l.as_slice()).collect();
            let mut expected: Vec<u64> = lists.concat();
            expected.sort_unstable();
            let mut out = vec![0xDEAD_BEEFu64]; // stale content must be cleared
            merge_sorted_k_u64(&refs, &mut out);
            assert_eq!(out, expected, "lens {lens:?}");
        }
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        let mut rng = StdRng::seed_from_u64(11);
        // Below and above the cutoff; uniform keys and prefix-key-shaped
        // keys (only the top bytes vary), plus heavy duplication.
        for &len in &[0usize, 1, 100, 300, 5_000] {
            for shape in 0..4u32 {
                let mut keys: Vec<u64> = (0..len)
                    .map(|_| match shape {
                        0 => rng.gen::<u64>(), // 8 varying bytes: fallback path
                        1 => (rng.gen::<u64>() & 0xFFF).reverse_bits(), // 2 bytes, reversed
                        2 => rng.gen::<u64>() & 0xFF_FFFF, // 3 low bytes: 3 passes
                        _ => rng.gen::<u64>() % 7, // heavy duplication, 1 pass
                    })
                    .collect();
                let mut expected = keys.clone();
                expected.sort_unstable();
                radix_sort_u64(&mut keys);
                assert_eq!(keys, expected, "len {len} shape {shape}");
            }
        }
    }

    #[test]
    fn wide_prefix_key_is_turn_major_from_the_top() {
        let mut t = WideTranscript::empty(3);
        t.push(0b101);
        t.push(0b010);
        let key = wide_prefix_key(&t);
        assert_eq!(key >> 61, 0b101, "turn 0 in the top 3 bits");
        assert_eq!((key >> 58) & 0b111, 0b010, "turn 1 in the next 3");
        assert_eq!(key & ((1 << 58) - 1), 0, "unused bits zero");
    }

    #[test]
    fn width_one_wide_key_is_the_bit_reversed_packing() {
        // The packings must coincide at w = 1 — the invariant behind the
        // bit-for-bit width-1 differential test.
        for bits in [0b0u64, 0b1, 0b1011, 0b110101] {
            let len = 6;
            let mut t = WideTranscript::empty(1);
            for i in 0..len {
                t.push((bits >> i) & 1);
            }
            assert_eq!(
                wide_prefix_key(&t),
                t.as_u64().reverse_bits(),
                "bits {bits:b}"
            );
        }
    }

    #[test]
    fn sampled_wide_matches_exact_on_small_instance() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 4, |_, input, tr| (input >> (tr.len() % 2)) & 0b11);
        let a = ProductInput::uniform(2, 3);
        let b = ProductInput::new(vec![
            RowSupport::explicit(3, vec![1, 3, 5, 7]),
            RowSupport::uniform(3),
        ]);
        let exact = ExactEstimator
            .estimate(&p, std::slice::from_ref(&a), &b)
            .tv();
        let sampled = sampled_pair(&p, &a, &b, 40_000, 17);
        assert!(
            (sampled.tv() - exact).abs() < sampled.noise_floor() + 0.02,
            "sampled {} vs exact {exact} (floor {})",
            sampled.tv(),
            sampled.noise_floor()
        );
    }

    #[test]
    fn sampled_wide_identical_inputs_fall_below_noise_floor() {
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 2, 3, 4, |_, input, tr| (input >> (tr.len() % 2)) & 0b111);
        let a = ProductInput::uniform(2, 2);
        let s = sampled_pair(&p, &a, &a, 20_000, 23);
        assert!(
            s.tv() <= s.noise_floor(),
            "tv {} floor {}",
            s.tv(),
            s.noise_floor()
        );
    }

    #[test]
    fn pair_profile_has_side_a_as_its_single_member() {
        // With one member the mixture is that member, so the progress
        // function and the mixture distance coincide bit for bit.
        let p = FnProtocol::new(2, 3, 6, |_, input, tr| (input >> (tr.len() / 2)) & 1 == 1);
        let a = ProductInput::uniform(2, 3);
        let b = ProductInput::new(vec![
            RowSupport::explicit(3, vec![0, 1, 2]),
            RowSupport::uniform(3),
        ]);
        let s = sampled_pair(&p, &a, &b, 2_000, 9);
        assert!(!s.is_exact());
        assert_eq!(s.horizon, 6);
        assert!(s.speaker_stats.is_empty());
        assert_eq!(s.per_member_tv, vec![s.tv()]);
        assert_eq!(s.progress_by_depth, s.mixture_tv_by_depth);
    }

    #[test]
    fn sampled_pair_bits_are_pinned_on_a_width_two_protocol() {
        // Golden: the exact bits of one seeded width-2 pair comparison —
        // TV, noise floor and observed support.
        use bcc_congest::wide::FnWideProtocol;
        let p = FnWideProtocol::new(2, 3, 2, 5, |proc, input, tr| {
            ((input >> (tr.len() % 2)) & 0b11) ^ (proc as u64 & tr.as_u64() & 1)
        });
        let a = ProductInput::uniform(2, 3);
        let b = ProductInput::new(vec![
            RowSupport::explicit(3, vec![1, 2, 5]),
            RowSupport::uniform(3),
        ]);
        let mut rng = StdRng::seed_from_u64(0x601D);
        let s = sampled_comparison_with(
            &p,
            |r, v| a.sample_into(r, v),
            |r, v| b.sample_into(r, v),
            3_000,
            &mut rng,
        );
        assert_eq!(s.tv().to_bits(), 4602660804774137428);
        assert_eq!(s.noise_floor().to_bits(), 4589926763289047981);
        assert_eq!(support_seen(&s), 16);
    }

    #[test]
    #[should_panic(expected = "exceeds the u64 key packing")]
    fn sampled_wide_rejects_overflowing_packings() {
        use bcc_congest::wide::WideTurnProtocol;
        // A hand-rolled protocol lying past the packed capacity must hit
        // the estimator's own guard, not a shift overflow mid-run.
        struct Overflowing;
        impl WideTurnProtocol for Overflowing {
            fn n(&self) -> usize {
                1
            }
            fn input_bits(&self) -> u32 {
                1
            }
            fn width(&self) -> u32 {
                16
            }
            fn horizon(&self) -> u32 {
                5
            }
            fn message(&self, _: usize, input: u64, _: &WideTranscript) -> u64 {
                input
            }
        }
        let a = ProductInput::uniform(1, 1);
        let _ = sampled_pair(&Overflowing, &a, &a, 10, 1);
    }

    #[test]
    #[should_panic(expected = "wide transcript full")]
    fn twenty_second_push_at_width_three_overflows() {
        // ⌊64/3⌋ = 21 messages fit; the boundary check has no division.
        let mut t = WideTranscript::empty(3);
        for _ in 0..21 {
            t.push(0b111);
        }
        assert_eq!(t.len(), 21);
        t.push(0);
    }

    /// `len` sorted keys for a `horizon`-turn, `width`-bit packing, heavy
    /// in duplicates and in prefixes shared at every depth: each key is
    /// one of a few bases with one of a few tweaks below a random turn.
    /// Masked keys zero the bits below the packing, as drawn keys do.
    fn prefix_keys(
        rng: &mut StdRng,
        len: usize,
        width: u32,
        horizon: u32,
        masked: bool,
    ) -> Vec<u64> {
        let bases: [u64; 3] = [rng.gen(), rng.gen(), rng.gen()];
        let tweaks: [u64; 3] = [rng.gen(), rng.gen(), u64::MAX];
        let used = horizon * width;
        let top = u64::MAX.checked_shl(64 - used).unwrap_or(0);
        let mut keys: Vec<u64> = (0..len)
            .map(|_| {
                let kept = rng.gen_range(0..=horizon) * width;
                let tweak = tweaks[rng.gen_range(0..3usize)]
                    .checked_shr(kept)
                    .unwrap_or(0);
                let key = bases[rng.gen_range(0..3usize)] ^ tweak;
                if masked {
                    key & top
                } else {
                    key
                }
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// A mixing hash of a speaker's view (its input and the transcript's
    /// length and packed bits), for random protocols' messages.
    fn mix(salt: u64, proc: usize, input: u64, len: u32, bits: u64) -> u64 {
        let mut h = salt
            ^ (proc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ input.rotate_left(17)
            ^ bits.rotate_left(31)
            ^ u64::from(len).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 31;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 29)
    }

    /// One random explicit support per processor, of random size (powers
    /// of two and not).
    fn random_input(rng: &mut StdRng, n: usize, bits: u32) -> ProductInput {
        ProductInput::new(
            (0..n)
                .map(|_| {
                    let space = 1usize << bits;
                    let size = rng.gen_range(1..=space);
                    let points = rand::seq::index::sample(rng, space, size)
                        .iter()
                        .map(|p| p as u64)
                        .collect();
                    RowSupport::explicit(bits, points)
                })
                .collect(),
        )
    }

    /// The fused draw's sorted keys, and the oracle's: each input drawn by
    /// `ProductInput::sample`, run by `run_wide_protocol` and packed by
    /// `wide_prefix_key`. Both RNGs must also end in the same state.
    fn fused_and_oracle_keys<P: WideTurnProtocol + ?Sized>(
        protocol: &P,
        input: &ProductInput,
        samples: usize,
        seed: u64,
    ) -> (Vec<u64>, Vec<u64>, bool) {
        use bcc_congest::wide::run_wide_protocol;
        let mut fused_rng = StdRng::seed_from_u64(seed);
        let mut fused = vec![u64::MAX]; // stale content must be cleared
        collect_sorted_wide_keys(
            protocol,
            |r, inputs| input.sample_into(r, inputs),
            samples,
            &mut fused_rng,
            &mut fused,
        );
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        let mut oracle: Vec<u64> = (0..samples)
            .map(|_| wide_prefix_key(&run_wide_protocol(protocol, &input.sample(&mut oracle_rng))))
            .collect();
        oracle.sort_unstable();
        let same_stream = fused_rng.gen::<u64>() == oracle_rng.gen::<u64>();
        (fused, oracle, same_stream)
    }

    /// A bit protocol with a non-round-robin speaker schedule.
    struct Scrambled {
        n: usize,
        bits: u32,
        horizon: u32,
        salt: u64,
    }

    impl WideTurnProtocol for Scrambled {
        fn n(&self) -> usize {
            self.n
        }
        fn input_bits(&self) -> u32 {
            self.bits
        }
        fn width(&self) -> u32 {
            1
        }
        fn horizon(&self) -> u32 {
            self.horizon
        }
        fn speaker(&self, t: u32) -> usize {
            (t as usize * t as usize + 3 * (t as usize / 2)) % self.n
        }
        fn message(&self, proc: usize, input: u64, tr: &WideTranscript) -> u64 {
            mix(self.salt, proc, input, tr.len(), tr.as_u64()) & 1
        }
    }

    mod props {
        use super::*;
        use bcc_congest::wide::run_wide_protocol;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn one_pass_depth_profile_is_bitwise_the_per_depth_oracle(
                width in prop_oneof![Just(1u32), Just(2), Just(3), Just(7), Just(16)],
                horizon in 0u32..=64,
                len_a in 0usize..48,
                len_b in 0usize..48,
                members in 1usize..5,
                seed in any::<u64>(),
            ) {
                let horizon = horizon.min(64 / width);
                let mut rng = StdRng::seed_from_u64(seed);
                let masked = seed & 1 == 0;
                let a = prefix_keys(&mut rng, len_a, width, horizon, masked);
                let b = prefix_keys(&mut rng, len_b, width, horizon, masked);
                let weight_a = 1.0 / (members * len_a.max(1)) as f64;
                let weight_b = 1.0 / len_b.max(1) as f64;
                let (tv, support) = sorted_depth_profile(&a, &b, weight_a, weight_b, horizon, width);
                prop_assert_eq!(tv.len(), horizon as usize + 1);
                for (t, &got) in tv.iter().enumerate() {
                    let want = sorted_tv_at_depth(&a, &b, weight_a, weight_b, t as u32 * width);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "tv at depth {}", t);
                }
                prop_assert_eq!(&support, &sorted_depth_stats(&a, &b, horizon, width));
                if masked {
                    prop_assert_eq!(
                        support[horizon as usize],
                        naive_union_support(&a, &b)
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn fused_draw_keys_are_the_run_and_pack_oracle(
                n in 1usize..5,
                bits in 1u32..7,
                width in prop_oneof![Just(1u32), Just(2), Just(3), Just(5), Just(16)],
                horizon in 0u32..=24,
                samples in 0usize..40,
                seed in any::<u64>(),
            ) {
                let horizon = horizon.min(64 / width);
                let mut rng = StdRng::seed_from_u64(seed);
                let input = random_input(&mut rng, n, bits);
                let mask = (1u64 << width) - 1;
                let p = FnWideProtocol::new(n, bits, width, horizon, |proc, x, tr| {
                    mix(seed, proc, x, tr.len(), tr.as_u64()) & mask
                });
                let (fused, oracle, same_stream) =
                    fused_and_oracle_keys(&p, &input, samples, seed ^ 1);
                prop_assert_eq!(fused, oracle);
                prop_assert!(same_stream, "the draws consumed different RNG output");
            }

            #[test]
            fn fused_draw_keys_match_on_a_scrambled_width_one_view(
                n in 1usize..6,
                bits in 1u32..7,
                horizon in 0u32..=64,
                samples in 0usize..40,
                seed in any::<u64>(),
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let input = random_input(&mut rng, n, bits);
                let p = Scrambled { n, bits, horizon, salt: seed };
                let (fused, oracle, same_stream) =
                    fused_and_oracle_keys(&p, &input, samples, seed ^ 1);
                prop_assert_eq!(fused, oracle);
                prop_assert!(same_stream, "the draws consumed different RNG output");
            }

            #[test]
            fn width_one_prefix_key_is_the_bit_reversed_run(
                n in 1usize..5,
                bits in 1u32..8,
                horizon in 0u32..=64,
                seed in any::<u64>(),
                raw in proptest::collection::vec(any::<u64>(), 4),
            ) {
                // A random bit protocol: each turn's bit hashes everything
                // the speaker may look at. Its samplers' key is the bit
                // reversal of the run's packing (turn t at bit t).
                let p = FnProtocol::new(n, bits, horizon, move |proc, input, tr| {
                    mix(seed, proc, input, tr.len(), tr.as_u64()) & 1 == 1
                });
                let inputs: Vec<u64> = raw[..n].iter().map(|x| x & ((1 << bits) - 1)).collect();
                let run = run_wide_protocol(&p, &inputs);
                prop_assert_eq!(run.len(), horizon);
                prop_assert_eq!(wide_prefix_key(&run), run.as_u64().reverse_bits());
            }
        }
    }
}
