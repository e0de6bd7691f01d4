//! The four canonical workloads: their scenario grids, and the checks every
//! record they produce must pass.
//!
//! The benchmark's `--seed` picks one of [`CLASSES`] replication blocks; a
//! block is the grid's seed axis. Every block's record projection is
//! committed under `reference/`, so every run is checked against a
//! reference whatever seed it is given.

use bcc_core::{wide_walk_nodes, MAX_WIDE_NODES};
use bcc_lab::{decode_depth_floors, PointRecord, Scenario, Workload};

/// Number of replication blocks the seed argument selects from.
pub const CLASSES: u64 = 16;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Adaptive sampled rank distance: sampler draw, radix sort and merges.
    RankSampled,
    /// Exact `BCAST(w)` walks at `w = 2`, plus the `w = 1` fast path.
    WideExact,
    /// Wide messages routed exact/sampled around the node budget.
    WideRouted,
    /// The Appendix B planted-clique finder.
    FindClique,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::RankSampled,
        Kind::WideExact,
        Kind::WideRouted,
        Kind::FindClique,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RankSampled => "rank_sampled",
            Kind::WideExact => "wide_exact",
            Kind::WideRouted => "wide_routed",
            Kind::FindClique => "find_clique",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The layer expected to dominate the traced run's busy time.
    pub fn predicted_layer(self) -> &'static str {
        match self {
            Kind::RankSampled | Kind::WideRouted => "core.sample",
            Kind::WideExact => "core.walk",
            Kind::FindClique => "planted.find",
        }
    }

    /// The scenarios one repetition runs back to back, for replication
    /// block `class`.
    pub fn scenarios(self, class: u64) -> Vec<Scenario> {
        match self {
            Kind::RankSampled => vec![Scenario::builder("e2e-rank_sampled")
                .workload(Workload::RankDistance { members: 4 })
                .n(&[1024, 4096])
                .k(&[4, 6, 8, 10])
                .rounds(&[8, 10, 12])
                .seeds(&seeds(class, 1))
                .tolerance(0.2)
                .initial_samples(4096)
                .max_samples(1 << 17)
                .build()],
            // Five points. p50 is the middle of a dense band that the
            // (w = 2, rounds = 6) and (w = 1, rounds = 14) points share,
            // p90 the middle of the (w = 2, rounds = 7) point's
            // repetitions, 2x above it. One seed per cell: two points of
            // a cell run beside different neighbours, cost apart, and a
            // quantile between them jumps across the gap.
            Kind::WideExact => vec![
                Scenario::builder("e2e-wide_exact-w2")
                    .workload(Workload::WideMessages { members: 4 })
                    .n(&[1024])
                    .k(&[10])
                    .rounds(&[5, 6, 7])
                    .bandwidth(&[2])
                    .seeds(&seeds(class, 1))
                    .tolerance(0.25)
                    .build(),
                Scenario::builder("e2e-wide_exact-w1")
                    .workload(Workload::WideMessages { members: 4 })
                    .n(&[1024])
                    .k(&[8])
                    .rounds(&[12, 14])
                    .bandwidth(&[1])
                    .seeds(&seeds(class, 1))
                    .tolerance(0.25)
                    .build(),
            ],
            // A third of the points route exact and cost about 1 ms.
            Kind::WideRouted => vec![Scenario::builder("e2e-wide_routed")
                .workload(Workload::WideMessagesSampled { members: 4 })
                .n(&[1024, 4096])
                .k(&[4, 6])
                .rounds(&[6, 13, 14])
                .bandwidth(&[2, 3])
                .seeds(&seeds(class, 1))
                .tolerance(0.25)
                .initial_samples(4096)
                .max_samples(1 << 15)
                .truncated_target(true)
                .build()],
            // Five points of distinct cost, each at least 1.4x from the
            // next: p50 is the middle of the (n = 256, k = 96) point's
            // repetitions and p90 the middle of the (n = 512, k = 128)
            // point's. One seed per cell, as in `wide_exact`.
            Kind::FindClique => [(256, &[96, 128, 160][..]), (512, &[128, 160][..])]
                .into_iter()
                .map(|(n, k)| {
                    Scenario::builder(format!("e2e-find_clique-n{n}"))
                        .workload(Workload::FindClique)
                        .n(&[n])
                        .k(k)
                        .seeds(&seeds(class, 1))
                        .tolerance(0.1)
                        .initial_samples(8)
                        .max_samples(64)
                        .build()
                })
                .collect(),
        }
    }
}

/// The replication block a seed argument selects.
pub fn class_of(seed: u64) -> u64 {
    seed % CLASSES
}

/// The seed axis of replication block `class`: `count` consecutive
/// replication seeds, block 0 starting at 1.
fn seeds(class: u64, count: u64) -> Vec<u64> {
    (0..count).map(|j| 1 + class * count + j).collect()
}

/// Transcript bits of the deepest cell of `scenarios` (`rounds ×
/// bandwidth`): the key shape `sample.radix_ns_per_key` sorts.
pub fn transcript_bits(scenarios: &[Scenario]) -> u32 {
    scenarios
        .iter()
        .flat_map(|s| {
            let grid = s.grid();
            grid.rounds
                .iter()
                .flat_map(|&r| grid.bandwidth.iter().map(move |&b| r * b))
        })
        .max()
        .unwrap_or(64)
}

/// Whether a point of `scenario` at `(bandwidth, rounds)` is estimated by
/// sampling (as opposed to an exact walk or the clique finder).
pub fn is_sampled(scenario: &Scenario, bandwidth: u32, rounds: u32) -> bool {
    match scenario.workload() {
        Workload::RankDistance { .. } => true,
        Workload::WideMessagesSampled { .. } => wide_walk_nodes(bandwidth, rounds) > MAX_WIDE_NODES,
        _ => false,
    }
}

/// Checks one record against what its workload guarantees: estimates and
/// floors in range, the tolerance met, the budget inside its bounds and the
/// route-specific fields coherent. `Err` names the first violation.
pub fn check_record(scenario: &Scenario, record: &PointRecord) -> Result<(), String> {
    let precision = scenario.precision();
    let in_unit = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
    if !in_unit(record.estimate) {
        return Err(format!("estimate {} outside [0, 1]", record.estimate));
    }
    if !in_unit(record.noise_floor) {
        return Err(format!("noise floor {} outside [0, 1]", record.noise_floor));
    }
    if !record.met_tolerance {
        return Err("tolerance unmet".into());
    }
    let budget_ok =
        (precision.initial_samples as u64..=precision.max_samples as u64).contains(&record.samples);
    let exact_ok = |r: &PointRecord| {
        r.noise_floor == 0.0 && r.samples == wide_walk_nodes(r.bandwidth, r.rounds)
    };
    match scenario.workload() {
        Workload::RankDistance { .. } | Workload::FindClique => {
            if !budget_ok || record.noise_floor > precision.tolerance {
                return Err(format!(
                    "budget {} or floor {} outside the precision target",
                    record.samples, record.noise_floor
                ));
            }
        }
        Workload::WideMessages { .. } => {
            if !exact_ok(record) {
                return Err("exact walk with a nonzero floor or a wrong node bound".into());
            }
        }
        Workload::WideMessagesSampled { .. } => {
            if !is_sampled(scenario, record.bandwidth, record.rounds) {
                if !exact_ok(record) || record.resolved_horizon != record.rounds {
                    return Err("exact-routed point with sampled-route fields".into());
                }
            } else {
                let floors = decode_depth_floors(&record.depth_floors).unwrap_or_default();
                let coherent = budget_ok
                    && (1..=record.rounds).contains(&record.resolved_horizon)
                    && floors.len() == record.rounds as usize + 1
                    && floors.iter().all(|&f| in_unit(f));
                if !coherent {
                    return Err("sampled-route budget, horizon or depth floors incoherent".into());
                }
            }
        }
        Workload::PrgThroughput => return Err("timing workloads are not benchmarked".into()),
    }
    Ok(())
}
