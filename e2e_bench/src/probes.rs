//! Layer probes: timed calls into each layer's public functions, made from
//! outside the crates on the workload's own inputs.

use std::path::Path;

use bcc_core::derive_seed;
use bcc_lab::{write_aggregates, PointRecord, RunStore, Scenario};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::sys::{median, secs_since, Clock};

/// Times `f` `reps` times and returns the median, in seconds.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Clock::now();
            f();
            secs_since(start)
        })
        .collect();
    median(&times)
}

/// Costs of the run store and the analysis layer on one sweep's records.
#[derive(Debug, Clone, Copy)]
pub struct StoreCosts {
    /// `RunStore::append` (encode, write, flush), µs per record.
    pub append_us_per_record: f64,
    /// `records.jsonl` bytes per record.
    pub bytes_per_record: f64,
    /// `RunStore::open` of the full, clean run directory, ms.
    pub reopen_ms: f64,
    /// `RunStore::open` of the directory with a torn final line, ms.
    pub heal_ms: f64,
    /// `write_aggregates` over the records, ms.
    pub aggregates_ms: f64,
}

/// Probes the store and analysis layers with `scenario`'s records from
/// `sweep_dir`, working in the scratch directory `scratch`.
pub fn store_costs(
    scenario: &Scenario,
    sweep_dir: &Path,
    records: &[PointRecord],
    scratch: &Path,
) -> std::io::Result<StoreCosts> {
    const APPENDS: usize = 512;
    let passes = APPENDS.div_ceil(records.len().max(1));
    let mut append_secs = 0.0;
    for pass in 0..passes {
        let dir = scratch.join(format!("append-{pass}"));
        let (mut store, _) = RunStore::open(&dir, scenario);
        let start = Clock::now();
        for record in records {
            store.append(record);
        }
        append_secs += secs_since(start);
        drop(store);
        std::fs::remove_dir_all(&dir)?;
    }
    let append_us_per_record = append_secs * 1e6 / (passes * records.len()).max(1) as f64;

    let log = std::fs::metadata(sweep_dir.join("records.jsonl"))?.len();
    let bytes_per_record = log as f64 / records.len().max(1) as f64;

    // A copy of the run directory, compacted into point order once.
    let dir = scratch.join("reopen");
    std::fs::create_dir_all(&dir)?;
    for file in ["manifest.json", "records.jsonl"] {
        std::fs::copy(sweep_dir.join(file), dir.join(file))?;
    }
    drop(RunStore::open(&dir, scenario));
    let reopen_ms = time_median(5, || drop(RunStore::open(&dir, scenario))) * 1e3;

    let clean = std::fs::read_to_string(dir.join("records.jsonl"))?;
    let last = clean.lines().last().unwrap_or("");
    let torn = format!("{clean}{}", &last[..last.len() / 2]);
    let mut heal_times = Vec::new();
    for _ in 0..5 {
        std::fs::write(dir.join("records.jsonl"), &torn)?;
        let start = Clock::now();
        let (store, _) = RunStore::open(&dir, scenario);
        heal_times.push(secs_since(start));
        assert_eq!(store.healed_lines(), 1, "the probe tore exactly one line");
    }
    let heal_ms = median(&heal_times) * 1e3;

    let aggregates_ms = time_median(5, || write_aggregates(&dir, scenario, records)) * 1e3;
    std::fs::remove_dir_all(&dir)?;
    Ok(StoreCosts {
        append_us_per_record,
        bytes_per_record,
        reopen_ms,
        heal_ms,
        aggregates_ms,
    })
}

/// `Snapshot::to_json` of `snapshot`, median ms.
pub fn metrics_json_ms(snapshot: &bcc_obs::Snapshot) -> f64 {
    time_median(21, || {
        std::hint::black_box(snapshot.to_json());
    }) * 1e3
}

/// `radix_sort_u64` on 2^16 keys whose top `bits` bits are random and
/// whose low bits are zero (the packed-transcript key layout: turn `t` at
/// bit `63 − t`), median ns per key.
pub fn radix_ns_per_key(bits: u32, seed: u64) -> f64 {
    const KEYS: usize = 1 << 16;
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        !(u64::MAX >> bits)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64() & mask).collect();
    let secs = time_median(9, || {
        let mut copy = keys.clone();
        bcc_core::radix_sort_u64(&mut copy);
        std::hint::black_box(copy);
    });
    secs * 1e9 / KEYS as f64
}

/// Per-trial cost of the two halves of a planted-clique trial on the
/// workload's own instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialCosts {
    /// `sample_planted` (draw an `A_k` instance), ms per trial.
    pub sample_ms: f64,
    /// `find_planted_clique` on it, ms per trial.
    pub find_ms: f64,
}

/// Replays the first `trials` trials of every grid point of the
/// `FindClique` scenarios (the same per-point streams the lab uses) and
/// times each half.
pub fn trial_costs(scenarios: &[Scenario], trials: usize) -> TrialCosts {
    let (mut sample, mut find, mut count) = (0.0, 0.0, 0usize);
    for point in scenarios.iter().flat_map(|s| s.grid().points()) {
        let k = point.k as usize;
        let p = bcc_planted::find::activation_probability(point.n, k);
        let mut rng = StdRng::seed_from_u64(derive_seed(point.stream_root(), 3));
        for _ in 0..trials {
            let start = Clock::now();
            let instance = bcc_graphs::planted::sample_planted(&mut rng, point.n, k);
            sample += secs_since(start);
            let start = Clock::now();
            std::hint::black_box(bcc_planted::find_planted_clique(
                &instance.graph,
                p,
                &mut rng,
            ));
            find += secs_since(start);
            count += 1;
        }
    }
    let per_trial = |secs: f64| secs * 1e3 / count.max(1) as f64;
    TrialCosts {
        sample_ms: per_trial(sample),
        find_ms: per_trial(find),
    }
}
