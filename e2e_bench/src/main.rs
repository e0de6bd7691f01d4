//! End-to-end sweep benchmark for the `bcc` workspace.
//!
//! One process runs one workload: canonical persisted `bcc-lab` sweeps
//! through the public API, repeated for `--seconds`, every record checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <rank_sampled|wide_exact|wide_routed|find_clique> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run ... -- --list-metrics        # every metric, its unit and layer
//! cargo run ... -- --write-reference     # regenerate reference/*.txt
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it runs the sweeps untraced, then once under the
//! `bcc_obs` Chrome-trace sink, and derives the per-layer metrics from that
//! trace, the sweep's work counters and timed calls into each layer's
//! public functions ([`probes`]). Nothing inside the crates is changed.
//!
//! Every run prints a provenance line, the sweep's work vector, and as the
//! last line of standard output the result object
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `attempted` counts checked points, `failed` the points that broke a
//! workload guarantee or differ from the committed reference
//! (`failed / attempted` is the failure fraction). Run scratch lives under
//! `.bench_build/` in the working directory and is removed on exit.

#![forbid(unsafe_code)]

mod probes;
mod reference;
mod selftime;
mod sys;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};

use bcc_f2::kernel::WordKernel;
use bcc_lab::{records_fingerprint, PointRecord, RunStore, Scenario, Workload};
use bcc_obs::Snapshot;
use rayon::prelude::*;

use sys::{json_num, json_object, json_str, median, quantile, secs_since, Clock};
use workloads::{check_record, class_of, is_sampled, transcript_bits, Kind, CLASSES};

/// How many times a run sets up; `setup_s` is the median. A set-up takes
/// well under a millisecond, mostly store directory and manifest file
/// operations whose latency on a shared host wanders from second to
/// second, so many set-ups spread over the whole run steady the median.
const SETUPS: usize = 301;

/// The fewest points the per-point percentiles pool, so that at least ten
/// lie beyond p90.
const MIN_POOLED_POINTS: usize = 100;

/// Share of `--seconds` a traced run spends on untraced repetitions before
/// its traced one (the baseline of `obs.trace_overhead_frac`).
const UNTRACED_SHARE: f64 = 0.8;

/// `(name, unit, layer, meaning)` of every end-to-end metric.
#[rustfmt::skip]
const END_TO_END: &[(&str, &str, &str, &str)] = &[
    ("points_per_s", "1/s", "e2e", "grid points per second of persisted-sweep wall time, over all repetitions"),
    ("point_ms_p50", "ms", "e2e", "median per-point wall_ms, pooled over the run's repetitions"),
    ("point_ms_p90", "ms", "e2e", "90th-percentile per-point wall_ms, pooled over the run's repetitions"),
    ("cpu_ms_per_point", "ms", "e2e", "process user+sys CPU per point, over all repetitions"),
    ("peak_rss_mb", "MiB", "e2e", "peak resident memory of the run"),
    ("setup_s", "s", "e2e", "scenario build, reference lookup, pool start, kernel dispatch and store open (median of 301 spread over the run; the first from process start)"),
];

/// `(name, unit, layer, meaning)` of every per-layer metric.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    ("walk.nodes", "count", "core.walk", "exact-walk tree nodes"),
    ("walk.live_points", "count", "core.walk", "live support points priced by the walk"),
    ("walk.children_built", "count", "core.walk", "child nodes built"),
    ("walk.frontier_tasks", "count", "core.walk", "parallel subtree tasks"),
    ("walk.exact.self_ms", "ms", "core.walk", "walk.exact self time on the cores"),
    ("walk.chunk.self_ms", "ms", "core.walk", "walk.chunk self time on the cores"),
    ("walk.live_points_per_s", "1/s", "core.walk", "live points per second of walk self time"),
    ("exec.samples_drawn", "count", "core.sample", "transcripts simulated, all sides"),
    ("exec.keys_sorted", "count", "core.sample", "keys through the radix sorter"),
    ("exec.keys_merged", "count", "core.sample", "keys through sorted merges"),
    ("exec.adaptive.batches", "count", "core.exec", "adaptive batches"),
    ("exec.adaptive.budget_growths", "count", "core.exec", "adaptive budget growths"),
    ("exec.adaptive.self_ms", "ms", "core.exec", "exec.adaptive (+exec.sampled) self time on the cores"),
    ("exec.batch.self_ms", "ms", "core.sample", "exec.adaptive_batch self time: draw, sort, merge, profile"),
    ("exec.samples_per_s", "1/s", "core.sample", "samples drawn per second of exec self time"),
    ("exec.draw_ratio", "ratio", "core.sample", "samples drawn / (final per-side budget x sides)"),
    ("sample.radix_ns_per_key", "ns", "core.sample", "radix_sort_u64 on 2^16 keys of the workload's shape"),
    ("kernel.words.boolean", "count", "f2.kernel", "words through and/or/xor/and_not"),
    ("kernel.words.reduce", "count", "f2.kernel", "words through count_ones/dot/or_and_fold"),
    ("kernel.words.filter", "count", "f2.kernel", "words through the masked filters"),
    ("kernel.words.bytes", "count", "f2.kernel", "keys through the radix byte passes"),
    ("kernel.words.shift", "count", "f2.kernel", "words through the cross-word shifts"),
    ("graphs.edges_emitted", "count", "graphs.planted", "random-graph edges drawn"),
    ("graphs.sample_ms", "ms", "graphs.planted", "sample_planted per trial, on the workload's instances"),
    ("planted.find_ms", "ms", "planted.find", "find_planted_clique per trial, on the workload's instances"),
    ("planted.trial_ratio", "ratio", "planted.find", "A_k instances drawn / trials recorded"),
    ("lab.sweep.busy_frac", "ratio", "lab.sweep", "busy core time / (threads x sweep wall)"),
    ("lab.sweep.self_ms", "ms", "lab.sweep", "scheduler self time on the cores, waiting excluded"),
    ("lab.sweep.wall_ms", "ms", "lab.sweep", "traced sweep wall time, all scenarios"),
    ("lab.point.self_ms", "ms", "lab.sweep", "lab.point self time on the cores"),
    ("store.append_us_per_record", "us", "lab.store", "RunStore::append per record"),
    ("store.bytes_per_record", "B", "lab.store", "records.jsonl bytes per record"),
    ("store.reopen_ms", "ms", "lab.store", "RunStore::open of the clean run directory"),
    ("store.heal_ms", "ms", "lab.store", "RunStore::open healing a torn final line"),
    ("analysis.aggregates_ms", "ms", "lab.analysis", "write_aggregates over the sweep's records"),
    ("obs.metrics_json_ms", "ms", "obs", "Snapshot::to_json of the sweep's metrics"),
    ("obs.trace_overhead_frac", "ratio", "obs", "traced / untraced repetition wall - 1"),
    ("obs.reconcile_error", "ratio", "obs", "|busy + idle - threads x wall| / (threads x wall)"),
    ("share.lab", "ratio", "lab.sweep", "share of threads x wall: scheduler, point set-up, store appends"),
    ("share.core.exec", "ratio", "core.exec", "share of threads x wall: adaptive control"),
    ("share.core.sample", "ratio", "core.sample", "share of threads x wall: sampler batches"),
    ("share.core.walk", "ratio", "core.walk", "share of threads x wall: exact walks"),
    ("share.graphs.planted", "ratio", "graphs.planted", "share of threads x wall: instance sampling"),
    ("share.planted.find", "ratio", "planted.find", "share of threads x wall: the clique finder"),
    ("share.idle", "ratio", "lab.sweep", "share of threads x wall no span used"),
];

/// The layers the busy core time splits into, with their share metrics.
const LAYERS: [(&str, &str); 6] = [
    ("lab", "share.lab"),
    ("core.exec", "share.core.exec"),
    ("core.sample", "share.core.sample"),
    ("core.walk", "share.core.walk"),
    ("graphs.planted", "share.graphs.planted"),
    ("planted.find", "share.planted.find"),
];

fn out(line: &str) {
    if writeln!(std::io::stdout().lock(), "{line}").is_err() {
        // Nobody reads the result: fail without printing one.
        std::process::exit(1);
    }
}

fn note(line: &str) {
    // Diagnostics only; a closed stderr must not fail the run.
    let _ = writeln!(std::io::stderr().lock(), "{line}");
}

/// A benchmark run's arguments.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    ListMetrics,
    WriteReference(Option<Kind>),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut list = false;
    let mut write = false;
    let mut words = argv.iter();
    while let Some(flag) = words.next() {
        let mut value = || {
            words
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--list-metrics" => list = true,
            "--write-reference" => write = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if list {
        return Ok(Mode::ListMetrics);
    }
    if write {
        return Ok(Mode::WriteReference(kind));
    }
    match (kind, seed, seconds) {
        (Some(kind), Some(seed), Some(seconds)) => Ok(Mode::Run(Args {
            kind,
            seed,
            seconds,
            trace,
        })),
        _ => Err("need --workload, --seed and --seconds".into()),
    }
}

fn main() {
    let started = Clock::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Mode::ListMetrics) => list_metrics(),
        Ok(Mode::WriteReference(only)) => write_reference(only),
        Ok(Mode::Run(args)) => {
            let work = PathBuf::from(".bench_build").join(format!(
                "e2e-{}-{}",
                args.kind.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&work);
            let result = run(&args, &work, started);
            let _ = std::fs::remove_dir_all(&work);
            match result {
                Ok(line) => out(&line),
                Err(e) => {
                    note(&format!("e2e_bench: {e}"));
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            note(&format!(
                "e2e_bench: {e}\nusage: --workload <{}> --seed <n> --seconds <s> [--trace 0|1]\n       --list-metrics | --write-reference [--workload <w>]",
                Kind::ALL.map(Kind::name).join("|")
            ));
            std::process::exit(2);
        }
    }
}

fn list_metrics() {
    out(&format!(
        "{:<30} {:<6} {:<11} {:<15} meaning",
        "metric", "unit", "kind", "layer"
    ));
    for (kind, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for (name, unit, layer, meaning) in table {
            out(&format!(
                "{name:<30} {unit:<6} {kind:<11} {layer:<15} {meaning}"
            ));
        }
    }
}

/// Everything a run needs before its first sweep.
struct Setup {
    scenarios: Vec<Scenario>,
    references: Vec<Option<reference::Entry>>,
    threads: usize,
    kernel: &'static str,
}

impl Setup {
    /// Builds the scenarios, looks up their references, starts the pool's
    /// threads, forces the kernel dispatch and opens each scenario's store
    /// under `dir`.
    fn new(kind: Kind, class: u64, dir: &Path) -> Setup {
        let kernel = bcc_f2::kernel::active().name();
        let threads = rayon::current_num_threads();
        let started: Vec<usize> = (0..threads).into_par_iter().map(|i| i).collect();
        std::hint::black_box(started);
        let scenarios = kind.scenarios(class);
        let references = scenarios
            .iter()
            .map(|s| reference::lookup(reference::table(kind), s))
            .collect();
        for s in &scenarios {
            drop(RunStore::open(&dir.join(s.name()), s));
        }
        Setup {
            scenarios,
            references,
            threads,
            kernel,
        }
    }

    /// Runs the first scenario's first grid point once, unpersisted, so
    /// code and allocator are warm before timing. It is not part of
    /// `setup_s`: a sweep point's cost belongs to the sweep metrics.
    fn warm_up(&self) {
        let (first, grid, precision) = (
            &self.scenarios[0],
            self.scenarios[0].grid(),
            self.scenarios[0].precision(),
        );
        let warm = Scenario::builder(format!("{}-warm", first.name()))
            .workload(first.workload())
            .n(&grid.n[..1])
            .k(&grid.k[..1])
            .rounds(&grid.rounds[..1])
            .bandwidth(&grid.bandwidth[..1])
            .seeds(&grid.seeds[..1])
            .tolerance(precision.tolerance)
            .initial_samples(precision.initial_samples)
            .max_samples(precision.max_samples)
            .truncated_target(precision.truncated_target)
            .build();
        std::hint::black_box(warm.sweep_ephemeral());
    }
}

/// One repetition: every scenario of the workload swept once into a fresh
/// run directory.
struct Rep {
    wall_s: f64,
    cpu_ms: f64,
    records: Vec<Vec<PointRecord>>,
    metrics: Vec<Snapshot>,
}

impl Rep {
    fn points(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }

    fn work(&self) -> Vec<Vec<(String, u64)>> {
        self.metrics
            .iter()
            .map(Snapshot::work_fingerprint)
            .collect()
    }
}

fn run_rep(scenarios: &[Scenario], dir: &Path) -> Rep {
    let cpu = sys::cpu_ms().unwrap_or(0.0);
    let start = Clock::now();
    let sweeps: Vec<_> = scenarios
        .iter()
        .map(|s| s.sweep_in(&dir.join(s.name())))
        .collect();
    let wall_s = secs_since(start);
    let cpu_ms = sys::cpu_ms().unwrap_or(0.0) - cpu;
    let (records, metrics) = sweeps.into_iter().map(|r| (r.records, r.metrics)).unzip();
    Rep {
        wall_s,
        cpu_ms,
        records,
        metrics,
    }
}

/// Runs repetitions into `work/rep-<i>` until `seconds` have passed and at
/// least `min_reps` ran, calling `between` after each. Run directories are
/// removed after each repetition.
fn run_reps(
    setup: &Setup,
    work: &Path,
    seconds: f64,
    min_reps: usize,
    between: &mut dyn FnMut() -> std::io::Result<()>,
) -> std::io::Result<Vec<Rep>> {
    let start = Clock::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || secs_since(start) < seconds {
        let dir = work.join(format!("rep-{}", reps.len()));
        reps.push(run_rep(&setup.scenarios, &dir));
        std::fs::remove_dir_all(&dir)?;
        between()?;
    }
    Ok(reps)
}

/// Sets up once into `work/setup-<i>`, appending the time since `start`
/// to `times`, and removes the set-up's store directories.
fn timed_setup(
    kind: Kind,
    class: u64,
    work: &Path,
    start: Clock,
    times: &mut Vec<f64>,
) -> std::io::Result<Setup> {
    let dir = work.join(format!("setup-{}", times.len()));
    let setup = Setup::new(kind, class, &dir);
    times.push(secs_since(start));
    std::fs::remove_dir_all(&dir)?;
    Ok(setup)
}

/// The outcome of checking every record of every repetition.
struct Verdict {
    attempted: usize,
    failed: usize,
    work_consistent: bool,
    reference: &'static str,
}

/// Checks every record against its workload's guarantees, the first
/// repetition and the committed reference, and every work vector against
/// the first repetition's. Prints the first few failures and the work
/// vector's diff against the committed one.
fn verdict(setup: &Setup, reps: &[Rep]) -> Verdict {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        work_consistent: true,
        reference: "match",
    };
    let first = &reps[0];
    for (si, scenario) in setup.scenarios.iter().enumerate() {
        let grid = scenario.grid().points();
        let committed = setup.references[si].as_ref();
        if committed.is_none() {
            v.reference = "absent";
        }
        for rep in reps {
            v.attempted += rep.records[si].len();
            for (i, record) in rep.records[si].iter().enumerate() {
                let hash = reference::point_hash(record);
                let off_reference = committed.is_some_and(|c| c.points.get(i) != Some(&hash));
                if off_reference {
                    v.reference = "mismatch";
                }
                let problem =
                    if record.point_id != i || !grid.get(i).is_some_and(|p| record.matches(p)) {
                        Some("record does not match its grid point".to_string())
                    } else if let Err(e) = check_record(scenario, record) {
                        Some(e)
                    } else if first.records[si].get(i).map(reference::point_hash) != Some(hash) {
                        Some("differs from the first repetition".into())
                    } else if off_reference {
                        Some("differs from the committed reference".into())
                    } else {
                        None
                    };
                if let Some(problem) = problem {
                    if v.failed < 5 {
                        note(&format!("FAILED {} point {i}: {problem}", scenario.name()));
                    }
                    v.failed += 1;
                }
            }
            if rep.records[si].len() != grid.len()
                || committed.is_some_and(|c| c.points.len() != grid.len())
            {
                note(&format!(
                    "FAILED {}: record count differs from the grid or reference",
                    scenario.name()
                ));
                v.failed += grid.len().abs_diff(rep.records[si].len()).max(1);
            }
            if rep.metrics[si].work_fingerprint() != first.metrics[si].work_fingerprint() {
                note(&format!(
                    "FAILED {}: work vector differs between repetitions",
                    scenario.name()
                ));
                v.work_consistent = false;
            }
        }
        if let Some(c) = committed {
            let diff = reference::diff_work(&c.work, &first.metrics[si].work_fingerprint());
            if diff.is_empty() {
                note(&format!(
                    "{}: work vector identical to the committed one",
                    scenario.name()
                ));
            } else {
                note(&format!(
                    "{}: work vector vs committed (information only):",
                    scenario.name()
                ));
                for line in diff {
                    note(&format!("  {line}"));
                }
            }
        }
    }
    v
}

/// Runs one benchmark invocation and returns the result line.
fn run(args: &Args, work: &Path, started: Clock) -> Result<String, String> {
    let io = |e: std::io::Error| e.to_string();
    if std::env::var_os("BCC_TRACE").is_some_and(|p| !p.is_empty()) {
        return Err(
            "unset BCC_TRACE: end-to-end runs measure with tracing off, \
                    and --trace 1 installs its own sink"
                .into(),
        );
    }
    let class = class_of(args.seed);
    // The first set-up counts from process start; the others are spread
    // between repetitions in proportion to the time passed, so their
    // median samples the whole run.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let setup = timed_setup(args.kind, class, work, started, &mut setup_s).map_err(io)?;
    setup.warm_up();

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    let reps = if !args.trace {
        let reps_start = Clock::now();
        let mut between = || {
            let due = (SETUPS as f64 * secs_since(reps_start) / args.seconds).ceil() as usize;
            while setup_s.len() < due.min(SETUPS) {
                timed_setup(args.kind, class, work, Clock::now(), &mut setup_s)?;
            }
            Ok(())
        };
        let reps = run_reps(&setup, work, args.seconds, 2, &mut between).map_err(io)?;
        while setup_s.len() < SETUPS {
            timed_setup(args.kind, class, work, Clock::now(), &mut setup_s).map_err(io)?;
        }
        // Totals over the whole run, not medians of repetitions: a shared
        // host drifts between a fast and a ~1.5x slower regime for seconds
        // at a time, and a median jumps between the two where a total moves
        // in proportion to the time spent in each.
        let total = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).sum::<f64>();
        let points = total(&|r| r.points() as f64);
        let point_ms: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.records.iter().flatten().map(|p| p.wall_ms))
            .collect();
        note(&format!(
            "{} repetitions of {} points; percentiles pooled over {} points, {} beyond p90; repetition walls (s): {:.3?}",
            reps.len(),
            reps[0].points(),
            point_ms.len(),
            point_ms.len() / 10,
            reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()
        ));
        // Where p50 and p90 fall: each point's median wall over the run.
        for (si, scenario) in setup.scenarios.iter().enumerate() {
            let cells: Vec<String> = reps[0].records[si]
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let ms: Vec<f64> = reps
                        .iter()
                        .filter_map(|rep| rep.records[si].get(i).map(|p| p.wall_ms))
                        .collect();
                    format!("n{} k{} r{} w{} {:.1}", r.n, r.k, r.rounds, r.bandwidth, median(&ms))
                })
                .collect();
            note(&format!("{} point ms: {}", scenario.name(), cells.join(", ")));
        }
        if point_ms.len() < MIN_POOLED_POINTS {
            note("WARNING: fewer than ten points lie beyond p90; raise --seconds");
        }
        metrics.push(("points_per_s", points / total(&|r| r.wall_s)));
        metrics.push(("point_ms_p50", median(&point_ms)));
        metrics.push(("point_ms_p90", quantile(&point_ms, 0.9)));
        metrics.push(("cpu_ms_per_point", total(&|r| r.cpu_ms) / points));
        metrics.push(("peak_rss_mb", sys::peak_rss_mb().unwrap_or(0.0)));
        metrics.push(("setup_s", median(&setup_s)));
        reps
    } else {
        traced_run(args, &setup, work, &mut metrics)?
    };

    let verdict = verdict(&setup, &reps);
    provenance(args, class, &setup, &reps, &verdict);

    let units: Vec<(&str, &str)> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, u, _, _)| (*n, *u))
        .collect();
    let fields: Vec<(String, String)> = metrics
        .iter()
        .map(|&(name, value)| {
            let unit = units
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u);
            (
                name.to_string(),
                format!(
                    "{{\"value\":{},\"unit\":{}}}",
                    json_num(value),
                    json_str(unit)
                ),
            )
        })
        .collect();
    let correct = verdict.failed == 0 && verdict.work_consistent;
    Ok(json_object(&[
        ("correct".into(), correct.to_string()),
        ("attempted".into(), verdict.attempted.to_string()),
        ("failed".into(), verdict.failed.to_string()),
        ("metrics".into(), json_object(&fields)),
    ]))
}

/// Prints the provenance line and the first repetition's work vector.
fn provenance(args: &Args, class: u64, setup: &Setup, reps: &[Rep], verdict: &Verdict) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let depths: Vec<(String, String)> = [1u32, 2, 3]
        .iter()
        .map(|&w| {
            (
                format!("w{w}"),
                bcc_core::adaptive_split_depth(w).to_string(),
            )
        })
        .collect();
    let fingerprints: Vec<(String, String)> = setup
        .scenarios
        .iter()
        .zip(&reps[0].records)
        .map(|(s, r)| {
            (
                s.name().to_string(),
                json_str(&format!("{:016x}", records_fingerprint(r))),
            )
        })
        .collect();
    let fields = vec![
        ("workload".to_string(), json_str(args.kind.name())),
        ("seed".into(), args.seed.to_string()),
        ("replication_block".into(), format!("{class}")),
        ("trace".into(), args.trace.to_string()),
        ("commit".into(), json_str(&sys::git_commit())),
        ("nproc".into(), nproc.to_string()),
        ("rayon_threads".into(), setup.threads.to_string()),
        ("kernel_dispatch".into(), json_str(setup.kernel)),
        ("walk_split_depths".into(), json_object(&depths)),
        ("repetitions".into(), reps.len().to_string()),
        ("points_per_repetition".into(), reps[0].points().to_string()),
        ("reference".into(), json_str(verdict.reference)),
        ("records_fingerprints".into(), json_object(&fingerprints)),
    ];
    out(&json_object(&[("provenance".into(), json_object(&fields))]));
    let work: Vec<(String, String)> = setup
        .scenarios
        .iter()
        .zip(reps[0].work())
        .map(|(s, w)| {
            let cells: Vec<(String, String)> =
                w.into_iter().map(|(n, v)| (n, v.to_string())).collect();
            (s.name().to_string(), json_object(&cells))
        })
        .collect();
    out(&json_object(&[("work_vector".into(), json_object(&work))]));
}

/// The traced run: untraced repetitions, one repetition under the trace
/// sink, then the layer probes. Pushes every per-layer metric and returns
/// all repetitions for checking.
fn traced_run(
    args: &Args,
    setup: &Setup,
    work: &Path,
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<Vec<Rep>, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut reps = run_reps(
        setup,
        work,
        args.seconds * UNTRACED_SHARE,
        1,
        &mut || Ok(()),
    )
    .map_err(io)?;
    let untraced_s = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    let trace_path = work.join("trace.json");
    if !bcc_obs::trace::install(&trace_path) {
        return Err("the trace sink was already installed".into());
    }
    // The sink fixes its epoch when it records its first event and clamps
    // earlier starts to it; an empty span sets the epoch before the sweep
    // opens its first span.
    drop(bcc_obs::span("e2e.epoch"));
    let dir = work.join("rep-traced");
    let traced = run_rep(&setup.scenarios, &dir);
    let text = std::fs::read_to_string(&trace_path).map_err(io)?;
    let events = selftime::parse(&text)?;
    let attr = selftime::attribute(&events, setup.threads);

    let counter = |name: &str| -> f64 {
        traced
            .metrics
            .iter()
            .map(|m| m.work_counter(name))
            .sum::<u64>() as f64
    };
    let busy_ms = |names: &[&str]| names.iter().map(|n| attr.busy(n)).sum::<f64>() / 1e3;
    let per_s = |count: f64, ms: f64| if ms > 0.0 { count / (ms / 1e3) } else { 0.0 };

    let walk_ms = busy_ms(&["walk.exact", "walk.chunk"]);
    let exec_ms = busy_ms(&["exec.adaptive", "exec.sampled", "exec.budget_growth"]);
    let batch_ms = busy_ms(&["exec.adaptive_batch"]);
    // Sides drawn at the final budget: the baseline plus every member.
    let mut final_budget = 0.0;
    let mut trials = 0.0;
    for (scenario, records) in setup.scenarios.iter().zip(&traced.records) {
        let members = match scenario.workload() {
            Workload::RankDistance { members } | Workload::WideMessagesSampled { members } => {
                members
            }
            _ => 0,
        };
        for r in records {
            if is_sampled(scenario, r.bandwidth, r.rounds) {
                let sides = members.min(1usize << r.k) + 1;
                final_budget += (r.samples as usize * sides) as f64;
            }
            if scenario.workload() == Workload::FindClique {
                trials += r.samples as f64;
            }
        }
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let trial_costs = match args.kind {
        Kind::FindClique => probes::trial_costs(&setup.scenarios, 2),
        _ => probes::TrialCosts::default(),
    };
    let store = probes::store_costs(
        &setup.scenarios[0],
        &dir.join(setup.scenarios[0].name()),
        &traced.records[0],
        &work.join("probe"),
    )
    .map_err(io)?;

    // Layer shares of threads x wall. A clique trial has no span of its
    // own, so lab.point time on find_clique splits by the probed costs.
    let mut layer_us = [0.0f64; LAYERS.len()];
    let trial_split =
        trial_costs.find_ms / (trial_costs.sample_ms + trial_costs.find_ms).max(f64::MIN_POSITIVE);
    for (name, &us) in &attr.busy_us {
        let slot = |layer: &str| {
            LAYERS
                .iter()
                .position(|(l, _)| *l == layer)
                .expect("known layer")
        };
        match name.as_str() {
            "lab.point" if args.kind == Kind::FindClique => {
                layer_us[slot("planted.find")] += us * trial_split;
                layer_us[slot("graphs.planted")] += us * (1.0 - trial_split);
            }
            n if n.starts_with("lab.") => layer_us[slot("lab")] += us,
            "exec.adaptive_batch" => layer_us[slot("core.sample")] += us,
            n if n.starts_with("exec.") => layer_us[slot("core.exec")] += us,
            n if n.starts_with("walk.") => layer_us[slot("core.walk")] += us,
            other if us > 0.0 => note(&format!("span {other:?} maps to no layer")),
            _ => {}
        }
    }
    let capacity = attr.capacity_us();
    let dominant = LAYERS
        .iter()
        .zip(layer_us)
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |((layer, _), _)| layer);
    note(&format!(
        "traced sweep: {:.1} ms wall x {} threads; dominant layer {dominant} (predicted {}); reconcile error {:.2e}; waiting {:?}",
        attr.wall_us / 1e3,
        attr.threads,
        args.kind.predicted_layer(),
        attr.reconcile_error(),
        attr.waiting_us.iter().map(|(n, us)| (n.as_str(), (us / 1e3).round())).collect::<Vec<_>>()
    ));
    if dominant != args.kind.predicted_layer() {
        note("WARNING: the dominant layer is not the predicted one");
    }

    metrics.extend([
        ("walk.nodes", counter("walk.nodes")),
        ("walk.live_points", counter("walk.live_points")),
        ("walk.children_built", counter("walk.children_built")),
        ("walk.frontier_tasks", counter("walk.frontier_tasks")),
        ("walk.exact.self_ms", busy_ms(&["walk.exact"])),
        ("walk.chunk.self_ms", busy_ms(&["walk.chunk"])),
        (
            "walk.live_points_per_s",
            per_s(counter("walk.live_points"), walk_ms),
        ),
        ("exec.samples_drawn", counter("exec.samples_drawn")),
        ("exec.keys_sorted", counter("exec.keys_sorted")),
        ("exec.keys_merged", counter("exec.keys_merged")),
        ("exec.adaptive.batches", counter("exec.adaptive.batches")),
        (
            "exec.adaptive.budget_growths",
            counter("exec.adaptive.budget_growths"),
        ),
        ("exec.adaptive.self_ms", exec_ms),
        ("exec.batch.self_ms", batch_ms),
        (
            "exec.samples_per_s",
            per_s(counter("exec.samples_drawn"), exec_ms + batch_ms),
        ),
        (
            "exec.draw_ratio",
            ratio(counter("exec.samples_drawn"), final_budget),
        ),
        (
            "sample.radix_ns_per_key",
            probes::radix_ns_per_key(transcript_bits(&setup.scenarios), args.seed),
        ),
        ("kernel.words.boolean", counter("kernel.words.boolean")),
        ("kernel.words.reduce", counter("kernel.words.reduce")),
        ("kernel.words.filter", counter("kernel.words.filter")),
        ("kernel.words.bytes", counter("kernel.words.bytes")),
        ("kernel.words.shift", counter("kernel.words.shift")),
        ("graphs.edges_emitted", counter("graphs.edges_emitted")),
        ("graphs.sample_ms", trial_costs.sample_ms),
        ("planted.find_ms", trial_costs.find_ms),
        (
            "planted.trial_ratio",
            ratio(counter("graphs.planted.ak_samples"), trials),
        ),
        ("lab.sweep.busy_frac", ratio(attr.busy_total(), capacity)),
        ("lab.sweep.self_ms", busy_ms(&["lab.sweep"])),
        ("lab.sweep.wall_ms", attr.wall_us / 1e3),
        ("lab.point.self_ms", busy_ms(&["lab.point"])),
        ("store.append_us_per_record", store.append_us_per_record),
        ("store.bytes_per_record", store.bytes_per_record),
        ("store.reopen_ms", store.reopen_ms),
        ("store.heal_ms", store.heal_ms),
        ("analysis.aggregates_ms", store.aggregates_ms),
        (
            "obs.metrics_json_ms",
            probes::metrics_json_ms(&traced.metrics[0]),
        ),
        ("obs.trace_overhead_frac", traced.wall_s / untraced_s - 1.0),
        ("obs.reconcile_error", attr.reconcile_error()),
    ]);
    for ((_, share), us) in LAYERS.iter().zip(layer_us) {
        metrics.push((share, ratio(us, capacity)));
    }
    metrics.push(("share.idle", ratio(attr.idle_us, capacity)));
    std::fs::remove_dir_all(&dir).map_err(io)?;
    reps.push(traced);
    Ok(reps)
}

/// Regenerates the committed reference tables (all workloads, or `only`),
/// one repetition per replication block.
fn write_reference(only: Option<Kind>) {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let work = PathBuf::from(".bench_build").join(format!("e2e-reference-{}", std::process::id()));
    for kind in Kind::ALL
        .into_iter()
        .filter(|k| only.is_none_or(|o| o == *k))
    {
        let setup = Setup::new(kind, 0, &work.join("setup"));
        let mut text = format!(
            "# Output reference of the {} workload: per replication block and scenario, the\n\
             # records_fingerprint of every point and the sweep's work vector.\n\
             # Regenerate: cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- --write-reference\n\
             # Generated with nproc {}, rayon threads {}, kernel {}.\n",
            kind.name(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            setup.threads,
            setup.kernel,
        );
        for class in 0..CLASSES {
            let scenarios = kind.scenarios(class);
            let rep = run_rep(&scenarios, &work.join(format!("{}-{class}", kind.name())));
            for (i, scenario) in scenarios.iter().enumerate() {
                for record in &rep.records[i] {
                    if let Err(e) = check_record(scenario, record) {
                        panic!(
                            "{} point {}: {e}; refusing to commit it",
                            scenario.name(),
                            record.point_id
                        );
                    }
                }
                text.push_str(&reference::render(
                    class,
                    scenario,
                    &rep.records[i],
                    &rep.metrics[i].work_fingerprint(),
                ));
            }
            note(&format!(
                "{} block {class}: {:.1} s",
                kind.name(),
                rep.wall_s
            ));
        }
        let path = base.join(format!("{}.txt", kind.name()));
        std::fs::write(&path, text)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    let _ = std::fs::remove_dir_all(&work);
}
