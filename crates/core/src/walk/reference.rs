//! The seed implementation of the exact walk, retained verbatim as a
//! differential-testing oracle.
//!
//! This is the walk as it shipped before the hot-path overhaul (label
//! planes, pooled workspace, hybrid consistent sets — see the parent
//! module): consistent sets are plain [`bcc_f2::BitVec`] masks, every
//! node allocates fresh masks for its children, the alive state is
//! deep-cloned at the frontier, and the protocol is re-evaluated per
//! node for *every* distribution, even when rows share a support
//! allocation. It is deliberately kept simple and obviously correct;
//! `crates/core/tests/prop.rs` pins [`super::exact_walk`] to be
//! **bitwise identical** to [`exact_walk`] on random protocols and
//! families, at width 1 and above and in both execution modes.
//!
//! The only change from the seed source is mechanical: the per-model
//! `partition` method is gone, so this oracle queries
//! [`WideTurnProtocol::message`] for every live point directly and
//! rebuilds the old per-distribution partition from the answers (same
//! sets, same ascending label order, same float arithmetic).

use bcc_congest::wide::{WideTranscript, WideTurnProtocol};
use bcc_f2::BitVec;
use rayon::prelude::*;

use super::{adaptive_split_depth, ExecMode, WalkOutcome};
use crate::input::ProductInput;

/// Exact mixture-vs-baseline walk of `protocol` — the seed algorithm.
///
/// # Panics
///
/// As [`super::exact_walk`].
pub(crate) fn exact_walk<P: WideTurnProtocol + Sync + ?Sized>(
    protocol: &P,
    members: &[ProductInput],
    baseline: &ProductInput,
    mode: ExecMode,
) -> WalkOutcome {
    assert!(!members.is_empty(), "need at least one family member");
    let n = protocol.n();
    for input in members.iter().chain(std::iter::once(baseline)) {
        assert_eq!(input.n(), n, "processor count mismatch");
        for row in input.iter_rows() {
            assert_eq!(row.bits(), protocol.input_bits(), "input width mismatch");
        }
    }

    let m = members.len();
    let horizon = protocol.horizon();
    let ctx = Ctx {
        protocol,
        members,
        baseline,
        horizon,
        split: adaptive_split_depth(protocol.width()).min(horizon),
    };

    let mut acc = WalkOutcome::zeros(horizon as usize, m);
    let mut state = AliveState {
        members: members
            .iter()
            .map(|inp| (0..n).map(|i| BitVec::ones(inp.row(i).len())).collect())
            .collect(),
        base: (0..n)
            .map(|i| BitVec::ones(baseline.row(i).len()))
            .collect(),
    };

    // Phase 1: sequential walk of the prefix above the frontier, recording
    // every live frontier node as an independent task.
    let mut frontier = Vec::new();
    let probs = vec![1.0f64; m];
    walk(
        &ctx,
        0,
        WideTranscript::empty(protocol.width()),
        &mut state,
        &probs,
        1.0,
        &mut acc,
        Some(&mut frontier),
    );

    // Phase 2: run the subtree tasks. `collect` preserves frontier order,
    // so the reduction below adds task results in a schedule-independent
    // order and the two modes agree bitwise.
    let task_accs: Vec<WalkOutcome> = match mode {
        ExecMode::Parallel => frontier
            .into_par_iter()
            .map(|task| run_task(&ctx, task))
            .collect(),
        ExecMode::Sequential => frontier
            .into_iter()
            .map(|task| run_task(&ctx, task))
            .collect(),
    };
    for task_acc in &task_accs {
        acc.add(task_acc);
    }
    acc
}

/// Shared read-only context of one exact walk.
struct Ctx<'a, P: ?Sized> {
    protocol: &'a P,
    members: &'a [ProductInput],
    baseline: &'a ProductInput,
    horizon: u32,
    split: u32,
}

/// The consistent sets `D_p^{(t)}`, one mask per (distribution, row) over
/// that row's support points.
#[derive(Clone)]
struct AliveState {
    members: Vec<Vec<BitVec>>,
    base: Vec<BitVec>,
}

/// A live frontier node: everything a subtree walk needs.
struct SubtreeTask {
    prefix: WideTranscript,
    state: AliveState,
    probs: Vec<f64>,
    prob_base: f64,
}

fn run_task<P: WideTurnProtocol + ?Sized>(ctx: &Ctx<'_, P>, mut task: SubtreeTask) -> WalkOutcome {
    let mut acc = WalkOutcome::zeros(ctx.horizon as usize, ctx.members.len());
    walk(
        ctx,
        ctx.split,
        task.prefix,
        &mut task.state,
        &task.probs,
        task.prob_base,
        &mut acc,
        None,
    );
    acc
}

/// The seed per-distribution partition: buckets the live points of
/// `alive` by the label they broadcast, `(label, mask)` pairs ascending
/// by label, omitting labels with no live point. One protocol query per
/// live point per distribution — the cost the label planes of
/// [`super::exact_walk`] eliminate.
fn partition<P: WideTurnProtocol + ?Sized>(
    protocol: &P,
    speaker: usize,
    points: &[u64],
    alive: &BitVec,
    prefix: &WideTranscript,
) -> Vec<(u64, BitVec)> {
    let mut pairs: Vec<(u64, u32)> = alive
        .iter_ones()
        .map(|i| (protocol.message(speaker, points[i], prefix), i as u32))
        .collect();
    pairs.sort_unstable();
    let mut parts: Vec<(u64, BitVec)> = Vec::new();
    for (label, idx) in pairs {
        if parts.last().map(|&(l, _)| l) != Some(label) {
            parts.push((label, BitVec::zeros(points.len())));
        }
        let (_, mask) = parts.last_mut().expect("just pushed");
        mask.set(idx as usize, true);
    }
    parts
}

/// The mask a `partition` result holds for `label`, if any live point
/// broadcasts it.
fn part_of(parts: &[(u64, BitVec)], label: u64) -> Option<&BitVec> {
    parts
        .binary_search_by_key(&label, |&(l, _)| l)
        .ok()
        .map(|i| &parts[i].1)
}

#[allow(clippy::too_many_arguments)]
fn walk<P: WideTurnProtocol + ?Sized>(
    ctx: &Ctx<'_, P>,
    depth: u32,
    prefix: WideTranscript,
    state: &mut AliveState,
    probs: &[f64],
    prob_base: f64,
    acc: &mut WalkOutcome,
    mut frontier: Option<&mut Vec<SubtreeTask>>,
) {
    let t = depth as usize;
    let m = ctx.members.len();

    // Frontier cut: hand the subtree to a task instead of walking it (its
    // own depth-t contribution is accumulated by the task).
    if let Some(tasks) = frontier.as_deref_mut() {
        if depth == ctx.split && depth < ctx.horizon {
            tasks.push(SubtreeTask {
                prefix,
                state: state.clone(),
                probs: probs.to_vec(),
                prob_base,
            });
            return;
        }
    }

    // Depth-t prefix accumulation.
    let avg: f64 = probs.iter().sum::<f64>() / m as f64;
    acc.mixture_tv_by_depth[t] += (avg - prob_base).abs() / 2.0;
    let mut progress = 0.0;
    for &p in probs {
        progress += (p - prob_base).abs();
    }
    acc.progress_by_depth[t] += progress / (2.0 * m as f64);

    if depth == ctx.horizon {
        for (i, &p) in probs.iter().enumerate() {
            acc.per_member_tv[i] += (p - prob_base).abs() / 2.0;
        }
        return;
    }

    let speaker = ctx.protocol.speaker(depth);

    // Consistent-set statistics of the speaker, weighted by the baseline.
    if prob_base > 0.0 {
        let fraction =
            state.base[speaker].count_ones() as f64 / ctx.baseline.row(speaker).len() as f64;
        acc.mean_fraction[t] += prob_base * fraction;
        for (j, slot) in acc.mass_below[t].iter_mut().enumerate() {
            if fraction < 2f64.powi(-(j as i32)) {
                *slot += prob_base;
            }
        }
    }

    let base_parts = partition(
        ctx.protocol,
        speaker,
        ctx.baseline.row(speaker).points(),
        &state.base[speaker],
        &prefix,
    );
    let member_parts: Vec<Vec<(u64, BitVec)>> = (0..m)
        .map(|i| {
            partition(
                ctx.protocol,
                speaker,
                ctx.members[i].row(speaker).points(),
                &state.members[i][speaker],
                &prefix,
            )
        })
        .collect();

    // The union of live labels, ascending: the deterministic child order.
    // A label dead in every distribution never appears, so the walk costs
    // what is alive, not what the alphabet could express.
    let mut labels: Vec<u64> = base_parts
        .iter()
        .map(|&(label, _)| label)
        .chain(member_parts.iter().flatten().map(|&(label, _)| label))
        .collect();
    labels.sort_unstable();
    labels.dedup();

    // Set sizes are invariant across the branch iterations.
    let base_total = state.base[speaker].count_ones();
    let member_totals: Vec<usize> = (0..m)
        .map(|i| state.members[i][speaker].count_ones())
        .collect();

    for &label in &labels {
        let base_part = part_of(&base_parts, label);
        let child_prob_base = match base_part {
            Some(part) if base_total > 0 => {
                prob_base * part.count_ones() as f64 / base_total as f64
            }
            _ => 0.0,
        };

        let mut child_probs = Vec::with_capacity(m);
        for (i, &total) in member_totals.iter().enumerate() {
            child_probs.push(match part_of(&member_parts[i], label) {
                Some(part) if total > 0 => probs[i] * part.count_ones() as f64 / total as f64,
                _ => 0.0,
            });
        }

        // Prune dead subtrees: they contribute zero everywhere. (A live
        // label always carries positive probability in some distribution,
        // so this is a guard, not a hot path.)
        if child_prob_base == 0.0 && child_probs.iter().all(|&p| p == 0.0) {
            continue;
        }

        // Swap in the children's consistent sets (an empty mask where the
        // label is dead in that distribution), recurse, restore.
        let saved_base = std::mem::replace(
            &mut state.base[speaker],
            match base_part {
                Some(part) => part.clone(),
                None => BitVec::zeros(ctx.baseline.row(speaker).len()),
            },
        );
        let saved_members: Vec<BitVec> = (0..m)
            .map(|i| {
                std::mem::replace(
                    &mut state.members[i][speaker],
                    match part_of(&member_parts[i], label) {
                        Some(part) => part.clone(),
                        None => BitVec::zeros(ctx.members[i].row(speaker).len()),
                    },
                )
            })
            .collect();

        walk(
            ctx,
            depth + 1,
            prefix.child(label),
            state,
            &child_probs,
            child_prob_base,
            acc,
            frontier.as_deref_mut(),
        );

        state.base[speaker] = saved_base;
        for (i, saved) in saved_members.into_iter().enumerate() {
            state.members[i][speaker] = saved;
        }
    }
}
