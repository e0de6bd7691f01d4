//! The shared skeleton of the exact transcript walks.
//!
//! [`crate::engine`] runs one algorithm for every message width (its
//! `2^w`-message alphabet lives in [`crate::wide`]): a depth-first walk
//! of the turn tree that keeps every processor's consistent set
//! `D_p^{(t)}` as a hybrid dense/sparse [`bcc_f2::ConsistentSet`] over
//! that row's support points, splits the speaker's set on the broadcast
//! label at each node, and weights each child by the surviving fraction.
//! A protocol enters only through the labels its speaker broadcasts —
//! [`WideTurnProtocol::message`] per point, or the masks
//! [`WideTurnProtocol::parity_mask`] names — and `exact_walk` is the
//! walk itself, written once.
//!
//! # The hot path, layer by layer
//!
//! Three coordinated layers keep the inner loop priced by *live*
//! occupancy rather than nominal capacity:
//!
//! 1. **One split rule.** At each node the speaker's support rows are
//!    grouped by `Arc` identity (see [`crate::input::ProductInput`]'s
//!    shared rows), and each group is labelled once, not once per
//!    distribution:
//!    - on a *parity node*, where the protocol names every message bit's
//!      mask (e.g. [`bcc_congest::wide::ParityProtocol`]), label plane
//!      `b` is the XOR of the input bit planes that mask `b` selects. The
//!      walk builds each spoken support's `input_bits` planes once,
//!      keyed by the same `Arc` identity, and evaluates no message;
//!    - on any other node `message` is evaluated once per point of the
//!      union of the group's live points, and the width is checked once,
//!      so a protocol that answers wider than it declares panics instead
//!      of being silently misread. At width 1, when the group has a
//!      dense set, those labels are packed into label plane 0.
//!
//!    Then each non-empty set splits by one rule. It splits on the
//!    planes when the group has planes and either the width is 1 — two
//!    word-parallel `AND`s ([`ConsistentSet::assign_filtered`]) — or the
//!    set is dense with `min(2^w, count) · words ≤ count`: every partial
//!    child is `AND`ed with the next plane and with its complement,
//!    counted by popcount and kept only if non-empty, and each child is
//!    built dense or sparse by its count ([`ConsistentSet::assign_words`]).
//!    Every other set takes the *counted* split, its labels the messages
//!    or read off the planes: one pass over the set's `(point, label)`
//!    pairs counts each label in an epoch-marked, label-indexed table,
//!    child slots are sized from the counts in ascending label order,
//!    and a second pass writes each point once into its child, already
//!    dense or sparse ([`ConsistentSet::start_counted`]). A
//!    one-distribution group reads its pairs straight off the union and
//!    its labels; a shared group reads them off each distribution's live
//!    set and a per-point label table. Every route gives the same
//!    children, and a shared group builds its union on every node, so a
//!    parity protocol and the same masks behind `message` walk to the
//!    same bits and the same work counts. Plane and word-split words go
//!    through no kernel call, so `kernel.words.*` does not count them
//!    (nor the per-point `message` calls they replace).
//! 2. **Pooled mask workspace.** Child sets live in per-depth slot
//!    pools that are reused across sibling nodes, the walk swaps them
//!    into the alive state for the duration of a subtree (one
//!    checkpoint/restore per recursion level), and every per-node
//!    scratch vector (unions, labels, planes, bucket pairs) is reused —
//!    the steady-state recursion performs **zero heap allocations**
//!    (pinned by `crates/core/tests/alloc.rs`).
//! 3. **Hybrid consistent sets.** Sets start dense and demote to sorted
//!    sparse index lists once their live count falls to the word budget
//!    ([`bcc_f2::sparse_budget`]), after which every set operation —
//!    intersect, count, iterate — costs `O(live)`: huge supports
//!    (2^20+) with tiny surviving sets walk in time proportional to
//!    what is alive.
//!
//! The walk is bitwise identical to the seed implementation, which is
//! retained in the crate-private `reference` module as the
//! differential-testing oracle, reachable through
//! [`exact_mixture_comparison_reference`](crate::engine::exact_mixture_comparison_reference)
//! (see `crates/core/tests/prop.rs`).
//!
//! # Execution strategy
//!
//! For parallelism the tree is cut at a frontier depth
//! ([`adaptive_split_depth`] at the protocol's width): the prefix above
//! the frontier is walked sequentially, every live frontier node becomes an independent subtree
//! task (the mixture distance needs all members' probabilities *per
//! node*, so fanning out over subtrees — not just over family members —
//! is what parallelizes the whole computation), and task results are
//! reduced **in frontier order**. Task snapshots are slim: only the rows
//! spoken above the cut can differ from full, so only those are cloned
//! per frontier node and each task reconstructs the rest. Floating-point accumulation order is
//! therefore a function of the tree and the frontier depth alone, never
//! of thread scheduling: runs of the same walk on pools of 1 and 4
//! threads (which cut the same frontier) return bitwise-identical
//! results, a property pinned by the workspace's property tests at
//! width 1 and above.
//!
//! A pool of one worker runs the whole frontier as one chunk, so its
//! pooled buffers warm once per walk. A walk called inside another
//! parallel call's item (a lab sweep's point) runs its tasks on the
//! calling thread: the vendored rayon never runs more threads than the
//! pool's size. The chunking, and so every bit, is the same either way.
//!
//! The frontier depth itself adapts to the rayon pool (see
//! [`adaptive_split_depth`]): on a single-core machine it is exactly the
//! historical [`SPLIT_DEPTH`], and it grows with the thread count so
//! wide machines see enough tasks. Exact results are reproducible across
//! machines at equal thread counts (pin `RAYON_NUM_THREADS` to compare
//! across different hardware).

use bcc_congest::wide::{WideTranscript, WideTurnProtocol};
use bcc_f2::kernel::{self, WordKernel};
use bcc_f2::ConsistentSet;
use rayon::prelude::*;

use crate::input::{ProductInput, RowSupport};

pub(crate) mod reference;

/// Consistent-set-size thresholds tracked per turn: entry `j` is the
/// baseline probability that the speaker's surviving support fraction is
/// below `2^{-j}`.
pub const FRACTION_THRESHOLDS: usize = 20;

/// The baseline bit-depth at which the exact walk cuts the turn tree
/// into independent subtree tasks — the value used on a single-core
/// machine, and the floor of the adaptive depth on larger pools (see
/// [`split_depth_for_threads`]). A branching-factor-`2^w` walk cuts at
/// depth `SPLIT_DEPTH / w` (at least 1).
pub const SPLIT_DEPTH: u32 = 6;

/// The ceiling of the adaptive frontier bit-depth: at most
/// `2^MAX_SPLIT_DEPTH` subtree tasks fan out however many threads the
/// pool has, bounding frontier-state memory.
pub const MAX_SPLIT_DEPTH: u32 = 12;

/// The frontier bit-depth for a pool of `threads` workers, as a pure
/// function (what [`adaptive_split_depth`] applies to the live pool).
///
/// One thread keeps the historical [`SPLIT_DEPTH`] so single-core runs
/// (CI containers included) are bit-for-bit unchanged from earlier
/// releases; larger pools get roughly four tasks per worker — enough
/// slack for dynamic scheduling to absorb unbalanced subtrees — capped
/// at [`MAX_SPLIT_DEPTH`]. A width-`w` branching divides the bit-depth
/// by `w` (at least one turn), keeping the task count comparable across
/// message widths.
pub fn split_depth_for_threads(threads: usize, width: u32) -> u32 {
    assert!(width >= 1, "branching width must be at least 1");
    let bits = if threads <= 1 {
        SPLIT_DEPTH
    } else {
        let want = threads
            .saturating_mul(4)
            .next_power_of_two()
            .trailing_zeros();
        want.clamp(SPLIT_DEPTH, MAX_SPLIT_DEPTH)
    };
    (bits / width).max(1)
}

/// The frontier depth adapted to the current rayon pool:
/// [`split_depth_for_threads`] at [`rayon::current_num_threads`].
///
/// The exact walk cuts its frontier at this depth for the protocol's
/// width. Runs on pools that map to the same depth always agree bitwise;
/// to compare exact outputs across machines with different core counts,
/// pin `RAYON_NUM_THREADS`.
pub fn adaptive_split_depth(width: u32) -> u32 {
    split_depth_for_threads(rayon::current_num_threads(), width)
}

/// The raw accumulators of one exact walk, before the engine assembles
/// them into an exact [`DepthProfile`](crate::exec::DepthProfile).
#[derive(Debug, Clone)]
pub(crate) struct WalkOutcome {
    /// `‖ avg_I P_I^{(t)} − P_base^{(t)} ‖` for `t = 0 ..= horizon`.
    pub mixture_tv_by_depth: Vec<f64>,
    /// `L_progress^{(t)} = E_I ‖P_I^{(t)} − P_base^{(t)}‖`.
    pub progress_by_depth: Vec<f64>,
    /// Final distance per family member.
    pub per_member_tv: Vec<f64>,
    /// `E_{p ∼ P_base^{(t)}} [ |D_p| / |support| ]` per turn.
    pub mean_fraction: Vec<f64>,
    /// `mass_below[t][j] = Pr_{p ∼ P_base^{(t)}} [ |D_p|/|support| < 2^{-j} ]`.
    pub mass_below: Vec<[f64; FRACTION_THRESHOLDS]>,
}

impl WalkOutcome {
    fn zeros(t_len: usize, m: usize) -> Self {
        WalkOutcome {
            mixture_tv_by_depth: vec![0.0; t_len + 1],
            progress_by_depth: vec![0.0; t_len + 1],
            per_member_tv: vec![0.0; m],
            mean_fraction: vec![0.0; t_len],
            mass_below: vec![[0.0; FRACTION_THRESHOLDS]; t_len],
        }
    }

    fn add(&mut self, other: &WalkOutcome) {
        let pairs = [
            (&mut self.mixture_tv_by_depth, &other.mixture_tv_by_depth),
            (&mut self.progress_by_depth, &other.progress_by_depth),
            (&mut self.per_member_tv, &other.per_member_tv),
            (&mut self.mean_fraction, &other.mean_fraction),
        ];
        for (dst, src) in pairs {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        for (dst, src) in self.mass_below.iter_mut().zip(&other.mass_below) {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

/// Exact mixture-vs-baseline walk of `protocol`: the full §3 framework
/// computation.
///
/// # Panics
///
/// Panics if `members` is empty, the processor counts / input widths
/// disagree with the protocol, or the protocol broadcasts a message
/// wider than its width. Node-budget limits are the caller's to enforce
/// (the walk itself visits only live nodes).
pub(crate) fn exact_walk<P: WideTurnProtocol + Sync + ?Sized>(
    protocol: &P,
    members: &[ProductInput],
    baseline: &ProductInput,
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
    let width = protocol.width();
    let split = adaptive_split_depth(width).min(horizon);
    // Rows that can differ from full at the frontier: exactly the
    // speakers of the turns above it. Frontier snapshots clone only
    // these; tasks reconstruct the rest as full sets.
    let mut touched: Vec<usize> = (0..split).map(|t| protocol.speaker(t)).collect();
    touched.sort_unstable();
    touched.dedup();
    // A protocol that names the parity mask of its first message is
    // split by input bit planes: build them for every spoken row.
    let parity = horizon > 0
        && protocol
            .parity_mask(protocol.speaker(0), &WideTranscript::empty(width), 0)
            .is_some();
    let mut spoken = vec![false; n];
    if parity {
        for t in 0..horizon {
            spoken[protocol.speaker(t)] = true;
        }
    }
    let (groups, planes) = row_groups(members, baseline, &spoken);
    let ctx = Ctx {
        protocol,
        members,
        baseline,
        horizon,
        split,
        n,
        m,
        width,
        groups,
        planes,
        touched,
    };

    // Observability: resolve the installed registry once on the calling
    // thread (thread-local scopes do not cross rayon spawns) and carry
    // the handle into the parallel phase. With no registry installed
    // every tally flush below is a no-op.
    let obs = bcc_obs::current();
    let _walk_span = bcc_obs::Span::begin_for("walk.exact", obs.clone());

    let mut acc = WalkOutcome::zeros(horizon as usize, m);
    // Dist-major alive state: dist 0 is the baseline, dist i+1 member i.
    let ctx_ref = &ctx;
    let mut state: Vec<ConsistentSet> = (0..=m)
        .flat_map(|d| (0..n).map(move |row| ConsistentSet::full(ctx_ref.row(d, row).len())))
        .collect();
    let mut ws = Workspace::new(horizon);

    // Phase 1: sequential walk of the prefix above the frontier, recording
    // every live frontier node as an independent task.
    let mut frontier = Vec::new();
    let probs = vec![1.0f64; m];
    walk(
        &ctx,
        0,
        WideTranscript::empty(width),
        &mut state,
        &probs,
        1.0,
        &mut acc,
        Some(&mut frontier),
        &mut ws,
    );

    if let Some(o) = &obs {
        o.add(
            "walk.frontier_tasks",
            bcc_obs::Class::Work,
            frontier.len() as u64,
        );
    }

    // Phase 2: run the subtree tasks. `collect` preserves frontier order
    // (and chunks are contiguous), so the reduction below adds task
    // results in a schedule-independent order and every pool size that
    // cuts the same frontier agrees bitwise. Tasks are grouped into small
    // contiguous chunks sharing one workspace each: pooled buffers warm
    // once per chunk instead of once per task, while ~4 chunks per worker
    // keep dynamic scheduling granular enough to absorb unbalanced
    // subtrees. One worker has nothing to balance: it takes the whole
    // frontier as one chunk, and its workspace warms once.
    let workers = rayon::current_num_threads().max(1);
    let chunk_len = if workers == 1 {
        frontier.len().max(1)
    } else {
        frontier.len().div_ceil(workers * 4).max(1)
    };
    let chunks: Vec<Vec<SubtreeTask>> = {
        let mut chunks = Vec::with_capacity(frontier.len().div_ceil(chunk_len));
        let mut it = frontier.into_iter();
        loop {
            let chunk: Vec<_> = it.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        chunks
    };
    let obs_ref = &obs;
    let task_accs: Vec<WalkOutcome> = chunks
        .into_par_iter()
        .map(|chunk| {
            // The run's scope on this thread takes the chunk's kernel words.
            let _scope = obs_ref.as_ref().map(bcc_obs::Registry::install);
            let _chunk_span = bcc_obs::Span::begin_for("walk.chunk", obs_ref.clone());
            let mut task_ws = Workspace::new(ctx.horizon);
            let outcomes = chunk
                .into_iter()
                .map(|task| run_task(&ctx, task, &mut task_ws))
                .collect::<Vec<_>>();
            if let Some(o) = obs_ref {
                task_ws.tally.flush(o);
            }
            outcomes
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect();
    for task_acc in &task_accs {
        acc.add(task_acc);
    }
    // Phase-1 work.
    if let Some(o) = &obs {
        ws.tally.flush(o);
    }
    acc
}

/// Distributions whose speaker-row supports share one `Arc` allocation:
/// the protocol is evaluated once per group per node.
struct RowGroup {
    /// Distribution indices (0 = baseline, `i + 1` = member `i`).
    dists: Vec<usize>,
    /// The group's input bit planes in [`Ctx::planes`], on a parity walk.
    planes: Option<usize>,
}

/// Groups the `m + 1` distributions of every row by `Arc` identity of
/// their [`RowSupport`]s, and builds the [`input_planes`] of each
/// distinct support of a row marked in `spoken`, once per `Arc`.
fn row_groups(
    members: &[ProductInput],
    baseline: &ProductInput,
    spoken: &[bool],
) -> (Vec<Vec<RowGroup>>, Vec<Vec<u64>>) {
    let n = baseline.n();
    let m = members.len();
    let mut planes = Vec::new();
    let mut planes_of: Vec<(*const RowSupport, usize)> = Vec::new();
    let groups = (0..n)
        .map(|row| {
            let mut groups: Vec<(*const RowSupport, RowGroup)> = Vec::new();
            for d in 0..=m {
                let support: &RowSupport = if d == 0 {
                    baseline.row(row)
                } else {
                    members[d - 1].row(row)
                };
                let ptr = support as *const RowSupport;
                match groups.iter_mut().find(|(p, _)| *p == ptr) {
                    Some((_, group)) => group.dists.push(d),
                    None => {
                        let planes =
                            spoken[row].then(|| match planes_of.iter().find(|(p, _)| *p == ptr) {
                                Some(&(_, id)) => id,
                                None => {
                                    planes.push(input_planes(support));
                                    planes_of.push((ptr, planes.len() - 1));
                                    planes.len() - 1
                                }
                            });
                        let group = RowGroup {
                            dists: vec![d],
                            planes,
                        };
                        groups.push((ptr, group));
                    }
                }
            }
            groups.into_iter().map(|(_, group)| group).collect()
        })
        .collect();
    (groups, planes)
}

/// The input bit planes of `support`: plane `j` (words `j·W ..
/// (j+1)·W`, `W = ⌈len/64⌉`) has bit `i` set iff input bit `j` of point
/// `i` is set. Tail bits past the support stay zero.
fn input_planes(support: &RowSupport) -> Vec<u64> {
    let words = support.len().div_ceil(64);
    let mut planes = vec![0u64; support.bits() as usize * words];
    for (i, &point) in support.points().iter().enumerate() {
        let bit = 1u64 << (i % 64);
        let mut rest = point;
        while rest != 0 {
            planes[rest.trailing_zeros() as usize * words + i / 64] |= bit;
            rest &= rest - 1;
        }
    }
    planes
}

/// Shared read-only context of one exact walk.
struct Ctx<'a, P: ?Sized> {
    protocol: &'a P,
    members: &'a [ProductInput],
    baseline: &'a ProductInput,
    horizon: u32,
    split: u32,
    n: usize,
    m: usize,
    /// The message width: every label is below `2^width`, and a width-1
    /// alphabet `{0, 1}` splits on a packed bit plane.
    width: u32,
    /// Per row: distributions grouped by shared support allocation.
    groups: Vec<Vec<RowGroup>>,
    /// Input bit planes per distinct spoken support ([`input_planes`]);
    /// empty unless the protocol names parity masks.
    planes: Vec<Vec<u64>>,
    /// Rows spoken above the frontier, ascending: the only rows whose
    /// alive sets a [`SubtreeTask`] snapshot has to carry.
    touched: Vec<usize>,
}

impl<P: ?Sized> Ctx<'_, P> {
    /// Distribution `d`'s support of processor `row` (`d` dist-major:
    /// 0 = baseline).
    fn row(&self, d: usize, row: usize) -> &RowSupport {
        if d == 0 {
            self.baseline.row(row)
        } else {
            self.members[d - 1].row(row)
        }
    }

    /// Index of `(dist d, processor row)` in the flat alive state.
    fn state_idx(&self, d: usize, row: usize) -> usize {
        d * self.n + row
    }
}

/// A live frontier node: everything a subtree walk needs. The alive
/// state is snapshotted compactly: only rows spoken above the frontier
/// (`Ctx::touched`) are cloned — every other row is still full and is
/// reconstructed by [`run_task`] — and sparse rows copy only their live
/// indices.
struct SubtreeTask {
    prefix: WideTranscript,
    /// `touched.len()` sets per distribution, dist-major, rows in
    /// `Ctx::touched` order.
    touched_state: Vec<ConsistentSet>,
    probs: Vec<f64>,
    prob_base: f64,
}

fn run_task<P: WideTurnProtocol + ?Sized>(
    ctx: &Ctx<'_, P>,
    task: SubtreeTask,
    ws: &mut Workspace,
) -> WalkOutcome {
    let mut acc = WalkOutcome::zeros(ctx.horizon as usize, ctx.m);
    // Rebuild the full alive state: snapshot sets at touched rows, full
    // sets (what phase 1 left untouched) everywhere else.
    let mut snap = task.touched_state.into_iter();
    let mut state = Vec::with_capacity((ctx.m + 1) * ctx.n);
    for d in 0..=ctx.m {
        let mut ti = 0;
        for row in 0..ctx.n {
            if ti < ctx.touched.len() && ctx.touched[ti] == row {
                state.push(snap.next().expect("snapshot covers touched rows"));
                ti += 1;
            } else {
                state.push(ConsistentSet::full(ctx.row(d, row).len()));
            }
        }
    }
    walk(
        ctx,
        ctx.split,
        task.prefix,
        &mut state,
        &task.probs,
        task.prob_base,
        &mut acc,
        None,
        ws,
    );
    acc
}

/// Marker for "this distribution has no live point at this label".
const NO_SLOT: u32 = u32::MAX;

/// Scratch consumed entirely within one node *before* recursing: safe to
/// share across all depths.
#[derive(Default)]
struct NodeScratch {
    /// Union of the group's live indices, ascending.
    union_idx: Vec<u32>,
    /// Word buffer for dense unions.
    union_words: Vec<u64>,
    /// Labels parallel to `union_idx`: the speaker's messages, or read
    /// off the label planes for the counted split.
    labels: Vec<u64>,
    /// Per-point label table indexed by absolute point index; only
    /// entries at the current group's union-live points are valid.
    /// (Shared groups of the counted split only.)
    point_label: Vec<u64>,
    /// The label-indexed counts and slots of the counted split.
    split: LabelSplit,
    /// The node's parity masks, one per message bit (parity nodes).
    masks: Vec<u64>,
    /// Label planes over the group's support, `⌈len/64⌉` words each:
    /// plane `b` has bit `i` set iff point `i`'s message has bit `b` set.
    /// `width` planes on a parity node; plane 0 alone on a width-1
    /// message node whose group has a dense set.
    label_planes: Vec<u64>,
    /// The word-parallel split's partial children.
    partials: WordSplit,
}

/// The partial children of [`split_words`], one label plane at a time:
/// `words` holds each partial's packed mask back to back, `meta` its
/// label so far and its live count. `next_*` is the level being built.
#[derive(Default)]
struct WordSplit {
    words: Vec<u64>,
    meta: Vec<(u64, usize)>,
    next_words: Vec<u64>,
    next_meta: Vec<(u64, usize)>,
}

impl NodeScratch {
    /// Grows the counted split's label table to hold every label up to
    /// `max_label`, outside its passes.
    fn grow_cells(&mut self, max_label: u64) {
        let cells = &mut self.split.cells;
        if cells.len() <= max_label as usize {
            cells.resize(max_label as usize + 1, LabelCell::default());
        }
    }
}

/// One label's entry in [`LabelSplit::cells`].
#[derive(Clone, Copy, Default)]
struct LabelCell {
    /// The [`LabelSplit::epoch`] that last counted this label: the
    /// other fields are valid only while it is current.
    epoch: u64,
    /// Live points of the distribution being split that carry the label.
    count: u32,
    /// The label's child slot in the depth's pool.
    slot: u32,
}

/// The counted split of one distribution's live points by label.
/// Labels are below `2^width <= 2^16`, so the table indexes them
/// directly; it is never cleared — bumping the epoch invalidates every
/// cell in O(1).
#[derive(Default)]
struct LabelSplit {
    cells: Vec<LabelCell>,
    epoch: u64,
    /// Distinct labels of the current split, ascending once counted:
    /// the child order.
    labels: Vec<u64>,
}

impl LabelSplit {
    /// Splits distribution `d`'s speaker set `parent` on the labels of
    /// `pairs` — its live points, ascending, each with its label — into
    /// one child per live label, appended to `scratch` in ascending label
    /// order. One pass counts, the slots are sized from the counts, and a
    /// second pass writes each point once into its child's final
    /// representation.
    fn split<I: Iterator<Item = (usize, u64)> + Clone>(
        &mut self,
        d: usize,
        parent: &ConsistentSet,
        universe: usize,
        pairs: I,
        scratch: &mut DepthScratch,
        tally: &mut WalkTally,
    ) {
        self.epoch += 1;
        self.labels.clear();
        for (_, label) in pairs.clone() {
            let cell = &mut self.cells[label as usize];
            if cell.epoch != self.epoch {
                *cell = LabelCell {
                    epoch: self.epoch,
                    ..LabelCell::default()
                };
                self.labels.push(label);
            }
            cell.count += 1;
        }
        self.labels.sort_unstable();
        let parent_sparse = parent.is_sparse();
        for &label in &self.labels {
            let cell = &mut self.cells[label as usize];
            let slot = scratch.alloc_slot();
            cell.slot = slot as u32;
            let child = &mut scratch.built[slot];
            child.start_counted(universe, cell.count as usize);
            if !parent_sparse && child.is_sparse() {
                tally.demotions += 1;
            }
            scratch.runs.push((d as u32, label, slot as u32));
        }
        for (i, label) in pairs {
            let slot = self.cells[label as usize].slot;
            scratch.built[slot as usize].push_counted(i);
        }
    }
}

/// Per-depth pooled scratch: child-set slots and the per-node tables
/// built over them. Reused across every sibling node at this depth.
#[derive(Default)]
struct DepthScratch {
    /// Slot pool for child sets; `built_len` is the live prefix, slots
    /// beyond it keep their buffers for reuse.
    built: Vec<ConsistentSet>,
    built_len: usize,
    /// `(dist, label, slot)` for every non-empty child set.
    runs: Vec<(u32, u64, u32)>,
    /// Union of live labels, ascending: the deterministic child order.
    labels: Vec<u64>,
    /// `matrix[li * (m + 1) + d]`: slot of label `li` for dist `d`, or
    /// [`NO_SLOT`].
    matrix: Vec<u32>,
    /// Parent live counts per dist (speaker row).
    totals: Vec<usize>,
    /// Child probabilities, refilled per label.
    child_probs: Vec<f64>,
    /// Per-dist empty sets swapped in where a label is dead.
    empties: Vec<ConsistentSet>,
}

impl DepthScratch {
    fn alloc_slot(&mut self) -> usize {
        if self.built_len == self.built.len() {
            self.built.push(ConsistentSet::empty(0));
        }
        self.built_len += 1;
        self.built_len - 1
    }
}

/// Run-local deterministic work tally. Preallocated with the workspace
/// so the steady-state recursion stays allocation-free (the
/// `crates/core/tests/alloc.rs` pin), and flushed into the installed
/// [`bcc_obs::Registry`] — if any — once per workspace use (the prefix
/// walk's, then one per chunk), never per node. Every count is a pure
/// function of the tree and the frontier depth, so totals agree across
/// pool sizes at equal split depth.
#[derive(Default)]
struct WalkTally {
    /// Sum over internal nodes of the per-distribution live counts at
    /// the speaker row: the points the node's splits actually price.
    live_points: u64,
    /// Non-empty child consistent sets constructed.
    children_built: u64,
    /// Dense parents that produced a sparse child (hybrid-set
    /// demotions to sorted index lists).
    demotions: u64,
    /// Nodes whose depth-`t` contribution this workspace accumulated,
    /// per depth `t` (`horizon + 1` entries); `walk.nodes` is their sum.
    nodes_by_depth: Vec<u64>,
}

impl WalkTally {
    fn new(horizon: u32) -> Self {
        WalkTally {
            nodes_by_depth: vec![0; horizon as usize + 1],
            ..WalkTally::default()
        }
    }

    fn flush(&self, obs: &bcc_obs::Registry) {
        use bcc_obs::Class;
        obs.add("walk.nodes", Class::Work, self.nodes_by_depth.iter().sum());
        obs.add("walk.live_points", Class::Work, self.live_points);
        obs.add("walk.children_built", Class::Work, self.children_built);
        obs.add(
            "walk.demotions_dense_to_sparse",
            Class::Work,
            self.demotions,
        );
        for (depth, &count) in self.nodes_by_depth.iter().enumerate() {
            if count > 0 {
                obs.add_at("walk.nodes_by_depth", Class::Work, depth, count);
            }
        }
    }
}

/// The walk's reusable buffers: one [`NodeScratch`] (consumed within a
/// node) plus one [`DepthScratch`] per recursion level, plus the work
/// tally the buffers' owner flushes when it is done.
struct Workspace {
    node: NodeScratch,
    depths: Vec<DepthScratch>,
    tally: WalkTally,
}

impl Workspace {
    fn new(horizon: u32) -> Self {
        Workspace {
            node: NodeScratch::default(),
            depths: (0..horizon.max(1))
                .map(|_| DepthScratch::default())
                .collect(),
            tally: WalkTally::new(horizon),
        }
    }
}

/// Builds the node's children — the per-label, per-distribution child
/// sets of the speaker's alive sets — into `scratch`, labelling each
/// shared support row once: from its input bit planes on a parity node,
/// otherwise by evaluating the protocol over the union of live points.
fn build_children<P: WideTurnProtocol + ?Sized>(
    ctx: &Ctx<'_, P>,
    speaker: usize,
    prefix: &WideTranscript,
    state: &[ConsistentSet],
    node: &mut NodeScratch,
    scratch: &mut DepthScratch,
    tally: &mut WalkTally,
) {
    let dcount = ctx.m + 1;
    scratch.built_len = 0;
    scratch.runs.clear();

    let parity = !ctx.planes.is_empty() && {
        node.masks.clear();
        (0..ctx.width).all(|b| match ctx.protocol.parity_mask(speaker, prefix, b) {
            Some(mask) => {
                node.masks.push(mask);
                true
            }
            None => false,
        })
    };
    for group in &ctx.groups[speaker] {
        let input_planes = group
            .planes
            .filter(|_| parity)
            .map(|id| ctx.planes[id].as_slice());
        split_group(
            ctx,
            group,
            input_planes,
            speaker,
            prefix,
            state,
            node,
            scratch,
            tally,
        );
    }

    // The union of live labels, ascending: a label dead in every
    // distribution never appears, so the walk costs what is alive, not
    // what the alphabet could express.
    scratch.labels.clear();
    scratch
        .labels
        .extend(scratch.runs.iter().map(|&(_, label, _)| label));
    scratch.labels.sort_unstable();
    scratch.labels.dedup();

    scratch.matrix.clear();
    scratch
        .matrix
        .resize(scratch.labels.len() * dcount, NO_SLOT);
    for &(d, label, slot) in &scratch.runs {
        let li = scratch
            .labels
            .binary_search(&label)
            .expect("every run label is in the union");
        scratch.matrix[li * dcount + d as usize] = slot;
    }

    scratch.totals.clear();
    for d in 0..dcount {
        scratch
            .totals
            .push(state[ctx.state_idx(d, speaker)].count());
    }

    if scratch.empties.len() < dcount {
        scratch
            .empties
            .resize_with(dcount, || ConsistentSet::empty(0));
    }
}

/// Fills `node.union_idx` with the union of the group's live points at
/// the speaker row, ascending, and says whether every set is sparse.
fn group_union<P: ?Sized>(
    ctx: &Ctx<'_, P>,
    group: &RowGroup,
    speaker: usize,
    state: &[ConsistentSet],
    node: &mut NodeScratch,
) -> bool {
    let d0 = group.dists[0];
    node.union_idx.clear();
    let all_sparse = group
        .dists
        .iter()
        .all(|&d| state[ctx.state_idx(d, speaker)].is_sparse());
    if group.dists.len() == 1 {
        let set = &state[ctx.state_idx(d0, speaker)];
        node.union_idx.extend(set.iter().map(|i| i as u32));
    } else if all_sparse {
        for &d in &group.dists {
            node.union_idx.extend_from_slice(
                state[ctx.state_idx(d, speaker)]
                    .sparse_indices()
                    .expect("all_sparse checked"),
            );
        }
        node.union_idx.sort_unstable();
        node.union_idx.dedup();
    } else {
        node.union_words.clear();
        node.union_words
            .resize(ctx.row(d0, speaker).len().div_ceil(64), 0);
        let k = kernel::active();
        for &d in &group.dists {
            let set = &state[ctx.state_idx(d, speaker)];
            match set.dense_words() {
                Some(w) => k.or_in_place(&mut node.union_words, w),
                None => {
                    for &i in set.sparse_indices().expect("not dense") {
                        node.union_words[i as usize / 64] |= 1u64 << (i % 64);
                    }
                }
            }
        }
        k.ones_indices(&node.union_words, &mut node.union_idx);
    }
    all_sparse
}

/// Splits distribution `d`'s non-empty speaker set `parent` on a width-1
/// label plane: two word-parallel `AND`s for a dense parent.
fn split_by_plane(
    d: usize,
    parent: &ConsistentSet,
    plane: &[u64],
    scratch: &mut DepthScratch,
    tally: &mut WalkTally,
) {
    for (label, keep) in [(0u64, false), (1u64, true)] {
        let slot = scratch.alloc_slot();
        scratch.built[slot].assign_filtered(parent, plane, keep);
        if scratch.built[slot].is_empty() {
            scratch.built_len -= 1;
        } else {
            if !parent.is_sparse() && scratch.built[slot].is_sparse() {
                tally.demotions += 1;
            }
            scratch.runs.push((d as u32, label, slot as u32));
        }
    }
}

/// Whether the word-parallel split prices a dense `parent` at no more
/// words than it has live points: its widest level holds at most
/// `min(2^width, count)` partial masks of `words` words each. A sparser
/// dense set takes the counted split; both give the same children.
fn words_split_pays(parent: &ConsistentSet, width: u32, words: usize) -> bool {
    !parent.is_sparse() && (1usize << width).min(parent.count()) * words <= parent.count()
}

/// Labels one group's speaker sets once — from its input planes on a
/// parity node (`input_planes` given), otherwise by one
/// [`message`](WideTurnProtocol::message) per point of its live union —
/// and splits every non-empty set by the one rule of the module docs:
/// [`split_by_plane`] or [`split_words`] when the group has label planes
/// and the width is 1 or [`words_split_pays`], else the counted
/// [`LabelSplit`].
#[allow(clippy::too_many_arguments)]
fn split_group<P: WideTurnProtocol + ?Sized>(
    ctx: &Ctx<'_, P>,
    group: &RowGroup,
    input_planes: Option<&[u64]>,
    speaker: usize,
    prefix: &WideTranscript,
    state: &[ConsistentSet],
    node: &mut NodeScratch,
    scratch: &mut DepthScratch,
    tally: &mut WalkTally,
) {
    let universe = ctx.row(group.dists[0], speaker).len();
    let words = universe.div_ceil(64);
    let width = ctx.width;

    // Label the group once.
    let mut seen = 0u64;
    let has_planes = match input_planes {
        Some(input_planes) => {
            // Mask bits at or above the input width select no input bit.
            let input_mask = (1u64 << ctx.protocol.input_bits()) - 1;
            node.label_planes.clear();
            node.label_planes.resize(width as usize * words, 0);
            for (plane, &mask) in node.label_planes.chunks_exact_mut(words).zip(&node.masks) {
                let mut rest = mask & input_mask;
                while rest != 0 {
                    let j = rest.trailing_zeros() as usize;
                    for (p, &x) in plane
                        .iter_mut()
                        .zip(&input_planes[j * words..(j + 1) * words])
                    {
                        *p ^= x;
                    }
                    rest &= rest - 1;
                }
            }
            true
        }
        None => {
            let all_sparse = group_union(ctx, group, speaker, state, node);
            if node.union_idx.is_empty() {
                return;
            }
            // The width check keeps every label inside the alphabet the
            // splits index by: plane 0 at width 1, the direct label
            // tables (below 2^16) at wider widths.
            let points = ctx.row(group.dists[0], speaker).points();
            node.labels.clear();
            node.labels.extend(node.union_idx.iter().map(|&i| {
                let label = ctx.protocol.message(speaker, points[i as usize], prefix);
                seen |= label;
                label
            }));
            assert!(seen >> width == 0, "message exceeds {width} bits");
            let packed = width == 1 && !all_sparse;
            if packed {
                node.label_planes.clear();
                node.label_planes.resize(words, 0);
                for (&i, &label) in node.union_idx.iter().zip(&node.labels) {
                    node.label_planes[i as usize / 64] |= label << (i % 64);
                }
            }
            packed
        }
    };

    // Split every non-empty set by one rule. A counted set's pairs come
    // straight off the union and its labels when the set *is* the union
    // (a one-distribution group); a shared group scatters the labels into
    // a per-point table once and reads each set's pairs off the set.
    let on_planes = |parent: &ConsistentSet| {
        has_planes && (width == 1 || words_split_pays(parent, width, words))
    };
    let any_counted = group.dists.iter().any(|&d| {
        let parent = &state[ctx.state_idx(d, speaker)];
        !parent.is_empty() && !on_planes(parent)
    });
    let shared = group.dists.len() > 1;
    if input_planes.is_some() && (shared || any_counted) {
        group_union(ctx, group, speaker, state, node);
    }
    if any_counted {
        if input_planes.is_some() {
            node.labels.clear();
            let label_planes = &node.label_planes;
            node.labels.extend(node.union_idx.iter().map(|&i| {
                let (word, bit) = (i as usize / 64, i % 64);
                let mut label = 0u64;
                for (b, plane) in label_planes.chunks_exact(words).enumerate() {
                    label |= ((plane[word] >> bit) & 1) << b;
                }
                seen |= label;
                label
            }));
        }
        // Every label is at most `seen`, so the table grows once here
        // and never inside the passes.
        node.grow_cells(seen);
        if shared {
            if node.point_label.len() < universe {
                node.point_label.resize(universe, 0);
            }
            for (&i, &label) in node.union_idx.iter().zip(&node.labels) {
                node.point_label[i as usize] = label;
            }
        }
    }
    for &d in &group.dists {
        let parent = &state[ctx.state_idx(d, speaker)];
        if parent.is_empty() {
            continue;
        }
        if !on_planes(parent) {
            if shared {
                let point_label = &node.point_label;
                let pairs = parent.iter().map(|i| (i, point_label[i]));
                node.split.split(d, parent, universe, pairs, scratch, tally);
            } else {
                let pairs = node.union_idx.iter().zip(&node.labels);
                let pairs = pairs.map(|(&i, &label)| (i as usize, label));
                node.split.split(d, parent, universe, pairs, scratch, tally);
            }
        } else if width == 1 {
            split_by_plane(d, parent, &node.label_planes, scratch, tally);
        } else {
            split_words(
                d,
                parent,
                universe,
                &node.label_planes,
                &mut node.partials,
                scratch,
                tally,
            );
        }
    }
}

/// Splits distribution `d`'s dense speaker set `parent` by its label
/// planes (`width` planes of `parent`'s word count, back to back) into
/// one child per live label. Each level ANDs every partial child with
/// the next plane and with its complement, counts both halves by
/// popcount and keeps the non-empty ones, so a wide alphabet costs its
/// live labels only. Each child is then built dense or sparse by its
/// count ([`ConsistentSet::assign_words`]).
fn split_words(
    d: usize,
    parent: &ConsistentSet,
    universe: usize,
    label_planes: &[u64],
    partials: &mut WordSplit,
    scratch: &mut DepthScratch,
    tally: &mut WalkTally,
) {
    let parent_words = parent.dense_words().expect("a dense parent");
    let words = parent_words.len();
    let WordSplit {
        words: cur,
        meta,
        next_words: next,
        next_meta,
    } = partials;
    cur.clear();
    meta.clear();
    let root = [(0u64, parent.count())];
    for (b, plane) in label_planes.chunks_exact(words).enumerate() {
        next.clear();
        next_meta.clear();
        let sources: &[(u64, usize)] = if b == 0 { &root } else { meta };
        for (pi, &(label, count)) in sources.iter().enumerate() {
            let src = if b == 0 {
                parent_words
            } else {
                &cur[pi * words..(pi + 1) * words]
            };
            let start = next.len();
            next.resize(start + 2 * words, 0);
            let (zeros, ones) = next[start..].split_at_mut(words);
            let mut ones_count = 0usize;
            for (((z, o), &x), &p) in zeros.iter_mut().zip(ones.iter_mut()).zip(src).zip(plane) {
                *z = x & !p;
                *o = x & p;
                ones_count += (x & p).count_ones() as usize;
            }
            let zeros_count = count - ones_count;
            if zeros_count == 0 {
                next.copy_within(start + words..start + 2 * words, start);
            }
            if zeros_count == 0 || ones_count == 0 {
                next.truncate(start + words);
            }
            if zeros_count > 0 {
                next_meta.push((label, zeros_count));
            }
            if ones_count > 0 {
                next_meta.push((label | 1 << b, ones_count));
            }
        }
        std::mem::swap(cur, next);
        std::mem::swap(meta, next_meta);
    }
    for (pi, &(label, count)) in meta.iter().enumerate() {
        let slot = scratch.alloc_slot();
        let child = &mut scratch.built[slot];
        child.assign_words(universe, &cur[pi * words..(pi + 1) * words], count);
        if child.is_sparse() {
            tally.demotions += 1;
        }
        scratch.runs.push((d as u32, label, slot as u32));
    }
}

#[allow(clippy::too_many_arguments)]
fn walk<P: WideTurnProtocol + ?Sized>(
    ctx: &Ctx<'_, P>,
    depth: u32,
    prefix: WideTranscript,
    state: &mut Vec<ConsistentSet>,
    probs: &[f64],
    prob_base: f64,
    acc: &mut WalkOutcome,
    mut frontier: Option<&mut Vec<SubtreeTask>>,
    ws: &mut Workspace,
) {
    let t = depth as usize;
    let m = ctx.m;

    // Frontier cut: hand the subtree to a task instead of walking it (its
    // own depth-t contribution is accumulated by the task).
    if let Some(tasks) = frontier.as_deref_mut() {
        if depth == ctx.split && depth < ctx.horizon {
            let mut touched_state = Vec::with_capacity((m + 1) * ctx.touched.len());
            for d in 0..=m {
                for &row in &ctx.touched {
                    touched_state.push(state[ctx.state_idx(d, row)].clone());
                }
            }
            tasks.push(SubtreeTask {
                prefix,
                touched_state,
                probs: probs.to_vec(),
                prob_base,
            });
            return;
        }
    }

    // Depth-t prefix accumulation. Frontier-cut nodes were handed off
    // above, so every accumulated node is tallied exactly once — by
    // phase 1 or by the task that owns its subtree.
    ws.tally.nodes_by_depth[t] += 1;

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
        let fraction = state[ctx.state_idx(0, speaker)].count() as f64
            / ctx.baseline.row(speaker).len() as f64;
        acc.mean_fraction[t] += prob_base * fraction;
        for (j, slot) in acc.mass_below[t].iter_mut().enumerate() {
            if fraction < 2f64.powi(-(j as i32)) {
                *slot += prob_base;
            }
        }
    }

    let mut scratch = std::mem::take(&mut ws.depths[t]);
    build_children(
        ctx,
        speaker,
        &prefix,
        state,
        &mut ws.node,
        &mut scratch,
        &mut ws.tally,
    );
    ws.tally.live_points += scratch.totals.iter().map(|&c| c as u64).sum::<u64>();
    ws.tally.children_built += scratch.runs.len() as u64;

    let dcount = m + 1;
    for li in 0..scratch.labels.len() {
        let label = scratch.labels[li];
        let base_slot = scratch.matrix[li * dcount];
        let base_total = scratch.totals[0];
        let child_prob_base = if base_slot != NO_SLOT && base_total > 0 {
            prob_base * scratch.built[base_slot as usize].count() as f64 / base_total as f64
        } else {
            0.0
        };

        scratch.child_probs.clear();
        for (i, &prob) in probs.iter().enumerate() {
            let slot = scratch.matrix[li * dcount + i + 1];
            let total = scratch.totals[i + 1];
            scratch.child_probs.push(if slot != NO_SLOT && total > 0 {
                prob * scratch.built[slot as usize].count() as f64 / total as f64
            } else {
                0.0
            });
        }

        // Prune dead subtrees: they contribute zero everywhere. (A live
        // label always carries positive probability in some distribution,
        // so this is a guard, not a hot path.)
        if child_prob_base == 0.0 && scratch.child_probs.iter().all(|&p| p == 0.0) {
            continue;
        }

        // Swap in the children's consistent sets (an empty set where the
        // label is dead in that distribution), recurse, swap back: the
        // one checkpoint/restore of this recursion level.
        for d in 0..dcount {
            let idx = ctx.state_idx(d, speaker);
            let slot = scratch.matrix[li * dcount + d];
            if slot == NO_SLOT {
                scratch.empties[d].make_empty(ctx.row(d, speaker).len());
                std::mem::swap(&mut state[idx], &mut scratch.empties[d]);
            } else {
                std::mem::swap(&mut state[idx], &mut scratch.built[slot as usize]);
            }
        }

        walk(
            ctx,
            depth + 1,
            prefix.child(label),
            state,
            &scratch.child_probs,
            child_prob_base,
            acc,
            frontier.as_deref_mut(),
            ws,
        );

        for d in 0..dcount {
            let idx = ctx.state_idx(d, speaker);
            let slot = scratch.matrix[li * dcount + d];
            if slot == NO_SLOT {
                std::mem::swap(&mut state[idx], &mut scratch.empties[d]);
            } else {
                std::mem::swap(&mut state[idx], &mut scratch.built[slot as usize]);
            }
        }
    }

    ws.depths[t] = scratch;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_depth_clamps_to_historical_value_on_one_thread() {
        for width in 1..=8 {
            assert_eq!(
                split_depth_for_threads(1, width),
                (SPLIT_DEPTH / width).max(1),
                "width {width}"
            );
        }
    }

    #[test]
    fn split_depth_grows_with_threads_and_caps() {
        // ~4 tasks per worker, floored at SPLIT_DEPTH.
        assert_eq!(split_depth_for_threads(2, 1), SPLIT_DEPTH);
        assert_eq!(split_depth_for_threads(16, 1), SPLIT_DEPTH);
        assert_eq!(split_depth_for_threads(64, 1), 8);
        assert_eq!(split_depth_for_threads(256, 1), 10);
        assert_eq!(split_depth_for_threads(1 << 20, 1), MAX_SPLIT_DEPTH);
        // Width divides the bit-depth, at least one turn.
        assert_eq!(split_depth_for_threads(64, 2), 4);
        assert_eq!(split_depth_for_threads(64, 3), 2);
        assert_eq!(split_depth_for_threads(1, 16), 1);
    }

    #[test]
    fn adaptive_split_depth_matches_pure_function() {
        let threads = rayon::current_num_threads();
        for width in [1u32, 2, 4] {
            assert_eq!(
                adaptive_split_depth(width),
                split_depth_for_threads(threads, width)
            );
        }
    }
}
