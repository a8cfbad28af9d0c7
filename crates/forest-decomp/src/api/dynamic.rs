//! The streaming side of the facade: [`DynamicDecomposer`] ingests an edge
//! update stream and keeps a valid forest coloring alive between updates.
//!
//! Every other entrypoint in [`api`](crate::api) decomposes a frozen
//! snapshot. This one maintains: edges arrive and depart
//! ([`EdgeUpdate`]), and after every [`DynamicDecomposer::apply`] the live
//! coloring is a valid partition of the current edges into forests —
//! usually repaired by recoloring only along the augmenting exchange the
//! update touched, with per-color connectivity riding on the
//! Holm–de Lichtenberg–Thorup subsystem
//! ([`DynamicColorConnectivity`](forest_graph::DynamicColorConnectivity))
//! so a recoloring is two `O(log² n)` edits, never a rebuild.
//!
//! The color budget tracks the stream's arboricity **with the paper's
//! `(1+ε)` slack**, from both sides. Upward: a blocked insert first tries a
//! *bounded* exchange; if that gives up, a color is opened as long as the
//! budget sits inside `⌈(1+ε)·lb⌉ + 1` (`lb` = best current arboricity
//! lower bound) — the slack regime in which repairs stay local and
//! per-update cost stays polylog — and only at that cap does the
//! exhaustive, certificate-producing search run before a raise. Downward:
//! deletions drain and retire trailing colors, with a bounded compaction
//! pass pulling stragglers out of the top color when it nearly empties.
//! Each apply reports what it did ([`DeltaReport`]) and
//! [`DynamicDecomposer::stats`] aggregates the fast-path / exchange /
//! rebuild-fallback split the benchmarks track.
//!
//! [`DynamicDecomposer::snapshot`] is the reproducibility contract: it runs
//! the *cold* [`Decomposer`] pipeline over the current live graph
//! (surviving edges compacted in insertion order), so its report is
//! byte-identical to `Decomposer::run` on that same final graph — the live
//! coloring serves queries between snapshots, the snapshot serves anything
//! that must reproduce.
//!
//! ```
//! use forest_decomp::api::{DecompositionRequest, DynamicDecomposer, EdgeUpdate, ProblemKind};
//!
//! let request = DecompositionRequest::new(ProblemKind::Forest).with_seed(7);
//! let mut dyn_dec = DynamicDecomposer::new(request, 4)?;
//! let e0 = dyn_dec.apply(EdgeUpdate::insert(0, 1))?.edge;
//! dyn_dec.apply(EdgeUpdate::insert(1, 2))?;
//! dyn_dec.apply(EdgeUpdate::insert(2, 0))?;
//! dyn_dec.apply(EdgeUpdate::delete(e0))?;
//! assert_eq!(dyn_dec.num_live_edges(), 2);
//! let report = dyn_dec.snapshot()?;   // == cold run on the 2-edge graph
//! assert_eq!(report.num_colors, 1);
//! # Ok::<(), forest_decomp::FdError>(())
//! ```

use super::report::DecompositionReport;
use super::{Decomposer, DecompositionRequest, ProblemKind};
use crate::error::FdError;
use forest_graph::decomposition::{validate_partial_forest_decomposition, PartialEdgeColoring};
use forest_graph::dynamic::{DynamicGraph, EdgeIdRemap};
use forest_graph::matroid::try_augment_traced;
use forest_graph::{
    Color, DynamicColorConnectivity, EdgeId, GraphError, GraphView, MultiGraph, VertexId,
};
use forest_obs::{clock::Stopwatch, LazyCounter, LazyHistogram};
use std::time::Duration;

/// The dynamic update stream's fast/exchange/fallback split as typed
/// `forest-obs` counters (cumulative across decomposer instances).
static UPDATES: LazyCounter = LazyCounter::new("dynamic.updates_total");
static FAST_PATH: LazyCounter = LazyCounter::new("dynamic.fast_path_total");
static EXCHANGES: LazyCounter = LazyCounter::new("dynamic.exchanges_total");
static BUDGET_RAISES: LazyCounter = LazyCounter::new("dynamic.budget_raises_total");
static COMPACTIONS: LazyCounter = LazyCounter::new("dynamic.compactions_total");
static APPLY_NANOS: LazyHistogram = LazyHistogram::new("dynamic.apply_nanos");
static BATCH_NANOS: LazyHistogram = LazyHistogram::new("dynamic.batch_nanos");

fn count_path(path: UpdatePath) {
    match path {
        UpdatePath::FastInsert | UpdatePath::FastDelete => FAST_PATH.inc(),
        UpdatePath::Exchange => EXCHANGES.inc(),
        UpdatePath::BudgetRaise => BUDGET_RAISES.inc(),
        UpdatePath::Compact => COMPACTIONS.inc(),
    }
}

/// Compaction only chases the top color once it holds at most this many
/// edges, so a delete pays for at most this many bounded exchanges.
const COMPACT_MAX_EDGES: usize = 4;
/// BFS pop bound per compaction exchange.
const COMPACT_POP_LIMIT: usize = 512;
/// BFS pop bound for the insert exchange while slack colors are still
/// allowed: a long exchange wander costs more than the slack color it
/// avoids, so the search gives up early and the insert opens a color
/// inside the `(1+ε)` allowance instead. At the slack cap the bound comes
/// off (the exact search is what certifies an arboricity raise).
const INSERT_POP_LIMIT: usize = 64;

/// One edge mutation in the update stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Add an edge between two vertices; the apply assigns its permanent
    /// [`EdgeId`] (ids are never reused).
    Insert {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove the live edge with this id.
    Delete {
        /// The edge to remove (an id a previous insert assigned).
        edge: EdgeId,
    },
}

impl EdgeUpdate {
    /// Insert an edge between `u` and `v`.
    pub fn insert(u: impl Into<VertexId>, v: impl Into<VertexId>) -> Self {
        EdgeUpdate::Insert {
            u: u.into(),
            v: v.into(),
        }
    }

    /// Delete the edge with id `edge`.
    pub fn delete(edge: EdgeId) -> Self {
        EdgeUpdate::Delete { edge }
    }
}

/// How an [`DynamicDecomposer::apply`] repaired the coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdatePath {
    /// Insert placed by one free-color query (the overwhelmingly common
    /// case): no existing edge recolored.
    FastInsert,
    /// Insert placed by an augmenting exchange that recolored existing
    /// edges along the way.
    Exchange,
    /// The exchange could not place the insert, so a fresh color was
    /// opened — inside the `(1+ε)` slack allowance when one is free
    /// (bounded search gave up early), or, at the slack cap, after an
    /// exhaustive search *certified* that the arboricity grew. The scoped
    /// rebuild-fallback of the insert path.
    BudgetRaise,
    /// Delete needed only the cut (plus retiring empty trailing colors; a
    /// drain attempt that recolored edges without managing to retire the
    /// color also lands here, with the moves in
    /// [`DeltaReport::recolored_edges`]).
    FastDelete,
    /// Delete shrank the palette through the bounded compaction pass: the
    /// nearly-empty top color was drained into the rest of the palette and
    /// retired.
    Compact,
}

/// What one [`DynamicDecomposer::apply`] did.
#[derive(Clone, Debug)]
pub struct DeltaReport {
    /// The update this report describes.
    pub update: EdgeUpdate,
    /// The edge the update touched: the id assigned (inserts) or retired
    /// (deletes).
    pub edge: EdgeId,
    /// How the coloring was repaired.
    pub path: UpdatePath,
    /// Previously-colored edges whose color changed (0 on both fast paths;
    /// the inserted edge itself is not counted).
    pub recolored_edges: usize,
    /// Color budget after the update (colors `0..budget` are live).
    pub color_budget: usize,
    /// Live edges after the update.
    pub live_edges: usize,
    /// Wall-clock of this apply.
    pub wall_clock: Duration,
}

/// What one [`DynamicDecomposer::apply_batch`] did: the aggregate of the
/// per-update [`DeltaReport`]s the same updates would have produced one by
/// one, without materializing them.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Updates applied (= deletes + inserts).
    pub applied: usize,
    /// Deletes in the batch (applied first).
    pub deletes: usize,
    /// Inserts in the batch (applied after every delete).
    pub inserts: usize,
    /// The id assigned to each insert, in the batch's insert order — what
    /// a caller needs to address these edges in later updates.
    pub inserted_edges: Vec<EdgeId>,
    /// Previously-colored edges whose color changed across the whole batch
    /// (inserted edges themselves not counted).
    pub recolored_edges: usize,
    /// Updates that stayed on a fast path
    /// ([`UpdatePath::FastInsert`] / [`UpdatePath::FastDelete`]).
    pub fast_path: usize,
    /// Inserts placed by an augmenting exchange.
    pub exchanges: usize,
    /// Inserts that opened a fresh color.
    pub budget_raises: usize,
    /// Deletes that retired a color through the compaction drain.
    pub compactions: usize,
    /// Color budget after the batch.
    pub color_budget: usize,
    /// Live edges after the batch.
    pub live_edges: usize,
    /// Wall-clock of the whole batch.
    pub wall_clock: Duration,
}

/// Cumulative counters over every [`DynamicDecomposer::apply`] — the
/// fast-path / exchange / fallback split the benchmarks report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynamicStats {
    /// Total updates applied.
    pub updates: usize,
    /// Inserts placed by the free-color fast path.
    pub fast_inserts: usize,
    /// Inserts placed by an augmenting exchange.
    pub exchanges: usize,
    /// Edges recolored across all exchanges (excluding the inserted edges).
    pub exchange_recolorings: usize,
    /// Inserts that opened a fresh color — inside the `(1+ε)` slack
    /// allowance (no certificate: a deeper exchange may have existed) or,
    /// at the cap, certified by an exhaustive search (see
    /// [`UpdatePath::BudgetRaise`]).
    pub budget_raises: usize,
    /// Deletes that needed only the cut.
    pub fast_deletes: usize,
    /// Deletes that drained and retired the top color.
    pub compactions: usize,
    /// Edges recolored by compaction drains (stragglers moved plus the
    /// edges their exchanges touched), whether or not the drain managed to
    /// retire the color.
    pub compaction_recolorings: usize,
}

impl DynamicStats {
    /// Updates that fell off the fast path (exchange, budget raise or
    /// compaction) as a fraction of all updates — the rate `forest-bench`
    /// reports as `dynamic.fallback_rate`.
    pub fn fallback_rate(&self) -> f64 {
        if self.updates == 0 {
            return 0.0;
        }
        (self.exchanges + self.budget_raises + self.compactions) as f64 / self.updates as f64
    }
}

/// Streaming forest decomposition: a valid coloring maintained under edge
/// inserts and deletes (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct DynamicDecomposer {
    request: DecompositionRequest,
    graph: DynamicGraph,
    /// Indexed by the graph's stable edge ids (dead slots stay `None`).
    coloring: PartialEdgeColoring,
    conn: DynamicColorConnectivity,
    /// Live edges per color; `len()` is the color budget.
    counts: Vec<usize>,
    /// Largest arboricity an exhaustive exchange failure certified. Decayed
    /// to the live budget on deletion (the certificate speaks about edges
    /// that may no longer exist); self-corrects as classes drain.
    alpha_cert: usize,
    stats: DynamicStats,
}

impl DynamicDecomposer {
    /// A decomposer over `num_vertices` vertices and an initially empty
    /// edge set, maintaining `request.problem` under updates and snapshotting
    /// with `request`'s engine and seed.
    ///
    /// # Errors
    ///
    /// [`FdError::DynamicUnsupported`] for problems other than
    /// [`ProblemKind::Forest`] (star shapes and palette constraints do not
    /// survive edge-local recoloring), and
    /// [`FdError::UnsupportedCombination`] when the request's engine cannot
    /// solve forests (the snapshot would always fail).
    pub fn new(request: DecompositionRequest, num_vertices: usize) -> Result<Self, FdError> {
        if request.problem != ProblemKind::Forest {
            return Err(FdError::DynamicUnsupported {
                problem: request.problem,
            });
        }
        if !super::engines::engine_for(request.engine).supports(request.problem) {
            return Err(FdError::UnsupportedCombination {
                problem: request.problem,
                engine: request.engine,
            });
        }
        Ok(DynamicDecomposer {
            request,
            graph: DynamicGraph::new(num_vertices),
            coloring: PartialEdgeColoring::new_uncolored(0),
            conn: DynamicColorConnectivity::new(num_vertices),
            counts: Vec::new(),
            alpha_cert: 0,
            stats: DynamicStats::default(),
        })
    }

    /// Seeds a decomposer with an existing graph: every edge is applied as
    /// an insert (same code path as the stream), so the resulting state is
    /// exactly what replaying the edges would produce.
    pub fn from_graph(request: DecompositionRequest, g: &MultiGraph) -> Result<Self, FdError> {
        Self::from_view(request, g)
    }

    /// [`from_graph`](DynamicDecomposer::from_graph) over any
    /// [`GraphView`] — an mmap-backed
    /// [`CsrGraph`](forest_graph::CsrGraph) registers without first
    /// copying into a [`MultiGraph`].
    pub fn from_view<G: GraphView>(request: DecompositionRequest, g: &G) -> Result<Self, FdError> {
        let mut dyn_dec = DynamicDecomposer::new(request, g.num_vertices())?;
        for (_, u, v) in g.edges() {
            dyn_dec.apply(EdgeUpdate::Insert { u, v })?;
        }
        Ok(dyn_dec)
    }

    /// The request this decomposer maintains and snapshots with.
    pub fn request(&self) -> &DecompositionRequest {
        &self.request
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of live edges.
    pub fn num_live_edges(&self) -> usize {
        self.graph.num_live_edges()
    }

    /// Current color budget: live colors are `0..color_budget()`.
    pub fn color_budget(&self) -> usize {
        self.counts.len()
    }

    /// The live graph (stable edge ids; see
    /// [`DynamicGraph`](forest_graph::DynamicGraph)).
    pub fn live_graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The live coloring, indexed by stable edge ids (dead ids answer
    /// `None`). Valid after every apply.
    pub fn live_coloring(&self) -> &PartialEdgeColoring {
        &self.coloring
    }

    /// Cumulative apply counters.
    pub fn stats(&self) -> DynamicStats {
        self.stats
    }

    /// Applies one update, repairing the live coloring, and reports what
    /// happened.
    ///
    /// # Errors
    ///
    /// [`FdError::Graph`] for structurally invalid inserts (endpoint out of
    /// range, self-loop) and [`FdError::UnknownEdge`] for deletes of ids
    /// that are not live. The live state is untouched on error.
    pub fn apply(&mut self, update: EdgeUpdate) -> Result<DeltaReport, FdError> {
        let start = Stopwatch::start();
        let (edge, path, recolored) = match update {
            EdgeUpdate::Insert { u, v } => self.apply_insert(u, v)?,
            EdgeUpdate::Delete { edge } => self.apply_delete(edge)?,
        };
        self.stats.updates += 1;
        UPDATES.inc();
        count_path(path);
        APPLY_NANOS.observe(start.elapsed_nanos());
        Ok(DeltaReport {
            update,
            edge,
            path,
            recolored_edges: recolored,
            color_budget: self.counts.len(),
            live_edges: self.graph.num_live_edges(),
            wall_clock: start.elapsed(),
        })
    }

    /// Applies a whole frame of updates — **deletes first, then inserts**,
    /// each group in frame order — and aggregates what the per-update
    /// [`DeltaReport`]s would have said. Semantics are identical to N×
    /// [`apply`](DynamicDecomposer::apply) in that same reordered sequence
    /// (regression-tested); what the batch entry saves is the per-update
    /// clock reads and report allocations, which dominate at the ~µs/update
    /// scale the stream runs at. Deletes run first so a frame that churns
    /// (delete + insert at like rates) never transits through a wider
    /// budget than it ends at.
    ///
    /// # Errors
    ///
    /// The first failing update's error, exactly as
    /// [`apply`](DynamicDecomposer::apply) would report it. Updates before
    /// the failure remain applied (same as the sequential equivalent); the
    /// live coloring is valid either way.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> Result<BatchReport, FdError> {
        let start = Stopwatch::start();
        let mut report = BatchReport::default();
        let passes = [
            |u: &EdgeUpdate| matches!(u, EdgeUpdate::Delete { .. }),
            |u: &EdgeUpdate| matches!(u, EdgeUpdate::Insert { .. }),
        ];
        for pass in passes {
            for update in updates.iter().filter(|u| pass(u)) {
                let (edge, path, recolored) = match *update {
                    EdgeUpdate::Insert { u, v } => self.apply_insert(u, v)?,
                    EdgeUpdate::Delete { edge } => self.apply_delete(edge)?,
                };
                self.stats.updates += 1;
                UPDATES.inc();
                count_path(path);
                report.applied += 1;
                report.recolored_edges += recolored;
                match path {
                    UpdatePath::FastInsert => report.fast_path += 1,
                    UpdatePath::Exchange => report.exchanges += 1,
                    UpdatePath::BudgetRaise => report.budget_raises += 1,
                    UpdatePath::FastDelete => report.fast_path += 1,
                    UpdatePath::Compact => report.compactions += 1,
                }
                match update {
                    EdgeUpdate::Insert { .. } => {
                        report.inserts += 1;
                        report.inserted_edges.push(edge);
                    }
                    EdgeUpdate::Delete { .. } => report.deletes += 1,
                }
            }
        }
        report.color_budget = self.counts.len();
        report.live_edges = self.graph.num_live_edges();
        report.wall_clock = start.elapsed();
        BATCH_NANOS.observe(start.elapsed_nanos());
        Ok(report)
    }

    /// Compacts the edge-id space (see
    /// [`DynamicGraph::compact_ids`](forest_graph::DynamicGraph::compact_ids))
    /// and rebuilds the per-color structures — the coloring array and the
    /// per-color dynamic connectivity — under the new dense ids. The
    /// coloring itself is untouched (every surviving edge keeps its color,
    /// so the budget and per-color counts carry over), and because the
    /// renumbering preserves insertion order,
    /// [`snapshot`](DynamicDecomposer::snapshot) bytes are unchanged.
    ///
    /// Callers holding pre-compaction [`EdgeId`]s must translate them
    /// through the returned remap before the next delete.
    pub fn compact_ids(&mut self) -> EdgeIdRemap {
        let remap = self.graph.compact_ids();
        let mut colors = vec![None; self.graph.edge_id_span()];
        for (new, old) in remap.iter() {
            colors[new.index()] = self.coloring.color(old);
        }
        self.coloring = PartialEdgeColoring::from_colors(colors);
        self.conn = DynamicColorConnectivity::from_coloring(&self.graph, &self.coloring, None);
        remap
    }

    /// The stream's best current arboricity lower bound — the "watermark"
    /// a serving layer reports live: the larger of the
    /// exhaustive-exchange-certified value and the whole-graph
    /// Nash-Williams bound `⌈m / (n−1)⌉` over the live edges.
    pub fn arboricity_lower_bound(&self) -> usize {
        let n = self.graph.num_vertices();
        let nash_williams = if n >= 2 {
            self.graph.num_live_edges().div_ceil(n - 1)
        } else {
            0
        };
        self.alpha_cert.max(nash_williams)
    }

    /// The most colors the maintained coloring may use without an
    /// exhaustive-exchange certificate: `⌈(1+ε)·lb⌉ + 1`, where `lb` is the
    /// best current arboricity lower bound (the largest certified value and
    /// the live Nash-Williams whole-graph bound). This is the paper's slack
    /// regime — with `(1+ε)α` colors available, repairs stay local — turned
    /// into a budget policy: inside the cap a blocked insert just opens a
    /// color, and only at the cap does the exact (certificate-producing)
    /// search run.
    fn slack_cap(&self) -> usize {
        let lb = self.arboricity_lower_bound().max(1);
        ((lb as f64) * (1.0 + self.request.epsilon)).ceil() as usize + 1
    }

    fn apply_insert(
        &mut self,
        u: VertexId,
        v: VertexId,
    ) -> Result<(EdgeId, UpdatePath, usize), FdError> {
        let e = self.graph.insert_edge(u, v).map_err(FdError::Graph)?;
        self.coloring.grow_to(self.graph.edge_id_span());
        let k = self.counts.len();
        // Fast path: some existing forest keeps the endpoints apart.
        if let Some(c) = self.conn.first_free_color(k, u, v) {
            self.coloring.set(e, c);
            self.conn.insert(e, c, u, v);
            self.counts[c.index()] += 1;
            self.stats.fast_inserts += 1;
            return Ok((e, UpdatePath::FastInsert, 0));
        }
        // Exchange: recolor along an augmenting path in the exchange graph.
        // Bounded while slack is available (a long wander is worse than
        // opening a slack color); exact once the cap is reached, so a raise
        // beyond the cap always carries a matroid certificate.
        let pop_limit = if k < self.slack_cap() {
            INSERT_POP_LIMIT
        } else {
            usize::MAX
        };
        if let Some(steps) = try_augment_traced(&self.graph, &mut self.coloring, e, k, pop_limit) {
            let recolored = steps.len() - 1;
            self.replay_exchange(steps);
            self.stats.exchanges += 1;
            self.stats.exchange_recolorings += recolored;
            return Ok((e, UpdatePath::Exchange, recolored));
        }
        if pop_limit == usize::MAX {
            // Exhausted, not bounded: certified — the colored edges plus
            // `e` genuinely need k + 1 forests.
            self.alpha_cert = k + 1;
        }
        let fresh = Color::new(k);
        self.coloring.set(e, fresh);
        self.conn.insert(e, fresh, u, v);
        self.counts.push(1);
        self.stats.budget_raises += 1;
        Ok((e, UpdatePath::BudgetRaise, 0))
    }

    fn apply_delete(&mut self, e: EdgeId) -> Result<(EdgeId, UpdatePath, usize), FdError> {
        self.graph.delete_edge(e).map_err(|err| match err {
            GraphError::EdgeOutOfRange { .. } => FdError::UnknownEdge { edge: e },
            other => FdError::Graph(other),
        })?;
        let c = self
            .coloring
            .color(e)
            .expect("every live edge carries a color");
        self.coloring.clear(e);
        self.conn.remove(e);
        self.counts[c.index()] -= 1;
        let budget_before = self.counts.len();
        self.retire_trailing_colors();
        self.alpha_cert = self.alpha_cert.min(self.counts.len());
        let recolored = self.try_compact();
        // `Compact` means the delete actually shrank the palette (trailing
        // retirement or a successful drain); a drain attempt that moved a
        // few edges but could not retire the color is still a fast delete
        // with its recolorings reported.
        if recolored > 0 && self.counts.len() < budget_before {
            self.stats.compactions += 1;
            Ok((e, UpdatePath::Compact, recolored))
        } else {
            self.stats.fast_deletes += 1;
            Ok((e, UpdatePath::FastDelete, recolored))
        }
    }

    /// Mirrors an applied exchange into the dynamic connectivity and the
    /// per-color counts — the one place the three structures are kept in
    /// lockstep (used by the insert path and the compaction drain alike).
    fn replay_exchange(&mut self, steps: Vec<forest_graph::matroid::ExchangeStep>) {
        for (f, old, new) in steps {
            let (fu, fv) = self.graph.endpoints(f);
            self.conn.recolor(f, new, fu, fv);
            if let Some(old) = old {
                self.counts[old.index()] -= 1;
            }
            self.counts[new.index()] += 1;
        }
    }

    fn retire_trailing_colors(&mut self) {
        while matches!(self.counts.last(), Some(0)) {
            self.counts.pop();
        }
    }

    /// Bounded downward budget tracking: when the top color is nearly
    /// empty (≤ [`COMPACT_MAX_EDGES`] stragglers), try to exchange each of
    /// them into the lower colors and retire it. Runs only when the budget
    /// exceeds the slack cap — compacting a color the very next insert
    /// would re-open is thrash, not progress — or when some lower color is
    /// already empty, in which case draining is a free placement and the
    /// retirement costs nothing (this is how a hole left mid-palette by
    /// deletions gets closed). A blocked drain is retried on later deletes
    /// (any delete can free the room that was missing, so there is no
    /// state cheap enough to memoize against); each attempt is bounded by
    /// the straggler cap times the exchange pop limit. Returns the number
    /// of edges whose color changed — stragglers moved plus every edge an
    /// exchange recolored along the way (also accumulated into
    /// [`DynamicStats::compaction_recolorings`]).
    fn try_compact(&mut self) -> usize {
        let k = self.counts.len();
        if k < 2 {
            return 0;
        }
        let lower_hole = self.counts[..k - 1].contains(&0);
        if !lower_hole && k <= self.slack_cap() {
            return 0;
        }
        let top = self.counts[k - 1];
        if top == 0 || top > COMPACT_MAX_EDGES {
            return 0;
        }
        let top_color = Color::new(k - 1);
        let stragglers: Vec<EdgeId> = self
            .graph
            .live_edges()
            .filter(|&(f, _, _)| self.coloring.color(f) == Some(top_color))
            .map(|(f, _, _)| f)
            .collect();
        debug_assert_eq!(stragglers.len(), top);
        let mut recolored = 0usize;
        for f in stragglers {
            let (u, v) = self.graph.endpoints(f);
            self.coloring.clear(f);
            self.conn.remove(f);
            self.counts[k - 1] -= 1;
            if let Some(c) = self.conn.first_free_color(k - 1, u, v) {
                self.coloring.set(f, c);
                self.conn.insert(f, c, u, v);
                self.counts[c.index()] += 1;
                recolored += 1;
                continue;
            }
            if let Some(steps) =
                try_augment_traced(&self.graph, &mut self.coloring, f, k - 1, COMPACT_POP_LIMIT)
            {
                recolored += steps.len();
                self.replay_exchange(steps);
                continue;
            }
            // Blocked (or bound tripped): put the straggler back and stop —
            // the coloring stays valid, the budget stays k, and a later
            // delete retries.
            self.coloring.set(f, top_color);
            self.conn.insert(f, top_color, u, v);
            self.counts[k - 1] += 1;
            self.stats.compaction_recolorings += recolored;
            return recolored;
        }
        self.retire_trailing_colors();
        self.stats.compaction_recolorings += recolored;
        recolored
    }

    /// The current live edges compacted into a [`MultiGraph`] (ascending
    /// id order) plus the map from compact ids back to the stream's stable
    /// ids — the canonical "final graph" the snapshot contract is defined
    /// against.
    pub fn snapshot_graph(&self) -> (MultiGraph, Vec<EdgeId>) {
        self.graph.to_multigraph()
    }

    /// Runs the cold [`Decomposer`] pipeline over the current live graph
    /// and returns its report: **byte-identical**
    /// ([`DecompositionReport::canonical_bytes`]) to `Decomposer::run` on
    /// the same final graph, because it *is* that run — the live coloring
    /// answers queries between snapshots, this report is the reproducible
    /// artifact.
    ///
    /// # Errors
    ///
    /// Whatever the cold run returns.
    pub fn snapshot(&self) -> Result<DecompositionReport, FdError> {
        let (g, _) = self.snapshot_graph();
        Decomposer::new(self.request.clone()).run(g)
    }

    /// Validates the live coloring against the live graph (every color
    /// class a forest, every live edge colored inside the budget).
    ///
    /// # Errors
    ///
    /// [`FdError::InvalidDecomposition`] naming the violation.
    pub fn validate_live(&self) -> Result<(), FdError> {
        validate_partial_forest_decomposition(&self.graph, &self.coloring)?;
        for (f, _, _) in self.graph.live_edges() {
            match self.coloring.color(f) {
                Some(c) if c.index() < self.counts.len() => {}
                _ => {
                    return Err(FdError::NotConverged {
                        phase: format!("live edge {f} uncolored or outside the budget"),
                    })
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Engine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn request() -> DecompositionRequest {
        DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::ExactMatroid)
            .with_seed(11)
    }

    #[test]
    fn rejects_unsupported_problems_and_engines() {
        assert!(matches!(
            DynamicDecomposer::new(DecompositionRequest::new(ProblemKind::StarForest), 4),
            Err(FdError::DynamicUnsupported {
                problem: ProblemKind::StarForest
            })
        ));
        assert!(matches!(
            DynamicDecomposer::new(
                DecompositionRequest::new(ProblemKind::Forest).with_engine(Engine::Folklore2Alpha),
                4
            ),
            Err(FdError::UnsupportedCombination { .. })
        ));
    }

    #[test]
    fn typed_errors_on_bad_updates() {
        let mut dyn_dec = DynamicDecomposer::new(request(), 3).unwrap();
        assert!(matches!(
            dyn_dec.apply(EdgeUpdate::insert(0, 9)),
            Err(FdError::Graph(GraphError::VertexOutOfRange { .. }))
        ));
        assert!(matches!(
            dyn_dec.apply(EdgeUpdate::insert(1, 1)),
            Err(FdError::Graph(GraphError::SelfLoop { .. }))
        ));
        assert!(matches!(
            dyn_dec.apply(EdgeUpdate::delete(EdgeId::new(0))),
            Err(FdError::UnknownEdge { .. })
        ));
        let e = dyn_dec.apply(EdgeUpdate::insert(0, 1)).unwrap().edge;
        dyn_dec.apply(EdgeUpdate::delete(e)).unwrap();
        assert!(matches!(
            dyn_dec.apply(EdgeUpdate::delete(e)),
            Err(FdError::UnknownEdge { .. })
        ));
    }

    #[test]
    fn budget_tracks_arboricity_both_ways() {
        // Three parallel edges force three forests; deleting two shrinks
        // the budget back down.
        let mut dyn_dec = DynamicDecomposer::new(request(), 2).unwrap();
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(dyn_dec.apply(EdgeUpdate::insert(0, 1)).unwrap().edge);
        }
        assert_eq!(dyn_dec.color_budget(), 3);
        // Every raise counts, including the very first insert's 0 → 1.
        assert_eq!(dyn_dec.stats().budget_raises, 3);
        dyn_dec.validate_live().unwrap();
        dyn_dec.apply(EdgeUpdate::delete(ids[1])).unwrap();
        dyn_dec.apply(EdgeUpdate::delete(ids[0])).unwrap();
        assert_eq!(dyn_dec.color_budget(), 1);
        dyn_dec.validate_live().unwrap();
    }

    #[test]
    fn cycle_plus_chord_stays_at_two_colors() {
        // A 4-cycle plus a chord: arboricity 2, and the maintained budget
        // lands exactly there — the slack allowance is never consumed by
        // inserts the palette can absorb.
        let mut dyn_dec = DynamicDecomposer::new(request(), 4).unwrap();
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            dyn_dec.apply(EdgeUpdate::insert(u, v)).unwrap();
        }
        assert_eq!(dyn_dec.color_budget(), 2);
        dyn_dec.validate_live().unwrap();
    }

    #[test]
    fn blocked_exchanges_use_slack_then_certify_at_the_cap() {
        // Parallel edges between one pair force a raise per insert; with
        // ε = 0.5 the first raises ride the slack allowance and the later
        // ones (at the cap) must come from the exhaustive certificate —
        // either way the budget equals the true arboricity here, because
        // every class holds exactly one of the parallel edges.
        let mut dyn_dec = DynamicDecomposer::new(
            DecompositionRequest::new(ProblemKind::Forest)
                .with_engine(Engine::ExactMatroid)
                .with_epsilon(0.5)
                .with_seed(2),
            2,
        )
        .unwrap();
        for i in 1..=6usize {
            dyn_dec.apply(EdgeUpdate::insert(0, 1)).unwrap();
            assert_eq!(dyn_dec.color_budget(), i);
        }
        assert_eq!(dyn_dec.stats().budget_raises, 6);
        dyn_dec.validate_live().unwrap();
    }

    #[test]
    fn random_churn_keeps_a_valid_coloring() {
        let n = 24;
        let mut rng = StdRng::seed_from_u64(3);
        let mut dyn_dec = DynamicDecomposer::new(request(), n).unwrap();
        let mut live: Vec<EdgeId> = Vec::new();
        let mut applied = 0usize;
        for _ in 0..600 {
            let delete = !live.is_empty() && rng.gen_bool(0.45);
            if delete {
                let k = rng.gen_range(0..live.len());
                let e = live.swap_remove(k);
                dyn_dec.apply(EdgeUpdate::delete(e)).unwrap();
            } else {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                live.push(dyn_dec.apply(EdgeUpdate::insert(u, v)).unwrap().edge);
            }
            applied += 1;
            dyn_dec.validate_live().unwrap();
        }
        let stats = dyn_dec.stats();
        assert_eq!(stats.updates, applied);
        assert_eq!(dyn_dec.num_live_edges(), live.len());
        assert!(stats.fast_inserts > 0);
    }

    #[test]
    fn snapshot_matches_cold_run() {
        let mut rng = StdRng::seed_from_u64(19);
        let n = 20;
        let mut dyn_dec = DynamicDecomposer::new(request(), n).unwrap();
        let mut live: Vec<(EdgeId, usize, usize)> = Vec::new();
        for _ in 0..300 {
            if !live.is_empty() && rng.gen_bool(0.4) {
                let k = rng.gen_range(0..live.len());
                let (e, _, _) = live.swap_remove(k);
                dyn_dec.apply(EdgeUpdate::delete(e)).unwrap();
            } else {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                let e = dyn_dec.apply(EdgeUpdate::insert(u, v)).unwrap().edge;
                live.push((e, u, v));
            }
        }
        // The independently-reconstructed final graph: surviving edges in
        // insertion (= id) order.
        live.sort_by_key(|&(e, _, _)| e);
        let mut expected = MultiGraph::new(n);
        for &(_, u, v) in &live {
            expected
                .add_edge(VertexId::new(u), VertexId::new(v))
                .unwrap();
        }
        let cold = Decomposer::new(request()).run(&expected).unwrap();
        let snap = dyn_dec.snapshot().unwrap();
        assert_eq!(cold.canonical_bytes(), snap.canonical_bytes());
    }

    /// A mixed churn prefix so batch/compaction tests start from a
    /// non-trivial state: returns the decomposer plus its live edge ids.
    fn churned(seed: u64, n: usize, steps: usize) -> (DynamicDecomposer, Vec<EdgeId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dyn_dec = DynamicDecomposer::new(request(), n).unwrap();
        let mut live = Vec::new();
        for _ in 0..steps {
            if !live.is_empty() && rng.gen_bool(0.4) {
                let k = rng.gen_range(0..live.len());
                let e = live.swap_remove(k);
                dyn_dec.apply(EdgeUpdate::delete(e)).unwrap();
            } else {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u == v {
                    continue;
                }
                live.push(dyn_dec.apply(EdgeUpdate::insert(u, v)).unwrap().edge);
            }
        }
        (dyn_dec, live)
    }

    #[test]
    fn apply_batch_matches_sequential_applies() {
        let (mut batched, live) = churned(29, 16, 200);
        let mut sequential = batched.clone();
        // A frame mixing deletes and inserts in arbitrary order.
        let mut updates = Vec::new();
        for (i, &e) in live.iter().enumerate().take(8) {
            updates.push(EdgeUpdate::insert(i, i + 1));
            updates.push(EdgeUpdate::delete(e));
        }
        let report = batched.apply_batch(&updates).unwrap();
        // The documented equivalent: same updates, deletes first.
        let mut recolored = 0;
        let mut inserted = Vec::new();
        for delete_pass in [true, false] {
            for u in &updates {
                if matches!(u, EdgeUpdate::Delete { .. }) == delete_pass {
                    let d = sequential.apply(*u).unwrap();
                    recolored += d.recolored_edges;
                    if matches!(u, EdgeUpdate::Insert { .. }) {
                        inserted.push(d.edge);
                    }
                }
            }
        }
        assert_eq!(report.applied, updates.len());
        assert_eq!(report.deletes, 8);
        assert_eq!(report.inserts, 8);
        assert_eq!(report.inserted_edges, inserted);
        assert_eq!(report.recolored_edges, recolored);
        assert_eq!(
            report.fast_path + report.exchanges + report.budget_raises + report.compactions,
            report.applied
        );
        assert_eq!(report.color_budget, sequential.color_budget());
        assert_eq!(report.live_edges, sequential.num_live_edges());
        assert_eq!(batched.stats(), sequential.stats());
        batched.validate_live().unwrap();
        // Bit-for-bit the same state: identical snapshot bytes.
        assert_eq!(
            batched.snapshot().unwrap().canonical_bytes(),
            sequential.snapshot().unwrap().canonical_bytes()
        );
    }

    #[test]
    fn apply_batch_error_keeps_prefix_applied() {
        let mut dyn_dec = DynamicDecomposer::new(request(), 4).unwrap();
        let err = dyn_dec
            .apply_batch(&[
                EdgeUpdate::insert(0, 1),
                EdgeUpdate::insert(1, 1), // self-loop: fails
                EdgeUpdate::insert(2, 3),
            ])
            .unwrap_err();
        assert!(matches!(err, FdError::Graph(GraphError::SelfLoop { .. })));
        assert_eq!(dyn_dec.num_live_edges(), 1, "prefix stays applied");
        dyn_dec.validate_live().unwrap();
    }

    #[test]
    fn compact_ids_preserves_coloring_and_snapshot_bytes() {
        let (mut dyn_dec, live) = churned(31, 20, 300);
        let before_budget = dyn_dec.color_budget();
        let before_bytes = dyn_dec.snapshot().unwrap().canonical_bytes();
        let span_before = dyn_dec.live_graph().edge_id_span();
        let colors_before: Vec<_> = live
            .iter()
            .map(|&e| dyn_dec.live_coloring().color(e).unwrap())
            .collect();
        let remap = dyn_dec.compact_ids();
        assert_eq!(remap.old_span(), span_before);
        assert_eq!(remap.new_span(), dyn_dec.num_live_edges());
        assert_eq!(
            dyn_dec.live_graph().edge_id_span(),
            dyn_dec.num_live_edges()
        );
        assert_eq!(dyn_dec.color_budget(), before_budget);
        dyn_dec.validate_live().unwrap();
        // Every surviving edge kept its color under its new id.
        for (&old, &c) in live.iter().zip(&colors_before) {
            let new = remap.new_id(old).unwrap();
            assert_eq!(dyn_dec.live_coloring().color(new), Some(c));
        }
        assert_eq!(dyn_dec.snapshot().unwrap().canonical_bytes(), before_bytes);
        // The stream keeps running after compaction: remapped deletes and
        // fresh inserts land on the rebuilt structures.
        let new0 = remap.new_id(live[0]).unwrap();
        dyn_dec.apply(EdgeUpdate::delete(new0)).unwrap();
        dyn_dec.apply(EdgeUpdate::insert(0, 1)).unwrap();
        dyn_dec.validate_live().unwrap();
    }

    #[test]
    fn from_graph_replays_inserts() {
        let g = forest_graph::generators::grid(5, 5);
        let dyn_dec = DynamicDecomposer::from_graph(request(), &g).unwrap();
        assert_eq!(dyn_dec.num_live_edges(), g.num_edges());
        dyn_dec.validate_live().unwrap();
        assert!(dyn_dec.color_budget() >= 2);
    }
}
