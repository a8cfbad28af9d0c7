//! The boundary stitch shared by [`Decomposer::run_sharded`] and
//! [`Decomposer::run_out_of_core`]: how boundary edges get colored once
//! every shard's internal edges have been decomposed, and how the stitched
//! coloring becomes a [`DecompositionReport`].
//!
//! Connectivity is kept only over the *boundary endpoints*: each one is keyed
//! by its index in the sorted endpoint list, and every color owns a plain
//! [`UnionFind`] over those keys. Before a shard's own per-color
//! connectivity is dropped, [`Stitch::absorb_shard`] unions the keys that
//! share a shard-local component. Components never cross shards, and a
//! component without a boundary endpoint can never be touched by a boundary
//! edge, so two endpoints are connected in color `c` of the whole graph iff
//! their keys are connected in color `c`'s key forest. The state is
//! `O(boundary · colors)`, which is what lets the out-of-core driver keep it
//! inside its memory budget.
//!
//! [`Decomposer::run_sharded`]: super::Decomposer::run_sharded
//! [`Decomposer::run_out_of_core`]: super::Decomposer::run_out_of_core

use super::{Artifact, DecompositionReport, DecompositionRequest, StitchPolicy};
use super::{Validate, ValidationStatus};
use crate::error::FdError;
use forest_graph::decomposition::max_forest_diameter;
use forest_graph::{
    Color, ColorConnectivity, CsrRef, EdgeId, ForestDecomposition, GraphView, UnionFind, VertexId,
};
use forest_obs::clock::Stopwatch;
use local_model::RoundLedger;

/// Marks a shard-local root no boundary key has claimed yet.
const UNCLAIMED: u32 = u32::MAX;

/// Per-color connectivity over the boundary endpoints of one sharded run.
pub(super) struct Stitch {
    /// Sorted, deduplicated boundary endpoints; a vertex's key is its index.
    endpoints: Vec<u32>,
    /// Shard → the keys of the boundary endpoints it owns.
    keys_of_shard: Vec<Vec<u32>>,
    /// Color → forest over keys.
    forests: Vec<UnionFind>,
}

impl Stitch {
    /// Keys the endpoints of `boundary` and groups them by owning shard
    /// (`shard_of` must map into `0..k`).
    pub(super) fn new(
        csr: &CsrRef<'_>,
        boundary: &[EdgeId],
        k: usize,
        shard_of: impl Fn(VertexId) -> usize,
    ) -> Stitch {
        let mut endpoints = Vec::with_capacity(2 * boundary.len());
        for &e in boundary {
            let (u, v) = csr.endpoints(e);
            endpoints.push(u.raw());
            endpoints.push(v.raw());
        }
        endpoints.sort_unstable();
        endpoints.dedup();
        let mut keys_of_shard = vec![Vec::new(); k];
        for (key, &v) in endpoints.iter().enumerate() {
            keys_of_shard[shard_of(VertexId::new(v as usize))].push(forest_graph::u32_of(key));
        }
        Stitch {
            endpoints,
            keys_of_shard,
            forests: Vec::new(),
        }
    }

    /// Folds shard `s`'s per-color components into the key forests: in each
    /// of its colors `0..span`, keys whose shard-local roots are equal are
    /// unioned. `local` maps a global vertex to its id inside shard `s`.
    /// Call once per shard, in any order, before any [`Stitch::run`].
    pub(super) fn absorb_shard(
        &mut self,
        s: usize,
        connectivity: &mut ColorConnectivity,
        span: usize,
        local: impl Fn(VertexId) -> VertexId,
    ) {
        let n = self.endpoints.len();
        while self.forests.len() < span {
            self.forests.push(UnionFind::new(n));
        }
        let keys = &self.keys_of_shard[s];
        if keys.len() < 2 {
            return;
        }
        let locals: Vec<usize> = keys
            .iter()
            .map(|&key| local(VertexId::new(self.endpoints[key as usize] as usize)).index())
            .collect();
        // Shard-local root → the first key seen in it (reset after each color).
        let mut claimed = vec![UNCLAIMED; connectivity.num_vertices()];
        for (c, forest) in self.forests.iter_mut().enumerate().take(span) {
            let Some(uf) = connectivity.cached_forest(Color::new(c)) else {
                continue;
            };
            for (&key, &v) in keys.iter().zip(&locals) {
                let root = uf.find(v);
                match claimed[root] {
                    UNCLAIMED => claimed[root] = key,
                    head => {
                        forest.union(head as usize, key as usize);
                    }
                }
            }
            for &v in &locals {
                claimed[uf.find(v)] = UNCLAIMED;
            }
        }
    }

    /// Colors `boundary` (the list [`Stitch::new`] was keyed on) and returns
    /// the colors in boundary order plus the residue size.
    ///
    /// Phase 1 gives each edge the first color within the shard budget (the
    /// widest shard color span) whose forest keeps its endpoints apart —
    /// almost always successful, because forests of different shards start
    /// out disconnected. Phase 2 recolors the residue by the same rule over
    /// every color opened so far and opens a fresh color only when none
    /// works, so the stitch opens only as many colors as the residue's own
    /// density forces (Theorem 4.6-style: the leftover is sparse).
    pub(super) fn run(
        &mut self,
        csr: &CsrRef<'_>,
        boundary: &[EdgeId],
        ledger: &mut RoundLedger,
    ) -> (Vec<Color>, usize) {
        let budget = self.forests.len();
        let mut colors = vec![Color::new(0); boundary.len()];
        let mut remaining = Vec::new();
        for (i, &e) in boundary.iter().enumerate() {
            match self.place(csr, e) {
                Some(c) => colors[i] = c,
                None => remaining.push(i),
            }
        }
        let stitched_fast = boundary.len() - remaining.len();
        if stitched_fast > 0 {
            ledger.charge(
                format!(
                    "stitch {stitched_fast} of {} boundary edges into existing \
                     forests (single-step augmentations)",
                    boundary.len()
                ),
                stitched_fast,
            );
        }
        if !remaining.is_empty() {
            for &i in &remaining {
                colors[i] = self.place(csr, boundary[i]).unwrap_or_else(|| {
                    let (ku, kv) = self.keys(csr, boundary[i]);
                    let mut fresh = UnionFind::new(self.endpoints.len());
                    fresh.union(ku, kv);
                    self.forests.push(fresh);
                    Color::new(self.forests.len() - 1)
                });
            }
            ledger.charge(
                format!(
                    "stitch leftover ({} residue boundary edges recolored, {} fresh \
                     colors beyond the shard budget)",
                    remaining.len(),
                    self.forests.len() - budget
                ),
                remaining.len(),
            );
        }
        (colors, remaining.len())
    }

    /// Bytes of stitch state: the keys and one forest per color.
    pub(super) fn resident_bytes(&self) -> usize {
        8 * self.endpoints.len() + 5 * self.endpoints.len() * self.forests.len()
    }

    /// The first color whose forest keeps `e`'s endpoints apart, joining
    /// them there.
    fn place(&mut self, csr: &CsrRef<'_>, e: EdgeId) -> Option<Color> {
        let (ku, kv) = self.keys(csr, e);
        let c = self.forests.iter_mut().position(|uf| uf.union(ku, kv))?;
        Some(Color::new(c))
    }

    fn keys(&self, csr: &CsrRef<'_>, e: EdgeId) -> (usize, usize) {
        let key = |v: VertexId| {
            self.endpoints
                .binary_search(&v.raw())
                .expect("boundary endpoints are keyed")
        };
        let (u, v) = csr.endpoints(e);
        (key(u), key(v))
    }
}

/// Assembles the report of a stitched sharded run from the complete
/// per-edge `colors`. `shard_alpha` is the widest per-shard arboricity; the
/// report's `arboricity` is the caller's bound when the request fixes one,
/// otherwise that value floored at the Nash-Williams whole-graph lower
/// bound. Runs the [`StitchPolicy::ExactAlpha`] pass when requested, and
/// validates when the request asks for it.
pub(super) fn finish(
    csr: &CsrRef<'_>,
    request: &DecompositionRequest,
    mut colors: Vec<Color>,
    shard_alpha: usize,
    leftover_edges: usize,
    mut ledger: RoundLedger,
    start: Stopwatch,
) -> Result<DecompositionReport, FdError> {
    // The per-shard maxima exclude boundary edges, so they can under-shoot
    // the global arboricity (e.g. K4 split in two: each shard sees one
    // edge). The Nash-Williams bound keeps the value a true lower bound,
    // which only an exact full-graph partition could pin down.
    let arboricity = request
        .alpha
        .unwrap_or_else(|| shard_alpha.max(forest_graph::matroid::arboricity_lower_bound(csr)));
    if request.sharding.stitch == StitchPolicy::ExactAlpha {
        exact_alpha_stitch(csr, &mut colors, arboricity, &mut ledger);
    }
    let decomposition = ForestDecomposition::from_colors(colors);
    let num_colors = decomposition.num_colors_used();
    let max_diameter = max_forest_diameter(csr, &decomposition.to_partial());
    let mut report = DecompositionReport {
        problem: request.problem,
        engine: request.engine,
        seed: request.seed,
        num_edges: csr.num_edges(),
        artifact: Artifact::Decomposition(decomposition),
        lists: None,
        arboricity,
        num_colors,
        max_diameter,
        leftover_edges,
        ledger,
        wall_clock: start.elapsed(),
        validation: ValidationStatus::Skipped,
    };
    if request.validate {
        report.validate(csr)?;
        report.validation = ValidationStatus::Validated;
    }
    Ok(report)
}

/// BFS pop bound per overflow-edge exchange in the exact-α stitch: the pass
/// is *bounded* — an exchange that trips the bound leaves its edge on the
/// overflow color instead of stalling the stitch.
const EXACT_STITCH_POP_LIMIT: usize = 4096;

/// The [`StitchPolicy::ExactAlpha`] finishing pass: move every edge colored
/// outside `0..target` back inside the budget through bounded augmenting
/// exchanges, with per-color connectivity riding on the dynamic subsystem
/// ([`DynamicColorConnectivity`](forest_graph::DynamicColorConnectivity))
/// so each recoloring is a cut-and-link edit instead of a cache rebuild.
/// Edges whose exchange fails (a genuinely denser-than-`target` residue, or
/// the pop bound) keep their overflow color — the pass improves, never
/// breaks.
fn exact_alpha_stitch(
    csr: &CsrRef<'_>,
    colors: &mut [Color],
    target: usize,
    ledger: &mut RoundLedger,
) {
    let overflow: Vec<EdgeId> = colors
        .iter()
        .enumerate()
        .filter(|(_, c)| c.index() >= target)
        .map(|(i, _)| EdgeId::new(i))
        .collect();
    let total = overflow.len();
    let (mut moved, mut stuck) = (0usize, 0usize);
    if total > 0 && target > 0 {
        let mut coloring = forest_graph::decomposition::PartialEdgeColoring::from_colors(
            colors.iter().map(|&c| Some(c)).collect(),
        );
        let mut conn = forest_graph::DynamicColorConnectivity::from_coloring(csr, &coloring, None);
        for e in overflow {
            let (u, v) = csr.endpoints(e);
            let old = coloring.color(e).expect("stitched colorings are complete");
            coloring.clear(e);
            conn.remove(e);
            // The cheap query first; the bounded exchange only when every
            // in-budget forest already connects the endpoints.
            if let Some(c) = conn.first_free_color(target, u, v) {
                coloring.set(e, c);
                conn.insert(e, c, u, v);
                moved += 1;
                continue;
            }
            match forest_graph::matroid::try_augment_traced(
                csr,
                &mut coloring,
                e,
                target,
                EXACT_STITCH_POP_LIMIT,
            ) {
                Some(steps) => {
                    for (f, _, new) in steps {
                        let (fu, fv) = csr.endpoints(f);
                        conn.recolor(f, new, fu, fv);
                    }
                    moved += 1;
                }
                None => {
                    coloring.set(e, old);
                    conn.insert(e, old, u, v);
                    stuck += 1;
                }
            }
        }
        for (i, c) in colors.iter_mut().enumerate() {
            *c = coloring
                .color(EdgeId::new(i))
                .expect("exchanges keep the coloring complete");
        }
    }
    // Always charged, so the pass is observable even when the greedy stitch
    // already landed inside the budget.
    ledger.charge(
        format!(
            "exact-alpha stitch: {moved} of {total} overflow edges exchanged into the \
             alpha={target} budget ({stuck} kept an overflow color)"
        ),
        moved,
    );
}
