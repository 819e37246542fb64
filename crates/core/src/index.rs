//! `PathMaxIndex` — the certified forest as an O(1) answer engine.
//!
//! [`crate::certify`] verifies an MSF via King-style path-maximum queries:
//! replay the tree edges in Kruskal merge order, keep each component's
//! vertices as a linked chain, and stamp each merge's key on the separator
//! where the two chains now touch. King's lemma says path-max(u, v) is the
//! key of the merge that first united `u` and `v`, which — because merge
//! keys only grow — is exactly the **largest separator between `u` and `v`
//! in the final chain order**. The whole Borůvka-tree LCA machinery
//! collapses to one array of `n` separators plus a two-level range-max
//! structure (per-block monotone-stack bitmasks, block prefix/suffix
//! maxima, a sparse table over per-block maxima), and every query is a
//! handful of independent loads.
//!
//! That machinery answers far more than "is this forest minimal": it is a
//! complete post-construction query service over the certified MSF. This
//! module is its public home — [`crate::certify::certify_msf`] and
//! [`crate::certify::certify_msf_par`] are now thin consumers of the same
//! index that downstream code (e.g. the `llp-serve` query server) builds
//! once and queries forever:
//!
//! * [`PathMaxIndex::component`] — which tree of the forest a vertex
//!   belongs to (dense ids in `0..num_components`), O(1);
//! * [`PathMaxIndex::path_max`] — the bottleneck (maximum-key) edge on the
//!   unique tree path between two vertices, O(1), `None` across trees;
//! * [`PathMaxIndex::connected_under`] — single-linkage clustering: are
//!   two vertices connected using only edges of weight ≤ λ? Because the
//!   MSF is a minimax-path tree, this is one path-max query, O(1) for any
//!   threshold — no union-find rebuild per λ;
//! * [`PathMaxIndex::bottleneck`] — [`PathMaxIndex::path_max`] as a plain
//!   [`Edge`], the shape wire protocols want.
//!
//! Build cost is O(n log n) — sorting only the `t ≤ n − 1` tree edges
//! (skipped when they already arrive key-sorted, as Kruskal-family outputs
//! do), never the `m` graph edges — and the replay detects cycles for
//! free, so a successful build proves the input is a forest. Keys are
//! packed into order-isomorphic `u128`s (`key_bits`), and the one sorted
//! table of them does three jobs: it is the sort's output, the replay's
//! input (endpoints decode from the low 64 bits) and the decoder of merge
//! ranks. Merges replay in key order, so rank order is key order, and the
//! range-max levels (block prefix/suffix maxima, sparse table) hold `u32`
//! ranks, a quarter of the bytes. A cross-block query is four `u32` loads
//! plus one decode, `keys[max rank]`; an in-block query reads the one
//! position-ordered array of `u128` separator keys, beside the masks, with
//! no decode. The packing is invertible, so the winning key decodes
//! straight back to the bottleneck edge without storing edge payloads.

use crate::result::MstResult;
use crate::union_find::UnionFind;
use crate::verify::VerifyError;
use llp_graph::weight::{ordered_to_f64, Weight};
use llp_graph::{Edge, EdgeKey, VertexId};
use llp_runtime::sort::par_sort_by_key;
use llp_runtime::{telemetry, ScratchArena, ThreadPool};

const NO_NODE: u32 = u32::MAX;

/// Separator-array block width for the range-max structure; equal to the
/// bitmask width, so any in-block range is answered with two bit
/// operations.
pub(crate) const BLOCK: usize = 32;

/// No real key reaches this: its endpoint fields would have to be
/// `u32::MAX` twice, and endpoints are distinct vertex ids.
pub(crate) const INF_KEY: u128 = u128::MAX;

/// Packs `(weight, lo, hi)` into a `u128` whose integer order equals the
/// canonical [`EdgeKey`] order: weight-major (via the usual monotone
/// sign-flip encoding of IEEE 754 doubles), endpoints as tie-break.
#[inline]
pub(crate) fn key_bits(w: Weight, u: VertexId, v: VertexId) -> u128 {
    let (lo, hi) = if u < v { (u, v) } else { (v, u) };
    let b = w.to_bits();
    let ord = if b >> 63 == 0 { b | (1 << 63) } else { !b };
    ((ord as u128) << 64) | ((lo as u128) << 32) | hi as u128
}

/// Inverse of [`key_bits`]: recovers the edge a packed separator encodes.
#[inline]
fn key_from_bits(k: u128) -> EdgeKey {
    EdgeKey::new(ordered_to_f64((k >> 64) as u64), (k >> 32) as u32, k as u32)
}

/// The `edges` record, exactly as given, whose merge closed a cycle at
/// rank `r` of the sorted `keys`. Cold: the replay reads keys, not
/// records. Equal keys are indistinguishable in the table, so the `d`-th
/// repeat of a key is taken to be its `d`-th record, as a stable sort
/// would place it.
#[cold]
fn cycle_witness(edges: &[Edge], keys: &[u128], r: usize) -> Edge {
    let k = keys[r];
    let repeat = keys[..r].iter().rev().take_while(|&&x| x == k).count();
    *edges
        .iter()
        .filter(|e| key_bits(e.w, e.u, e.v) == k)
        .nth(repeat)
        .expect("every sorted key is some record's key")
}

/// O(1) component / path-max / threshold-connectivity queries over a
/// certified minimum spanning forest.
///
/// Construction replays the forest's Kruskal merge order ([module
/// docs](self)). The result is the sorted table of the `t` tree-edge keys
/// (plus the sentinel), the `n`-sized position, component, separator-key
/// and mask arrays, and `u32` merge ranks for the block prefix/suffix
/// maxima and the O(n / `BLOCK` · log n) sparse table: about 52 B per
/// vertex, 26 MB on the benchmark's 490k-vertex road graph. Building from
/// a non-forest fails with [`VerifyError::Cycle`] /
/// [`VerifyError::ForeignEdge`], so holding a `PathMaxIndex` is itself a
/// structural certificate.
///
/// Queries take vertex ids in `0..num_vertices` and panic on out-of-range
/// ids, mirroring the rest of the workspace's slice-indexed APIs; wire
/// frontends validate ids before calling.
pub struct PathMaxIndex {
    /// Position of each vertex in the concatenated merge order.
    pub(crate) pos: Vec<u32>,
    /// Dense component id of each vertex, in chain layout order.
    comp: Vec<u32>,
    /// Number of trees in the forest (isolated vertices included).
    num_components: usize,
    /// `keys[r]`: packed key of the merge of rank `r`, i.e. of the `r`-th
    /// tree edge in key order; `keys[t]` is [`INF_KEY`], the component
    /// boundary sentinel. Decodes every rank the range-max levels hold.
    keys: Vec<u128>,
    /// `sep[p]`: key of the merge that joined position `p`'s prefix to its
    /// suffix within one component, or [`INF_KEY`] where position `p` ends
    /// a component. Read only by in-block queries, which then need no
    /// decode.
    pub(crate) sep: Vec<u128>,
    /// Monotone-stack bitmask per position: bit `j` of `mask[i]` is set
    /// iff `sep[i - j]` is larger than every separator in `(i-j, i]`. The
    /// argmax of any in-block range `[l, r]` is then `r - msb(mask[r] &
    /// window)`. Used only when a query fits inside one block.
    mask: Vec<u32>,
    /// Running max separator rank from the enclosing block's start
    /// through each position (inclusive).
    prefix: Vec<u32>,
    /// Running max separator rank from each position through the
    /// enclosing block's end (inclusive).
    suffix: Vec<u32>,
    /// `sparse[k][b]`: max separator rank across blocks `b .. b + 2^k`
    /// (level 0 is the per-block max). Values, not positions: a
    /// cross-block query is then four independent `u32` loads and one
    /// decode through `keys`.
    sparse: Vec<Vec<u32>>,
    /// When the forest is one spanning tree, the weight of its heaviest
    /// edge: a graph edge strictly heavier passes the cycle property with
    /// a single register compare (no cross-tree queries can exist, so the
    /// spanning check cannot be short-circuited away). Infinite — the
    /// filter never fires — for true forests.
    pub(crate) pass_above: f64,
}

impl PathMaxIndex {
    /// Builds the index from a forest over `n` vertices, sequentially.
    ///
    /// Fails with [`VerifyError::Cycle`] when `result` is not a forest and
    /// [`VerifyError::ForeignEdge`] when an edge names a vertex `≥ n` —
    /// the build is exactly the acyclicity half of certification.
    pub fn build(n: usize, result: &MstResult) -> Result<PathMaxIndex, VerifyError> {
        Self::build_impl(n, result, None)
    }

    /// [`Self::build`] with the tree-edge sort parallelized over `pool`.
    pub fn build_par(
        n: usize,
        result: &MstResult,
        pool: &ThreadPool,
    ) -> Result<PathMaxIndex, VerifyError> {
        Self::build_impl(n, result, Some(pool))
    }

    /// Replays `result`'s edges in key order over `n` vertices, detecting
    /// cycles in the process.
    fn build_impl(
        n: usize,
        result: &MstResult,
        pool: Option<&ThreadPool>,
    ) -> Result<PathMaxIndex, VerifyError> {
        if let Some(e) = result
            .edges
            .iter()
            .find(|e| (e.u as usize) >= n || (e.v as usize) >= n)
        {
            return Err(VerifyError::ForeignEdge(*e));
        }

        // Tree-edge keys in increasing order, then the sentinel: `keys[r]`
        // is the key of merge rank `r`, and rank `t` decodes to `INF_KEY`.
        // Kruskal-family results are already sorted — detect that in O(t)
        // and skip the sort. Sized once, so the sentinel's push never
        // grows the table.
        let t = result.edges.len();
        let keys: Vec<u128> = {
            let _s = telemetry::span("index-build-sort");
            let mut keys: Vec<u128> = Vec::with_capacity(t + 1);
            keys.extend(result.edges.iter().map(|e| key_bits(e.w, e.u, e.v)));
            if !keys.windows(2).all(|w| w[0] <= w[1]) {
                match pool {
                    Some(pool) => par_sort_by_key(pool, &mut keys, &ScratchArena::new(), |&k| k),
                    None => keys.sort_unstable(),
                }
            }
            keys.push(INF_KEY);
            keys
        };

        // Merge replay, straight off the sorted keys (their low 64 bits
        // are the endpoints). Each component is a chain whose `[head,
        // last]` is valid at its union-find root; a merge concatenates the
        // chains in O(1) and stamps its rank on the single separator where
        // they now touch, beside the successor link in `after`. A
        // separator is stamped at most once: once a vertex has a successor
        // it is interior to its chain forever. A merge of an
        // already-joined component is the cycle witness. Ranks fit `u32`:
        // `n` vertices take at most `n - 1` merges, so a longer list meets
        // its cycle by rank `n - 1`, and a sentinel rank `t` that survives
        // the replay is below `n`.
        let _s = telemetry::span("index-build-merge");
        let mut uf = UnionFind::new(n);
        let mut ends: Vec<[u32; 2]> = (0..n as u32).map(|v| [v, v]).collect();
        let sentinel = t as u32;
        let mut after: Vec<[u32; 2]> = vec![[NO_NODE, sentinel]; n];
        for (r, &k) in keys[..t].iter().enumerate() {
            let ra = uf.find((k >> 32) as u32) as usize;
            let rb = uf.find(k as u32) as usize;
            if ra == rb {
                return Err(VerifyError::Cycle(cycle_witness(&result.edges, &keys, r)));
            }
            let ([ha, la], [hb, lb]) = (ends[ra], ends[rb]);
            after[la as usize] = [hb, r as u32];
            let root = uf.link(ra as VertexId, rb as VertexId) as usize;
            ends[root] = [ha, lb];
        }
        drop(_s);

        // Walk each root's chain once to lay out positions, component ids
        // and the separator ranks in merge order. Chain tails keep the
        // sentinel rank, which is exactly the component boundary.
        let _s = telemetry::span("index-build-scatter");
        let mut pos = vec![0u32; n];
        let mut comp = vec![0u32; n];
        let mut num_components = 0usize;
        let mut rank: Vec<u32> = Vec::with_capacity(n);
        for v in 0..n as VertexId {
            if uf.find(v) != v {
                continue;
            }
            let c = num_components as u32;
            num_components += 1;
            let mut x = ends[v as usize][0];
            while x != NO_NODE {
                pos[x as usize] = rank.len() as u32;
                comp[x as usize] = c;
                let [nx, r] = after[x as usize];
                rank.push(r);
                x = nx;
            }
        }
        debug_assert_eq!(rank.len(), n);
        drop((uf, ends, after));
        drop(_s);

        // Two-level range-max over the ranks: per-position monotone-stack
        // masks for O(1) in-block queries; block prefix/suffix maxima and
        // a sparse table over per-block maxima for everything wider. Rank
        // order is key order, so every comparison is a `u32` one.
        let _s = telemetry::span("index-build-rmq");
        let nblocks = n.div_ceil(BLOCK).max(1);
        let mut mask = vec![0u32; n];
        let mut prefix: Vec<u32> = Vec::with_capacity(n);
        let mut suffix: Vec<u32> = vec![sentinel; n];
        let mut block_max = vec![sentinel; nblocks];
        for (b, bmax) in block_max.iter_mut().enumerate() {
            let lo = b * BLOCK;
            let hi = ((b + 1) * BLOCK).min(n);
            if lo >= hi {
                continue; // only the n = 0 degenerate block
            }
            let mut m = 0u32;
            let mut run = rank[lo];
            for i in lo..hi {
                m <<= 1;
                while m != 0 && rank[i - m.trailing_zeros() as usize] <= rank[i] {
                    m &= m - 1;
                }
                m |= 1;
                mask[i] = m;
                run = run.max(rank[i]);
                prefix.push(run);
            }
            *bmax = run;
            let mut run = rank[hi - 1];
            for i in (lo..hi).rev() {
                run = run.max(rank[i]);
                suffix[i] = run;
            }
        }
        let levels = usize::BITS as usize - nblocks.leading_zeros() as usize;
        let mut sparse: Vec<Vec<u32>> = Vec::with_capacity(levels);
        sparse.push(block_max);
        let mut k = 1;
        while (1 << k) <= nblocks {
            let prev = &sparse[k - 1];
            let width = 1 << (k - 1);
            let level: Vec<u32> = (0..=nblocks - (1 << k))
                .map(|b| prev[b].max(prev[b + width]))
                .collect();
            sparse.push(level);
            k += 1;
        }
        // In-block answers read keys in position order, beside `mask`.
        let sep: Vec<u128> = rank.iter().map(|&r| keys[r as usize]).collect();

        let pass_above = if t + 1 == n && t > 0 {
            key_from_bits(keys[t - 1]).weight()
        } else {
            f64::INFINITY
        };
        Ok(PathMaxIndex {
            pos,
            comp,
            num_components,
            keys,
            sep,
            mask,
            prefix,
            suffix,
            sparse,
            pass_above,
        })
    }

    /// Number of vertices the index was built over.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.pos.len()
    }

    /// Number of trees in the forest, isolated vertices included.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Dense id (`0..num_components`) of the tree containing `u`.
    #[inline]
    pub fn component(&self, u: VertexId) -> u32 {
        self.comp[u as usize]
    }

    /// Whether `u` and `v` lie in the same tree of the forest.
    #[inline]
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.comp[u as usize] == self.comp[v as usize]
    }

    /// The bottleneck of the unique forest path between `u` and `v`: the
    /// maximum-key tree edge on it. `None` when `u == v` (the path is
    /// empty) or the vertices lie in different trees.
    #[inline]
    pub fn path_max(&self, u: VertexId, v: VertexId) -> Option<EdgeKey> {
        if u == v {
            return None;
        }
        let max = self.path_max_at(self.pos[u as usize], self.pos[v as usize]);
        if max == INF_KEY {
            None
        } else {
            Some(key_from_bits(max))
        }
    }

    /// [`Self::path_max`] as a plain [`Edge`] (canonical `u < v`
    /// orientation) — the shape wire protocols and reports want.
    #[inline]
    pub fn bottleneck(&self, u: VertexId, v: VertexId) -> Option<Edge> {
        self.path_max(u, v)
            .map(|k| Edge::new(k.lo(), k.hi(), k.weight()))
    }

    /// Single-linkage threshold connectivity: are `u` and `v` connected
    /// using only forest edges of weight ≤ `lambda`?
    ///
    /// Because the MSF is a minimax-path tree, its path bottleneck is the
    /// minimum over *all* graph paths, so this answers threshold
    /// connectivity on the original graph too. One O(1) query per (u, v,
    /// λ); sweeping λ never rebuilds anything. `lambda` comparisons use
    /// raw weights (ties at exactly `lambda` are connected).
    #[inline]
    pub fn connected_under(&self, u: VertexId, v: VertexId, lambda: f64) -> bool {
        if u == v {
            return true;
        }
        let max = self.path_max_at(self.pos[u as usize], self.pos[v as usize]);
        max != INF_KEY && key_from_bits(max).weight() <= lambda
    }

    /// The `t` tree-edge keys in increasing order (the table without its
    /// sentinel): a tree key's position here is its merge rank.
    pub(crate) fn tree_keys(&self) -> &[u128] {
        &self.keys[..self.keys.len() - 1]
    }

    /// Maximum separator in `[l, r]`, both inside one block: the argmax is
    /// the oldest surviving monotone-stack entry within the window.
    #[inline]
    fn inblock(&self, l: usize, r: usize) -> u128 {
        let w = r - l + 1; // 1..=BLOCK
        let mm = self.mask[r] & (u32::MAX >> (32 - w));
        self.sep[r - (31 - mm.leading_zeros() as usize)]
    }

    /// Maximum separator in `lo..=hi`.
    #[inline]
    pub(crate) fn rmq(&self, lo: usize, hi: usize) -> u128 {
        let bl = lo / BLOCK;
        let bh = hi / BLOCK;
        if bl == bh {
            return self.inblock(lo, hi);
        }
        // `lo`'s block tail, `hi`'s block head, and (via the sparse table)
        // the whole blocks strictly between: four independent rank loads,
        // combined branch-free, then one decode.
        let mut best = self.suffix[lo].max(self.prefix[hi]);
        if bl + 1 < bh {
            let (a, b) = (bl + 1, bh - 1);
            let k = usize::BITS as usize - 1 - (b - a + 1).leading_zeros() as usize;
            best = best
                .max(self.sparse[k][a])
                .max(self.sparse[k][b + 1 - (1 << k)]);
        }
        self.keys[best as usize]
    }

    /// Raw maximum tree-edge key on the forest path between the vertices
    /// at positions `pu` and `pv`; [`INF_KEY`] when they live in different
    /// trees. This is the certifier's hot path: no decode, no `Option`.
    #[inline]
    pub(crate) fn path_max_at(&self, pu: u32, pv: u32) -> u128 {
        let (lo, hi) = if pu < pv { (pu, pv) } else { (pv, pu) };
        self.rmq(lo as usize, hi as usize - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal;
    use crate::stats::AlgoStats;

    #[test]
    fn key_bits_round_trips_through_key_from_bits() {
        for &(w, u, v) in &[
            (-3.5, 0u32, 1u32),
            (-0.0, 2, 3),
            (0.0, 1, 4),
            (1e-310, 0, 2),
            (2.0, 7, 3),
            (1e300, 5, 6),
        ] {
            assert_eq!(key_from_bits(key_bits(w, u, v)), EdgeKey::new(w, u, v));
        }
    }

    #[test]
    fn range_max_matches_naive_scan() {
        // Exercise the bitmask range-max against a brute-force scan on a
        // real separator array (caterpillar: mixes a long spine with
        // shallow legs, so separators are far from monotone).
        let g = llp_graph::generators::caterpillar(40, 3, 5);
        let msf = kruskal(&g);
        let index = PathMaxIndex::build(g.num_vertices(), &msf).unwrap();
        let len = index.sep.len();
        assert_eq!(len, g.num_vertices());
        for lo in 0..len {
            for hi in lo..len.min(lo + 2 * BLOCK + 2) {
                let got = index.rmq(lo, hi);
                let want = (lo..=hi).map(|i| index.sep[i]).max().unwrap();
                assert_eq!(got, want, "rmq({lo},{hi})");
            }
        }
    }

    #[test]
    fn components_match_union_find() {
        let g = llp_graph::generators::erdos_renyi(120, 100, 11);
        let n = g.num_vertices();
        let msf = kruskal(&g);
        let index = PathMaxIndex::build(n, &msf).unwrap();
        assert_eq!(index.num_components(), msf.num_trees);

        let mut uf = UnionFind::new(n);
        for e in &msf.edges {
            uf.union(e.u, e.v);
        }
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                assert_eq!(
                    index.connected(u, v),
                    uf.find(u) == uf.find(v),
                    "connected({u},{v})"
                );
                assert_eq!(
                    index.component(u) == index.component(v),
                    uf.find(u) == uf.find(v)
                );
            }
        }
        // Dense ids.
        let mut seen = vec![false; index.num_components()];
        for u in 0..n as u32 {
            seen[index.component(u) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bottleneck_is_a_real_tree_edge() {
        let g = llp_graph::generators::erdos_renyi(90, 200, 3);
        let msf = kruskal(&g);
        let index = PathMaxIndex::build(g.num_vertices(), &msf).unwrap();
        let tree_keys: Vec<EdgeKey> = msf.edges.iter().map(Edge::key).collect();
        let mut answered = 0;
        for u in (0..g.num_vertices() as u32).step_by(3) {
            for v in (0..g.num_vertices() as u32).step_by(7) {
                if let Some(k) = index.path_max(u, v) {
                    assert!(tree_keys.contains(&k), "path_max({u},{v}) = {k:?}");
                    let e = index.bottleneck(u, v).unwrap();
                    assert_eq!((e.u, e.v, e.w), (k.lo(), k.hi(), k.weight()));
                    answered += 1;
                } else {
                    assert!(u == v || !index.connected(u, v));
                }
            }
        }
        assert!(answered > 0);
    }

    #[test]
    fn connected_under_matches_threshold_union_find() {
        // Single-linkage ground truth: union-find over the *graph* edges
        // of weight <= lambda (the MSF bottleneck must agree, because the
        // MSF minimises path maxima over all graph paths).
        let g = llp_graph::generators::erdos_renyi(80, 160, 9);
        let n = g.num_vertices();
        let msf = kruskal(&g);
        let index = PathMaxIndex::build(n, &msf).unwrap();
        for lambda in [0.0, 0.1, 0.35, 0.5, 0.8, 1.0, f64::INFINITY] {
            let mut uf = UnionFind::new(n);
            for e in g.edges() {
                if e.w <= lambda {
                    uf.union(e.u, e.v);
                }
            }
            for u in (0..n as u32).step_by(5) {
                for v in (0..n as u32).step_by(3) {
                    assert_eq!(
                        index.connected_under(u, v, lambda),
                        uf.find(u) == uf.find(v),
                        "connected_under({u},{v},{lambda})"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_cycles_and_out_of_range_edges() {
        let cyclic = MstResult::from_edges(
            3,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 2.0),
                Edge::new(0, 2, 3.0),
            ],
            AlgoStats::default(),
        );
        assert!(matches!(
            PathMaxIndex::build(3, &cyclic),
            Err(VerifyError::Cycle(_))
        ));

        let oob = MstResult::from_edges(
            9,
            vec![Edge::new(0, 7, 1.0)],
            AlgoStats::default(),
        );
        assert!(matches!(
            PathMaxIndex::build(4, &oob),
            Err(VerifyError::ForeignEdge(e)) if e.v == 7
        ));
    }

    #[test]
    fn cycle_witness_is_the_record_as_given() {
        // The replay reads sorted keys, which are canonical; the witness
        // must still be the `result.edges` record that closed the cycle,
        // orientation included.
        let reversed = Edge::new(2, 0, 3.0);
        let cyclic = MstResult::from_edges(
            3,
            vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0), reversed],
            AlgoStats::default(),
        );
        assert_eq!(
            PathMaxIndex::build(3, &cyclic).err(),
            Some(VerifyError::Cycle(reversed))
        );

        // A verbatim repeat: the first copy merges, the second (the last
        // record here) closes the two-edge cycle.
        let tree = [
            Edge::new(3, 1, 0.5),
            Edge::new(0, 1, -1.0),
            Edge::new(2, 3, 0.5),
        ];
        let mut edges = tree.to_vec();
        edges.push(tree[0]);
        let repeated = MstResult::from_edges(4, edges, AlgoStats::default());
        let witness = Some(VerifyError::Cycle(tree[0]));
        assert_eq!(PathMaxIndex::build(4, &repeated).err(), witness);
        let pool = ThreadPool::new(2);
        assert_eq!(PathMaxIndex::build_par(4, &repeated, &pool).err(), witness);
    }

    #[test]
    fn empty_and_singleton_indices() {
        let r = MstResult::from_edges(0, vec![], AlgoStats::default());
        let index = PathMaxIndex::build(0, &r).unwrap();
        assert_eq!(index.num_components(), 0);

        let r = MstResult::from_edges(3, vec![], AlgoStats::default());
        let index = PathMaxIndex::build(3, &r).unwrap();
        assert_eq!(index.num_components(), 3);
        assert!(!index.connected(0, 2));
        assert!(index.path_max(0, 2).is_none());
        assert!(index.connected_under(1, 1, 0.0));
        assert!(!index.connected_under(0, 1, f64::INFINITY));
    }
}
