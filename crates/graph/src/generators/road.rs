//! Road-network generator (USA-road morphology).
//!
//! The paper's road dataset (`USA-road-d.USA`, DIMACS) is a planar-ish
//! network with ~24M vertices, average degree ≈ 2.4, huge diameter and
//! locally-correlated travel-time weights. This generator reproduces those
//! properties on a 2D grid:
//!
//! * vertices form a `rows × cols` lattice;
//! * each horizontal/vertical neighbour pair is connected unless the edge is
//!   "perforated" away (removing a fraction of edges lowers the average
//!   degree from 4 toward the road-network range and creates irregular
//!   block shapes, like a city grid with missing streets);
//! * a small fraction of diagonal shortcuts models highways;
//! * weights are Euclidean-ish lengths scaled by a per-edge random factor,
//!   as travel times are in the DIMACS `-d` variants.
//!
//! The generated graph is guaranteed **connected**: perforation never
//! removes edges of a designated spanning "street skeleton" (a serpentine
//! path covering the grid), so MST (not just MSF) algorithms apply — the
//! paper's LLP-Prim assumes a connected graph.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use llp_runtime::rng::SmallRng;

/// Parameters of the road-network generator.
#[derive(Clone, Copy, Debug)]
pub struct RoadParams {
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Fraction of non-skeleton grid edges removed (0.0..1.0).
    pub perforation: f64,
    /// Fraction of grid cells that get a diagonal shortcut.
    pub diagonal_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RoadParams {
    /// Defaults matching the USA-road morphology (avg degree ≈ 2.5–3).
    pub fn usa_like(rows: usize, cols: usize, seed: u64) -> Self {
        RoadParams {
            rows,
            cols,
            perforation: 0.25,
            diagonal_fraction: 0.03,
            seed,
        }
    }
}

/// Generates a connected road-style network.
pub fn road_network(params: RoadParams) -> CsrGraph {
    let RoadParams {
        rows,
        cols,
        perforation,
        diagonal_fraction,
        seed,
    } = params;
    assert!(rows >= 1 && cols >= 1, "grid must be non-empty");
    assert!(
        (0.0..1.0).contains(&perforation),
        "perforation must be in [0,1)"
    );
    let n = rows * cols;
    assert!(n < u32::MAX as usize, "grid too large for VertexId");
    let mut rng = SmallRng::seed_from_u64(seed);
    let id = |r: usize, c: usize| (r * cols + c) as u32;

    // Serpentine skeleton: row r connects left-to-right; adjacent rows are
    // joined at alternating ends. Every vertex lies on the skeleton, so the
    // graph stays connected whatever perforation removes.
    let on_skeleton = |r: usize, c: usize, dr: usize, dc: usize| -> bool {
        if dr == 0 && dc == 1 {
            true // all horizontal edges are skeleton (row paths)
        } else if dr == 1 && dc == 0 {
            // vertical joins at column end alternating by row parity
            (r.is_multiple_of(2) && c == cols - 1) || (r % 2 == 1 && c == 0)
        } else {
            false
        }
    };

    // Weight model: base length ~ U(0.5, 1.5) per unit step, scaled so
    // diagonals are sqrt(2) longer on average. Mimics travel times.
    let mut builder = GraphBuilder::with_capacity(n, 2 * n + n / 16);
    let edge_weight = |rng: &mut SmallRng, diagonal: bool| -> f64 {
        let base = 0.5 + rng.gen::<f64>();
        if diagonal {
            base * std::f64::consts::SQRT_2
        } else {
            base
        }
    };

    for r in 0..rows {
        for c in 0..cols {
            // Right neighbour.
            if c + 1 < cols {
                let keep = on_skeleton(r, c, 0, 1) || rng.gen::<f64>() >= perforation;
                let w = edge_weight(&mut rng, false);
                if keep {
                    builder.add_edge(id(r, c), id(r, c + 1), w);
                }
            }
            // Down neighbour.
            if r + 1 < rows {
                let keep = on_skeleton(r, c, 1, 0) || rng.gen::<f64>() >= perforation;
                let w = edge_weight(&mut rng, false);
                if keep {
                    builder.add_edge(id(r, c), id(r + 1, c), w);
                }
            }
            // Occasional diagonal shortcut.
            if r + 1 < rows && c + 1 < cols && rng.gen::<f64>() < diagonal_fraction {
                let w = edge_weight(&mut rng, true);
                builder.add_edge(id(r, c), id(r + 1, c + 1), w);
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::connectivity::connected_components;

    #[test]
    fn grid_size_and_validity() {
        let g = road_network(RoadParams::usa_like(20, 30, 1));
        assert_eq!(g.num_vertices(), 600);
        g.validate().unwrap();
    }

    #[test]
    fn is_connected() {
        for seed in 0..5 {
            let g = road_network(RoadParams::usa_like(25, 25, seed));
            let cc = connected_components(&g);
            assert_eq!(cc.num_components, 1, "seed {seed}");
        }
    }

    #[test]
    fn average_degree_in_road_range() {
        let g = road_network(RoadParams::usa_like(100, 100, 2));
        let avg = g.average_degree();
        assert!(
            (2.0..=3.6).contains(&avg),
            "road networks are sparse: avg degree {avg}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = road_network(RoadParams::usa_like(10, 10, 3));
        let b = road_network(RoadParams::usa_like(10, 10, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn single_cell_grid() {
        let g = road_network(RoadParams::usa_like(1, 1, 0));
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn one_row_is_a_path() {
        let g = road_network(RoadParams::usa_like(1, 50, 0));
        assert_eq!(g.num_edges(), 49);
        assert_eq!(connected_components(&g).num_components, 1);
    }
}
