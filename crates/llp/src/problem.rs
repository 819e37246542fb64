//! The LLP problem abstraction: bottom / forbidden / advance.

/// A lattice-linear predicate detection problem (paper §II).
///
/// The global state is a vector `G` of `num_indices()` per-index states
/// drawn from a lattice ordered by repeated [`advance`](Self::advance):
/// advancing must move `G[j]` strictly up its (finite-height) chain.
///
/// Implementations must satisfy the lattice-linearity contract:
///
/// 1. **Soundness of `forbidden`** — if `forbidden(G, j)` then no feasible
///    vector `H ≥ G` keeps `H[j] = G[j]` (Definition 1).
/// 2. **Soundness of `advance`** — `advance(G, j)` returns the least state
///    `α` such that every feasible `H ≥ G` has `H[j] ≥ α` (Definition 3),
///    or `None` when `α` would exceed the top of the lattice — in which
///    case no feasible vector exists (Algorithm 1 "return null").
/// 3. **Progress** — `advance(G, j) > G[j]` whenever `forbidden(G, j)`;
///    chains have finite height so solvers terminate.
///
/// Under this contract the solvers return the *minimum* feasible vector,
/// regardless of the order in which forbidden indices are advanced — that
/// schedule-independence is what makes LLP algorithms parallelisable
/// without synchronisation on the predicate evaluation.
///
/// ```
/// use llp_core::{solve_sequential, LlpProblem};
///
/// /// Least vector with G[j] >= target[j].
/// struct AtLeast(Vec<u32>);
///
/// impl LlpProblem for AtLeast {
///     type State = u32;
///     fn num_indices(&self) -> usize { self.0.len() }
///     fn bottom(&self, _j: usize) -> u32 { 0 }
///     fn forbidden(&self, g: &[u32], j: usize) -> bool { g[j] < self.0[j] }
///     fn advance(&self, g: &[u32], j: usize) -> Option<u32> { Some(g[j] + 1) }
/// }
///
/// let sol = solve_sequential(&AtLeast(vec![2, 0, 5])).unwrap();
/// assert_eq!(sol.state, vec![2, 0, 5]);
/// ```
pub trait LlpProblem: Sync {
    /// Per-index state type.
    type State: Clone + PartialEq + Send + Sync + std::fmt::Debug;

    /// Dimension of the state vector.
    fn num_indices(&self) -> usize;

    /// The bottom (least) state of index `j`'s chain.
    fn bottom(&self, j: usize) -> Self::State;

    /// True when index `j` is forbidden in `g` (Definition 1).
    fn forbidden(&self, g: &[Self::State], j: usize) -> bool;

    /// The state `G[j]` must advance to (Definition 3), or `None` when the
    /// advance would leave the lattice (no feasible vector exists).
    ///
    /// Only called when `forbidden(g, j)` holds.
    fn advance(&self, g: &[Self::State], j: usize) -> Option<Self::State>;
}
