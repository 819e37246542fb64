//! Basic graph algorithms used by generators, verification and Table I.

pub mod connectivity;
pub mod degree;

pub use connectivity::{connected_components, is_connected, largest_component, Components};
pub use degree::{degree_stats, DegreeStats};
