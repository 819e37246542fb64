//! Undirected weighted edges.

use crate::weight::{EdgeKey, Weight};
use crate::VertexId;

/// An undirected weighted edge `{u, v}` with weight `w`.
///
/// The struct stores the endpoints as given; identity and ordering go
/// through [`Edge::key`], which canonicalises orientation. The default is
/// a zero-weight loop at vertex 0, a fill value for preallocated buffers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// Weight.
    pub w: Weight,
}

impl Edge {
    /// Creates a new edge.
    #[inline]
    pub fn new(u: VertexId, v: VertexId, w: Weight) -> Self {
        Edge { u, v, w }
    }

    /// The canonical total-order key of this edge.
    #[inline]
    pub fn key(&self) -> EdgeKey {
        EdgeKey::new(self.w, self.u, self.v)
    }

    /// True when both endpoints coincide.
    #[inline]
    pub fn is_self_loop(&self) -> bool {
        self.u == self.v
    }

    /// The endpoint that is not `x`.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        debug_assert!(x == self.u || x == self.v);
        if x == self.u {
            self.v
        } else {
            self.u
        }
    }

    /// Endpoints as `(min, max)`.
    #[inline]
    pub fn canonical_endpoints(&self) -> (VertexId, VertexId) {
        if self.u <= self.v {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_ignores_orientation() {
        assert_eq!(Edge::new(2, 5, 1.5).key(), Edge::new(5, 2, 1.5).key());
    }

    #[test]
    fn self_loop_detection() {
        assert!(Edge::new(3, 3, 1.0).is_self_loop());
        assert!(!Edge::new(3, 4, 1.0).is_self_loop());
    }

    #[test]
    fn other_endpoint() {
        let e = Edge::new(1, 2, 0.0);
        assert_eq!(e.other(1), 2);
        assert_eq!(e.other(2), 1);
    }

    #[test]
    fn canonical_endpoints_sorted() {
        assert_eq!(Edge::new(9, 4, 0.0).canonical_endpoints(), (4, 9));
        assert_eq!(Edge::new(4, 9, 0.0).canonical_endpoints(), (4, 9));
    }
}
