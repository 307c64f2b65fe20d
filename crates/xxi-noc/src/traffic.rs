//! NoC traffic patterns.
//!
//! The standard kit for interconnect evaluation: uniform random (the
//! default stressor), transpose (adversarial for dimension-order routing),
//! hotspot (models a shared home node / memory controller), and nearest
//! neighbor (models well-partitioned stencil codes — the communication
//! pattern the paper's locality agenda §2.2 rewards).

use serde::{Deserialize, Serialize};

use crate::topology::{Dir, Mesh};
use xxi_core::rng::Rng64;

/// Destination-selection pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pattern {
    /// Uniformly random destination ≠ source.
    Uniform,
    /// `(x, y)` sends to `(y, x)` (planar transpose; identity for nodes on
    /// the diagonal, which then don't inject).
    Transpose,
    /// A fraction of traffic targets one hot node; the rest is uniform.
    Hotspot {
        /// The hot destination.
        node: usize,
        /// Per-mille of traffic aimed at it (0–1000).
        permille: u32,
    },
    /// Destination is a uniformly chosen mesh neighbor.
    Neighbor,
}

impl Pattern {
    /// Pick a destination for `src`, or `None` if this source does not
    /// inject under the pattern.
    pub fn dest(self, mesh: &Mesh, src: usize, rng: &mut Rng64) -> Option<usize> {
        match self {
            Pattern::Uniform => {
                if mesh.nodes() < 2 {
                    return None;
                }
                loop {
                    let d = rng.below(mesh.nodes() as u64) as usize;
                    if d != src {
                        return Some(d);
                    }
                }
            }
            Pattern::Transpose => {
                let (x, y, z) = mesh.coords(src);
                if x == y || x >= mesh.h || y >= mesh.w {
                    None
                } else {
                    Some(mesh.id(y, x, z))
                }
            }
            Pattern::Hotspot { node, permille } => {
                if rng.below(1000) < permille as u64 {
                    if node == src {
                        None
                    } else {
                        Some(node)
                    }
                } else {
                    Pattern::Uniform.dest(mesh, src, rng)
                }
            }
            Pattern::Neighbor => {
                // Same draw as `rng.choose` over the neighbors in port order.
                let mut neighbors = [0usize; 6];
                let mut count = 0;
                for d in Dir::ALL.into_iter().filter(|d| *d != Dir::Local) {
                    if let Some(n) = mesh.neighbor(src, d) {
                        neighbors[count] = n;
                        count += 1;
                    }
                }
                if count == 0 {
                    None
                } else {
                    Some(neighbors[rng.below(count as u64) as usize])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_never_self() {
        let m = Mesh::new_2d(4, 4);
        let mut rng = Rng64::new(1);
        for _ in 0..1000 {
            let d = Pattern::Uniform.dest(&m, 5, &mut rng).unwrap();
            assert_ne!(d, 5);
            assert!(d < 16);
        }
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = Mesh::new_2d(4, 4);
        let mut rng = Rng64::new(2);
        let src = m.id(1, 3, 0);
        let d = Pattern::Transpose.dest(&m, src, &mut rng).unwrap();
        assert_eq!(d, m.id(3, 1, 0));
        // Diagonal nodes don't inject.
        assert_eq!(Pattern::Transpose.dest(&m, m.id(2, 2, 0), &mut rng), None);
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let m = Mesh::new_2d(4, 4);
        let mut rng = Rng64::new(3);
        let p = Pattern::Hotspot {
            node: 0,
            permille: 500,
        };
        let mut hot = 0;
        let n = 10_000;
        for _ in 0..n {
            if p.dest(&m, 9, &mut rng) == Some(0) {
                hot += 1;
            }
        }
        // 50% direct + a bit of uniform spillover (1/15 of the other 50%).
        let frac = hot as f64 / n as f64;
        assert!((frac - 0.533).abs() < 0.03, "frac={frac}");
    }

    #[test]
    fn neighbor_is_one_hop() {
        let m = Mesh::new_3d(4, 4, 2);
        let mut rng = Rng64::new(4);
        for src in 0..m.nodes() {
            for _ in 0..20 {
                let d = Pattern::Neighbor.dest(&m, src, &mut rng).unwrap();
                assert_eq!(m.hops(src, d), 1);
            }
        }
    }

    #[test]
    fn neighbor_draws_match_the_collected_choose() {
        // The allocation-free pick must draw exactly as `choose` over a
        // collected neighbor list did.
        fn collected(mesh: &Mesh, src: usize, rng: &mut Rng64) -> Option<usize> {
            let neighbors: Vec<usize> = Dir::ALL
                .iter()
                .filter(|d| **d != Dir::Local)
                .filter_map(|d| mesh.neighbor(src, *d))
                .collect();
            if neighbors.is_empty() {
                None
            } else {
                Some(*rng.choose(&neighbors))
            }
        }
        for mesh in [
            Mesh::new_2d(1, 1),
            Mesh::new_2d(5, 3),
            Mesh::new_3d(4, 4, 4),
            Mesh::new_3d(2, 3, 4),
        ] {
            let (mut a, mut b) = (Rng64::new(77), Rng64::new(77));
            for src in 0..mesh.nodes() {
                for _ in 0..50 {
                    assert_eq!(
                        Pattern::Neighbor.dest(&mesh, src, &mut a),
                        collected(&mesh, src, &mut b)
                    );
                }
            }
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
