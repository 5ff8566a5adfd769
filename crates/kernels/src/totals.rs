//! Mass and momentum totals over a lattice's fluid nodes, in one fixed
//! summation order shared by every producer.
//!
//! Each z-plane gets one partial: its fluid nodes' `(ρ, m)` added in node
//! order, starting from `+0`. The partials are then folded in plane order.
//! Every chunk plan the kernels run is plane-aligned, so a plane's partial
//! never depends on the lane count, the backend or which lane claimed it,
//! and a collide's totals equal an explicit sweep of the same state bit
//! for bit.

/// `[Σ ρ, Σ m_x, Σ m_y, Σ m_z]` over a set of fluid nodes.
pub type Totals = [f64; 4];

/// Add one node's density and momentum to a plane's partial.
#[inline]
pub fn accumulate(acc: &mut Totals, rho: f64, m: [f64; 3]) {
    acc[0] += rho;
    acc[1] += m[0];
    acc[2] += m[1];
    acc[3] += m[2];
}

/// Fold per-plane partials in plane order: `((0 + p₀) + p₁) + …`.
pub fn fold_planes(planes: &[Totals]) -> Totals {
    let mut total = [0.0; 4];
    for p in planes {
        accumulate(&mut total, p[0], [p[1], p[2], p[3]]);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_left_to_right_in_plane_order() {
        // (1e16 + 1) + 1 rounds to 1e16; 1e16 + (1 + 1) would not. The
        // order is part of the contract.
        let planes = [[1e16, 0.0, 0.0, 0.0], [1.0; 4], [1.0; 4]];
        assert_eq!(fold_planes(&planes), [1e16, 2.0, 2.0, 2.0]);
        assert_eq!(fold_planes(&[]), [0.0; 4]);
    }
}
