//! Mesh geometries.
//!
//! FLASH's 2-d supernova simulations run in cylindrical (r, z) coordinates;
//! the Sedov test runs Cartesian. Volumes and face areas feed the
//! finite-volume update and the conserved-quantity accounting.

use serde::{Deserialize, Serialize};

/// Supported coordinate systems.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Geometry {
    /// Cartesian (x, y[, z]).
    #[default]
    Cartesian,
    /// Axisymmetric cylindrical (r, z) — 2-d only. Coordinate 0 is radius.
    CylindricalRZ,
}

impl Geometry {
    /// Cell volume for a cell spanning `[lo, hi]` per axis (unused axes in
    /// 2-d get an implicit unit extent; cylindrical includes the 2π).
    pub fn cell_volume(self, lo: [f64; 3], hi: [f64; 3], ndim: usize) -> f64 {
        match self {
            Geometry::Cartesian => {
                let mut v = 1.0;
                for d in 0..ndim {
                    v *= hi[d] - lo[d];
                }
                v
            }
            Geometry::CylindricalRZ => {
                assert_eq!(ndim, 2, "cylindrical r-z is 2-d");
                std::f64::consts::PI * (hi[0] * hi[0] - lo[0] * lo[0]) * (hi[1] - lo[1])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_volumes() {
        let g = Geometry::Cartesian;
        let v2 = g.cell_volume([0.0, 0.0, 0.0], [2.0, 3.0, 100.0], 2);
        assert_eq!(v2, 6.0);
        let v3 = g.cell_volume([0.0; 3], [2.0, 3.0, 4.0], 3);
        assert_eq!(v3, 24.0);
    }

    #[test]
    fn cylindrical_shell_volume() {
        let g = Geometry::CylindricalRZ;
        // Full cylinder of radius 2, height 3: π·4·3.
        let v = g.cell_volume([0.0, 0.0, 0.0], [2.0, 3.0, 0.0], 2);
        assert!((v - std::f64::consts::PI * 12.0).abs() < 1e-12);
    }

    #[test]
    fn cylindrical_volume_sums_to_disk() {
        // Sum of shell volumes over a radial partition = full cylinder.
        let g = Geometry::CylindricalRZ;
        let mut total = 0.0;
        for i in 0..10 {
            let r0 = i as f64 * 0.1;
            total += g.cell_volume([r0, 0.0, 0.0], [r0 + 0.1, 1.0, 0.0], 2);
        }
        assert!((total - std::f64::consts::PI).abs() < 1e-12);
    }
}
