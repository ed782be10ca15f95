//! Property-based tests of the Riemann solver and reconstruction.

use proptest::prelude::*;
use rflash_hydro::ppm::reconstruct_into;
use rflash_hydro::riemann::hllc;
use rflash_hydro::state::Prim;
use rflash_hydro::NFLUX;

fn arb_prim() -> impl Strategy<Value = Prim> {
    (
        1e-3f64..1e3, // dens
        -1e2f64..1e2, // u
        -1e2f64..1e2, // v
        -1e2f64..1e2, // w
        1e-3f64..1e6, // pres
        1.1f64..1.9,  // gamc (= game here)
    )
        .prop_map(|(dens, u, v, w, pres, gamma)| {
            let eint = pres / ((gamma - 1.0) * dens);
            Prim {
                dens,
                vel: [u, v, w],
                pres,
                ener: eint + 0.5 * (u * u + v * v + w * w),
                gamc: gamma,
            }
        })
}

proptest! {
    /// Consistency: F(U, U) equals the physical flux of U.
    #[test]
    fn hllc_consistency(p in arb_prim()) {
        let f = hllc(&p, &p);
        let exact = p.flux();
        for n in 0..NFLUX {
            let scale = exact[n].abs().max(1e-30);
            prop_assert!((f[n] - exact[n]).abs() / scale < 1e-10,
                "channel {n}: {} vs {}", f[n], exact[n]);
        }
    }

    /// Mirror symmetry: flipping left/right and the normal velocity negates
    /// odd fluxes (mass, energy) and preserves the momentum flux.
    #[test]
    fn hllc_mirror_symmetry(l in arb_prim(), r in arb_prim()) {
        let f = hllc(&l, &r);
        let mut lm = l;
        let mut rm = r;
        lm.vel[0] = -l.vel[0];
        rm.vel[0] = -r.vel[0];
        let fm = hllc(&rm, &lm);
        let tol = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-10);
        prop_assert!(tol(f[0], -fm[0]), "mass: {} vs {}", f[0], -fm[0]);
        prop_assert!(tol(f[1], fm[1]), "momentum: {} vs {}", f[1], fm[1]);
        prop_assert!(tol(f[4], -fm[4]), "energy: {} vs {}", f[4], -fm[4]);
    }

    /// HLLC never produces NaN/inf for physical inputs.
    #[test]
    fn hllc_is_finite(l in arb_prim(), r in arb_prim()) {
        let f = hllc(&l, &r);
        prop_assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
    }

    /// Reconstruction is monotone: face values stay within the local
    /// neighborhood's range (no new extrema).
    #[test]
    fn ppm_no_new_extrema(cells in proptest::collection::vec(0.1f64..10.0, 12..32)) {
        let n = cells.len();
        let flat = vec![1.0; n];
        let (mut minus, mut plus) = (vec![0.0; n], vec![0.0; n]);
        reconstruct_into(&cells, 2, n - 2, &flat, &mut minus, &mut plus);
        for i in 2..n - 2 {
            let lo = cells[i - 1].min(cells[i]).min(cells[i + 1]) - 1e-12;
            let hi = cells[i - 1].max(cells[i]).max(cells[i + 1]) + 1e-12;
            prop_assert!(minus[i] >= lo && minus[i] <= hi,
                "zone {i}: minus={} outside [{lo},{hi}]", minus[i]);
            prop_assert!(plus[i] >= lo && plus[i] <= hi,
                "zone {i}: plus={} outside [{lo},{hi}]", plus[i]);
        }
    }

    /// Reconstruction of constant data is exactly constant.
    #[test]
    fn ppm_preserves_constants(v in 0.1f64..1e6, n in 10usize..24) {
        let cells = vec![v; n];
        let flat = vec![1.0; n];
        let (mut minus, mut plus) = (vec![0.0; n], vec![0.0; n]);
        reconstruct_into(&cells, 2, n - 2, &flat, &mut minus, &mut plus);
        for i in 2..n - 2 {
            prop_assert_eq!(minus[i], v);
            prop_assert_eq!(plus[i], v);
        }
    }
}
