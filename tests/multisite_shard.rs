//! Cross-crate determinism contract of the one scheduled sweep core,
//! [`multi_site_inventory_sharded`]: real worker threads with site-level
//! work stealing must produce reports bit-identical across worker counts,
//! and must reproduce the plain serial sweep's per-site reports and dedup
//! roll-up, for any geometry, worker count, and protocol.

mod common;

use anc_rfid::prelude::*;
use anc_rfid::sim::{
    multi_site_inventory, multi_site_inventory_scheduled, multi_site_inventory_sharded, Deployment,
};
use common::{assert_matches_serial_reference, WORKERS};
use proptest::prelude::*;

#[test]
fn sharded_fcat_sweep_is_bit_identical_to_scheduled_path() {
    let mut rng = seeded_rng(11);
    let deployment = Deployment::uniform(&mut rng, 240, 80.0, 60.0);
    let positions = deployment.try_grid_positions(20.0).expect("valid grid");
    let config = SimConfig::default().with_seed(77);
    let fcat = Fcat::new(FcatConfig::default().with_lambda(2));
    let serial = multi_site_inventory(&fcat, &deployment, &positions, 20.0, &config)
        .expect("serial sweep succeeds");
    let scheduled =
        multi_site_inventory_scheduled(&fcat, &deployment, &positions, 20.0, 30.0, &config)
            .expect("scheduled sweep succeeds");
    assert_matches_serial_reference(&scheduled, &serial);
    for workers in [1, 2, 3, 7, 16] {
        let sharded = multi_site_inventory_sharded(
            &fcat,
            &deployment,
            &positions,
            20.0,
            30.0,
            &config,
            workers,
        )
        .expect("sharded sweep succeeds");
        // Full-report equality: per-site reports, dedup roll-up, the
        // floating-point wall-clock totals, and the schedule itself.
        assert_eq!(sharded, scheduled, "workers={workers}");
    }
}

#[test]
fn sharded_per_site_reports_match_the_plain_serial_sweep() {
    let mut rng = seeded_rng(4);
    let deployment = Deployment::uniform(&mut rng, 150, 60.0, 60.0);
    let positions = deployment.try_grid_positions(30.0).expect("valid grid");
    let config = SimConfig::default().with_seed(9);
    let fcat = Fcat::new(FcatConfig::default().with_lambda(3));
    let serial = multi_site_inventory(&fcat, &deployment, &positions, 30.0, &config)
        .expect("serial sweep succeeds");
    // Which executor ran a site cannot change its inventory: seeds derive
    // from (config.seed, site index) alone.
    for workers in WORKERS {
        let sharded = multi_site_inventory_sharded(
            &fcat,
            &deployment,
            &positions,
            30.0,
            0.0,
            &config,
            workers,
        )
        .expect("sharded sweep succeeds");
        assert_matches_serial_reference(&sharded, &serial);
    }
}

#[test]
fn grid_validation_rejects_external_input_hazards() {
    let deployment = Deployment::uniform(&mut seeded_rng(1), 10, 60.0, 60.0);
    for spacing in [0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = deployment
            .try_grid_positions(spacing)
            .expect_err("non-positive spacing must be rejected");
        assert!(err.to_string().contains("spacing"), "{err}");
    }
    // Tiny positive spacing would allocate an absurd grid: rejected by the
    // position cap, not by the OOM killer.
    let err = deployment
        .try_grid_positions(1e-300)
        .expect_err("oversized grid must be rejected");
    assert!(err.to_string().contains("grid positions"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Bit-identical parity holds for arbitrary populations, geometries,
    /// interference radii, and worker counts — stealing may reorder
    /// execution but never the results.
    #[test]
    fn sharded_parity_for_arbitrary_geometry_and_workers(
        tags in 0usize..100,
        spacing_steps in 1u32..4,
        workers in 1usize..9,
        interference_steps in 0u32..3,
        seed in any::<u64>(),
    ) {
        let spacing = 15.0 * f64::from(spacing_steps);
        let interference = 12.0 * f64::from(interference_steps);
        let deployment = Deployment::uniform(&mut seeded_rng(seed), tags, 60.0, 45.0);
        let positions = deployment.try_grid_positions(spacing).expect("valid grid");
        let config = SimConfig::default().with_seed(seed ^ 0x5EED);
        let fcat = Fcat::new(FcatConfig::default().with_lambda(2));
        let serial = multi_site_inventory(&fcat, &deployment, &positions, spacing, &config)
            .expect("serial sweep succeeds");
        let scheduled = multi_site_inventory_scheduled(
            &fcat, &deployment, &positions, spacing, interference, &config,
        ).expect("scheduled sweep succeeds");
        let sharded = multi_site_inventory_sharded(
            &fcat, &deployment, &positions, spacing, interference, &config, workers,
        ).expect("sharded sweep succeeds");
        assert_matches_serial_reference(&sharded, &serial);
        prop_assert_eq!(sharded, scheduled);
    }
}
