//! The plain fleet report is a pure function of its seed.
//!
//! `sop fleet` sweeps every organization × policy through the one fleet
//! engine under plain presets. The stabilized report must be
//! byte-identical at any worker count and cache state, and each quick
//! plain row is pinned by its `spec_hash`.

mod common;

use common::{assert_schedule_independent, fleet_report, Scratch, SERVERS};
use scale_out_processors::exec::spec_hash;
use scale_out_processors::fleet::grid;

#[test]
fn fleet_report_is_byte_identical_across_worker_counts() {
    assert_schedule_independent("plain");
}

#[test]
fn fleet_report_depends_on_the_seed_and_nothing_else() {
    let a = Scratch::new("plain", "seed-a");
    let b = Scratch::new("plain", "seed-b");
    let c = Scratch::new("plain", "seed-c");
    let (seed42, _) = fleet_report("plain", 2, &a.0, 42);
    let (seed42_again, _) = fleet_report("plain", 2, &b.0, 42);
    let (seed43, _) = fleet_report("plain", 2, &c.0, 43);
    assert_eq!(seed42, seed42_again, "same seed, same bytes");
    assert_ne!(
        seed42, seed43,
        "a different seed draws different traffic and faults"
    );
}

/// `spec_hash` of every quick plain row at 8 servers, in grid order.
/// Any drift is a change to the plain fleet model or its row schema.
const PLAIN_ROW_HASHES: [(u64, [u64; 8]); 2] = [
    (
        42,
        [
            0x512d_2497_3a81_db17,
            0x73f5_476b_0e1c_af85,
            0xa41e_5310_7ecc_8676,
            0x36a7_cbff_7c1c_0ad4,
            0x414c_178a_78cf_21d3,
            0x44cc_ed77_c79a_2cfe,
            0x4b73_6f72_a945_0d60,
            0xa0bf_2e9b_0dcd_04e2,
        ],
    ),
    (
        43,
        [
            0xa0ee_97f3_457f_861a,
            0x13ba_13d8_329a_9769,
            0xa721_f201_fcb3_bb5f,
            0xc20d_5b82_839a_9ba2,
            0x4429_b4a4_239b_9e5d,
            0x5258_b77c_ba51_bb65,
            0x11b0_4185_82bf_2bc8,
            0xc3af_727e_7768_c3ba,
        ],
    ),
];

#[test]
fn plain_rows_match_their_pinned_hashes() {
    for (seed, want) in PLAIN_ROW_HASHES {
        let specs = grid(SERVERS, seed, true, None, None);
        assert_eq!(specs.len(), want.len());
        for (spec, want) in specs.iter().zip(want) {
            assert_eq!(
                spec_hash(&spec.evaluate()),
                want,
                "{} drifted from its pinned row",
                spec.name()
            );
        }
    }
}
