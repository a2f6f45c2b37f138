//! The resilience report is a pure function of its seed.
//!
//! The resilience layer piles retry clients, hedges, health probes, and
//! the overload shedder on top of the fleet simulation — far more
//! feedback loops than the plain fleet run, and exactly the kind of
//! machinery that invites hidden nondeterminism. The bar is unchanged:
//! byte-identical stabilized reports at any worker count and cache
//! state, and the client-side bookkeeping must tile exactly (every
//! issued request is the offered one, a retry, or a hedge copy).

mod common;

use common::{assert_schedule_independent, fleet_report, Scratch};
use scale_out_processors::fleet::row_total as total_of;
use scale_out_processors::obs::Json;

#[test]
fn resilience_report_is_byte_identical_across_worker_counts() {
    assert_schedule_independent("resilience");
}

#[test]
fn resilience_report_depends_on_the_seed_and_nothing_else() {
    let a = Scratch::new("resilience", "seed-a");
    let b = Scratch::new("resilience", "seed-b");
    let c = Scratch::new("resilience", "seed-c");
    let (seed42, _) = fleet_report("resilience", 2, &a.0, 42);
    let (seed42_again, _) = fleet_report("resilience", 2, &b.0, 42);
    let (seed43, _) = fleet_report("resilience", 2, &c.0, 43);
    assert_eq!(seed42, seed42_again, "same seed, same bytes");
    assert_ne!(
        seed42, seed43,
        "a different seed draws different traffic and faults"
    );
}

#[test]
fn report_rows_conserve_the_client_side_request_ledger() {
    let scratch = Scratch::new("resilience", "ledger");
    let (_, doc) = fleet_report("resilience", 2, &scratch.0, 42);
    let rows = doc
        .get("sections")
        .and_then(|s| s.get("resilience"))
        .and_then(Json::as_arr)
        .expect("resilience rows");
    for row in rows {
        // Every issued request is accounted for: the offered arrival,
        // a timeout/rejection retry, or a hedge copy — nothing minted,
        // nothing lost. This is the retry-amplification ledger the
        // report's `retry_amplification` figure divides.
        assert_eq!(
            total_of(row, "issued"),
            total_of(row, "offered") + total_of(row, "retries") + total_of(row, "hedges"),
            "issued must tile as offered + retries + hedges: {row:?}"
        );
        // And every issued request meets exactly one fate at the
        // balancer: admitted somewhere, shed, bounced off a full
        // queue, black-holed into an undetected corpse, unreachable
        // with no servers in rotation, or dropped as a losing hedge.
        assert_eq!(
            total_of(row, "issued"),
            total_of(row, "admitted")
                + total_of(row, "shed")
                + total_of(row, "overflow")
                + total_of(row, "blackholed")
                + total_of(row, "unreachable")
                + total_of(row, "hedge_dropped"),
            "issued must tile across balancer outcomes: {row:?}"
        );
    }
}
