//! The delivery contract of `Interconnect::advance_into`, on every fabric.
//!
//! `advance_into(cycle, out)` appends the cycle's deliveries to `out` and
//! never touches what `out` already holds: the simulator drains one
//! reused buffer, and the hierarchical fabric appends its members' legs
//! to the caller's buffer and rewrites only the part past its own start.
//! Each case drives two copies of a fabric with the same random submits:
//! one through `advance`, one through `advance_into` a buffer that starts
//! with deliveries of its own. Every cycle the second buffer must keep
//! its prefix and end with exactly what `advance` returned.

use nocstar_noc::circuit::{AcquireMode, CircuitFabric};
use nocstar_noc::hier::{HierNoc, InterKind, IntraKind};
use nocstar_noc::message::{Delivery, Message, MsgKind};
use nocstar_noc::{BusNoc, Interconnect, MeshNoc, SmartNoc};
use nocstar_types::{CoreId, Cycle, MeshShape};
use proptest::prelude::*;

const TILES: usize = 16;
/// Cycles each case advances: past the last submit, long enough for the
/// contended fabrics to drain what can drain (a round-trip request holds
/// its reservation for good, since no response is sent).
const HORIZON: u64 = 400;

/// Every fabric the simulator or its harnesses build, over 16 tiles.
fn fabrics() -> Vec<(&'static str, Box<dyn Interconnect>)> {
    let shape = MeshShape::square_for(TILES);
    let hier = |intra, inter| Box::new(HierNoc::new(TILES, 4, intra, inter));
    vec![
        (
            "mesh/contention-free",
            Box::new(MeshNoc::contention_free(shape)),
        ),
        ("mesh/contended", Box::new(MeshNoc::contended(shape))),
        ("smart", Box::new(SmartNoc::new(shape, 2))),
        (
            "circuit/one-way",
            Box::new(CircuitFabric::new(shape, 4, AcquireMode::OneWay)),
        ),
        (
            "circuit/round-trip",
            Box::new(CircuitFabric::new(shape, 4, AcquireMode::RoundTrip)),
        ),
        ("circuit/ideal", Box::new(CircuitFabric::ideal(shape, 4))),
        ("bus", Box::new(BusNoc::new(shape))),
        ("hier/bus+mesh", hier(IntraKind::Bus, InterKind::Mesh)),
        ("hier/xbar+mesh", hier(IntraKind::Xbar, InterKind::Mesh)),
        ("hier/bus+smart", hier(IntraKind::Bus, InterKind::Smart(2))),
        (
            "hier/xbar+smart",
            hier(IntraKind::Xbar, InterKind::Smart(2)),
        ),
    ]
}

/// Deliveries for the buffer to hold before the first cycle: three local
/// messages landed by a bus of their own, with ids no case submits.
fn prefix() -> Vec<Delivery> {
    let mut bus = BusNoc::new(MeshShape::square_for(TILES));
    for id in 0..3 {
        let tile = CoreId::new(id as usize);
        bus.submit(
            Cycle::ZERO,
            Message::new(u64::MAX - id, tile, tile, MsgKind::Insert),
        );
    }
    let landed = bus.advance(Cycle::ZERO);
    assert_eq!(landed.len(), 3);
    landed
}

/// One submit: `(src, dst, cycle, is a lookup request)`. Lookups are the
/// messages that reserve a round trip; the rest are one-way inserts.
type Send = (usize, usize, u64, bool);

fn sends() -> impl Strategy<Value = Vec<Send>> {
    prop::collection::vec((0..TILES, 0..TILES, 0u64..60, any::<bool>()), 1..80)
}

fn check(
    label: &str,
    mut plain: Box<dyn Interconnect>,
    mut appending: Box<dyn Interconnect>,
    sends: &[Send],
) -> Result<(), TestCaseError> {
    let mut sends = sends.to_vec();
    sends.sort_by_key(|s| s.2);
    let mut out = prefix();
    let mut expected = out.clone();
    let mut next = 0;
    for c in 0..HORIZON {
        let cycle = Cycle::new(c);
        while let Some(&(src, dst, _, lookup)) = sends.get(next).filter(|s| s.2 == c) {
            let kind = if lookup {
                MsgKind::TlbRequest
            } else {
                MsgKind::Insert
            };
            let msg = Message::new(next as u64, CoreId::new(src), CoreId::new(dst), kind);
            plain.submit(cycle, msg);
            appending.submit(cycle, msg);
            next += 1;
        }
        let held = out.len();
        appending.advance_into(cycle, &mut out);
        let landed = plain.advance(cycle);
        prop_assert_eq!(
            &out[..held],
            &expected[..],
            "{}: prefix changed at cycle {}",
            label,
            c
        );
        prop_assert_eq!(
            &out[held..],
            &landed[..],
            "{}: tail differs at cycle {}",
            label,
            c
        );
        expected.extend(landed);
        prop_assert_eq!(
            plain.next_activity(),
            appending.next_activity(),
            "{}",
            label
        );
    }
    prop_assert_eq!(
        format!("{:?}", plain.stats()),
        format!("{:?}", appending.stats()),
        "{}",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn advance_into_appends_what_advance_returns(sends in sends()) {
        for ((label, plain), (_, appending)) in fabrics().into_iter().zip(fabrics()) {
            check(label, plain, appending, &sends)?;
        }
    }
}
