//! Fixture: timestamps are read through the getter and constructed anew,
//! never mutated in place.

mod message {
    pub struct Delivery {
        pub payload: u64,
        at: u64,
    }

    impl Delivery {
        pub fn new(payload: u64, at: u64) -> Delivery {
            Delivery { payload, at }
        }

        pub fn at(&self) -> u64 {
            self.at
        }
    }
}

use message::Delivery;

pub fn is_due(d: &Delivery, now: u64) -> bool {
    d.at() <= now
}

pub fn reschedule(d: &Delivery, now: u64) -> Delivery {
    Delivery::new(d.payload, now + 1)
}
