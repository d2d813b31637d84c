//! Fixture: a scheduled timestamp rewritten in place. The timestamp is
//! private to the module that stamps it, as `Delivery::at` is in
//! `nocstar-noc`, so any write from outside fails to compile.

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

pub fn rewind(d: &mut message::Delivery) {
    d.at = 0; //~ E0616
}

pub fn nudge(d: &mut message::Delivery, by: u64) {
    d.at += by; //~ E0616
}
