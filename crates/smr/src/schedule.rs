//! The agreed leader schedule (ARCHITECTURE, "Leader suspicion across
//! slots"): who leads view 1 of each slot, a pure function of the log.
//!
//! A seat *missed* when a slot it was scheduled to lead decided a batch not
//! naming it as proposer. `Skip(s)` is the missed seats as of the batches
//! decided up to slot `s − SLOT_WINDOW`, which every replica able to open
//! `s` has applied (nobody while more than `f` are), and slot `s`'s view-1
//! leader is the rotation's next seat not in it — a first-leader offset on
//! the slot's [`Config`]. The first `n` slots of every [`PROBE_PERIOD`]
//! skip nobody, so a skipped seat can come back. The state travels in the
//! snapshot payload: two correct replicas computing different leaders for
//! one view would both sign proposals for it.

use fastbft_types::{Config, ProcessId, View};

use crate::multiplex::SLOT_WINDOW;

/// A skipped seat leads view 1 of one slot in every this many (sized in
/// ARCHITECTURE, "Leader suspicion across slots").
const PROBE_PERIOD: u64 = 8 * SLOT_WINDOW;

/// The schedule's state; see the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Schedule {
    /// The missed seats as of the slots applied so far, in id order.
    missed: Vec<ProcessId>,
    /// The window's first-leader offsets, slot `s`'s at `s mod SLOT_WINDOW`.
    ahead: Vec<u64>,
}

fastbft_types::impl_wire_struct!(Schedule { missed, ahead });

impl Schedule {
    /// `cfg` for `slot`'s instance, its leader map starting at the
    /// scheduled seat; `slot` must be in the window.
    pub(crate) fn config(&self, cfg: &Config, slot: u64) -> Config {
        let offset = self.ahead.get((slot % SLOT_WINDOW) as usize).copied();
        cfg.with_instance(slot)
            .with_first_leader_offset(offset.unwrap_or(0))
    }

    /// Takes `slot`, the next one to apply, which decided a batch proposed
    /// by `proposer` (`None`: no batch), and fixes slot `slot + SLOT_WINDOW`.
    pub(crate) fn applied(&mut self, cfg: &Config, slot: u64, proposer: Option<ProcessId>) {
        let scheduled = self.config(cfg, slot).leader(View::FIRST);
        let credited = proposer == Some(scheduled);
        match (credited, self.missed.binary_search(&scheduled)) {
            (true, Ok(i)) => drop(self.missed.remove(i)),
            (false, Err(i)) => self.missed.insert(i, scheduled),
            _ => {}
        }
        let next = cfg.with_instance(slot + SLOT_WINDOW);
        let skips =
            (slot + SLOT_WINDOW) % PROBE_PERIOD >= cfg.n() as u64 && self.missed.len() <= cfg.f();
        let offset = (0..=cfg.f() as u64).filter(|_| skips).find(|o| {
            let leader = next.with_first_leader_offset(*o).leader(View::FIRST);
            self.missed.binary_search(&leader).is_err()
        });
        self.ahead.resize(SLOT_WINDOW as usize, 0);
        self.ahead[(slot % SLOT_WINDOW) as usize] = offset.unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_than_f_missed_skips_nobody() {
        let (cfg, mut schedule) = (Config::new(7, 2, 1).unwrap(), Schedule::default());
        // p5, p6 and p7 miss every slot they lead.
        for slot in 0..2 * SLOT_WINDOW {
            let leader = schedule.config(&cfg, slot).leader(View::FIRST);
            schedule.applied(&cfg, slot, (leader.0 < 5).then_some(leader));
        }
        assert_eq!(schedule.missed.len(), 3);
        assert!(schedule.ahead.iter().all(|o| *o == 0));
    }
}
