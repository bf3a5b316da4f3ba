//! Scan-announcement event counters (scan subsystem v2 instrumentation).
//!
//! The amortization claim of the v2 scan subsystem is structural: a width-w
//! scan performs **one** S-ALL announce, **one** withdraw, and `w − 1`
//! cursor *slides*, where a per-step v1 scan performs `w` announce/withdraw
//! round-trips. These per-thread counters make that claim testable: every
//! S-ALL announcement, slide, and withdrawal bumps a tally. Like
//! [`lftrie_primitives::steps`], counting is compiled in only under the
//! `step-count` feature; without it every recorder is a no-op the optimizer
//! deletes. Under `step-count`, every bump is also mirrored into the
//! process-global [`lftrie_telemetry`] counters (`ScanAnnounces`,
//! `ScanSlides`, `ScanWithdraws`) so the unified snapshot reports scan
//! events alongside everything else.
//!
//! The same machinery also tallies **U-ALL update announcements**
//! (`update_announces` / `update_withdraws`, mirrored into
//! `UpdateAnnounces` / `UpdateWithdraws`) together with a
//! `max_live_updates` high-water gauge: how many of this thread's update
//! announcements were ever live at once. That gauge pins the batch
//! pipelining contract — `insert_all`/`delete_all` withdraw each key's
//! announcement as soon as its own notify pass completes, so the
//! high-water stays O(1) however wide the batch.
//!
//! # Examples
//!
//! ```
//! use lftrie_core::scan_events;
//!
//! scan_events::reset();
//! let events = scan_events::snapshot();
//! assert_eq!(events.announces, 0);
//! ```

/// Per-thread tallies of S-ALL announcement and U-ALL update-announcement
/// events.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanEvents {
    /// S-ALL announcements (fresh successor query-node insertions).
    pub announces: u64,
    /// Cursor slides: an announced successor query node re-armed at a new query key.
    pub slides: u64,
    /// S-ALL withdrawals (announcement removals).
    pub withdraws: u64,
    /// U-ALL update announcements (insert/delete phase 1, helping).
    pub update_announces: u64,
    /// U-ALL update withdrawals (exhaustive de-announcements).
    pub update_withdraws: u64,
    /// Update announcements by this thread currently live (a gauge:
    /// subtraction passes it through unchanged).
    pub live_updates: u64,
    /// High-water mark of `live_updates` since the last [`reset`] (also a
    /// gauge; [`measure`] therefore reports the since-reset high-water,
    /// not a per-interval one).
    pub max_live_updates: u64,
}

impl core::ops::Sub for ScanEvents {
    type Output = ScanEvents;
    fn sub(self, rhs: ScanEvents) -> ScanEvents {
        ScanEvents {
            announces: self.announces - rhs.announces,
            slides: self.slides - rhs.slides,
            withdraws: self.withdraws - rhs.withdraws,
            update_announces: self.update_announces - rhs.update_announces,
            update_withdraws: self.update_withdraws - rhs.update_withdraws,
            live_updates: self.live_updates,
            max_live_updates: self.max_live_updates,
        }
    }
}

#[cfg(feature = "step-count")]
mod imp {
    use super::ScanEvents;
    use core::cell::Cell;

    thread_local! {
        static EVENTS: Cell<ScanEvents> = const {
            Cell::new(ScanEvents {
                announces: 0,
                slides: 0,
                withdraws: 0,
                update_announces: 0,
                update_withdraws: 0,
                live_updates: 0,
                max_live_updates: 0,
            })
        };
    }

    #[inline]
    pub fn bump(f: impl FnOnce(&mut ScanEvents)) {
        EVENTS.with(|c| {
            let mut v = c.get();
            f(&mut v);
            c.set(v);
        });
    }

    pub fn reset() {
        EVENTS.with(|c| c.set(ScanEvents::default()));
    }

    pub fn snapshot() -> ScanEvents {
        EVENTS.with(|c| c.get())
    }
}

/// Records an S-ALL announcement.
#[inline]
pub(crate) fn on_announce() {
    #[cfg(feature = "step-count")]
    {
        imp::bump(|c| c.announces += 1);
        lftrie_telemetry::add(lftrie_telemetry::Counter::ScanAnnounces, 1);
    }
}

/// Records a cursor slide.
#[inline]
pub(crate) fn on_slide() {
    #[cfg(feature = "step-count")]
    {
        imp::bump(|c| c.slides += 1);
        lftrie_telemetry::add(lftrie_telemetry::Counter::ScanSlides, 1);
    }
}

/// Records an S-ALL withdrawal.
#[inline]
pub(crate) fn on_withdraw() {
    #[cfg(feature = "step-count")]
    {
        imp::bump(|c| c.withdraws += 1);
        lftrie_telemetry::add(lftrie_telemetry::Counter::ScanWithdraws, 1);
    }
}

/// Records a U-ALL update announcement, maintaining the live count and its
/// high-water mark.
#[inline]
pub(crate) fn on_update_announce() {
    #[cfg(feature = "step-count")]
    {
        imp::bump(|c| {
            c.update_announces += 1;
            c.live_updates += 1;
            c.max_live_updates = c.max_live_updates.max(c.live_updates);
        });
        lftrie_telemetry::add(lftrie_telemetry::Counter::UpdateAnnounces, 1);
    }
}

/// Records a U-ALL update withdrawal. Saturating: de-announcement is
/// exhaustive, so a node helped to completion can be withdrawn more often
/// than this thread announced it.
#[inline]
pub(crate) fn on_update_withdraw() {
    #[cfg(feature = "step-count")]
    {
        imp::bump(|c| {
            c.update_withdraws += 1;
            c.live_updates = c.live_updates.saturating_sub(1);
        });
        lftrie_telemetry::add(lftrie_telemetry::Counter::UpdateWithdraws, 1);
    }
}

/// Zeroes this thread's counters.
pub fn reset() {
    #[cfg(feature = "step-count")]
    imp::reset();
}

/// Reads this thread's counters ([`ScanEvents::default`] when the
/// `step-count` feature is off).
pub fn snapshot() -> ScanEvents {
    #[cfg(feature = "step-count")]
    {
        imp::snapshot()
    }
    #[cfg(not(feature = "step-count"))]
    {
        ScanEvents::default()
    }
}

/// Runs `f` and returns its result together with the S-ALL events it
/// performed on this thread.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, ScanEvents) {
    let before = snapshot();
    let out = f();
    let after = snapshot();
    (out, after - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_is_per_interval() {
        reset();
        on_announce();
        let (val, events) = measure(|| {
            on_slide();
            on_slide();
            on_withdraw();
            7
        });
        assert_eq!(val, 7);
        #[cfg(feature = "step-count")]
        {
            assert_eq!(events.announces, 0);
            assert_eq!(events.slides, 2);
            assert_eq!(events.withdraws, 1);
            assert_eq!(snapshot().announces, 1);
        }
        #[cfg(not(feature = "step-count"))]
        assert_eq!(events, ScanEvents::default());
    }

    #[test]
    fn update_announcement_high_water_tracks_live_count() {
        reset();
        on_update_announce();
        on_update_announce();
        on_update_withdraw();
        on_update_announce();
        on_update_withdraw();
        on_update_withdraw();
        on_update_withdraw(); // exhaustive de-announce: live count saturates
        #[cfg(feature = "step-count")]
        {
            let s = snapshot();
            assert_eq!(s.update_announces, 3);
            assert_eq!(s.update_withdraws, 4);
            assert_eq!(s.live_updates, 0);
            assert_eq!(s.max_live_updates, 2);
        }
        #[cfg(not(feature = "step-count"))]
        assert_eq!(snapshot(), ScanEvents::default());
    }
}
