//! Double-buffered (ping-pong) SRAM banks between pipeline stages.
//!
//! Each stage boundary of the tiled pipeline owns a small set of SRAM banks
//! (two in the paper's design): the producer fills one bank while the
//! consumer drains the other. A bank is *reserved* when the producer starts a
//! tile, becomes *ready* when the producer finishes it, and is *released*
//! when the consumer finishes draining it. The producer therefore stalls
//! whenever both banks are occupied — exactly the back-pressure mechanism
//! whose occupancy this module tracks.
//!
//! Producers reserve and consumers release tiles in stream order, so the
//! resident banks always hold consecutive tiles: the oldest (next to drain)
//! first and the one being filled last. Every operation therefore touches
//! only one end of the window, and asserts that its tile is there.

/// Lifecycle of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Producer is writing the tile into the bank.
    Filling,
    /// Tile is complete and waiting for (or being drained by) the consumer.
    Ready,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    tile: usize,
    state: SlotState,
    /// When the slot became `Ready` (for stall attribution).
    ready_at: u64,
}

/// Most banks a [`PingPongBuffer`] can have. The banks are an inline ring
/// of this many slots, a power of two, so the window neither allocates nor
/// shifts when its oldest bank is released.
pub const MAX_BANKS: usize = 4;

/// A ping-pong buffer of `capacity` banks with occupancy accounting.
#[derive(Debug)]
pub struct PingPongBuffer {
    capacity: usize,
    /// Resident banks in stream order, oldest first: `len` slots of the
    /// ring starting at `head`.
    slots: [Slot; MAX_BANKS],
    head: usize,
    len: usize,
    /// Last time the occupancy changed, for the occupancy integral.
    last_change: u64,
    /// Σ occupancy · dt, for average-occupancy reporting.
    occupancy_integral: u64,
    /// When a bank was last freed (for back-pressure stall attribution).
    last_release: u64,
}

impl PingPongBuffer {
    /// Creates a buffer of `capacity` banks (the paper's design uses 2).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`MAX_BANKS`].
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        assert!(capacity <= MAX_BANKS, "at most {MAX_BANKS} banks");
        let empty = Slot {
            tile: 0,
            state: SlotState::Filling,
            ready_at: u64::MAX,
        };
        PingPongBuffer {
            capacity,
            slots: [empty; MAX_BANKS],
            head: 0,
            len: 0,
            last_change: 0,
            occupancy_integral: 0,
            last_release: 0,
        }
    }

    fn advance(&mut self, now: u64) {
        self.occupancy_integral += self.len as u64 * (now - self.last_change);
        self.last_change = now;
    }

    /// The `i`-th resident bank, oldest first.
    fn resident(&self, i: usize) -> Option<&Slot> {
        (i < self.len).then(|| &self.slots[(self.head + i) % MAX_BANKS])
    }

    /// Whether the producer can start filling a new bank.
    pub fn has_free_slot(&self) -> bool {
        self.len < self.capacity
    }

    /// Time the most recent bank was freed — the moment a producer blocked on
    /// back-pressure became unblocked.
    pub fn last_release_time(&self) -> u64 {
        self.last_release
    }

    /// Producer starts filling a bank with `tile`.
    ///
    /// # Panics
    ///
    /// Panics if no bank is free.
    pub fn reserve(&mut self, tile: usize, now: u64) {
        assert!(self.has_free_slot(), "reserve on a full ping-pong buffer");
        self.advance(now);
        self.slots[(self.head + self.len) % MAX_BANKS] = Slot {
            tile,
            state: SlotState::Filling,
            ready_at: u64::MAX,
        };
        self.len += 1;
    }

    /// Producer finished `tile`; the bank becomes consumable.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is not the bank being filled (the newest resident).
    pub fn mark_ready(&mut self, tile: usize, now: u64) {
        let newest = (self.head + self.len.wrapping_sub(1)) % MAX_BANKS;
        let slot = Some(&mut self.slots[newest])
            .filter(|s| self.len > 0 && s.tile == tile && s.state == SlotState::Filling)
            .expect("mark_ready on unreserved tile");
        slot.state = SlotState::Ready;
        slot.ready_at = now;
    }

    /// When `tile` became ready for the consumer (`None` unless it is the
    /// oldest resident and ready).
    pub fn ready_time(&self, tile: usize) -> Option<u64> {
        self.resident(0)
            .filter(|s| s.tile == tile && s.state == SlotState::Ready)
            .map(|s| s.ready_at)
    }

    /// Whether `tile` is resident and ready, wherever it sits in the window
    /// (unlike [`Self::ready_time`], not only as the oldest bank): a
    /// consumer still draining the tile ahead asks this of its next one.
    pub(crate) fn is_ready(&self, tile: usize) -> bool {
        self.resident(0)
            .and_then(|oldest| self.resident(tile.wrapping_sub(oldest.tile)))
            .is_some_and(|s| s.state == SlotState::Ready)
    }

    /// Consumer finished draining `tile`; the bank is freed.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is not the oldest resident or not ready.
    pub fn release(&mut self, tile: usize, now: u64) {
        assert!(
            self.resident(0)
                .is_some_and(|s| s.tile == tile && s.state == SlotState::Ready),
            "release of a tile that is not resident"
        );
        self.advance(now);
        self.head = (self.head + 1) % MAX_BANKS;
        self.len -= 1;
        self.last_release = now;
    }

    /// Current number of occupied banks (filling or ready).
    pub fn occupancy(&self) -> usize {
        self.len
    }

    /// Mean occupancy in banks over `[0, now]`.
    pub fn average_occupancy(&self, now: u64) -> f64 {
        if now == 0 {
            return self.len as f64;
        }
        let integral = self.occupancy_integral + self.len as u64 * (now - self.last_change);
        integral as f64 / now as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The buffer before the FIFO window: every operation searched the
    /// resident banks for its tile. Kept as the reference.
    struct SearchBuffer {
        capacity: usize,
        slots: Vec<Slot>,
        last_change: u64,
        occupancy_integral: u64,
        last_release: u64,
    }

    impl SearchBuffer {
        fn new(capacity: usize) -> Self {
            SearchBuffer {
                capacity,
                slots: Vec::new(),
                last_change: 0,
                occupancy_integral: 0,
                last_release: 0,
            }
        }

        fn advance(&mut self, now: u64) {
            self.occupancy_integral += self.slots.len() as u64 * (now - self.last_change);
            self.last_change = now;
        }

        fn has_free_slot(&self) -> bool {
            self.slots.len() < self.capacity
        }

        fn reserve(&mut self, tile: usize, now: u64) {
            assert!(self.has_free_slot());
            self.advance(now);
            self.slots.push(Slot {
                tile,
                state: SlotState::Filling,
                ready_at: u64::MAX,
            });
        }

        fn mark_ready(&mut self, tile: usize, now: u64) {
            let slot = self
                .slots
                .iter_mut()
                .find(|s| s.tile == tile && s.state == SlotState::Filling)
                .expect("reserved");
            slot.state = SlotState::Ready;
            slot.ready_at = now;
        }

        fn ready_time(&self, tile: usize) -> Option<u64> {
            self.slots
                .iter()
                .find(|s| s.tile == tile && s.state == SlotState::Ready)
                .map(|s| s.ready_at)
        }

        fn is_ready(&self, tile: usize) -> bool {
            self.slots
                .iter()
                .any(|s| s.tile == tile && s.state == SlotState::Ready)
        }

        fn release(&mut self, tile: usize, now: u64) {
            let idx = self
                .slots
                .iter()
                .position(|s| s.tile == tile && s.state == SlotState::Ready)
                .expect("resident");
            self.advance(now);
            self.slots.remove(idx);
            self.last_release = now;
        }

        fn average_occupancy(&self, now: u64) -> f64 {
            if now == 0 {
                return self.slots.len() as f64;
            }
            let integral =
                self.occupancy_integral + self.slots.len() as u64 * (now - self.last_change);
            integral as f64 / now as f64
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random producer/consumer lifecycles in stream order (the only
        /// order the pipeline uses): the window answers every query exactly
        /// as the search-based buffer does, at depths 1 to 4, including
        /// whether the banks behind the oldest are ready.
        #[test]
        fn fifo_window_matches_the_search(
            depth in 1usize..5,
            ops in proptest::collection::vec((0u8..4, 0u64..4), 1..300),
        ) {
            let mut window = PingPongBuffer::new(depth);
            let mut reference = SearchBuffer::new(depth);
            // Next tile to reserve, the tile being filled, next to release.
            let (mut now, mut next, mut filling, mut oldest) = (0u64, 0usize, None, 0usize);
            for (op, dt) in ops {
                now += [0, 1, 7, 300][dt as usize];
                match op {
                    0 if filling.is_none() && window.has_free_slot() => {
                        window.reserve(next, now);
                        reference.reserve(next, now);
                        filling = Some(next);
                        next += 1;
                    }
                    1 => {
                        if let Some(tile) = filling.take() {
                            window.mark_ready(tile, now);
                            reference.mark_ready(tile, now);
                        }
                    }
                    2 if window.ready_time(oldest).is_some() => {
                        window.release(oldest, now);
                        reference.release(oldest, now);
                        oldest += 1;
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(window.ready_time(oldest), reference.ready_time(oldest));
                for tile in oldest..oldest + 5 {
                    proptest::prop_assert_eq!(window.is_ready(tile), reference.is_ready(tile));
                }
                proptest::prop_assert_eq!(window.has_free_slot(), reference.has_free_slot());
                proptest::prop_assert_eq!(window.last_release_time(), reference.last_release);
                proptest::prop_assert_eq!(
                    window.average_occupancy(now).to_bits(),
                    reference.average_occupancy(now).to_bits()
                );
            }
        }
    }

    #[test]
    fn fill_drain_lifecycle() {
        let mut b = PingPongBuffer::new(2);
        assert!(b.has_free_slot());
        b.reserve(0, 0);
        assert_eq!(b.ready_time(0), None, "filling bank is not consumable");
        b.mark_ready(0, 10);
        assert_eq!(b.ready_time(0), Some(10));
        b.reserve(1, 10);
        assert!(!b.has_free_slot(), "both banks occupied");
        b.release(0, 25);
        assert!(b.has_free_slot());
        assert_eq!(b.last_release_time(), 25);
    }

    #[test]
    fn producer_blocks_when_both_banks_held() {
        let mut b = PingPongBuffer::new(2);
        b.reserve(0, 0);
        b.mark_ready(0, 5);
        b.reserve(1, 5);
        b.mark_ready(1, 9);
        // Tiles 0 and 1 both ready, none drained: a third reserve must wait.
        assert!(!b.has_free_slot());
        b.release(0, 12);
        b.reserve(2, 12);
        assert_eq!(b.occupancy(), 2);
    }

    #[test]
    fn average_occupancy_integrates_over_time() {
        let mut b = PingPongBuffer::new(2);
        b.reserve(0, 0); // occupancy 1 over [0, 10)
        b.mark_ready(0, 4);
        b.reserve(1, 10); // occupancy 2 over [10, 20)
        b.mark_ready(1, 15);
        b.release(0, 20); // occupancy 1 over [20, 40)
                          // Integral = 1·10 + 2·10 + 1·20 = 50 over 40 cycles.
        assert!((b.average_occupancy(40) - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "full ping-pong buffer")]
    fn overfull_reserve_panics() {
        let mut b = PingPongBuffer::new(1);
        b.reserve(0, 0);
        b.reserve(1, 0);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn releasing_a_tile_behind_the_oldest_panics() {
        let mut b = PingPongBuffer::new(2);
        b.reserve(0, 0);
        b.mark_ready(0, 1);
        b.reserve(1, 1);
        b.mark_ready(1, 2);
        b.release(1, 3);
    }

    #[test]
    #[should_panic(expected = "unreserved tile")]
    fn marking_a_tile_other_than_the_filling_one_panics() {
        // Tile 0 is resident and still filling, but the producer has moved
        // on to tile 1: only the newest bank can complete.
        let mut b = PingPongBuffer::new(2);
        b.reserve(0, 0);
        b.reserve(1, 1);
        b.mark_ready(0, 2);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn releasing_unknown_tile_panics() {
        let mut b = PingPongBuffer::new(2);
        b.reserve(0, 0);
        b.release(3, 1);
    }
}
