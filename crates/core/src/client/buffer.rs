//! The client's software buffer (paper §3).
//!
//! Received frames are stored here before being streamed into the hardware
//! decoder. The buffer re-orders out-of-order arrivals, discards *late*
//! frames (arrived after the decoder consumed frames that follow them —
//! duplicates count as late), and on overflow prefers discarding an
//! incremental frame over an I frame.

use std::collections::VecDeque;

use media::{FrameMeta, FrameNo, HardwareDecoder};

/// Result of offering a received frame to the buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    /// Stored; if the buffer was full, `evicted` is the frame discarded to
    /// make room (the overflow-discard counter of Figure 5(b)).
    Accepted {
        /// Frame discarded due to overflow, if any.
        evicted: Option<FrameMeta>,
    },
    /// The frame arrived after its position was already streamed to the
    /// decoder, or is a duplicate of a buffered frame. Counted as *late*
    /// (Figure 4(b)).
    Late,
}

/// Result of streaming buffered frames into the decoder.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FeedSummary {
    /// Frames moved into the decoder.
    pub fed: u32,
    /// Frame positions passed over because they never arrived (network
    /// loss); these frames will never be displayed.
    pub passed_gaps: u64,
}

/// A frame-capacity-bounded reordering buffer feeding a hardware decoder.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SoftwareBuffer {
    capacity: usize,
    /// Ascending by frame number, no number twice. A few dozen frames
    /// that almost always arrive in order: a queue, with the rare
    /// straggler inserted at its place.
    frames: VecDeque<FrameMeta>,
    next_feed: FrameNo,
    prefer_incremental: bool,
}

impl SoftwareBuffer {
    /// Creates a buffer holding at most `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        SoftwareBuffer::with_policy(capacity, true)
    }

    /// Creates a buffer with an explicit overflow policy:
    /// `prefer_incremental = true` is the paper's rule (sacrifice P/B
    /// frames before I frames); `false` drops the highest-numbered frame
    /// unconditionally (ablation D4).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_policy(capacity: usize, prefer_incremental: bool) -> Self {
        assert!(capacity > 0, "software buffer capacity must be positive");
        SoftwareBuffer {
            capacity,
            frames: VecDeque::new(),
            next_feed: FrameNo::ZERO,
            prefer_incremental,
        }
    }

    /// Maximum number of buffered frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of buffered frames.
    pub fn occupancy(&self) -> usize {
        self.frames.len()
    }

    /// The next frame position expected by the decoder feed.
    pub fn next_feed(&self) -> FrameNo {
        self.next_feed
    }

    /// Offers a received frame.
    pub fn insert(&mut self, frame: FrameMeta) -> InsertOutcome {
        if frame.no < self.next_feed {
            return InsertOutcome::Late;
        }
        match self.frames.back() {
            Some(newest) if frame.no <= newest.no => {
                match self.frames.binary_search_by_key(&frame.no, |f| f.no) {
                    Ok(_) => return InsertOutcome::Late,
                    Err(at) => self.frames.insert(at, frame),
                }
            }
            _ => self.frames.push_back(frame),
        }
        let evicted = if self.frames.len() > self.capacity {
            self.evict()
        } else {
            None
        };
        InsertOutcome::Accepted { evicted }
    }

    /// Discards one frame to relieve overflow: the highest-numbered
    /// incremental frame, or the highest-numbered frame if only I frames
    /// remain (paper §3).
    fn evict(&mut self) -> Option<FrameMeta> {
        let incremental = if self.prefer_incremental {
            self.frames.iter().rposition(|f| !f.ftype.is_intra())
        } else {
            None
        };
        match incremental {
            Some(at) => self.frames.remove(at),
            None => self.frames.pop_back(),
        }
    }

    /// Streams frames into `decoder` while it has space, passing over
    /// positions that never arrived.
    ///
    /// The feed point steps to one past each frame fed and never moves
    /// backwards. Frame `u64::MAX` has no successor: after feeding it the
    /// feed point stays at `u64::MAX`, so every lower number is late and
    /// only that last number itself would be accepted (and fed) again.
    pub fn feed(&mut self, decoder: &mut HardwareDecoder) -> FeedSummary {
        let mut summary = FeedSummary::default();
        while let Some(frame) = self.frames.front() {
            if !decoder.fits(frame) {
                break;
            }
            let frame = self.frames.pop_front().expect("peeked frame exists");
            summary.passed_gaps += frame.no.0 - self.next_feed.0;
            self.next_feed = FrameNo(frame.no.0.saturating_add(1));
            decoder.push(frame).expect("checked fits() before pushing");
            summary.fed += 1;
        }
        summary
    }

    /// Empties the buffer and repositions the feed point (VCR seek).
    pub fn reset_to(&mut self, position: FrameNo) {
        self.frames.clear();
        self.next_feed = position;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use media::FrameType;

    fn frame(no: u64, ftype: FrameType) -> FrameMeta {
        FrameMeta {
            no: FrameNo(no),
            ftype,
            size: 100,
        }
    }

    fn p(no: u64) -> FrameMeta {
        frame(no, FrameType::P)
    }

    #[test]
    fn in_order_feed() {
        let mut buf = SoftwareBuffer::new(10);
        let mut dec = HardwareDecoder::new(10_000);
        for i in 0..5 {
            assert_eq!(buf.insert(p(i)), InsertOutcome::Accepted { evicted: None });
        }
        let summary = buf.feed(&mut dec);
        assert_eq!(summary.fed, 5);
        assert_eq!(summary.passed_gaps, 0);
        assert_eq!(buf.occupancy(), 0);
        assert_eq!(buf.next_feed(), FrameNo(5));
    }

    #[test]
    fn out_of_order_frames_are_reordered() {
        let mut buf = SoftwareBuffer::new(10);
        let mut dec = HardwareDecoder::new(10_000);
        buf.insert(p(2));
        buf.insert(p(0));
        buf.insert(p(1));
        buf.feed(&mut dec);
        assert_eq!(dec.frontier(), Some(FrameNo(2)));
        let shown: Vec<FrameNo> = (0..3)
            .map(|_| match dec.tick_display() {
                media::DisplayOutcome::Displayed(f) => f.no,
                media::DisplayOutcome::Stalled => panic!("stall"),
            })
            .collect();
        assert_eq!(shown, vec![FrameNo(0), FrameNo(1), FrameNo(2)]);
    }

    #[test]
    fn late_and_duplicate_frames_rejected() {
        let mut buf = SoftwareBuffer::new(10);
        let mut dec = HardwareDecoder::new(10_000);
        buf.insert(p(0));
        buf.insert(p(1));
        buf.feed(&mut dec);
        assert_eq!(buf.insert(p(0)), InsertOutcome::Late, "already fed");
        buf.insert(p(5));
        assert_eq!(buf.insert(p(5)), InsertOutcome::Late, "duplicate in buffer");
    }

    #[test]
    fn gaps_are_passed_and_counted() {
        let mut buf = SoftwareBuffer::new(10);
        let mut dec = HardwareDecoder::new(10_000);
        buf.insert(p(0));
        buf.insert(p(3)); // 1 and 2 lost
        let summary = buf.feed(&mut dec);
        assert_eq!(summary.fed, 2);
        assert_eq!(summary.passed_gaps, 2);
        assert_eq!(buf.next_feed(), FrameNo(4));
    }

    #[test]
    fn overflow_evicts_incremental_not_intra() {
        let mut buf = SoftwareBuffer::new(3);
        buf.insert(frame(0, FrameType::I));
        buf.insert(frame(1, FrameType::B));
        buf.insert(frame(2, FrameType::I));
        match buf.insert(frame(3, FrameType::I)) {
            InsertOutcome::Accepted { evicted: Some(e) } => {
                assert_eq!(e.no, FrameNo(1), "the only incremental frame goes first");
                assert_eq!(e.ftype, FrameType::B);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        // Only I frames left: the newest I frame is sacrificed next.
        match buf.insert(frame(4, FrameType::I)) {
            InsertOutcome::Accepted { evicted: Some(e) } => assert_eq!(e.no, FrameNo(4)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn eviction_prefers_furthest_from_display() {
        let mut buf = SoftwareBuffer::new(3);
        buf.insert(p(0));
        buf.insert(p(1));
        buf.insert(p(2));
        match buf.insert(p(3)) {
            InsertOutcome::Accepted { evicted: Some(e) } => {
                assert_eq!(e.no, FrameNo(3), "highest-numbered incremental evicted");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn feed_respects_decoder_space() {
        let mut buf = SoftwareBuffer::new(10);
        let mut dec = HardwareDecoder::new(250); // fits two 100-byte frames
        for i in 0..5 {
            buf.insert(p(i));
        }
        let summary = buf.feed(&mut dec);
        assert_eq!(summary.fed, 2);
        assert_eq!(buf.occupancy(), 3);
        dec.tick_display();
        let summary = buf.feed(&mut dec);
        assert_eq!(summary.fed, 1);
    }

    /// The `BTreeMap` buffer this one replaced, verbatim: the oracle of
    /// [`every_script_matches_the_btreemap_buffer`].
    struct TreeBuffer {
        capacity: usize,
        frames: std::collections::BTreeMap<u64, FrameMeta>,
        next_feed: FrameNo,
        prefer_incremental: bool,
    }

    impl TreeBuffer {
        fn insert(&mut self, frame: FrameMeta) -> InsertOutcome {
            if frame.no < self.next_feed || self.frames.contains_key(&frame.no.0) {
                return InsertOutcome::Late;
            }
            self.frames.insert(frame.no.0, frame);
            let evicted = if self.frames.len() > self.capacity {
                self.evict()
            } else {
                None
            };
            InsertOutcome::Accepted { evicted }
        }

        fn evict(&mut self) -> Option<FrameMeta> {
            let victim = if self.prefer_incremental {
                self.frames
                    .iter()
                    .rev()
                    .find(|(_, f)| !f.ftype.is_intra())
                    .map(|(&no, _)| no)
                    .or_else(|| self.frames.keys().next_back().copied())?
            } else {
                self.frames.keys().next_back().copied()?
            };
            self.frames.remove(&victim)
        }

        fn feed(&mut self, decoder: &mut HardwareDecoder) -> FeedSummary {
            let mut summary = FeedSummary::default();
            while let Some((&no, frame)) = self.frames.iter().next() {
                if !decoder.fits(frame) {
                    break;
                }
                let frame = self.frames.remove(&no).expect("peeked frame exists");
                summary.passed_gaps += no - self.next_feed.0;
                self.next_feed = FrameNo(no + 1);
                decoder.push(frame).expect("checked fits() before pushing");
                summary.fed += 1;
            }
            summary
        }

        fn reset_to(&mut self, position: FrameNo) {
            self.frames.clear();
            self.next_feed = position;
        }
    }

    /// Random scripts of inserts (in order, reordered, duplicated, behind
    /// the feed point, overflowing), feeds into a decoder that drains at a
    /// random pace, and seeks: every outcome, summary, occupancy and feed
    /// point equals the `BTreeMap` buffer's after every step.
    #[test]
    fn every_script_matches_the_btreemap_buffer() {
        // [late, evicted, reordered accepts, gaps passed, seeks] met.
        let mut covered = [0u64; 5];
        for seed in 0..400u64 {
            let mut rng = simnet::SimRng::seed_from_u64(seed);
            let capacity = 1 + rng.gen_u64_below(12) as usize;
            let prefer_incremental = seed % 2 == 0;
            let mut new = SoftwareBuffer::with_policy(capacity, prefer_incremental);
            let mut old = TreeBuffer {
                capacity,
                frames: std::collections::BTreeMap::new(),
                next_feed: FrameNo::ZERO,
                prefer_incremental,
            };
            // Room for a handful of frames, so feeds stop short and the
            // buffer overflows behind a full decoder.
            let mut new_dec = HardwareDecoder::new(100 * (1 + rng.gen_u64_below(6)));
            let mut old_dec = new_dec.clone();
            let mut head = 0u64;
            for step in 0..400 {
                let context = format!("seed {seed}, step {step}");
                match rng.gen_u64_below(10) {
                    0..=5 => {
                        let no = match rng.gen_u64_below(8) {
                            // The next number: the in-order arrival.
                            0..=3 => head,
                            // Ahead (a loss) or behind (reordered,
                            // duplicated, late).
                            4 => head + 1 + rng.gen_u64_below(4),
                            _ => head.saturating_sub(rng.gen_u64_below(capacity as u64 + 3)),
                        };
                        head = head.max(no + 1);
                        let ftype = [FrameType::I, FrameType::P, FrameType::B]
                            [rng.gen_u64_below(3) as usize];
                        let newest = new.frames.back().map(|f| f.no);
                        let outcome = new.insert(frame(no, ftype));
                        assert_eq!(outcome, old.insert(frame(no, ftype)), "{context}");
                        match outcome {
                            InsertOutcome::Late => covered[0] += 1,
                            InsertOutcome::Accepted { evicted } => {
                                covered[1] += u64::from(evicted.is_some());
                                covered[2] += u64::from(newest.is_some_and(|n| no < n.0));
                            }
                        }
                    }
                    6 | 7 => {
                        let summary = new.feed(&mut new_dec);
                        assert_eq!(summary, old.feed(&mut old_dec), "{context}");
                        covered[3] += summary.passed_gaps;
                    }
                    8 => {
                        for _ in 0..rng.gen_u64_below(4) {
                            assert_eq!(new_dec.tick_display(), old_dec.tick_display());
                        }
                    }
                    _ => {
                        if rng.gen_u64_below(8) == 0 {
                            head = rng.gen_u64_below(head + 20);
                            new.reset_to(FrameNo(head));
                            old.reset_to(FrameNo(head));
                            covered[4] += 1;
                        }
                    }
                }
                assert_eq!(new.next_feed(), old.next_feed, "{context}");
                assert_eq!(new.occupancy(), old.frames.len(), "{context}");
                assert!(
                    new.frames.iter().eq(old.frames.values()),
                    "{context}: {:?} vs {:?}",
                    new.frames,
                    old.frames
                );
            }
        }
        assert!(covered.iter().all(|&n| n > 100), "{covered:?}");
    }

    #[test]
    fn reset_repositions_feed() {
        let mut buf = SoftwareBuffer::new(10);
        buf.insert(p(0));
        buf.reset_to(FrameNo(100));
        assert_eq!(buf.occupancy(), 0);
        assert_eq!(
            buf.insert(p(50)),
            InsertOutcome::Late,
            "behind the seek point"
        );
        assert_eq!(
            buf.insert(p(100)),
            InsertOutcome::Accepted { evicted: None }
        );
    }
}
