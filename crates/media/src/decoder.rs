//! Model of the client's hardware MPEG decoder.
//!
//! The paper's clients use Optibase hardware decoders with a byte-capacity
//! input buffer (240 KB ≈ 1.2 s of a 1.4 Mbps stream). The software layer
//! streams frames into the decoder whenever there is space; the decoder
//! consumes one frame per display tick and freezes the picture (a *stall*)
//! when its buffer runs dry.

use std::collections::VecDeque;

use crate::frame::{FrameMeta, FrameNo};

/// Outcome of one display tick.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DisplayOutcome {
    /// A frame was consumed and shown.
    Displayed(FrameMeta),
    /// The buffer was empty; the viewer sees a frozen picture.
    Stalled,
}

/// Error returned by [`HardwareDecoder::push`] when the frame does not fit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecoderFullError {
    /// Bytes currently free in the decoder buffer.
    pub free: u64,
    /// Size of the rejected frame.
    pub frame_size: u32,
}

impl std::fmt::Display for DecoderFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decoder buffer full: {} bytes free, frame needs {}",
            self.free, self.frame_size
        )
    }
}

impl std::error::Error for DecoderFullError {}

/// A byte-bounded FIFO decoder buffer with per-tick consumption.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HardwareDecoder {
    capacity: u64,
    occupied: u64,
    queue: VecDeque<FrameMeta>,
    displayed: u64,
    stalls: u64,
    last_displayed: Option<FrameNo>,
}

impl HardwareDecoder {
    /// Creates a decoder with `capacity` bytes of input buffering.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "decoder capacity must be positive");
        HardwareDecoder {
            capacity,
            occupied: 0,
            queue: VecDeque::new(),
            displayed: 0,
            stalls: 0,
            last_displayed: None,
        }
    }

    /// Buffer capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently buffered.
    pub fn occupied(&self) -> u64 {
        self.occupied
    }

    /// Bytes currently free.
    pub fn free(&self) -> u64 {
        self.capacity - self.occupied
    }

    /// Number of frames currently buffered.
    pub fn queued_frames(&self) -> usize {
        self.queue.len()
    }

    /// Whether `frame` would fit right now.
    pub fn fits(&self, frame: &FrameMeta) -> bool {
        u64::from(frame.size) <= self.free()
    }

    /// Queues a frame for display.
    ///
    /// # Errors
    ///
    /// Returns [`DecoderFullError`] when the frame does not fit; the caller
    /// (the client's software buffer) retries later.
    pub fn push(&mut self, frame: FrameMeta) -> Result<(), DecoderFullError> {
        if !self.fits(&frame) {
            return Err(DecoderFullError {
                free: self.free(),
                frame_size: frame.size,
            });
        }
        self.occupied += u64::from(frame.size);
        self.queue.push_back(frame);
        Ok(())
    }

    /// Consumes one display tick: shows the next frame or stalls.
    pub fn tick_display(&mut self) -> DisplayOutcome {
        match self.queue.pop_front() {
            Some(frame) => {
                self.occupied -= u64::from(frame.size);
                self.displayed += 1;
                self.last_displayed = Some(frame.no);
                DisplayOutcome::Displayed(frame)
            }
            None => {
                self.stalls += 1;
                DisplayOutcome::Stalled
            }
        }
    }

    /// Total frames displayed so far.
    pub fn displayed(&self) -> u64 {
        self.displayed
    }

    /// Total stalled ticks so far (visible jitter to the human observer).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Display-order position of the most recently shown frame.
    pub fn last_displayed(&self) -> Option<FrameNo> {
        self.last_displayed
    }

    /// Highest frame number queued or displayed; the software buffer uses
    /// this to classify arrivals as *late*.
    pub fn frontier(&self) -> Option<FrameNo> {
        self.queue.back().map(|f| f.no).or(self.last_displayed)
    }

    /// Empties the buffer (used on VCR seek operations).
    pub fn flush(&mut self) {
        self.queue.clear();
        self.occupied = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameType;

    fn frame(no: u64, size: u32) -> FrameMeta {
        FrameMeta {
            no: FrameNo(no),
            ftype: FrameType::P,
            size,
        }
    }

    #[test]
    fn push_and_display_in_order() {
        let mut dec = HardwareDecoder::new(1000);
        dec.push(frame(0, 300)).unwrap();
        dec.push(frame(1, 300)).unwrap();
        assert_eq!(dec.occupied(), 600);
        assert_eq!(dec.queued_frames(), 2);
        match dec.tick_display() {
            DisplayOutcome::Displayed(f) => assert_eq!(f.no, FrameNo(0)),
            DisplayOutcome::Stalled => panic!("should display"),
        }
        assert_eq!(dec.occupied(), 300);
        assert_eq!(dec.last_displayed(), Some(FrameNo(0)));
    }

    #[test]
    fn overfull_push_is_rejected() {
        let mut dec = HardwareDecoder::new(500);
        dec.push(frame(0, 400)).unwrap();
        let err = dec.push(frame(1, 200)).unwrap_err();
        assert_eq!(err.free, 100);
        assert_eq!(err.frame_size, 200);
        assert!(!dec.fits(&frame(1, 200)));
        assert!(dec.fits(&frame(1, 100)));
    }

    #[test]
    fn empty_buffer_stalls() {
        let mut dec = HardwareDecoder::new(100);
        assert_eq!(dec.tick_display(), DisplayOutcome::Stalled);
        assert_eq!(dec.stalls(), 1);
        assert_eq!(dec.displayed(), 0);
    }

    #[test]
    fn frontier_tracks_progress() {
        let mut dec = HardwareDecoder::new(1000);
        assert_eq!(dec.frontier(), None);
        dec.push(frame(5, 100)).unwrap();
        dec.push(frame(6, 100)).unwrap();
        assert_eq!(dec.frontier(), Some(FrameNo(6)));
        dec.tick_display();
        dec.tick_display();
        assert_eq!(dec.frontier(), Some(FrameNo(6)), "remembers after drain");
    }

    #[test]
    fn flush_empties() {
        let mut dec = HardwareDecoder::new(1000);
        dec.push(frame(0, 100)).unwrap();
        dec.flush();
        assert_eq!(dec.occupied(), 0);
        assert_eq!(dec.queued_frames(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = HardwareDecoder::new(0);
    }
}
