//! The instant in-process fabric the analytic simulator runs on.
//!
//! Frames are genuinely encoded and decoded — the wire format is
//! load-bearing, not decorative — but delivery is immediate and the
//! whole fabric lives on one thread, so the analytic planner's harnesses
//! keep their current speed and (via the payload byte counts returned by
//! [`Transport::send`]) their current modeled costs.

use std::collections::VecDeque;

use crate::transport::{NetError, Transport, TransportMetrics};
use crate::wire::Message;

/// An instant fabric for all `m` parties, driven from one thread.
#[derive(Debug)]
pub struct SimTransport {
    m: usize,
    /// Encoded frames in flight, indexed by `from * m + to`.
    queues: Vec<VecDeque<Vec<u8>>>,
    per_party_payload: Vec<u64>,
    per_party_rounds: Vec<u64>,
    metrics: TransportMetrics,
}

impl SimTransport {
    /// Creates a fabric connecting `m` parties.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "need at least one party");
        Self {
            m,
            queues: (0..m * m).map(|_| VecDeque::new()).collect(),
            per_party_payload: vec![0; m],
            per_party_rounds: vec![0; m],
            metrics: TransportMetrics::default(),
        }
    }

    fn check(&self, party: usize) -> Result<(), NetError> {
        if party >= self.m {
            return Err(NetError::BadAddress { party });
        }
        Ok(())
    }
}

impl Transport for SimTransport {
    fn parties(&self) -> usize {
        self.m
    }

    fn send(&mut self, from: usize, to: usize, msg: &Message) -> Result<usize, NetError> {
        self.check(from)?;
        self.check(to)?;
        if from == to {
            return Err(NetError::BadAddress { party: to });
        }
        let frame = msg.encode_frame();
        let payload = msg.payload_len();
        self.metrics.frames += 1;
        self.metrics.framed_bytes_total += frame.len() as u64;
        self.metrics.payload_bytes_total += payload as u64;
        self.per_party_payload[from] += payload as u64;
        self.metrics.payload_bytes_max = self
            .metrics
            .payload_bytes_max
            .max(self.per_party_payload[from]);
        self.queues[from * self.m + to].push_back(frame);
        Ok(payload)
    }

    fn recv(&mut self, at: usize, from: usize) -> Result<Message, NetError> {
        self.check(at)?;
        self.check(from)?;
        let frame = self.queues[from * self.m + at]
            .pop_front()
            .ok_or(NetError::Timeout { at, from })?;
        let (msg, _) = Message::decode_frame(&frame)?;
        Ok(msg)
    }

    fn round(&mut self, at: usize) {
        if at < self.m {
            self.per_party_rounds[at] += 1;
            self.metrics.rounds = self.metrics.rounds.max(self.per_party_rounds[at]);
        }
    }

    fn metrics(&self) -> TransportMetrics {
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_field::FGold;

    #[test]
    fn send_recv_round_trips_through_frames() {
        let mut t = SimTransport::new(3);
        let msg = Message::FieldElems(vec![FGold::new(1), FGold::new(2)]);
        let payload = t.send(0, 2, &msg).unwrap();
        assert_eq!(payload, 16);
        assert_eq!(t.recv(2, 0).unwrap(), msg);
    }

    #[test]
    fn queues_are_fifo_per_link() {
        let mut t = SimTransport::new(2);
        let frame = |v| Message::FieldElems(vec![FGold::new(v)]);
        t.send(0, 1, &frame(1)).unwrap();
        t.send(0, 1, &frame(2)).unwrap();
        assert_eq!(t.recv(1, 0).unwrap(), frame(1));
        assert_eq!(t.recv(1, 0).unwrap(), frame(2));
    }

    #[test]
    fn recv_on_empty_link_is_timeout_not_hang() {
        let mut t = SimTransport::new(2);
        assert_eq!(t.recv(0, 1), Err(NetError::Timeout { at: 0, from: 1 }));
    }

    #[test]
    fn self_send_and_out_of_range_rejected() {
        let mut t = SimTransport::new(2);
        let msg = Message::FieldElems(vec![FGold::new(0)]);
        assert!(matches!(
            t.send(0, 0, &msg),
            Err(NetError::BadAddress { .. })
        ));
        assert!(matches!(
            t.send(0, 5, &msg),
            Err(NetError::BadAddress { .. })
        ));
        assert!(matches!(t.recv(9, 0), Err(NetError::BadAddress { .. })));
    }

    #[test]
    fn metrics_separate_payload_from_framing() {
        let mut t = SimTransport::new(3);
        let msg = Message::FieldElems(vec![FGold::new(7); 4]); // 32B payload.
        t.send(0, 1, &msg).unwrap();
        t.send(1, 2, &msg).unwrap();
        t.round(0);
        t.round(1);
        t.round(2);
        let m = t.metrics();
        assert_eq!(m.frames, 2);
        assert_eq!(m.payload_bytes_total, 64);
        assert_eq!(m.payload_bytes_max, 32);
        assert_eq!(m.framed_bytes_total, 64 + 2 * 8);
        assert_eq!(m.rounds, 1, "rounds are the max over parties, not the sum");
    }
}
