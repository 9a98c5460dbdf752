#ifndef CDES_RUNTIME_RELIABLE_TRANSPORT_H_
#define CDES_RUNTIME_RELIABLE_TRANSPORT_H_

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "runtime/messages.h"
#include "sim/network.h"

namespace cdes {

/// Durable image of one directed channel's exactly-once bookkeeping: the
/// sender's next sequence number and the receiver's delivered-id set
/// (watermark + gapped seqs). Snapshotted into checkpoints so a recovered
/// scheduler keeps suppressing duplicates of frames delivered before the
/// crash instead of replaying them. In-flight frames are deliberately NOT
/// part of the image — checkpoints are taken at instance quiescence, where
/// nothing is pending.
struct TransportChannelState {
  int src = 0;
  int dst = 0;
  /// Sender side: seq the next frame on this channel will carry.
  uint64_t send_next = 0;
  /// Receiver side: every seq < recv_contiguous was delivered ...
  uint64_t recv_contiguous = 0;
  /// ... plus these delivered seqs above the watermark (sorted).
  std::vector<uint64_t> recv_gapped;

  friend bool operator==(const TransportChannelState&,
                         const TransportChannelState&) = default;
};

struct ReliableTransportOptions {
  /// First retransmission fires this long after a send. 0 ⇒ derived from
  /// the network: 2 × (base_latency + jitter) + 1, a round trip at worst-
  /// case jitter. Tune upward for links with SetLinkLatency overrides.
  SimTime initial_timeout = 0;
  /// Timeout multiplier per retransmission (exponential backoff).
  double backoff = 2.0;
  /// Backoff ceiling. 0 ⇒ 64 × the initial timeout.
  SimTime max_timeout = 0;
  /// Give up after this many retransmissions of one frame (the payload is
  /// dropped and counted in "net.rel.abandoned"). 0 ⇒ retry forever —
  /// exactly-once delivery provided every partition eventually heals and
  /// drop_probability < 1.
  uint64_t max_retransmits = 0;
};

/// Exactly-once delivery over the simulated network's at-most-once
/// transport (§6: "the underlying execution mechanism should provide a
/// consistent view of the temporal order of events" — which presupposes
/// announcements are not lost or replayed).
///
/// Protocol: every remote payload gets a per-channel monotonic MessageId.
/// The sender keeps the payload pending and retransmits on a timeout with
/// exponential backoff until the receiver's ack retires it; the receiver
/// delivers each id at most once (a compacted seen-set per channel) and
/// re-acks duplicates, so lost acks are survived too. Occurrence *order*
/// is not transport business: announcements carry stamps and the actors'
/// hold-back queues assimilate them in stamp order (runtime/event_actor.h).
///
/// Pay-for-what-you-use: when the network has no fault injection
/// configured (Network::FaultInjectionActive() is false), and for local
/// src == dst messages, Send falls through to the raw network — no ids,
/// no acks, no timers, so fault-free runs are byte- and message-identical
/// to a transport-less build.
///
/// Instrumentation (into the network's registry / tracer): counters
/// "net.retransmits", "net.acks", "net.rel.delivered",
/// "net.rel.duplicates_suppressed", "net.rel.abandoned"; histograms
/// "net.retransmit_delay_us" (first send → each retransmission) and
/// "net.rel.ack_rtt_us" (first send → retiring ack); per-payload async
/// spans "rel src→dst" with "retransmit" instants for each retry.
class ReliableTransport {
 public:
  explicit ReliableTransport(Network* network,
                             const ReliableTransportOptions& options = {});

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  /// Sends a payload of `bytes` from `src` to `dst`; `deliver` runs at the
  /// destination exactly once (unless retransmissions are capped and
  /// exhausted), regardless of transport loss or duplication.
  void Send(int src, int dst, size_t bytes, Simulator::Callback deliver);

  /// Serializes the per-channel watermark state for a checkpoint, sorted by
  /// (src, dst). Requires quiescence (no frames in flight): pending frames
  /// are soft state a checkpoint must not capture.
  std::vector<TransportChannelState> SnapshotChannels() const;

  /// Restores a SnapshotChannels image into a freshly built transport
  /// (nothing sent or delivered yet).
  void RestoreChannels(const std::vector<TransportChannelState>& channels);

  /// Payload frames still awaiting an ack.
  size_t in_flight() const { return pending_.size(); }
  uint64_t retransmits() const { return retransmits_->value(); }
  uint64_t acks() const { return acks_->value(); }
  uint64_t abandoned() const { return abandoned_->value(); }
  Network* network() const { return network_; }

 private:
  struct Pending {
    size_t bytes = 0;
    Simulator::Callback deliver;
    SimTime first_sent = 0;
    SimTime timeout = 0;
    uint64_t transmissions = 0;
  };

  /// Receiver-side delivered-id tracking for one directed channel: every
  /// seq < `contiguous` was delivered; `gapped` holds delivered seqs above
  /// the watermark (non-FIFO networks create gaps).
  struct SeenIds {
    uint64_t contiguous = 0;
    std::set<uint64_t> gapped;

    bool Seen(uint64_t seq) const {
      return seq < contiguous || gapped.count(seq) != 0;
    }
    void Mark(uint64_t seq) {
      gapped.insert(seq);
      while (gapped.erase(contiguous) != 0) ++contiguous;
    }
  };

  void TransmitData(const MessageId& id);
  void ArmTimer(const MessageId& id);
  void OnData(const MessageId& id);
  void OnAck(const MessageId& id);
  std::string TraceKey(const MessageId& id) const;

  Network* network_;
  ReliableTransportOptions options_;
  Simulator* sim_;
  obs::TraceRecorder* tracer_;
  obs::Counter* retransmits_ = nullptr;
  obs::Counter* acks_ = nullptr;
  obs::Counter* delivered_ = nullptr;
  obs::Counter* duplicates_suppressed_ = nullptr;
  obs::Counter* abandoned_ = nullptr;
  obs::Histogram* retransmit_delay_ = nullptr;
  obs::Histogram* ack_rtt_ = nullptr;

  std::map<std::pair<int, int>, uint64_t> next_seq_;
  std::map<MessageId, Pending> pending_;
  std::map<std::pair<int, int>, SeenIds> seen_;
};

}  // namespace cdes

#endif  // CDES_RUNTIME_RELIABLE_TRANSPORT_H_
