#include "runtime/reliable_transport.h"

#include <algorithm>

#include "common/strings.h"

namespace cdes {
namespace {

/// Wire size charged for an ack frame.
constexpr size_t kAckBytes = 16;

}  // namespace

ReliableTransport::ReliableTransport(Network* network,
                                     const ReliableTransportOptions& options)
    : network_(network), options_(options), sim_(network->sim()),
      tracer_(network->tracer()) {
  if (options_.initial_timeout == 0) {
    const NetworkOptions& nopts = network_->options();
    options_.initial_timeout = 2 * (nopts.base_latency + nopts.jitter) + 1;
  }
  if (options_.max_timeout == 0) {
    options_.max_timeout = 64 * options_.initial_timeout;
  }
  CDES_CHECK(options_.backoff >= 1.0);
  obs::MetricsRegistry* metrics = network_->metrics();
  retransmits_ = metrics->counter("net.retransmits");
  acks_ = metrics->counter("net.acks");
  delivered_ = metrics->counter("net.rel.delivered");
  duplicates_suppressed_ = metrics->counter("net.rel.duplicates_suppressed");
  abandoned_ = metrics->counter("net.rel.abandoned");
  retransmit_delay_ = metrics->histogram("net.retransmit_delay_us");
  ack_rtt_ = metrics->histogram("net.rel.ack_rtt_us");
}

std::string ReliableTransport::TraceKey(const MessageId& id) const {
  return StrCat("rel:", id.src, ":", id.dst, ":", id.seq);
}

void ReliableTransport::Send(int src, int dst, size_t bytes,
                             Simulator::Callback deliver) {
  if (src == dst || !network_->FaultInjectionActive()) {
    network_->Send(src, dst, bytes, std::move(deliver));
    return;
  }
  MessageId id{src, dst, next_seq_[{src, dst}]++};
  Pending& p = pending_[id];
  p.bytes = bytes;
  p.deliver = std::move(deliver);
  p.first_sent = sim_->now();
  p.timeout = options_.initial_timeout;
  if (tracer_ != nullptr) {
    tracer_->BeginAsync(obs::SpanCategory::kMessage,
                        StrCat("rel ", src, "→", dst), TraceKey(id),
                        sim_->now(), src, 0, {{"seq", StrCat(id.seq)}});
  }
  TransmitData(id);
  ArmTimer(id);
}

void ReliableTransport::TransmitData(const MessageId& id) {
  Pending& p = pending_.at(id);
  ++p.transmissions;
  network_->Send(id.src, id.dst, p.bytes, [this, id] { OnData(id); });
}

void ReliableTransport::ArmTimer(const MessageId& id) {
  sim_->Schedule(pending_.at(id).timeout, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // acked in the meantime; stale timer
    Pending& p = it->second;
    if (options_.max_retransmits > 0 &&
        p.transmissions > options_.max_retransmits) {
      abandoned_->Increment();
      if (tracer_ != nullptr) {
        tracer_->EndAsync(TraceKey(id), sim_->now(), id.src, 0,
                          {{"outcome", "abandoned"}});
      }
      pending_.erase(it);
      return;
    }
    retransmits_->Increment();
    retransmit_delay_->Observe(sim_->now() - p.first_sent);
    if (tracer_ != nullptr) {
      tracer_->Instant(obs::SpanCategory::kMessage,
                       StrCat("retransmit ", id.src, "→", id.dst),
                       sim_->now(), id.src, 0,
                       {{"seq", StrCat(id.seq)},
                        {"attempt", StrCat(p.transmissions)}});
    }
    p.timeout = std::min(
        static_cast<SimTime>(static_cast<double>(p.timeout) *
                             options_.backoff),
        options_.max_timeout);
    TransmitData(id);
    ArmTimer(id);
  });
}

void ReliableTransport::OnData(const MessageId& id) {
  SeenIds& seen = seen_[{id.src, id.dst}];
  if (seen.Seen(id.seq)) {
    // Duplicate frame (network duplication, or a retransmission racing its
    // ack): suppress the payload but re-ack — the earlier ack may be lost.
    duplicates_suppressed_->Increment();
  } else {
    seen.Mark(id.seq);
    auto it = pending_.find(id);
    // The entry can only be missing if the sender abandoned the frame while
    // a copy was still in flight; the at-most-once contract says drop it.
    if (it != pending_.end()) {
      delivered_->Increment();
      if (it->second.deliver) it->second.deliver();
    }
  }
  network_->Send(id.dst, id.src, kAckBytes, [this, id] { OnAck(id); });
  acks_->Increment();
}

std::vector<TransportChannelState> ReliableTransport::SnapshotChannels() const {
  CDES_CHECK(pending_.empty())
      << "transport snapshot requires quiescence; " << pending_.size()
      << " frames still in flight";
  // Union of the channels either side has touched; std::map keeps the
  // result sorted by (src, dst), so the snapshot is deterministic.
  std::map<std::pair<int, int>, TransportChannelState> channels;
  for (const auto& [key, next] : next_seq_) {
    TransportChannelState& c = channels[key];
    c.src = key.first;
    c.dst = key.second;
    c.send_next = next;
  }
  for (const auto& [key, seen] : seen_) {
    TransportChannelState& c = channels[key];
    c.src = key.first;
    c.dst = key.second;
    c.recv_contiguous = seen.contiguous;
    c.recv_gapped.assign(seen.gapped.begin(), seen.gapped.end());
  }
  std::vector<TransportChannelState> out;
  out.reserve(channels.size());
  for (auto& [key, state] : channels) out.push_back(std::move(state));
  return out;
}

void ReliableTransport::RestoreChannels(
    const std::vector<TransportChannelState>& channels) {
  CDES_CHECK(next_seq_.empty() && seen_.empty() && pending_.empty())
      << "channel restore requires a fresh transport";
  for (const TransportChannelState& c : channels) {
    std::pair<int, int> key{c.src, c.dst};
    if (c.send_next > 0) next_seq_[key] = c.send_next;
    if (c.recv_contiguous > 0 || !c.recv_gapped.empty()) {
      SeenIds& seen = seen_[key];
      seen.contiguous = c.recv_contiguous;
      seen.gapped.insert(c.recv_gapped.begin(), c.recv_gapped.end());
    }
  }
}

void ReliableTransport::OnAck(const MessageId& id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // duplicate or late ack
  ack_rtt_->Observe(sim_->now() - it->second.first_sent);
  if (tracer_ != nullptr) {
    tracer_->EndAsync(TraceKey(id), sim_->now(), id.src, 0,
                      {{"transmissions",
                        StrCat(it->second.transmissions)}});
  }
  pending_.erase(it);
}

}  // namespace cdes
