#include "comm/mailbox_transport.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.hpp"

namespace bnsgcn::comm {

MailboxTransport::MailboxTransport(PartId nranks)
    : nranks_(nranks),
      barrier_(static_cast<std::size_t>(nranks)),
      reduce_slots_(static_cast<std::size_t>(nranks)),
      scalar_slots_(static_cast<std::size_t>(nranks), 0.0),
      gather_slots_(static_cast<std::size_t>(nranks)),
      dgather_slots_(static_cast<std::size_t>(nranks)) {
  BNSGCN_CHECK(nranks >= 1);
  mailboxes_.resize(static_cast<std::size_t>(nranks) *
                    static_cast<std::size_t>(nranks));
  for (auto& box : mailboxes_) box = std::make_unique<Mailbox>();
}

void MailboxTransport::check_alive() const {
  if (stopped_.load(std::memory_order_relaxed))
    throw ShutdownError("mailbox fabric shut down");
}

void MailboxTransport::enable_delivery_shuffle(std::uint64_t seed,
                                               int max_hold) {
  BNSGCN_CHECK(max_hold >= 1);
  shuffle_ = true;
  shuffle_seed_ = seed;
  shuffle_max_hold_ = max_hold;
}

int MailboxTransport::hold_of(PartId from, PartId to, int tag) const {
  if (!shuffle_) return 0;
  // splitmix64 over the message's stable identity (seed, from, to, tag) —
  // deliberately not a deposit counter, whose value would depend on the
  // interleaving of concurrent sender threads and make a failing fuzz
  // seed irreproducible. Tags are the trainer's per-phase sequence, so
  // (from, to, tag) names each boundary message uniquely within a run.
  std::uint64_t z = shuffle_seed_ ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         from)) << 42) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         to)) << 21) ^
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<int>(z % static_cast<std::uint64_t>(shuffle_max_hold_));
}

std::uint64_t MailboxTransport::send(PartId from, PartId to, Wire msg) {
  check_alive();
  msg.hold = hold_of(from, to, msg.tag);
  auto& box = mailbox(from, to);
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.push_back(std::move(msg));
  }
  box.cv.notify_all();
  return 0;
}

bool MailboxTransport::send_done(PartId /*rank*/, PartId /*to*/,
                                 std::uint64_t ticket) {
  BNSGCN_CHECK(ticket == 0);
  return true;
}

void MailboxTransport::wait_send(PartId /*rank*/, PartId /*to*/,
                                 std::uint64_t ticket) {
  BNSGCN_CHECK(ticket == 0);
}

void MailboxTransport::await_progress(PartId /*rank*/, int idle_passes) {
  if (idle_passes < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool MailboxTransport::try_recv(PartId rank, PartId from, int tag, Wire& out) {
  check_alive();
  auto& box = mailbox(from, rank);
  std::lock_guard<std::mutex> lock(box.mu);
  const auto it = std::find_if(box.queue.begin(), box.queue.end(),
                               [tag](const Wire& m) { return m.tag == tag; });
  if (it == box.queue.end()) return false;
  if (it->hold > 0) { // delivery shuffle: not yet "arrived" for probes
    --it->hold;
    return false;
  }
  out = std::move(*it);
  box.queue.erase(it);
  return true;
}

Wire MailboxTransport::recv(PartId rank, PartId from, int tag) {
  auto& box = mailbox(from, rank);
  std::unique_lock<std::mutex> lock(box.mu);
  for (;;) {
    if (stopped_.load(std::memory_order_relaxed))
      throw ShutdownError("mailbox fabric shut down");
    const auto it =
        std::find_if(box.queue.begin(), box.queue.end(),
                     [tag](const Wire& m) { return m.tag == tag; });
    if (it != box.queue.end()) {
      Wire msg = std::move(*it);
      box.queue.erase(it);
      return msg;
    }
    box.cv.wait(lock);
  }
}

void MailboxTransport::barrier(PartId /*rank*/) {
  try {
    barrier_.arrive_and_wait();
  } catch (const BarrierPoisoned&) {
    throw ShutdownError("mailbox fabric shut down");
  }
}

void MailboxTransport::allreduce_sum(PartId rank, std::span<float> data) {
  auto& slot = reduce_slots_[static_cast<std::size_t>(rank)];
  slot.assign(data.begin(), data.end());
  barrier(rank);
  // Every rank reads all slots; writes finished before the barrier. The
  // fold runs in ascending rank order skipping self — the deterministic
  // reduction order every backend must reproduce.
  for (PartId r = 0; r < nranks_; ++r) {
    if (r == rank) continue;
    const auto& other = reduce_slots_[static_cast<std::size_t>(r)];
    BNSGCN_CHECK(other.size() == data.size());
    for (std::size_t i = 0; i < data.size(); ++i) data[i] += other[i];
  }
  barrier(rank); // protect slots from the next collective
}

double MailboxTransport::allreduce_sum_scalar(PartId rank, double value) {
  scalar_slots_[static_cast<std::size_t>(rank)] = value;
  barrier(rank);
  double sum = 0.0;
  for (const double v : scalar_slots_) sum += v;
  barrier(rank);
  return sum;
}

double MailboxTransport::allreduce_max_scalar(PartId rank, double value) {
  scalar_slots_[static_cast<std::size_t>(rank)] = value;
  barrier(rank);
  double mx = scalar_slots_[0];
  for (const double v : scalar_slots_) mx = std::max(mx, v);
  barrier(rank);
  return mx;
}

std::vector<std::vector<NodeId>> MailboxTransport::allgather_ids(
    PartId rank, std::vector<NodeId> ids) {
  gather_slots_[static_cast<std::size_t>(rank)] = std::move(ids);
  barrier(rank);
  std::vector<std::vector<NodeId>> out(static_cast<std::size_t>(nranks_));
  for (PartId r = 0; r < nranks_; ++r)
    out[static_cast<std::size_t>(r)] =
        gather_slots_[static_cast<std::size_t>(r)];
  barrier(rank);
  return out;
}

std::vector<std::vector<double>> MailboxTransport::allgather_doubles(
    PartId rank, const std::vector<double>& vals) {
  dgather_slots_[static_cast<std::size_t>(rank)] = vals;
  barrier(rank);
  std::vector<std::vector<double>> out(static_cast<std::size_t>(nranks_));
  for (PartId r = 0; r < nranks_; ++r)
    out[static_cast<std::size_t>(r)] =
        dgather_slots_[static_cast<std::size_t>(r)];
  barrier(rank);
  return out;
}

void MailboxTransport::shutdown(PartId /*rank*/) {
  stopped_.store(true, std::memory_order_relaxed);
  for (auto& box : mailboxes_) {
    // Take the lock so a waiter between its predicate check and cv.wait
    // cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
  barrier_.poison();
}

} // namespace bnsgcn::comm
