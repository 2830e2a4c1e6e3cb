#include "dataflow/task_scheduler.hpp"

#include <limits>
#include <stdexcept>

namespace evolve::dataflow {

namespace {
constexpr std::int64_t kNoSeq = std::numeric_limits<std::int64_t>::max();
}

int TaskScheduler::add_executor(cluster::NodeId node, int slots) {
  if (slots <= 0) throw std::invalid_argument("executor needs slots");
  const int index = static_cast<int>(executors_.size());
  executors_.push_back(Executor{node, slots});
  if (node_available(node)) {
    free_by_node_[node].insert(index);
    free_execs_.insert(index);
    free_total_ += slots;
  }
  return index;
}

cluster::NodeId TaskScheduler::executor_node(int executor) const {
  return executors_.at(static_cast<std::size_t>(executor)).node;
}

void TaskScheduler::enqueue(TaskId task,
                            std::vector<cluster::NodeId> preferred,
                            util::TimeNs now) {
  const std::int64_t seq = next_seq_++;
  if (preferred.empty()) {
    no_pref_.insert(seq);
  } else {
    with_pref_.insert(seq);
    for (cluster::NodeId node : preferred) waiting_by_node_[node].insert(seq);
  }
  queue_.emplace(seq, Pending{task, std::move(preferred), now});
}

void TaskScheduler::release(int executor) {
  Executor& e = executors_.at(static_cast<std::size_t>(executor));
  ++e.free;
  // Slots on dead or quarantined nodes return to the pool on revival.
  if (!node_available(e.node)) return;
  ++free_total_;
  if (e.free == 1) {
    free_by_node_[e.node].insert(executor);
    free_execs_.insert(executor);
  }
}

void TaskScheduler::node_changed(cluster::NodeId node, bool was_available) {
  const bool available = node_available(node);
  if (available == was_available) return;
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    const Executor& e = executors_[i];
    if (e.node != node || e.free <= 0) continue;
    if (available) {
      free_total_ += e.free;
      free_by_node_[node].insert(static_cast<int>(i));
      free_execs_.insert(static_cast<int>(i));
    } else {
      free_total_ -= e.free;
      auto it = free_by_node_.find(node);
      if (it != free_by_node_.end()) {
        it->second.erase(static_cast<int>(i));
        if (it->second.empty()) free_by_node_.erase(it);
      }
      free_execs_.erase(static_cast<int>(i));
    }
  }
}

void TaskScheduler::take_slot(int executor) {
  Executor& e = executors_[static_cast<std::size_t>(executor)];
  --e.free;
  --free_total_;
  if (e.free == 0) {
    auto it = free_by_node_.find(e.node);
    it->second.erase(executor);
    if (it->second.empty()) free_by_node_.erase(it);
    free_execs_.erase(executor);
  }
}

void TaskScheduler::remove_task(std::int64_t seq, const Pending& task) {
  if (task.preferred.empty()) {
    no_pref_.erase(seq);
  } else {
    with_pref_.erase(seq);
    for (cluster::NodeId node : task.preferred) {
      auto it = waiting_by_node_.find(node);
      it->second.erase(seq);
      if (it->second.empty()) waiting_by_node_.erase(it);
    }
  }
  queue_.erase(seq);
}

int TaskScheduler::find_free_preferred(
    const std::vector<cluster::NodeId>& preferred) const {
  int best = -1;
  for (cluster::NodeId node : preferred) {
    auto it = free_by_node_.find(node);
    if (it == free_by_node_.end()) continue;
    const int executor = *it->second.begin();
    if (best < 0 || executor < best) best = executor;
  }
  return best;
}

std::vector<Assignment> TaskScheduler::assign(util::TimeNs now) {
  std::vector<Assignment> out;
  while (free_total_ > 0 && !queue_.empty()) {
    // Candidate A: earliest waiting task whose preferred-node set has a
    // free executor. Walk the smaller of the two node indexes.
    std::int64_t a_seq = kNoSeq;
    if (waiting_by_node_.size() <= free_by_node_.size()) {
      for (const auto& [node, seqs] : waiting_by_node_) {
        if (*seqs.begin() < a_seq && free_by_node_.count(node) != 0) {
          a_seq = *seqs.begin();
        }
      }
    } else {
      for (const auto& [node, execs] : free_by_node_) {
        (void)execs;
        auto it = waiting_by_node_.find(node);
        if (it != waiting_by_node_.end() && *it->second.begin() < a_seq) {
          a_seq = *it->second.begin();
        }
      }
    }
    // Candidate B: earliest task eligible for a non-preferred executor —
    // no-preference tasks, plus the head preferred task once its locality
    // wait expired (FIFO enqueue times ⇒ it is always the first to expire).
    std::int64_t b_seq = no_pref_.empty() ? kNoSeq : *no_pref_.begin();
    if (!with_pref_.empty()) {
      const std::int64_t head = *with_pref_.begin();
      if (head < b_seq &&
          now - queue_.find(head)->second.enqueued >= locality_wait_) {
        b_seq = head;
      }
    }
    const std::int64_t seq = std::min(a_seq, b_seq);
    if (seq == kNoSeq) break;
    const Pending& task = queue_.find(seq)->second;
    // A task that is both expired and preferred-free assigns locally, so
    // ties between the candidates resolve in favour of A.
    const bool local = seq == a_seq;
    const int executor =
        local ? find_free_preferred(task.preferred) : *free_execs_.begin();
    take_slot(executor);
    out.push_back(Assignment{task.task, executor, local});
    ++total_;
    if (local) ++local_;
    remove_task(seq, task);
  }
  return out;
}

util::TimeNs TaskScheduler::next_expiry() const {
  if (with_pref_.empty()) return -1;
  return queue_.find(*with_pref_.begin())->second.enqueued + locality_wait_;
}

}  // namespace evolve::dataflow
