#include "fault/partition.hpp"

#include <stdexcept>
#include <utility>

namespace evolve::fault {

PartitionInjector::PartitionInjector(sim::Simulation& sim, net::Fabric& fabric,
                                     PartitionInjectorConfig config)
    : sim_(sim), fabric_(fabric), config_(config), rng_(config.seed) {}

PartitionId PartitionInjector::split(
    const std::vector<std::vector<cluster::NodeId>>& sides) {
  if (sides.size() < 2) {
    throw std::invalid_argument("split needs at least two sides");
  }
  Edict e;
  e.labels.assign(static_cast<std::size_t>(fabric_.topology().host_count()), 0);
  for (std::size_t s = 0; s < sides.size(); ++s) {
    for (const cluster::NodeId node : sides[s]) {
      e.labels.at(static_cast<std::size_t>(node)) = static_cast<int>(s) + 1;
    }
  }
  return install(std::move(e));
}

PartitionId PartitionInjector::isolate(
    const std::vector<cluster::NodeId>& nodes) {
  if (nodes.empty()) throw std::invalid_argument("isolate: no nodes");
  Edict e;
  // The complement gets its own side so isolated ↔ rest blocks both ways
  // while traffic inside each side keeps flowing.
  e.labels.assign(static_cast<std::size_t>(fabric_.topology().host_count()), 2);
  for (const cluster::NodeId node : nodes) {
    e.labels.at(static_cast<std::size_t>(node)) = 1;
  }
  return install(std::move(e));
}

PartitionId PartitionInjector::isolate_rack(int rack) {
  const net::Topology& topo = fabric_.topology();
  if (rack < 0 || rack >= topo.rack_count()) {
    throw std::invalid_argument("isolate_rack: no such rack");
  }
  std::vector<cluster::NodeId> nodes;
  for (cluster::NodeId h = 0; h < topo.host_count(); ++h) {
    if (topo.rack_of(h) == rack) nodes.push_back(h);
  }
  if (nodes.empty()) throw std::invalid_argument("isolate_rack: empty rack");
  return isolate(nodes);
}

PartitionId PartitionInjector::asymmetric(
    const std::vector<cluster::NodeId>& from,
    const std::vector<cluster::NodeId>& to) {
  if (from.empty() || to.empty()) {
    throw std::invalid_argument("asymmetric partition: empty side");
  }
  Edict e;
  e.asymmetric = true;
  e.labels.assign(static_cast<std::size_t>(fabric_.topology().host_count()), 0);
  for (const cluster::NodeId node : from) {
    e.labels.at(static_cast<std::size_t>(node)) |= 1;
  }
  for (const cluster::NodeId node : to) {
    e.labels.at(static_cast<std::size_t>(node)) |= 2;
  }
  return install(std::move(e));
}

void PartitionInjector::heal(PartitionId id) {
  const auto it = edicts_.find(id);
  if (it == edicts_.end()) return;
  edicts_.erase(it);
  ++heals_;
  if (edicts_.empty()) any_active_.add(sim_.now(), -1);
  rebuild();
  for (const PartitionFn& fn : heal_subs_) fn(sim_.now());
}

void PartitionInjector::heal_all() {
  while (!edicts_.empty()) heal(edicts_.begin()->first);
}

void PartitionInjector::schedule_split(
    std::vector<std::vector<cluster::NodeId>> sides, util::TimeNs at,
    util::TimeNs duration) {
  if (duration <= 0) throw std::invalid_argument("partition duration <= 0");
  sim_.at(at, [this, sides = std::move(sides), duration] {
    const PartitionId id = split(sides);
    sim_.after(duration, [this, id] { heal(id); });
  });
}

void PartitionInjector::schedule_rack_isolation(int rack, util::TimeNs at,
                                                util::TimeNs duration) {
  if (duration <= 0) throw std::invalid_argument("partition duration <= 0");
  sim_.at(at, [this, rack, duration] {
    const PartitionId id = isolate_rack(rack);
    sim_.after(duration, [this, id] { heal(id); });
  });
}

void PartitionInjector::schedule_asymmetric(std::vector<cluster::NodeId> from,
                                            std::vector<cluster::NodeId> to,
                                            util::TimeNs at,
                                            util::TimeNs duration) {
  if (duration <= 0) throw std::invalid_argument("partition duration <= 0");
  sim_.at(at, [this, from = std::move(from), to = std::move(to), duration] {
    const PartitionId id = asymmetric(from, to);
    sim_.after(duration, [this, id] { heal(id); });
  });
}

void PartitionInjector::random_partitions(double mtbp_s,
                                          double mean_duration_s,
                                          util::TimeNs until) {
  if (mtbp_s <= 0 || mean_duration_s <= 0) {
    throw std::invalid_argument("MTBP and mean duration must be > 0");
  }
  processes_.push_back(
      RandomProcess{mtbp_s, mean_duration_s, until, rng_.fork()});
  arm_random(processes_.size() - 1);
}

void PartitionInjector::arm_random(std::size_t process) {
  RandomProcess& p = processes_[process];
  const auto gap =
      static_cast<util::TimeNs>(p.rng.exponential(1.0 / p.mtbp_s) * 1e9);
  const util::TimeNs when = sim_.now() + gap;
  if (when > p.until) return;  // process expires: no more partitions start
  sim_.at(when, [this, process] {
    RandomProcess& rp = processes_[process];
    const int racks = fabric_.topology().rack_count();
    const int rack = static_cast<int>(rp.rng.uniform_int(0, racks - 1));
    const auto duration = static_cast<util::TimeNs>(
        rp.rng.exponential(1.0 / rp.mean_duration_s) * 1e9);
    const PartitionId id = isolate_rack(rack);
    sim_.after(std::max<util::TimeNs>(duration, 1), [this, id] { heal(id); });
    arm_random(process);
  });
}

PartitionId PartitionInjector::install(Edict edict) {
  const PartitionId id = next_id_++;
  if (edicts_.empty()) any_active_.add(sim_.now(), +1);
  edicts_.emplace(id, std::move(edict));
  ++partitions_injected_;
  rebuild();
  for (const PartitionFn& fn : partition_subs_) fn(sim_.now());
  return id;
}

bool PartitionInjector::edict_blocks(const Edict& e, int from_label,
                                     int to_label) {
  if (e.asymmetric) return (from_label & 1) != 0 && (to_label & 2) != 0;
  return from_label != to_label && from_label != 0 && to_label != 0;
}

void PartitionInjector::rebuild() {
  if (edicts_.empty()) {
    fabric_.clear_partitions();
    return;
  }
  const auto hosts =
      static_cast<std::size_t>(fabric_.topology().host_count());
  // A host's reachability class is its label signature across the active
  // edicts (edict-id order, so the classes are deterministic).
  std::vector<std::vector<int>> sig(hosts);
  for (std::size_t h = 0; h < hosts; ++h) sig[h].reserve(edicts_.size());
  for (const auto& [id, e] : edicts_) {
    for (std::size_t h = 0; h < hosts; ++h) sig[h].push_back(e.labels[h]);
  }
  std::map<std::vector<int>, int> class_of;
  std::vector<int> host_group(hosts, 0);
  std::vector<const std::vector<int>*> class_sig;
  for (std::size_t h = 0; h < hosts; ++h) {
    const auto [it, inserted] =
        class_of.emplace(sig[h], static_cast<int>(class_sig.size()));
    if (inserted) class_sig.push_back(&it->first);
    host_group[h] = it->second;
  }
  const std::size_t g = class_sig.size();
  std::vector<std::vector<char>> blocked(g, std::vector<char>(g, 0));
  std::size_t ei = 0;
  for (const auto& [id, e] : edicts_) {
    // Same-class pairs are checked too: an asymmetric edict can label one
    // host with both the from and to bits, blocking traffic between two
    // distinct hosts of the same class (loopback is exempt in the fabric).
    for (std::size_t a = 0; a < g; ++a) {
      for (std::size_t b = 0; b < g; ++b) {
        if (blocked[a][b]) continue;
        if (edict_blocks(e, (*class_sig[a])[ei], (*class_sig[b])[ei])) {
          blocked[a][b] = 1;
        }
      }
    }
    ++ei;
  }
  fabric_.set_reachability(std::move(host_group), std::move(blocked));
}

}  // namespace evolve::fault
